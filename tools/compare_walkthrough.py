"""Run the benchmark's README walkthrough on two source trees and list the
output files that differ.

    python3 tools/compare_walkthrough.py TREE_A TREE_B --workload desk --seed 0

Each tree's own ``bench/workloads.py`` plans the walkthrough (plant,
training configs, the argv of every stage) and its own ``src`` runs it,
once per tree, in a fresh Python process with one BLAS thread.  Both runs
write under the same path, so the paths the outputs record match.  Every
output file is then compared byte for byte, except that each
``manifest.json`` is compared as JSON without its ``wall_time_s``, the one
value that changes from run to run.  The differing files are listed, each
with the largest relative difference |x - y| / max(|x|, |y|) of the numbers
it holds (:func:`largest_relative_difference`), or "structure differs"
where its numbers do not pair up.  The exit status is 0 when no file
differs, 1 when some file differs, and 2 when a stage of either run fails.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "SCIPY_OPENBLAS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: a manifest's one value that changes from run to run of one tree
WALL_TIME = "wall_time_s"

#: the walkthrough in a child process: argv is tree, workload, seed, root
_CHILD = """
import os, sys
tree, name, seed, root = sys.argv[1:]
sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
from tanfold.cli import main
from workloads import WORKLOADS, seeds_for, stage_argv, write_configs
workload = WORKLOADS[name]
os.makedirs(root)
for stage, argv in stage_argv(workload, write_configs(workload, root), seeds_for(int(seed)), root):
    code = main(argv)
    if code != 0:
        sys.exit(f"{tree}: stage {stage} exited {code}")
"""


def run_walkthrough(tree: str, workload: str, seed: int, root: str) -> bool:
    """Run the walkthrough of ``tree`` writing under ``root``; True when
    every stage exits 0."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{v: "1" for v in THREAD_VARS})
    proc = subprocess.run([sys.executable, "-c", _CHILD, tree, workload, str(seed), root],
                          env=env, stdout=subprocess.DEVNULL)
    return proc.returncode == 0


def _manifest(path: str) -> dict:
    """A ``manifest.json`` without its ``WALL_TIME``."""
    with open(path) as fh:
        manifest = json.load(fh)
    manifest.pop(WALL_TIME, None)
    return manifest


def _same(a: str, b: str) -> bool:
    """Whether two files match: byte for byte, or for a ``manifest.json``
    as JSON without ``WALL_TIME``."""
    if os.path.basename(a) != "manifest.json":
        return filecmp.cmp(a, b, shallow=False)
    return _manifest(a) == _manifest(b)


def _relative(x, y) -> float:
    """The largest |x - y| / max(|x|, |y|) over two equal-shaped arrays: 0
    where they are equal (NaN against NaN included), inf where a
    non-finite value meets another value."""
    x, y = np.asarray(x), np.asarray(y)
    dtype = np.result_type(x, y, np.float64)
    x, y = x.astype(dtype), y.astype(dtype)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
    rel = np.where((x == y) | (np.isnan(x) & np.isnan(y)), 0.0, rel)
    return float(np.where(np.isnan(rel), np.inf, rel).max(initial=0.0))


#: what separates the tokens of a text file: blanks and JSON/CSV punctuation
_SEPARATORS = re.compile(r'[\s,:"\[\]{}]+')


def _numbers(path: str) -> tuple[list[str | None], list[float]] | None:
    """A UTF-8 text file's tokens, None in place of each that parses as a
    float, and those floats; None for a file that is not UTF-8 text."""
    if os.path.basename(path) == "manifest.json":
        text = json.dumps(_manifest(path))
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError:
            return None
    words, numbers = [], []
    for token in _SEPARATORS.split(text):
        try:
            numbers.append(float(token))
        except ValueError:
            words.append(token)
        else:
            words.append(None)
    return words, numbers


def largest_relative_difference(a: str, b: str) -> float | None:
    """The largest relative difference between two versions of a file, or
    None when their structure differs.

    Two ``.npz`` archives are compared over the numeric members that share
    a name and a shape.  Two text files are compared over the tokens that
    parse as floats, when their tokens line up one to one: as many of them,
    and the others equal.
    """
    if not (os.path.isfile(a) and os.path.isfile(b)):
        return None
    if a.endswith(".npz"):
        with np.load(a, allow_pickle=False) as za, np.load(b, allow_pickle=False) as zb:
            pairs = [(za[k], zb[k]) for k in sorted(set(za.files) & set(zb.files))]
        pairs = [(x, y) for x, y in pairs if x.shape == y.shape and
                 x.dtype.kind in "biufc" and y.dtype.kind in "biufc"]
        return max((_relative(x, y) for x, y in pairs), default=None)
    tokens = [_numbers(path) for path in (a, b)]
    if None in tokens or tokens[0][0] != tokens[1][0]:
        return None
    return _relative(tokens[0][1], tokens[1][1])


def differing_files(a: str, b: str) -> tuple[list[str], int]:
    """Relative paths of the files under ``a`` and ``b`` that exist in only
    one of them or do not match (:func:`_same`), and the number of files
    compared."""
    def files(root):
        return {os.path.relpath(os.path.join(d, f), root)
                for d, _, names in os.walk(root) for f in names}

    in_a, in_b = files(a), files(b)
    diff = (in_a ^ in_b) | {
        rel for rel in in_a & in_b if not _same(os.path.join(a, rel), os.path.join(b, rel))
    }
    return sorted(diff), len(in_a | in_b)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, metavar="TREE", help="repository checkout")
    parser.add_argument("--workload", required=True, help="a workload of bench/workloads.py")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="compare-walkthrough-") as tmp:
        root = os.path.join(tmp, "run")
        outputs = []
        for i, tree in enumerate(args.trees):
            if not run_walkthrough(os.path.abspath(tree), args.workload, args.seed, root):
                return 2
            outputs.append(os.path.join(tmp, f"tree{i}"))
            shutil.move(root, outputs[-1])
        diff, total = differing_files(*outputs)
        for rel in diff:
            largest = largest_relative_difference(*(os.path.join(out, rel) for out in outputs))
            note = "structure differs" if largest is None else f"largest relative difference {largest:.2g}"
            print(f"differs: {rel}  ({note})")
    print(f"{args.workload} seed {args.seed}: {len(diff)} of {total} files differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
