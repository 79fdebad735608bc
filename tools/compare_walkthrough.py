"""Run the benchmark's README walkthrough on two source trees and list the
output files that differ.

    python3 tools/compare_walkthrough.py TREE_A TREE_B --workload desk --seed 0

Each tree's own ``bench/workloads.py`` plans the walkthrough (plant,
training configs, the argv of every stage) and its own ``src`` runs it,
once per tree, in a fresh Python process with one BLAS thread.  Both runs
write under the same path, so the paths the outputs record match.  Every
output file is then compared byte for byte, except that each
``manifest.json`` is compared as JSON without its ``wall_time_s``, the one
value that changes from run to run.  The differing files are listed; the
exit status is 0 when none differs, 1 when some file differs, and 2 when a
stage of either run fails.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

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


def _same(a: str, b: str) -> bool:
    """Whether two files match: byte for byte, or for a ``manifest.json``
    as JSON without ``WALL_TIME``."""
    if os.path.basename(a) != "manifest.json":
        return filecmp.cmp(a, b, shallow=False)
    manifests = []
    for path in (a, b):
        with open(path) as fh:
            manifests.append(json.load(fh))
        manifests[-1].pop(WALL_TIME, None)
    return manifests[0] == manifests[1]


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
        print(f"differs: {rel}")
    print(f"{args.workload} seed {args.seed}: {len(diff)} of {total} files differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
