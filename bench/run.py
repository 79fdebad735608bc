"""Pipeline benchmark: the README's CLI walkthrough, stage by stage.

    python3 bench/run.py --workload desk --seed 0 --seconds 56 --trace 0

Run from the repository root.  One process per run: the package is
imported once, then each stage of the walkthrough (synth, train-bare,
finetune, eval, analyze-spectrum, fit-tan, suzuki-verify, report) is one
call of ``tanfold.cli.main``, timed on its own and bracketed by timings of
a fixed reference kernel (``hostspeed.py``).  BLAS runs on one thread.  A
round is one whole walkthrough followed by its correctness checks; a run
repeats rounds while the next one fits in ``--seconds``.  Round 0 warms
the process up and is checked but not timed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians
over the timed rounds of the stage times adjusted to the reference
kernel's nominal speed.
``--trace 1`` alternates traced and untraced rounds after round 0 (at
least one of each) and reports the per-layer metrics of the traced
rounds, plus the tracing overhead against the untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes its record (environment, result fingerprint, per-round times,
check messages) under ``bench/_runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")

#: at least this many set-ups (synth calls) per untraced run, for setup_s
MIN_SETUPS = 3

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "SCIPY_OPENBLAS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# One BLAS thread, set before NumPy loads: on a machine of a few shared
# cores, BLAS threads that wait on each other time the host's scheduler
# rather than the program (README, "How a run works").
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "loadavg": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def store_key(env: dict) -> str:
    """SHA-256 of the package sources and the numerical environment: keys
    the cross-run digest store, since BLAS builds and thread counts may
    round differently."""
    h = hashlib.sha256(json.dumps([env[k] for k in ("python", "numpy", "scipy", "blas", "blas_threads")]).encode())
    pkg = os.path.join(SRC, "tanfold")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


class Run:
    """One benchmark run: rounds, checks, and the record they leave."""

    def __init__(self, workload, seed: int, trace: bool, main, checks, env):
        from workloads import seeds_for, write_configs

        self.workload = workload
        self.seed = seed
        self.main = main
        self.checks = checks
        self.env = env
        self.seeds = seeds_for(seed)
        self.dir = os.path.join(RUNS, f"{workload.name}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.configs = write_configs(workload, self.dir)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.rounds: list[dict] = []
        self.setup_times: list[float] = []
        self.reference: dict | None = None
        self.fingerprint: dict = {}

    # -- operations -----------------------------------------------------------

    def _op(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            msg = fn(*args)
            self.messages.append(f"PASS {name}: {msg}")
        except Exception as exc:  # a failing check is counted, the run goes on
            self.failed += 1
            self.messages.append(f"FAIL {name}: {type(exc).__name__}: {exc}")

    def _stage(self, stage, argv, tracer):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = self.main(argv)
                else:
                    code = tracer.span(f"cli.{stage}", self.main, (argv,), {}, None)
            except Exception as exc:  # recorded as a failed stage by check 1
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        output = buf.getvalue()
        if code != 0:
            self.messages.append(f"stage {stage} exited {code}: {output.strip()[-400:]}")
        return code, elapsed, output

    # -- a round ---------------------------------------------------------------

    def round(self, k: int, tracer=None) -> None:
        import hostspeed
        from workloads import stage_argv

        gc.collect()
        root = os.path.join(self.dir, f"r{k}")
        codes, times, rss, outputs, probes = {}, {}, {}, {}, []
        if tracer is not None:
            tracer.spans = []
            tracer.install()
        try:
            for stage, argv in stage_argv(self.workload, self.configs, self.seeds, root):
                probes.append(hostspeed.probe())
                codes[stage], times[stage], outputs[stage] = self._stage(stage, argv, tracer)
                rss[stage] = peak_rss_mb()
            probes.append(hostspeed.probe())
        finally:
            if tracer is not None:
                tracer.uninstall()
        adjusted = {stage: hostspeed.adjust(t, probes[i], probes[i + 1]) for i, (stage, t) in enumerate(times.items())}
        record = {"round": k, "traced": tracer is not None, "stage_s": times, "adjusted_s": adjusted,
                  "probe_s": probes, "peak_rss_mb": rss}
        if tracer is None and k > 0:  # round 0 warms the process up and is not timed
            self.setup_times.append(adjusted["synth"])
        self.check_round(root, {"exit_codes": codes, "outputs": outputs}, record)
        shutil.rmtree(root, ignore_errors=True)
        self.rounds.append(record)

    def check_round(self, root, cache, record) -> None:
        for name, check in self.checks.CHECKS:
            self._op(name, check, root, self.workload, cache)
        self._op("7 determinism", self.check_determinism, root, record)

    def check_determinism(self, root, record) -> str:
        """7. Output files hash the same as the first round's, and the first
        round's as the first run's of this workload, seed, source and
        environment."""
        digests = {"all": self.checks.digest(root), "data": self.checks.digest(os.path.join(root, "data"))}
        record["digest"] = digests["all"]
        if self.reference is None:
            self.reference = digests
            self.fingerprint = fingerprint(root, digests["all"])
            store = os.path.join(RUNS, "digests")
            os.makedirs(store, exist_ok=True)
            path = os.path.join(store, f"{self.workload.name}-seed{self.seed}-{store_key(self.env)}.txt")
            if os.path.exists(path):
                with open(path) as fh:
                    first = fh.read().strip()
                if first != digests["all"]:
                    raise self.checks.CheckFailed(f"outputs hash {digests['all'][:12]}, first run's {first[:12]}")
                return "outputs hash the same as the first run's"
            with open(path + ".tmp", "w") as fh:
                fh.write(digests["all"] + "\n")
            os.replace(path + ".tmp", path)
            return "first run of this workload, seed, source and environment: digest recorded"
        if digests != self.reference:
            raise self.checks.CheckFailed(f"round {record['round']} outputs differ from round 0's")
        return "outputs hash the same as round 0's"

    def extra_setup(self, k: int) -> None:
        """A set-up alone (synth), when too few rounds fit in the run."""
        import hostspeed
        from workloads import stage_argv

        gc.collect()
        root = os.path.join(self.dir, f"s{k}")
        stage, argv = stage_argv(self.workload, self.configs, self.seeds, root)[0]
        before = hostspeed.probe()
        code, elapsed, _ = self._stage(stage, argv, None)
        self.setup_times.append(hostspeed.adjust(elapsed, before, hostspeed.probe()))

        def same_dataset():
            if code != 0:
                raise self.checks.CheckFailed(f"synth exited {code}")
            if self.checks.digest(os.path.join(root, "data")) != self.reference["data"]:
                raise self.checks.CheckFailed("repeated set-up wrote another dataset")
            return f"repeated set-up in {elapsed:.3f} s wrote the same dataset"

        self._op("set-up repeat", same_dataset)
        shutil.rmtree(root, ignore_errors=True)


def fingerprint(root, output_digest) -> dict:
    """Final losses, MAEs, the fitted tangent law and the output digest."""
    from checks import read_csv, read_fit_report

    out = {"output_digest": output_digest}
    try:
        for stage in ("stage1", "stage2"):
            rep = read_fit_report(os.path.join(root, "run", stage, "fit_report.txt"))
            for key in ("initial_loss", "final_loss", "train_mae", "test_mae"):
                out[f"{stage}.{key}"] = float(rep[key])
        maes = [float(x) for x in read_csv(os.path.join(root, "run", "eval", "mae.csv"))["mae"]]
        out["eval.mean_mae"] = sum(maes) / len(maes)
        with open(os.path.join(root, "run", "fit", "tanfit.json")) as fh:
            out.update({f"tanfit.{k}": v for k, v in json.load(fh).items()})
    except (OSError, KeyError, ValueError) as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


def stage_medians(rounds, key="adjusted_s") -> dict[str, float]:
    """Median over rounds of each stage's time (adjusted by default, wall
    with ``key="stage_s"``), of the read-out group and of the whole
    walkthrough."""
    from workloads import STAGES

    groups = {stage: (stage,) for stage in STAGES}
    groups["readout"] = ("analyze-spectrum", "fit-tan", "report")
    groups["total"] = STAGES
    return {name: statistics.median(sum(r[key][s] for s in stages) for r in rounds)
            for name, stages in groups.items()}


def end_to_end(rounds, first, setup_times) -> dict[str, float]:
    """The end-to-end metrics: adjusted times (hostspeed.py), medians over
    the timed rounds.  The stage times of finetune, eval, the read-out and
    suzuki-verify are folded into total_s (README: they do not repeat
    closely enough on this class of machine)."""
    med = stage_medians(rounds)
    return {
        "setup_s": statistics.median(setup_times),
        "train_bare_s": med["train-bare"],
        "total_s": med["total"],
        # the walkthrough's peak: the first round's, read before any check ran
        "peak_rss_mb": max(first["peak_rss_mb"].values()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tanfold", "cli.py")):
        sys.stderr.write(f"bench: no tanfold package under {SRC}; run from a checkout of the repository\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import checks
    import tracing
    from tanfold.cli import main as tanfold_main
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    env = environment()
    run = Run(WORKLOADS[args.workload], args.seed, bool(args.trace), tanfold_main, checks, env)

    deadline = time.perf_counter() + args.seconds
    walls: list[float] = []
    tracer = tracing.Tracer() if args.trace else None
    layer_rounds, span_dump = [], []
    # round 0 warms up; then untraced rounds, or traced (odd) and untraced
    # (even) rounds alternating
    min_rounds = 3 if tracer is not None else 2
    while True:
        traced = tracer is not None and len(walls) % 2 == 1
        t0 = time.perf_counter()
        run.round(len(walls), tracer if traced else None)
        walls.append(time.perf_counter() - t0)
        if traced:
            layer_rounds.append(tracing.layer_metrics(tracer.spans))
            span_dump.append([[s[0], s[1] - tracer.spans[0][1], s[2] - s[1], s[3]] for s in tracer.spans])
        if len(walls) < min_rounds:
            continue
        if time.perf_counter() + statistics.median(walls) > deadline:
            break
    if tracer is None:
        k = 0
        while len(run.setup_times) < MIN_SETUPS:
            run.extra_setup(k)
            k += 1

    untraced = [r for r in run.rounds if not r["traced"] and r["round"] > 0]
    if tracer is None:
        values = end_to_end(untraced, run.rounds[0], run.setup_times)
        declared = spec["end_to_end"]
    else:
        values = tracing.median_metrics(layer_rounds)
        traced_total = statistics.median(sum(r["adjusted_s"].values()) for r in run.rounds if r["traced"])
        values["trace.overhead_s"] = traced_total - stage_medians(untraced)["total"]
        declared = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise SystemExit(f"bench: metrics {sorted(set(units) ^ set(values))} disagree with BENCHMARK.json")
    absent = [f"{name} (metrics {tracing.ABSENT_METRICS.get(name, name)}*)" for name in
              (tracer.absent if tracer else [])]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "seeds": run.seeds, "environment": env, "fingerprint": run.fingerprint,
        "metrics": values, "absent": absent, "attempted": run.attempted, "failed": run.failed,
        "rounds": run.rounds, "setup_s": run.setup_times, "checks": run.messages,
    }
    with open(run.dir + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if span_dump:
        with open(run.dir + ".spans.json", "w") as fh:
            json.dump({"fields": ["name", "start_s", "duration_s", "parent"], "rounds": span_dump}, fh)
    shutil.rmtree(run.dir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {len(run.rounds)} rounds, "
          f"{len(run.setup_times)} set-ups; record {os.path.relpath(run.dir, ROOT)}.json")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("fingerprint: " + json.dumps(run.fingerprint, sort_keys=True))
    for line in run.messages:
        print(line)
    for name in absent:
        print(f"absent: {name}")
    wall = stage_medians(untraced, "stage_s")
    for name, value in stage_medians(untraced).items():
        print(f"stage {name:20s} adjusted {value:10.6g} s, wall {wall[name]:10.6g} s "
              f"(median over {len(untraced)} timed rounds)")
    for m in declared:
        print(f"{m['name']:42s} {values[m['name']]:14.6g} {m['unit']}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
