"""Spans around the calls into each layer of ``tanfold``, recorded from the
benchmark's own code.

:class:`Tracer` replaces each traced function, wherever a ``tanfold``
module holds it (its own module and every ``from ... import``), by a
wrapper that records ``(name, start, end, parent, info)`` in memory while
the tracer is installed.  ``info`` carries what the layer metrics need
beyond time: flops and bytes computed from the array shapes, sample and
geometry counts.  Private functions are wrapped by module attribute; when
one is missing its metrics are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

import numpy as np

from checks import GROUPS, orbit_codes


def _net_flops(net, rows: int) -> int:
    return 2 * rows * sum(a * b for a, b in zip(net.sizes[:-1], net.sizes[1:]))


def _forward_info(args, kwargs, result):
    net, x = args[0], args[1]
    return {"flops": _net_flops(net, np.shape(x)[0])}


def _backward_info(args, kwargs, result):
    # weight gradients plus the delta propagated through every layer
    net, grad_out = args[0], args[2]
    return {"flops": 2 * _net_flops(net, np.shape(grad_out)[0])}


def _adam_info(args, kwargs, result):
    # read p, g, m, v and write p, m, v: seven float64 accesses per element
    return {"bytes": 7 * 8 * sum(p.size for p in args[0])}


def _batch_loss_info(args, kwargs, result):
    samples, sel = args[4], args[5]
    return {"samples": int(sel.size), "full": int(sel.size) == int(samples.y.size)}


def _polish_info(args, kwargs, result):
    samples, w_base = args[2], args[3]
    return {"bytes": 8 * int(samples.y.size) * int(w_base.shape[0]) ** 2}


def _entries_info(args, kwargs, result):
    # one-body pairs p <= q plus one entry per two-body orbit, per tensor set
    return {"entries": sum(t.n_orb * (t.n_orb + 1) // 2
                           + np.unique(orbit_codes(t.n_orb, GROUPS[t.kind.value])).size
                           for t in result.series.tensor_sets)}


def _save_info(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


def _load_info(args, kwargs, result):
    d = args[0]
    return {"bytes": sum(os.path.getsize(os.path.join(d, n)) for n in os.listdir(d) if n.endswith(".tensor"))}


def _eval_info(args, kwargs, result):
    return {"geometries": len(result)}


#: (module, attribute, span name, info); "Class.method" attributes patch the class
TARGETS = (
    ("tanfold.synth", "plant_series", "synth.plant_series", _entries_info),
    ("tanfold.tensors", "save_series", "tensors.save_series", _save_info),
    ("tanfold.tensors", "load_series", "tensors.load_series", _load_info),
    ("tanfold.tensors", "TensorSet.__post_init__", "tensors.TensorSet", None),
    ("tanfold.tensors", "two_body_representatives", "tensors.two_body_representatives", None),
    ("tanfold.nn", "OrbitalNet.forward", "nn.forward", _forward_info),
    ("tanfold.nn", "OrbitalNet.backward", "nn.backward", _backward_info),
    ("tanfold.nn", "adam_step", "nn.adam_step", _adam_info),
    ("tanfold.training", "_batch_loss", "training.batch_loss", _batch_loss_info),
    ("tanfold.training", "_solve_kernel", "training.kernel_polish", _polish_info),
    ("tanfold.training", "train_bare", "training.train_bare", None),
    ("tanfold.training", "finetune_effective", "training.finetune_effective", None),
    ("tanfold.training", "evaluate_mae", "training.evaluate_mae", _eval_info),
    ("tanfold.training", "save_model", "training.save_model", None),
    ("tanfold.training", "load_model", "training.load_model", None),
    ("tanfold.spectral", "eig_sym", "spectral.eig_sym", None),
    ("tanfold.spectral", "align_eigensystems", "spectral.align_eigensystems", None),
    ("tanfold.tanmodel", "fit_tan", "tanmodel.fit_tan", None),
    ("tanfold.suzuki", "verify_w_identity", "suzuki.verify_w_identity", None),
) + tuple(
    ("tanfold.reports", f, f"reports.{f}", None)
    for f in ("write_csv", "write_mae_csv", "write_overlap_csv", "write_difference_csv",
              "write_tanfit_csv", "write_tanfit_json", "write_json", "fit_report_text")
)


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores every
    patched attribute."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, info]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def span(self, name, fn, args, kwargs, info):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if info is not None:
            record[4] = info(args, kwargs, result)
        return result

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs, info)

        return wrapper

    def install(self) -> None:
        self.absent = []
        modules = [m for n, m in sys.modules.items() if n == "tanfold" or n.startswith("tanfold.")]
        for mod_name, attr, name, info in TARGETS:
            module = importlib.import_module(mod_name)
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(name, original, info)
            if owner:
                self._patch(holder, leaf, original, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, holder, key, original, wrapper) -> None:
        setattr(holder, key, wrapper)
        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched = []


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced round (every ``ms`` is a round total)."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def pick(name, pred=None):
        return [i for i, s in enumerate(spans) if s[0] == name and (pred is None or pred(s))]

    def calls(name, pred=None):
        return float(len(pick(name, pred)))

    def secs(name, pred=None):
        return sum(dur[i] for i in pick(name, pred))

    def info(name, key, pred=None):
        return sum(spans[i][4][key] for i in pick(name, pred))

    def rate(amount, seconds, scale=1.0):
        return amount / seconds / scale if seconds > 0 else 0.0

    def is_full(s):
        return s[4]["full"]

    def is_subset(s):
        return not s[4]["full"]

    m = {}
    m["synth.plant_series.ms"] = 1e3 * secs("synth.plant_series")
    m["synth.plant_series.entries_per_s"] = rate(info("synth.plant_series", "entries"), secs("synth.plant_series"))
    m["tensors.save_series.ms"] = 1e3 * secs("tensors.save_series")
    m["tensors.save_series.mb_per_s"] = rate(info("tensors.save_series", "bytes"), secs("tensors.save_series"), 1e6)
    for name in ("tensors.load_series", "tensors.TensorSet", "tensors.two_body_representatives"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.ms"] = 1e3 * secs(name)
    m["tensors.load_series.mb_per_s"] = rate(info("tensors.load_series", "bytes"), secs("tensors.load_series"), 1e6)
    for name in ("nn.forward", "nn.backward"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.ms"] = 1e3 * secs(name)
        m[f"{name}.gflop_per_s"] = rate(info(name, "flops"), secs(name), 1e9)
    m["nn.adam_step.calls"] = calls("nn.adam_step")
    m["nn.adam_step.ms"] = 1e3 * secs("nn.adam_step")
    m["nn.adam_step.mb_per_s"] = rate(info("nn.adam_step", "bytes"), secs("nn.adam_step"), 1e6)
    m["training.batch_loss.full.calls"] = calls("training.batch_loss", is_full)
    m["training.batch_loss.full.ms"] = 1e3 * secs("training.batch_loss", is_full)
    m["training.batch_loss.subset.calls"] = calls("training.batch_loss", is_subset)
    m["training.batch_loss.subset.ms"] = 1e3 * secs("training.batch_loss", is_subset)
    m["training.batch_loss.samples_per_s"] = rate(info("training.batch_loss", "samples"), secs("training.batch_loss"))
    m["training.kernel_polish.calls"] = calls("training.kernel_polish")
    m["training.kernel_polish.ms"] = 1e3 * secs("training.kernel_polish")
    m["training.kernel_polish.design_mb"] = max([spans[i][4]["bytes"] for i in pick("training.kernel_polish")],
                                                default=0) / 1e6
    steps = calls("nn.adam_step")
    stage_self = sum(dur[i] - child[i] for name in ("training.train_bare", "training.finetune_effective")
                     for i in pick(name))
    m["training.steps"] = steps
    m["training.self_us_per_step"] = 1e6 * stage_self / steps if steps else 0.0
    m["training.evaluate_mae.calls"] = calls("training.evaluate_mae")
    m["training.evaluate_mae.ms"] = 1e3 * secs("training.evaluate_mae")
    m["training.evaluate_mae.geometries_per_s"] = rate(info("training.evaluate_mae", "geometries"),
                                                       secs("training.evaluate_mae"))
    m["training.save_model.ms"] = 1e3 * secs("training.save_model")
    m["training.load_model.ms"] = 1e3 * secs("training.load_model")
    m["spectral.eig_sym.ms"] = 1e3 * secs("spectral.eig_sym")
    m["spectral.align_eigensystems.ms"] = 1e3 * secs("spectral.align_eigensystems")
    m["tanmodel.fit_tan.ms"] = 1e3 * secs("tanmodel.fit_tan")
    m["suzuki.verify_w_identity.calls"] = calls("suzuki.verify_w_identity")
    m["suzuki.verify_w_identity.ms"] = 1e3 * secs("suzuki.verify_w_identity")
    m["reports.ms"] = 1e3 * sum(dur[i] for i, s in enumerate(spans) if s[0].startswith("reports.")
                                and (s[3] < 0 or not spans[s[3]][0].startswith("reports.")))
    m["cli.self_ms"] = 1e3 * sum(dur[i] - child[i] for i, s in enumerate(spans) if s[0].startswith("cli."))
    return m


#: metrics that a missing private function leaves without spans
ABSENT_METRICS = {
    "tanfold.training._batch_loss": "training.batch_loss.",
    "tanfold.training._solve_kernel": "training.kernel_polish.",
}


def median_metrics(rounds: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
