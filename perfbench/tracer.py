"""Span tracer that instruments the dissim package from outside.

``Tracer.install`` wraps each public training-path function at every
``dissim.*`` module namespace that binds it, so a call made through
``dissim.trainer.cccp_w`` or ``dissim.losses.latent_posterior`` is seen
no matter which module made it.  The loss classes' ``pair_matrix``
methods are wrapped with a bare counter, because they run hundreds of
thousands of times per fit and only their number matters.  ``uninstall``
puts every original object back.

A span is (name, start, end, parent, run id), stored in flat arrays so a
traced pass of a few million calls stays small.  Self time is a span's
duration minus the part of it that its child spans cover.  Counts taken
from return values (CCCP iterations, SSD steps, bytes read and written)
are kept alongside under ``<module>.<function>.<count>``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Public functions on the training path, by defining module.  gradcheck is
# not on that path and stays unmeasured.
TRACED = {
    "dissim.cli": ("main",),
    "dissim.synth": ("generate",),
    "dissim.dataio": ("save_dataset", "load_dataset", "save_results"),
    "dissim.trainer": ("run_protocol", "train", "evaluate"),
    "dissim.wsolver": ("cccp_w", "latent_impute"),
    "dissim.thetasolver": ("ssd_theta", "theta_objective"),
    "dissim.losses": ("expected_loss_table", "upper_bound", "regularized_objective"),
    "dissim.baselines": ("lsvm_train", "ilsvm_train", "ilsvm_latent_estimates"),
    "dissim.model": ("latent_posterior", "score_table", "predict"),
}
PAIR_MATRIX = "losses.pair_matrix"


def _short(module: str, name: str) -> str:
    return f"{module.removeprefix('dissim.')}.{name}"


def _count_hooks():
    """Per-function hooks turning (bound arguments, return value) into
    named counts."""

    def cccp(args, out):
        report = out[1]
        return {"iterations": report.iterations, "accepted": len(report.trace) - 1}

    def baseline(args, out):
        return {"iterations": out[1].iterations}

    def ssd(args, out):
        config = args["config"]
        n = len(args["dataset"])
        return {"steps": config.steps if config.steps is not None
                else config.steps_per_sample * n}

    def train(args, out):
        return {"rounds": len(out.trace) - 1}

    def protocol(args, out):
        return {"fit_s": sum(r.wallclock_seconds for r in out.rows)}

    def io_bytes(args, out):
        return {"bytes": os.path.getsize(args["path"])}

    return {
        "wsolver.cccp_w": cccp,
        "baselines.lsvm_train": baseline,
        "baselines.ilsvm_train": baseline,
        "thetasolver.ssd_theta": ssd,
        "trainer.train": train,
        "trainer.run_protocol": protocol,
        "dataio.save_dataset": io_bytes,
        "dataio.load_dataset": io_bytes,
    }


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.counts: Counter = Counter()
        self.run_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, hook=None):
        """A wrapper recording one span per call of ``fn``."""
        nid = self._name_id(name)
        stack = self._stack
        starts, ends = self.start, self.end
        names, parents, runs = self.name, self.parent, self.run
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in hook(bound.arguments, out).items():
                    self.counts[f"{name}.{key}"] += value
            return out

        return traced

    def count(self, name: str, fn):
        """A wrapper that only counts calls of ``fn``."""
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a dissim module binds it,
        and the loss classes' pair_matrix methods."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "dissim" or n.startswith("dissim."))]
        hooks = _count_hooks()
        for module_name, functions in TRACED.items():
            owner = sys.modules[module_name]
            for fn_name in functions:
                original = getattr(owner, fn_name)
                short = _short(module_name, fn_name)
                wrapper = self.wrap(short, original, hooks.get(short))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        losses = sys.modules["dissim.losses"]
        for value in list(vars(losses).values()):
            if (isinstance(value, type) and issubclass(value, losses.LossFunction)
                    and "pair_matrix" in vars(value)):
                original = vars(value)["pair_matrix"]
                self._patches.append((value, "pair_matrix", original))
                setattr(value, "pair_matrix", self.count(PAIR_MATRIX, original))

    def uninstall(self) -> None:
        """Restore every patched name, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total and self seconds."""
        spans = self.arrays()
        dur = spans["end"] - spans["start"]
        own = self_times(spans["start"], spans["end"], spans["parent"])
        out: dict[str, dict[str, float]] = {}
        by_name: dict[str, list[int]] = {}
        for nid, name in enumerate(self.names):
            by_name.setdefault(name, []).append(nid)
        for name, ids in by_name.items():
            mask = np.isin(spans["name"], ids)
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return out

    def dump(self, path) -> None:
        """Write the spans and counts out as one .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            count_names=np.array(sorted(self.counts)),
            count_values=np.array([self.counts[k] for k in sorted(self.counts)],
                                  dtype=np.float64),
            **self.arrays(),
        )


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span itself."""
    own = end - start
    children = np.flatnonzero(parent >= 0)
    order = children[np.lexsort((start[children], parent[children]))]
    current, cursor = -1, 0.0
    for c in order.tolist():
        p = int(parent[c])
        if p != current:
            current, cursor = p, float(start[p])
        lo = max(float(start[c]), cursor)
        hi = min(float(end[c]), float(end[p]))
        if hi > lo:
            own[p] -= hi - lo
            cursor = hi
    return own
