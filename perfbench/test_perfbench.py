"""Tests of the benchmark itself: span arithmetic, patch hygiene, and a
tiny end-to-end run of every workload in both modes."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED, Tracer, self_times  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_union_of_children():
    # root [0, 10] has children [1, 3] and [2, 5], which overlap, and
    # [8, 12], which runs past its parent; [1, 3] has a child [1.5, 2].
    start = np.array([0.0, 1.0, 2.0, 8.0, 1.5])
    end = np.array([10.0, 3.0, 5.0, 12.0, 2.0])
    parent = np.array([-1, 0, 0, 0, 1])
    own = self_times(start, end, parent)
    np.testing.assert_allclose(own, [10.0 - 4.0 - 2.0, 1.5, 3.0, 4.0, 0.5])


def test_tracer_records_nesting_and_counts():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: (inner(), inner()))
    outer()
    summary = tracer.summary()
    assert summary["m.outer"]["calls"] == 1
    assert summary["m.inner"]["calls"] == 2
    assert list(tracer.parent) == [-1, 0, 0]
    assert summary["m.outer"]["self_s"] <= summary["m.outer"]["total_s"]


def _bindings():
    """Every binding in the dissim modules and the loss classes."""
    modules = {n: m for n, m in sys.modules.items()
               if n == "dissim" or n.startswith("dissim.")}
    snapshot = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    losses = sys.modules["dissim.losses"]
    for name, cls in vars(losses).items():
        if isinstance(cls, type) and issubclass(cls, losses.LossFunction):
            snapshot.update({(name, k): v for k, v in vars(cls).items()})
    return snapshot


def test_install_wraps_every_binding_and_uninstall_restores_all():
    import dissim  # noqa: F401
    from dissim import losses, thetasolver, trainer

    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert trainer.cccp_w is not before[("dissim.wsolver", "cccp_w")]
        assert thetasolver.expected_loss_table is not before[
            ("dissim.losses", "expected_loss_table")]
        assert losses.latent_posterior is not before[("dissim.model", "latent_posterior")]
        assert dissim.train is trainer.train
        for module, names in TRACED.items():
            for name in names:
                assert getattr(sys.modules[module], name) is not before[(module, name)]
        assert losses.OverlapLoss.pair_matrix is not before[("OverlapLoss", "pair_matrix")]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def _tiny(wl):
    return dataclasses.replace(wl, per_class=2, tasks=1, folds=1,
                               C_grid=wl.C_grid[:2])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_named_metric(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, name, _tiny(workloads.WORKLOADS[name]))
    lines = []
    monkeypatch.setattr("builtins.print", lambda *a, **k: lines.append(" ".join(map(str, a))))
    args = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(args) == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert np.isfinite(got["value"])
    if trace:
        assert (tmp_path / f"trace-{name}.npz").is_file()
    assert any(line.startswith("machine ") for line in lines)


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    args = ["--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0"]
    assert run.main(args) == 2
