"""``scripts/fit_digests.py --against``: the fit diff on synthetic passes,
and a checkout against itself."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "fit_digests.py"
_spec = importlib.util.spec_from_file_location("fit_digests", _PATH)
fit_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fit_digests)

# run.outcome entries: key, repr of test loss and objective, failure reason
BASE = [
    ("t0/f0/dissim/zero_one/C0.1", "25.0", "4.0", ""),
    ("t0/f0/dissim/zero_one/C1.0", "50.0", "2.0", ""),
    ("t0/f0/lsvm/zero_one/C0.1", "nan", "nan", "SolverError: round 1: boom"),
]


def diff(head, base=BASE):
    return fit_digests.fit_diff([list(f) for f in base], [list(f) for f in head])


def test_same_passes_list_nothing():
    d = diff(BASE)
    assert d["changed"] == []
    assert d["summary"] == {
        "fits": [3, 3], "fits_changed": 0, "objectives_rose": 0,
        "largest_relative_rise": None, "test_loss_mean_delta": 0.0,
    }


def test_changed_fits_in_head_order():
    head = [
        ("t0/f0/dissim/zero_one/C0.1", "25.0", "5.0", ""),  # objective rose
        ("t0/f0/dissim/zero_one/C1.0", "40.0", "1.0", ""),  # both fell
        BASE[2],
    ]
    d = diff(head)
    assert d["changed"] == [
        {"key": "t0/f0/dissim/zero_one/C0.1", "test_loss": [25.0, 25.0],
         "objective": [4.0, 5.0], "reason": ["", ""]},
        {"key": "t0/f0/dissim/zero_one/C1.0", "test_loss": [50.0, 40.0],
         "objective": [2.0, 1.0], "reason": ["", ""]},
    ]
    s = d["summary"]
    assert (s["fits_changed"], s["objectives_rose"]) == (2, 1)
    assert s["largest_relative_rise"] == 0.25
    assert s["test_loss_mean_delta"] == 32.5 - 37.5


def test_failure_reason_and_non_finite_values():
    """A fit that fails only in the head shows both reasons; its values
    that are not finite are null, and it leaves the mean of the fits
    that passed."""
    head = [BASE[0],
            ("t0/f0/dissim/zero_one/C1.0", "nan", "inf",
             "SolverError: round 2: objective is not finite (inf)"),
            BASE[2]]
    d = diff(head)
    assert d["changed"] == [
        {"key": "t0/f0/dissim/zero_one/C1.0", "test_loss": [50.0, None],
         "objective": [2.0, None],
         "reason": ["", "SolverError: round 2: objective is not finite (inf)"]},
    ]
    assert d["summary"]["objectives_rose"] == 0
    assert d["summary"]["test_loss_mean_delta"] == 25.0 - 37.5


def test_fit_in_one_tree_only():
    extra = ("t0/f0/ilsvm/zero_one/C0.1", "10.0", "3.0", "")
    d = diff(BASE[1:] + [extra])
    assert [(c["key"], c["test_loss"], c["reason"]) for c in d["changed"]] == [
        (extra[0], [None, 10.0], [None, ""]),
        (BASE[0][0], [25.0, None], ["", None]),
    ]
    assert d["summary"]["fits"] == [3, 3]


def test_no_fit_passed_reads_the_benchmark_default():
    failed = [(k, "nan", "nan", "SolverError: x") for k, *_ in BASE]
    assert diff(failed)["summary"]["test_loss_mean_delta"] == 100.0 - 37.5


def test_bad_root_exits_2(tmp_path, capsys):
    assert fit_digests.main(["--workload", "sweep", "--seed", "0",
                             "--against", str(tmp_path)]) == 2
    assert "no src/dissim and perfbench/" in capsys.readouterr().err


@pytest.mark.parametrize("workload", ["sweep", "dissim-lowC", "baselines-clean"])
def test_checkout_against_itself_changes_no_fit(workload, capsys):
    root = str(_PATH.parent.parent)
    assert fit_digests.main(["--workload", workload, "--seed", "0",
                             "--against", root]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["changed"] == []
    fits, changed = report["summary"]["fits"], report["summary"]["fits_changed"]
    assert fits[0] == fits[1] > 0 and changed == 0
    assert report["summary"]["test_loss_mean_delta"] == 0.0
