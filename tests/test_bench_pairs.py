"""Verdicts of ``scripts/bench_pairs.py``'s ``summarize`` on synthetic runs,
and its measure of the machine's parallel capacity."""

import importlib.util
from pathlib import Path

import pytest

from helpers import no_child_left

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {
    "fits_per_s": {"name": "fits_per_s", "better": "higher", "bound": 0.25},
    "fit_s_p50": {"name": "fit_s_p50", "better": "lower", "bound": 0.25},
}


def make_runs(name, base, change):
    """Alternating pairs, as the script runs them; ``base[i]`` and
    ``change[i]`` form pair i.  A missing change value leaves pair i
    incomplete."""
    runs = []
    for pair, b in enumerate(base):
        runs.append({"pair": pair, "side": "base", "metrics": {name: b}})
        if pair < len(change):
            runs.append({"pair": pair, "side": "change",
                         "metrics": {name: change[pair]}})
    return runs


def summary(name, base, change):
    return bench_pairs.summarize(make_runs(name, base, change), SPEC)[name]


BASE = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


def test_clear_gain_is_claimed():
    s = summary("fits_per_s", BASE, [v + 20.0 for v in BASE])
    assert s["change_wins"] == 10
    assert s["claim_met"] is True
    assert s["regression"] == "no"


def test_nine_of_ten_claims_and_eight_does_not():
    nine = [v + 20.0 for v in BASE[:9]] + [BASE[9] - 1.0]
    assert summary("fits_per_s", BASE, nine)["claim_met"] is True
    eight = [v + 20.0 for v in BASE[:8]] + [BASE[8] - 1.0, BASE[9]]
    s = summary("fits_per_s", BASE, eight)
    assert s["change_wins"] == 8
    assert s["claim_met"] is False


def test_gain_within_base_spread_is_not_claimed():
    # every pair won, by less than the base's interquartile range
    s = summary("fits_per_s", BASE, [v + 0.5 for v in BASE])
    assert s["change_wins"] == 10
    assert s["base"]["q3"] - s["base"]["q1"] > 0.5
    assert s["claim_met"] is False
    assert s["regression"] == "no"


def test_lower_is_better_direction():
    base = [v / 100.0 for v in BASE]
    s = summary("fit_s_p50", base, [v * 0.8 for v in base])
    assert s["change_wins"] == 10
    assert s["claim_met"] is True
    s = summary("fit_s_p50", base, [v * 1.3 for v in base])
    assert s["change_wins"] == 0
    assert s["regression"] == "yes"


def test_worse_beyond_bound_is_a_regression():
    s = summary("fits_per_s", BASE, [v * 0.7 for v in BASE])
    assert s["regression"] == "yes"
    assert s["claim_met"] is False
    # worse, but within the 25 % bound
    assert summary("fits_per_s", BASE, [v * 0.9 for v in BASE])[
        "regression"] == "no"


def test_wide_spread_is_unresolved_unless_change_dominates():
    wide = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]
    s = summary("fits_per_s", wide, list(wide))
    assert s["base"]["q3"] - s["base"]["q1"] > 0.25 * s["base"]["median"]
    assert s["regression"] == "unresolved"
    # a wide change side against a tight base is unresolved too
    assert summary("fits_per_s", BASE, wide)["regression"] == "unresolved"
    # every change run above every base run settles it
    s = summary("fits_per_s", wide, [v + 200.0 for v in wide])
    assert s["regression"] == "no"
    assert s["claim_met"] is True


def test_zero_base_median():
    zeros = [0.0] * 10
    s = summary("fit_s_p50", zeros, zeros)
    assert (s["change_wins"], s["claim_met"], s["regression"]) == (0, False, "no")
    assert summary("fit_s_p50", zeros, [0.1] * 10)["regression"] == "yes"


def test_incomplete_pair_is_left_out_of_the_counts():
    # pair 9's change run failed: 9 complete pairs, all won
    s = summary("fits_per_s", BASE, [v + 20.0 for v in BASE[:9]])
    assert s["change_wins"] == 9
    assert s["claim_met"] is True


def test_metric_without_spec_gets_spreads_only():
    s = summary("peak_rss_mb", [50.0, 51.0], [50.5, 50.5])
    assert set(s) == {"base", "change"}
    assert s["change"] == {"median": 50.5, "q1": 50.5, "q3": 50.5}


@pytest.mark.parametrize("name", sorted(SPEC))
def test_verdicts_need_both_sides(name):
    runs = [{"pair": 0, "side": "base", "metrics": {name: 1.0}}]
    s = bench_pairs.summarize(runs, SPEC)[name]
    assert s["change_wins"] == 0
    assert "claim_met" not in s and "regression" not in s


def test_parallel_capacity_times_one_child_then_two():
    cap = bench_pairs.parallel_capacity(loop=200_000)
    assert cap["loop"] == 200_000
    assert cap["alone_s"] > 0 and len(cap["two_children_s"]) == 2
    assert all(s > 0 for s in cap["two_children_s"])
    assert cap["speedup"] == 2 * cap["alone_s"] / max(cap["two_children_s"])
    assert no_child_left()


def test_a_silent_child_is_an_error(monkeypatch):
    def crash(loop):
        raise RuntimeError("no timing")

    monkeypatch.setattr(bench_pairs, "spin", crash)
    with pytest.raises(RuntimeError, match="reported nothing"):
        bench_pairs.spin_children(2, 10)
    assert no_child_left()
