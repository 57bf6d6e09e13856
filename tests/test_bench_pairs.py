"""Verdicts of ``scripts/bench_pairs.py``'s ``summarize`` on synthetic runs,
the memory it reads per thousand fits, and its measure of the machine's
parallel capacity."""

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


def test_records_memory_per_thousand_fits():
    # the change fits 2,000 more per run in the median and peaks 1.2 MB
    # higher: 0.6 MB per thousand fits
    runs = []
    for pair, (fits, mb) in enumerate([(10_000, 50.0), (10_200, 50.4),
                                       (9_800, 49.6)]):
        for side, extra in (("base", 0), ("change", 1)):
            runs.append({"pair": pair, "side": side,
                         "attempted": fits + 2_000 * extra,
                         "metrics": {"peak_rss_mb": mb + 1.2 * extra}})
    memory = bench_pairs.records_memory(runs, 0.05)
    assert memory["attempted"]["base"]["median"] == 10_000
    assert memory["attempted"]["change"]["median"] == 12_000
    assert memory["peak_rss_mb_per_1000_fits"] == pytest.approx(0.6)
    # equal medians of attempted leave it undefined
    for run in runs:
        run["attempted"] = 10_000
    assert bench_pairs.records_memory(runs, 0.05)["peak_rss_mb_per_1000_fits"] is None
    # one side alone has its attempted spread and no ratio
    alone = bench_pairs.records_memory([r for r in runs if r["side"] == "base"], 0.05)
    assert set(alone["attempted"]) == {"base"}
    assert alone["peak_rss_mb_per_1000_fits"] is None


def memory_runs(change_fits, change_mb):
    """Three pairs whose base runs fit 10,000 and peak at 50 MB in the
    median, with the change's medians as given."""
    runs = []
    for pair, (fits, mb) in enumerate([(10_000, 50.0), (10_200, 50.4),
                                       (9_800, 49.6)]):
        runs.append({"pair": pair, "side": "base", "attempted": fits,
                     "metrics": {"peak_rss_mb": mb}})
        runs.append({"pair": pair, "side": "change",
                     "attempted": fits - 10_000 + change_fits,
                     "metrics": {"peak_rss_mb": mb - 50.0 + change_mb}})
    return runs


def test_fits_gain_at_rss_bound():
    # 0.6 MB per thousand fits: a 5 % bound on the base's 50 MB is 2.5 MB
    # of headroom, 4,166.7 fits, a rise of 41.7 % on its 10,000
    memory = bench_pairs.records_memory(memory_runs(12_000, 51.2), 0.05)
    assert memory["peak_rss_mb_per_1000_fits"] == pytest.approx(0.6)
    assert memory["fits_gain_at_rss_bound"] == pytest.approx(2.5 / 0.6 / 10)
    # the crossing point: that many more fits read exactly the bound
    gain = memory["fits_gain_at_rss_bound"]
    rise = 10_000 * gain * memory["peak_rss_mb_per_1000_fits"] / 1000
    assert rise == pytest.approx(0.05 * 50.0)
    # a bound twice as wide leaves twice the headroom
    wide = bench_pairs.records_memory(memory_runs(12_000, 51.2), 0.10)
    assert wide["fits_gain_at_rss_bound"] == pytest.approx(2 * gain)
    # fewer fits for less memory is a positive cost too
    fewer = bench_pairs.records_memory(memory_runs(8_000, 48.8), 0.05)
    assert fewer["fits_gain_at_rss_bound"] == pytest.approx(gain)
    # null unless the cost is positive: memory that falls as fits rise,
    # memory that stays flat, and no change in fits
    for change_fits, change_mb in ((12_000, 49.0), (12_000, 50.0), (10_000, 51.0)):
        memory = bench_pairs.records_memory(memory_runs(change_fits, change_mb), 0.05)
        assert memory["fits_gain_at_rss_bound"] is None
    alone = [r for r in memory_runs(12_000, 51.2) if r["side"] == "base"]
    assert bench_pairs.records_memory(alone, 0.05)["fits_gain_at_rss_bound"] is None


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
