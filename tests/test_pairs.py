"""The pair driver's summary (tools/pairs.py), on canned run records."""

import json
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import pairs  # noqa: E402


def _run(order, digest="d", failed=0, **values):
    return {"order": order, "attempted": 1000, "failed": failed, "digest": digest,
            "median_speed": 0.7, **values}


# Five pairs of job_p50_ms (lower is better) and jobs_per_s (higher is better).
PARENT_P50 = [0.050, 0.048, 0.049, 0.052, 0.047]
CHANGE_P50 = [0.045, 0.044, 0.050, 0.046, 0.043]
PARENT_RATE = [17000, 17500, 17200, 16900, 17100]
CHANGE_RATE = [18000, 17400, 18100, 18300, 18200]
BETTER = {"job_p50_ms": "lower", "jobs_per_s": "higher"}


def _pairs(anchor=True):
    pairs_ = []
    for i in range(5):
        pair = {"seed": 2711 + i,
                "parent": _run(0, job_p50_ms=PARENT_P50[i], jobs_per_s=PARENT_RATE[i]),
                "change": _run(2, job_p50_ms=CHANGE_P50[i], jobs_per_s=CHANGE_RATE[i])}
        if anchor:
            pair["anchor"] = _run(1, job_p50_ms=0.06, jobs_per_s=15000 + i)
        pairs_.append(pair)
    return pairs_


def test_summary_medians_quartiles_and_wins():
    p50 = pairs.summarize(_pairs(), BETTER)["job_p50_ms"]
    assert p50["parent_median"] == 0.049 and p50["change_median"] == 0.045
    assert p50["change_vs_parent"] == pytest.approx(0.045 / 0.049 - 1)
    # Inclusive quartiles of five values are the second and fourth in order.
    assert (p50["parent_q1"], p50["parent_q3"]) == (0.048, 0.050)
    assert (p50["change_q1"], p50["change_q3"]) == (0.044, 0.046)
    assert p50["parent_iqr"] == pytest.approx(0.002)
    assert p50["wins"] == 4 and p50["pairs"] == 5 and p50["better"] == "lower"
    assert p50["median_gap_exceeds_parent_iqr"] is True
    assert p50["anchor_median"] == 0.06

    rate = pairs.summarize(_pairs(), BETTER)["jobs_per_s"]
    assert rate["wins"] == 4 and rate["better"] == "higher"  # 17400 < 17500 loses
    assert rate["change_median"] == 18100 and rate["anchor_median"] == 15002
    assert rate["median_gap_exceeds_parent_iqr"] is True  # 1000 against an IQR of 200


def test_the_summary_sets_the_job_counts_beside_the_metrics():
    pairs_ = _pairs()
    for pair, parent, change in zip(pairs_, [900, 1100, 1000, 1300, 950],
                                    [1200, 1000, 1000, 1400, 990]):
        pair["parent"]["attempted"], pair["change"]["attempted"] = parent, change
    pairs_[0]["anchor"]["attempted"] = 10**6  # the anchor's count is not summarised
    assert pairs.summarize(pairs_, BETTER)["attempted"] == {
        "parent_median": 1000, "change_median": 1000, "change_more": 3, "pairs": 5}


def test_a_gap_inside_the_parent_iqr_is_not_claimed():
    pairs_ = _pairs()
    for pair, p50 in zip(pairs_, [0.049, 0.049, 0.047, 0.052, 0.048]):
        pair["change"]["job_p50_ms"] = p50
    p50 = pairs.summarize(pairs_, BETTER)["job_p50_ms"]
    assert p50["change_median"] == p50["parent_median"] == 0.049
    assert p50["wins"] == 2 and p50["median_gap_exceeds_parent_iqr"] is False


def test_quartiles_are_statistics_inclusive_ones():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert pairs.quartiles(values) == (q1, q3)
    assert pairs.quartiles([2.0]) == (2.0, 2.0)


def test_workload_entry_checks_failures_and_the_digests_of_each_pair():
    entry = pairs.workload_entry(_pairs(), BETTER)
    assert entry["all_failed_zero"] and entry["digests_equal"]
    drifted = _pairs()
    drifted[1]["anchor"]["digest"] = "older"  # the anchor may predate an output change
    assert pairs.workload_entry(drifted, BETTER)["digests_equal"]
    broken = _pairs()
    broken[1]["change"]["digest"] = "other"
    broken[2]["anchor"]["failed"] = 3
    entry = pairs.workload_entry(broken, BETTER)
    assert not entry["all_failed_zero"] and not entry["digests_equal"]
    assert pairs.workload_entry(_pairs(anchor=False), BETTER)["summary"]["jobs_per_s"][
        "anchor_median"] is None


def test_each_pair_runs_the_anchor_between_alternating_sides():
    assert pairs.run_order(0) == ("parent", "anchor", "change")
    assert pairs.run_order(1) == ("change", "anchor", "parent")
    assert sorted(pairs.run_order(7)) == sorted(pairs.SIDES)


def test_a_run_record_reads_the_bench_output():
    info = {"meta": {}, "samples": {"median_speed": 0.8}, "digest": "abc", "failures": []}
    result = {"correct": True, "attempted": 1234, "failed": 0, "metrics": {
        "job_p50_ms": {"value": 0.05, "unit": "ms"},
        "jobs_per_s": {"value": 17000.0, "unit": "1/s"},
        "repair.diagnose.self_us": {"value": 1.0, "unit": "us"}}}
    stdout = "warming up\n" + json.dumps(info) + "\n" + json.dumps(result) + "\n"
    assert pairs.record(stdout, 1, list(BETTER)) == {
        "order": 1, "attempted": 1234, "failed": 0, "digest": "abc", "median_speed": 0.8,
        "job_p50_ms": 0.05, "jobs_per_s": 17000.0}


def test_the_runs_follow_what_the_benchmark_declares():
    benchmark = json.loads((Path(pairs.ROOT) / "BENCHMARK.json").read_text("utf-8"))
    better = pairs.end_to_end(benchmark)
    assert better == {"setup_s": "lower", "jobs_per_s": "higher", "job_p50_ms": "lower",
                      "job_tail_ms": "lower", "peak_rss_mb": "lower"}
    assert " ".join(pairs.bench_argv(benchmark, "W", "N")) == (
        "python3 perfbench/run.py --workload W --seed N --seconds 30 --trace 0")
    assert pairs.seeds("2711-2713") == [2711, 2712, 2713]


def _rss_pairs(change_mb=0.0):
    """Runs on one line, 25 MB + 60 B per job; the change holds ``change_mb`` more."""
    per_job = 60 / 2**20
    pairs_ = _pairs()
    for i, pair in enumerate(pairs_):
        for side, jobs in (("parent", 400_000 + 7_000 * i), ("anchor", 380_000 + 5_000 * i),
                           ("change", 440_000 + 9_000 * i)):  # the change runs ~10 % more
            pair[side]["attempted"] = jobs
            pair[side]["peak_rss_mb"] = 25.0 + per_job * jobs + (change_mb if side == "change"
                                                                 else 0.0)
    return pairs_


def test_a_change_that_only_runs_more_jobs_holds_no_more_memory():
    pairs_ = _rss_pairs()
    assert pairs.summarize(pairs_, {"peak_rss_mb": "lower"})["peak_rss_mb"][
        "change_vs_parent"] > 0.02  # the raw medians read a regression
    fit = pairs.rss_at_equal_jobs(pairs_)
    assert fit["bytes_per_job"] == pytest.approx(60)
    assert fit["intercept_mb"] == pytest.approx(25)
    for side in pairs.SIDES:
        assert fit[f"{side}_residual_mb"] == pytest.approx(0, abs=1e-9)
    assert fit["runs"] == 15


def test_a_change_that_holds_2_mb_more_reads_about_2_mb():
    # It also runs ~10 % more jobs; one line through every run would take
    # part of its 2 MB into the slope and read about 0.8 MB.
    fit = pairs.rss_at_equal_jobs(_rss_pairs(change_mb=2.0))
    assert fit["bytes_per_job"] == pytest.approx(60)
    assert fit["change_residual_mb"] == pytest.approx(2)
    assert fit["parent_residual_mb"] == pytest.approx(0, abs=1e-9)
    assert fit["anchor_residual_mb"] == pytest.approx(0, abs=1e-9)


def test_equal_job_counts_give_a_flat_line_at_the_parent_s_mean():
    pairs_ = _pairs()  # every run attempted 1000 jobs
    for pair in pairs_:
        for side in pairs.SIDES:
            pair[side]["peak_rss_mb"] = 30.0 if side == "change" else 27.0
    fit = pairs.rss_at_equal_jobs(pairs_)
    assert fit["bytes_per_job"] == 0 and fit["intercept_mb"] == 27.0
    assert fit["change_residual_mb"] == 3.0 and fit["anchor_residual_mb"] == 0.0


def test_only_in_process_workloads_read_rss_at_equal_jobs():
    better = {"peak_rss_mb": "lower"}
    assert "rss_at_equal_jobs" in pairs.workload_entry(_rss_pairs(), better)["summary"]
    assert "rss_at_equal_jobs" not in pairs.workload_entry(_rss_pairs(), better,
                                                           in_process=False)["summary"]
    assert "rss_at_equal_jobs" not in pairs.workload_entry(_pairs(), BETTER)["summary"]
