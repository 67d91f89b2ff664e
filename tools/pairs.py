"""Alternated before/after runs of the benchmark, written as a ``BENCH_<pr>.json``.

For each seed, the parent, the change and a fixed anchor commit each run the
benchmark's command (``BENCHMARK.json``: ``python3 perfbench/run.py``) with
``--workload W --seed N --seconds <run_seconds> --trace 0`` from a fresh
``git archive`` copy of their tree, one run at a time.
Pairs at even positions run the parent first and the change last; odd ones the
other way round.  The anchor runs between them, so that drift of the machine
can be told apart from the change.  Stdlib only.  From the repository root::

    python3 tools/pairs.py --pr 27 --parent HEAD~1 --change HEAD \\
        --seeds 2711-2720 --workloads grid-repair prose-port cli-cold

Each workload's summary compares the change with the parent on every
end-to-end metric that ``BENCHMARK.json`` declares: medians, quartiles
(``statistics.quantiles(n=4, method='inclusive')``), the pairs the change
wins, and whether the gap of the medians exceeds the parent's IQR.  Beside
them, ``attempted`` gives the median job count of each side and the pairs in
which the change attempted more: an in-process run lasts a fixed time, so its
``peak_rss_mb`` grows with the jobs it reached.  For the in-process
workloads (every one but ``cli-cold``, whose RSS is that of one CLI process),
``rss_at_equal_jobs`` reads that growth out: the slope of ``peak_rss_mb``
against ``attempted`` in bytes per job, fitted over every run of the three
sides, and each side's median residual, its RSS less the parent's line at
its own job count.  A change that only runs more jobs reads a residual of
about 0 MB; one that holds 2 MB more reads about 2.  The driver leaves
``note`` empty; it summarises the results, so it is written by hand after
the run.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ANCHOR = "5a1b874"
SIDES = ("parent", "change", "anchor")


def run_order(position: int) -> tuple[str, ...]:
    """The sides in the order the pair at ``position`` runs them."""
    return ("parent", "anchor", "change") if position % 2 == 0 else ("change", "anchor", "parent")


def record(stdout: str, order: int, metrics: list[str]) -> dict:
    """One run's record from the two JSON lines ``perfbench/run.py`` prints."""
    info, result = (json.loads(line) for line in stdout.strip().splitlines()[-2:])
    values = result["metrics"]
    return {
        "order": order, "attempted": result["attempted"], "failed": result["failed"],
        "digest": info["digest"], "median_speed": info["samples"].get("median_speed"),
        **{name: values[name]["value"] for name in metrics},
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile; one value is both."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: the change against the parent over the pairs; then the
    attempted job counts."""
    summary = {}
    for name, direction in better.items():
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        anchor = [pair["anchor"][name] for pair in pairs if "anchor" in pair]
        sign = 1 if direction == "higher" else -1
        p_med, c_med = statistics.median(parent), statistics.median(change)
        (p_q1, p_q3), (c_q1, c_q3) = quartiles(parent), quartiles(change)
        summary[name] = {
            "parent_median": p_med, "change_median": c_med,
            "change_vs_parent": c_med / p_med - 1,
            "parent_q1": p_q1, "parent_q3": p_q3, "parent_iqr": p_q3 - p_q1,
            "change_q1": c_q1, "change_q3": c_q3, "change_iqr": c_q3 - c_q1,
            "anchor_median": statistics.median(anchor) if anchor else None,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs), "better": direction,
            "median_gap_exceeds_parent_iqr": abs(c_med - p_med) > p_q3 - p_q1,
        }
    summary["attempted"] = {
        "parent_median": statistics.median(pair["parent"]["attempted"] for pair in pairs),
        "change_median": statistics.median(pair["change"]["attempted"] for pair in pairs),
        "change_more": sum(pair["change"]["attempted"] > pair["parent"]["attempted"]
                           for pair in pairs),
        "pairs": len(pairs),
    }
    return summary


def rss_at_equal_jobs(pairs: list[dict]) -> dict:
    """``peak_rss_mb`` against ``attempted``: a least-squares fit over every run
    with one slope for the three sides and an intercept for each, so that
    memory one side holds on its own does not tilt the slope.  The line is the
    parent's; each side's residual is the median of its runs' RSS less the
    line at their own job counts.

    The slope is in bytes per job (``peak_rss_mb`` is ``ru_maxrss`` KiB / 1024,
    so a MB here is 2**20 bytes); the intercept and residuals are in MB.  When
    no side's job count varies, the slope is 0.
    """
    by_side: dict[str, list[tuple[int, float]]] = {}
    for pair in pairs:
        for side in SIDES:
            if side in pair:
                by_side.setdefault(side, []).append(
                    (pair[side]["attempted"], pair[side]["peak_rss_mb"]))
    sxy = sxx = 0.0
    for runs in by_side.values():
        mean_x = statistics.fmean(x for x, _ in runs)
        mean_y = statistics.fmean(y for _, y in runs)
        sxy += sum((x - mean_x) * (y - mean_y) for x, y in runs)
        sxx += sum((x - mean_x) ** 2 for x, _ in runs)
    slope = sxy / sxx if sxx else 0.0
    intercept = statistics.fmean(y - slope * x for x, y in by_side["parent"])
    residual = {side: statistics.median(y - intercept - slope * x for x, y in runs)
                for side, runs in by_side.items()}
    return {
        "bytes_per_job": slope * 2**20, "intercept_mb": intercept,
        "runs": sum(map(len, by_side.values())),
        **{f"{side}_residual_mb": value for side, value in residual.items()},
    }


def workload_entry(pairs: list[dict], better: dict[str, str], in_process: bool = True) -> dict:
    """The pairs and their summary; whether every run failed no job, and whether
    the parent and the change wrote the same digest in every pair.  An
    in-process workload's summary also reads its RSS at equal job counts."""
    runs = [pair[side] for pair in pairs for side in SIDES if side in pair]
    summary = summarize(pairs, better)
    if in_process and "peak_rss_mb" in better:
        summary["rss_at_equal_jobs"] = rss_at_equal_jobs(pairs)
    return {
        "pairs": pairs, "summary": summary,
        "all_failed_zero": all(run["failed"] == 0 for run in runs),
        "digests_equal": all(pair["parent"]["digest"] == pair["change"]["digest"]
                             for pair in pairs),
    }


def end_to_end(benchmark: dict) -> dict[str, str]:
    """Metric name -> "higher" or "lower", as ``BENCHMARK.json`` declares them."""
    return {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}


def bench_argv(benchmark: dict, workload: str, seed: str) -> list[str]:
    """The benchmark's command for one untraced run of its declared length."""
    return benchmark["command"] + ["--workload", workload, "--seed", seed,
                                   "--seconds", f"{benchmark['run_seconds']:g}", "--trace", "0"]


def seeds(text: str) -> list[int]:
    """``"2711-2720"`` as the list of seeds from the first to the last."""
    first, last = text.split("-")
    return list(range(int(first), int(last) + 1))


def run_once(rev: str, argv: list[str], workdir: Path) -> str:
    """``argv`` in a fresh ``git archive`` copy of ``rev``; its stdout."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    tree = Path(tempfile.mkdtemp(prefix="tree-", dir=workdir))
    try:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree)
        done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"error: {rev}: {' '.join(argv)}: {done.stderr.strip()}")
        return done.stdout
    finally:
        shutil.rmtree(tree)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--parent", required=True, help="revision of the parent")
    parser.add_argument("--change", required=True, help="revision of the change")
    parser.add_argument("--seeds", type=seeds, required=True, help="first-last, say 2711-2720")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--workdir", help="where the copies go (default: the system's temp)")
    args = parser.parse_args(argv)

    def resolve(rev: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev],
                              check=True, capture_output=True, text=True).stdout.strip()

    revs = {"parent": resolve(args.parent), "change": resolve(args.change),
            "anchor": resolve(ANCHOR)}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    better = end_to_end(benchmark)
    out = ROOT / f"BENCH_{args.pr}.json"
    doc = {"command": " ".join(bench_argv(benchmark, "W", "N")), **revs, "note": "",
           "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="pairs-", dir=args.workdir) as workdir:
        for workload in args.workloads:
            pairs = []
            for position, seed in enumerate(args.seeds):
                pair = {"seed": seed}
                for order, side in enumerate(run_order(position)):
                    argv = bench_argv(benchmark, workload, str(seed))
                    stdout = run_once(revs[side], argv, Path(workdir))
                    pair[side] = record(stdout, order, list(better))
                    print(f"{workload} {seed} {side}: " + json.dumps(pair[side]), flush=True)
                pairs.append(pair)
                # Written after every pair, so a stopped driver keeps what it ran.
                doc["workloads"][workload] = workload_entry(pairs, better,
                                                            workload != "cli-cold")
                out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
