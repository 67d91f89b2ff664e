"""launchport benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; launchport is imported from ``src/`` of
that checkout and the CLI is run as a fresh interpreter per invocation,
exactly as the installed ``launchport`` console script would.

Workloads (one client, closed loop):

* ``cli-cold``: sequential cold ``launchport generate`` / ``port``
  processes over a seeded mix (both golden sentences, one job per cluster, a
  capacity failure with exit 1, an unresolved cell with exit 2).  Import and
  bundle loading are nearly all of a process's time.
* ``grid-repair``: ``run_pipeline`` on seeded JobSpecs over the 9 x 4 grid,
  about half with an injected clearable fault, every bundle passed
  explicitly as the CLI does.  No loader calls, no prose: the bypass
  workload for import, loader and extraction changes.
* ``prose-port``: free-text descriptions through ``extract`` ->
  ``finalize`` -> ``run_pipeline`` with library-caller default arguments,
  interleaved with ports (``parse_script`` -> ``finalize`` on another
  cluster -> ``run_pipeline``).  The intent layer and the per-call default
  bundle reloads do most of the work.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of the time to import
  launchport, build the five ``default_*`` bundles and construct a
  ``RuleBasedExtractor``;
* ``jobs_per_s``: jobs completed per second of the run's timed work;
* ``job_p50_ms`` / ``job_tail_ms``: job latency, median and tail.  A job is a
  CLI process (exec to exit) on cli-cold and one job call (input to final
  script or error) in process.  The tail is p90 on cli-cold and p99 on the
  in-process workloads, the highest percentile with at least ten samples
  beyond it;
* ``peak_rss_mb``: peak resident memory of the workload process (median over
  CLI processes on cli-cold).

Every timing is scaled to a fixed machine speed by reference slices (see
``speed``): the machine is shared, and its speed swings more from minute to
minute than the bounds allow.  Each in-process chunk of about 25 ms and each
CLI process is scaled by the slices just before and after it; ``setup_s``
and the start-up probe by the median speed over the run.  The line before
the result also gives the unscaled figures and the machine's median speed.

With ``--trace 1`` it reports the per-layer metrics instead: spans recorded
around launchport's public functions (see ``tracing``), a start-up probe of
cold interpreters (``-X importtime``, bare startup, traced ``main()``), and
the tracing overhead against an untraced half of the run.

Every job is checked against the hand-written expectations in
``reference``; ``failed`` counts jobs whose outcome differs.  The line before
the result holds run metadata, sample counts and the output digest (sha256
over one pass of the seed's jobs: scripts, statuses and exit codes).  Spans
and a run record are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

from speed import Scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PY = sys.executable
ENV = dict(os.environ, PYTHONPATH=str(SRC))

WORKLOADS = ("cli-cold", "grid-repair", "prose-port")
SETUP_RUNS = 11
CHUNK_NS = 25_000_000  # in-process work timed between two reference slices
PROCESS_SLICES = 5  # reference slices per speed measurement between CLI processes
PROBE_RUNS = 5

CLI_CODE = "import sys; from launchport.cli import main; sys.exit(main())"
SETUP_CODE = (
    "import time; t = time.perf_counter(); "
    "import launchport as lp; from launchport import repair; "
    "lp.default_profiles(); lp.default_templates(); lp.default_fault_rules(); "
    "repair.default_fingerprints(); repair.default_repair_table(); lp.RuleBasedExtractor(); "
    "print(repr(time.perf_counter() - t))"
)


def spawn(argv: list[str], stdout: Path | None = None, stderr: Path | None = None):
    """Run one child to completion: (exit code, wall ns, peak RSS in KiB)."""
    out = open(stdout, "wb") if stdout else subprocess.DEVNULL
    err = open(stderr, "wb") if stderr else subprocess.DEVNULL
    try:
        start = perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter_ns() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        for f in (out, err):
            if f is not subprocess.DEVNULL:
                f.close()
    return proc.returncode, wall, usage.ru_maxrss


def quantile(values, q: int, n: int) -> float:
    """The q-th of the n-quantiles of ``values``."""
    return statistics.quantiles(values, n=n, method="inclusive")[q - 1]


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "launchport").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Timings:
    """Latencies and busy time of timed work, raw and scaled to the reference speed."""

    def __init__(self):
        self.raw = array("q")  # ns per job
        self.scaled = array("d")
        self.busy_raw = 0
        self.busy_scaled = 0.0

    def add_chunk(self, first: int, busy_ns: int, factor: float) -> None:
        """Close a chunk: the jobs from index ``first`` on, which took ``busy_ns``."""
        self.scaled.extend(t * factor for t in self.raw[first:])
        self.busy_raw += busy_ns
        self.busy_scaled += busy_ns * factor

    def metrics(self, tail_q: int, tail_n: int, scaled: bool = True) -> dict:
        latencies = self.scaled if scaled else self.raw
        busy = self.busy_scaled if scaled else self.busy_raw
        return {
            "jobs_per_s": (len(latencies) * 1e9 / busy, "1/s"),
            "job_p50_ms": (statistics.median(latencies) / 1e6, "ms"),
            "job_tail_ms": (quantile(latencies, tail_q, tail_n) / 1e6, "ms"),
        }


class SetupSampler:
    """``setup_s`` samples from fresh interpreters, taken at even intervals over a run.

    The machine's speed drifts for seconds at a time, so samples spread over
    the whole run give a steadier median than a burst at its start.  The
    workload loops call ``poll`` between chunks and leave the returned pause
    out of their timings.
    """

    def __init__(self, seconds: float, scale: Scale):
        self.values: list[float] = []
        self.scale = scale
        self.interval = seconds * 1e9 / SETUP_RUNS
        self.start: int | None = None

    def _sample(self) -> None:
        code, _, _ = spawn([PY, "-c", SETUP_CODE], stdout=OUT / "setup.out")
        self.scale.sample()
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        self.values.append(float((OUT / "setup.out").read_text()))

    def poll(self) -> int:
        """Take the samples now due; the time spent, in ns."""
        now = perf_counter_ns()
        if self.start is None:
            self.start = now
        while (len(self.values) < SETUP_RUNS
               and now - self.start >= len(self.values) * self.interval):
            self._sample()
        return perf_counter_ns() - now

    def finish(self) -> float:
        """The median sample, scaled by the run's median speed."""
        while len(self.values) < SETUP_RUNS:
            self._sample()
        return statistics.median(self.values) * self.scale.median_speed()


def startup_probe(tracer, scale: Scale) -> dict:
    """Bare startup, import breakdown and a traced golden `generate`, in cold interpreters."""
    from reference import GOLDEN_DESCRIPTION
    from tracing import IMPORT_MODULES, import_times_ms

    bare, imports = [], {m: [] for m in IMPORT_MODULES}
    first = len(scale.slices)
    for _ in range(PROBE_RUNS):
        bare.append(spawn([PY, "-c", "pass"])[1] / 1e6)
        scale.sample()
        spawn([PY, "-X", "importtime", "-c", "import launchport.cli"], stderr=OUT / "probe.err")
        scale.sample()
        for module, ms in import_times_ms((OUT / "probe.err").read_text()).items():
            imports[module].append(ms)
        argv = ["generate", GOLDEN_DESCRIPTION.format(cluster="Perlmutter"), "--non-interactive"]
        run_traced_cli(tracer, -1, argv, OUT / "probe.out")
        scale.sample()
    speed = scale.median_speed(first)
    tracer.scale_new(speed)
    metrics = {"interp.bare_ms": (statistics.median(bare) * speed, "ms")}
    for module, values in imports.items():
        metrics[f"import.{module}_ms"] = (
            statistics.median(values) * speed if values else 0.0, "ms")
    return metrics


def run_traced_cli(tracer, job: int, argv: list[str], stdout: Path, stderr: Path | None = None):
    spans = OUT / "cli-spans.json"
    result = spawn([PY, str(BENCH / "cli_runner.py"), str(spans), str(job), "--", *argv],
                   stdout=stdout, stderr=stderr)
    tracer.merge(json.loads(spans.read_text()))
    return result


class Tally:
    """Jobs attempted and failed, the output digest and the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.digest = hashlib.sha256()

    def record(self, job, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append({"job": job.index, "expected": job.expect.kind,
                                      "problems": problems})


def timed_loop(jobs, session, references, seconds: float, tally: Tally, scale: Scale,
               tracer=None, sampler: SetupSampler | None = None) -> Timings:
    """Cycle the jobs for ``seconds`` in chunks of ``CHUNK_NS``, each scaled by ``scale``.

    A chunk's time runs from its first job's start to its last job's output
    check; the rate is jobs over the chunks' summed time.  Reference slices and
    set-up samples fall between chunks, outside their times.
    """
    from workloads import to_outcome

    timings = Timings()
    n = len(jobs)
    scale.mark()
    deadline = perf_counter_ns() + int(seconds * 1e9)
    i = 0
    while True:
        if sampler is not None:
            deadline += sampler.poll()
        first = len(timings.raw)
        start = perf_counter_ns()
        while True:
            job = jobs[i % n]
            run = session.runner[job.kind]
            if tracer is not None:
                tracer.job = i
            t0 = perf_counter_ns()
            spec, result = run(job)
            t1 = perf_counter_ns()
            if tracer is not None:
                tracer.job = None
            timings.raw.append(t1 - t0)
            out = to_outcome(job, spec, result)
            ok = (out.kind, out.script) == references[i % n]
            tally.record(job, [] if ok else ["output differs from the first pass"])
            i += 1
            if t1 - start >= CHUNK_NS:
                break
        factor = scale.factor()
        timings.add_chunk(first, perf_counter_ns() - start, factor)
        if tracer is not None:
            tracer.scale_new(factor)
        if perf_counter_ns() >= deadline:
            return timings


def sample_record(timings: Timings, tail: str, sampler: SetupSampler, scale: Scale) -> dict:
    """Sample counts, the machine's speed and the unscaled figures, for the record."""
    tail_q, tail_n = (99, 100) if tail == "p99" else (9, 10)
    return {
        "jobs": len(timings.raw), "tail": tail, "setup_runs": len(sampler.values),
        "reference_slices": len(scale.slices), "median_speed": scale.median_speed(),
        "unscaled": {name: value for name, (value, _) in
                     timings.metrics(tail_q, tail_n, scaled=False).items()},
        "unscaled_setup_s": statistics.median(sampler.values),
    }


def first_pass(session, jobs, tally: Tally) -> list:
    """Run every job once with the full reference checks, feeding the digest.

    Returns each job's (outcome kind, script), which later passes must repeat.
    The pass also warms caches before timing starts.
    """
    from reference import check
    from workloads import to_outcome

    references = []
    for job in jobs:
        spec, result = session.runner[job.kind](job)
        out = to_outcome(job, spec, result)
        tally.record(job, check(job.expect, out))
        tally.digest.update(out.digest_line(job.index).encode())
        references.append((out.kind, out.script))
    return references


def in_process(name: str, seed: int, seconds: float, trace: bool, tracer, tally: Tally,
               scale: Scale):
    from workloads import Session, grid_jobs, prose_port_jobs

    session = Session()
    if name == "grid-repair":
        jobs = grid_jobs(seed, session.profiles)
    else:
        jobs = prose_port_jobs(seed, session.profiles, session.tset)

    references = first_pass(session, jobs, tally)
    if not trace:
        sampler = SetupSampler(seconds, scale)
        timings = timed_loop(jobs, session, references, seconds, tally, scale, sampler=sampler)
        return {
            "setup_s": (sampler.finish(), "s"),
            **timings.metrics(99, 100),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }, sample_record(timings, "p99", sampler, scale)

    from tracing import layer_metrics

    plain = timed_loop(jobs, session, references, seconds / 2, tally, scale)
    tracer.install()
    try:
        traced = timed_loop(jobs, session, references, seconds / 2, tally, scale, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, len(traced.raw))
    metrics["trace.overhead_share"] = (1 - len(traced.raw) * plain.busy_scaled
                                       / (len(plain.raw) * traced.busy_scaled), "share")
    return metrics, {"traced_jobs": len(traced.raw)}


def cli_cold(seed: int, seconds: float, trace: bool, tracer, tally: Tally, scale: Scale):
    from reference import POLARIS_COMMAND, PERLMUTTER_COMMAND, Outcome, check
    from workloads import cli_mix

    sources = OUT / "cli"
    sources.mkdir(exist_ok=True)
    (sources / "perlmutter.sh").write_text(PERLMUTTER_COMMAND + "\n")
    (sources / "polaris.sh").write_text(POLARIS_COMMAND + "\n")
    jobs = cli_mix(seed, str(sources / "perlmutter.sh"), str(sources / "polaris.sh"))
    stdout, stderr = OUT / "cli.out", OUT / "cli.err"

    def plain(_job_id, job):
        return spawn([PY, "-c", CLI_CODE, *job.data["argv"]], stdout, stderr)

    def traced(job_id, job):
        return run_traced_cli(tracer, job_id, job.data["argv"], stdout, stderr)

    plain(0, jobs[0])  # warm-up: bytecode caches are written once per checkout

    def phase(launch, seconds: float, first_pass: bool, sampler: SetupSampler | None = None):
        """Run processes for ``seconds``: (Timings, peak RSS KiB per process).

        A process's busy time runs from its launch to the end of its output
        check and is scaled by the reference slices on either side of it.
        """
        timings, rss = Timings(), []
        scale.mark()
        deadline = perf_counter_ns() + int(seconds * 1e9)
        i = 0
        while perf_counter_ns() < deadline or (first_pass and i < len(jobs)):
            if sampler is not None:
                deadline += sampler.poll()
            job = jobs[i % len(jobs)]
            start = perf_counter_ns()
            code, wall, maxrss = launch(i, job)
            timings.raw.append(wall)
            rss.append(maxrss)
            out = Outcome(f"exit{code}", stderr=stderr.read_text())
            if code == 0:
                out.script = stdout.read_text().rstrip("\n")
            tally.record(job, check(job.expect, out))
            if first_pass and i < len(jobs):
                tally.digest.update(out.digest_line(job.index).encode())
            factor = scale.factor()
            timings.add_chunk(i, perf_counter_ns() - start, factor)
            tracer.scale_new(factor)
            i += 1
        return timings, rss

    if not trace:
        sampler = SetupSampler(seconds, scale)
        timings, rss = phase(plain, seconds, True, sampler)
        return {
            "setup_s": (sampler.finish(), "s"),
            **timings.metrics(9, 10),
            "peak_rss_mb": (statistics.median(rss) / 1024, "MB"),
        }, sample_record(timings, "p90", sampler, scale)

    from tracing import layer_metrics

    plain_timings, _ = phase(plain, seconds / 2, True)
    traced_timings, _ = phase(traced, seconds / 2, False)
    traced_jobs = len(traced_timings.raw)
    metrics = layer_metrics(tracer, traced_jobs)
    metrics["trace.overhead_share"] = (
        1 - traced_jobs * plain_timings.busy_scaled
        / (len(plain_timings.raw) * traced_timings.busy_scaled), "share")
    return metrics, {"traced_jobs": traced_jobs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "launchport" / "__init__.py").is_file():
        print(f"error: no launchport sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and its children, so that the reference slices
    # run where the timed work runs: the CPUs of a shared host are not
    # equally loaded.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import launchport

    if Path(launchport.__file__).resolve().parent != SRC / "launchport":
        print(f"error: imported launchport from {launchport.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "cpu": min(os.sched_getaffinity(0)), "loadavg_before": os.getloadavg(),
        "commit": git_commit(), "source_sha256": source_sha256(),
    }
    tally = Tally()
    tracer = Tracer()
    scale = Scale(PROCESS_SLICES if args.workload == "cli-cold" else 1)
    metrics = startup_probe(tracer, scale) if args.trace else {}
    if args.workload == "cli-cold":
        found, samples = cli_cold(args.seed, args.seconds, bool(args.trace), tracer, tally,
                                  scale)
    else:
        found, samples = in_process(args.workload, args.seed, args.seconds, bool(args.trace),
                                    tracer, tally, scale)
    metrics.update(found)
    if args.trace:
        main_ms = [duration / 1e6 for span, _, duration in tracer.scaled()
                   if span[0] == "cli.main"]
        metrics["cli.main_ms"] = (statistics.median(main_ms), "ms")
        tracer.dump(OUT / f"spans-{args.workload}.jsonl", meta)

    meta["loadavg_after"] = os.getloadavg()
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    info = {"meta": meta, "samples": samples, "digest": tally.digest.hexdigest(),
            "failures": tally.failures}
    (OUT / f"run-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(dict(info, result=result), indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
