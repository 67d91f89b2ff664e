"""Spans around launchport's public functions, recorded from outside the program.

``Tracer.install`` wraps each function in ``TARGETS`` at every launchport
module attribute bound to it, so callers that imported the name directly
(``repair.lint``, ``intent.default_profiles``, ...) are traced as well.  A
span records name, start, end, parent span and job id; spans stay in memory
until ``dump``.  Self time is a span's duration minus the time its child
spans cover.  Per-layer times are scaled to the reference speed like the
end-to-end ones (see ``speed``): each span takes the factor of the chunk of
work it ran in; the spans written out keep their raw times.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

# Wrapped functions, named <module>.<attribute> within the launchport package.
TARGETS = (
    "clusters.default_profiles",
    "templates.default_templates",
    "simcluster.default_fault_rules",
    "repair.default_fingerprints",
    "repair.default_repair_table",
    "intent.extract",
    "intent.finalize",
    "intent.parse_script",
    "retrieval.candidates",
    "synthesis.render_for_spec",
    "lint.lint",
    "simcluster.submit",
    "repair.diagnose",
    "repair.propose",
    "repair.apply_action",
    "repair.run_loop",
    "pipeline.run_pipeline",
)
# Constructions are traced through the class's __init__.
EXTRACTOR = "intent.RuleBasedExtractor"

LOADERS = (
    "clusters.default_profiles",
    "templates.default_templates",
    "simcluster.default_fault_rules",
    "repair.default_fingerprints",
    "repair.default_repair_table",
)
SELF_TIMED = TARGETS + (EXTRACTOR,)
PER_JOB = LOADERS + (
    EXTRACTOR, "intent.parse_script", "synthesis.render_for_spec", "lint.lint",
    "simcluster.submit",
)


def _lookup(name: str):
    """(launchport module, attribute name) for a span name."""
    module, attr = name.split(".")
    return importlib.import_module(f"launchport.{module}"), attr


def _similarity_used(ranked) -> bool:
    """Whether candidates() blended in text similarity (best metadata score < gate)."""
    gate = getattr(sys.modules["launchport.retrieval"], "SIMILARITY_GATE", 0.9)
    best = max(sum(v for k, v in c.breakdown.items() if k != "similarity") for c in ranked)
    return best < gate


# Counters taken from a traced call's result: span name -> result -> {counter: n}.
OBSERVERS = {
    "retrieval.candidates": lambda r: {"similarity": int(_similarity_used(r))},
    "simcluster.submit": lambda r: {"fault": int(r.exit_code != 0)},
    "repair.run_loop": lambda r: {"iterations": r.iterations_used, "resolved": int(r.succeeded)},
    "repair.apply_action": lambda r: {"applied": 1},
    "pipeline.run_pipeline": lambda r: {
        "attempts": len(r.attempts), "won": int(r.winner is not None)},
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, job, self_ns)
        self.spans: list = []
        self.factors: list = []  # speed scale of each span, set by ``scale_new``
        self.counts: dict = defaultdict(int)
        self.job = None  # a workload job index; None outside jobs, -1 for probes
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [0]  # time covered by child spans
            parent = stack[-1][1] if stack else -1
            stack.append((frame, index))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][0][0] += end - start
                spans[index] = (name, start, end, parent, tracer.job, end - start - frame[0])
            if tracer.job is not None and tracer.job >= 0 and observe is not None:
                for key, n in observe(result).items():
                    counts[name, key] += n
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at each launchport module attribute bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "launchport" or n.startswith("launchport."))]
        for name in TARGETS:
            original = getattr(*_lookup(name), None)
            if original is None:
                continue
            traced = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._undo.append((module, key, original))
        cls = getattr(*_lookup(EXTRACTOR), None)
        if cls is not None:
            original_init = cls.__init__
            cls.__init__ = self.wrap(EXTRACTOR, original_init)
            self._undo.append((cls, "__init__", original_init))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def scale_new(self, factor: float) -> None:
        """Give ``factor`` to every span recorded since the previous call."""
        self.factors.extend([factor] * (len(self.spans) - len(self.factors)))

    def scaled(self):
        """(span, its scaled self time, its scaled duration) for every span."""
        factors = self.factors + [1.0] * (len(self.spans) - len(self.factors))
        for span, factor in zip(self.spans, factors):
            yield span, span[5] * factor, (span[2] - span[1]) * factor

    def export(self) -> dict:
        return {"spans": self.spans, "counts": [[n, k, v] for (n, k), v in self.counts.items()]}

    def merge(self, exported: dict) -> None:
        """Add spans and counters recorded by another process."""
        offset = len(self.spans)
        for name, start, end, parent, job, self_ns in exported["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1,
                               job, self_ns))
        for name, key, n in exported["counts"]:
            self.counts[name, key] += n

    def dump(self, path, header: dict) -> None:
        """Write the spans as JSON lines: a header, then one array per span."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(dict(header, fields=[
                "name", "start_ns", "end_ns", "parent", "job", "self_ns"])) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, jobs: int) -> dict:
    """Per-layer metrics from a tracer's spans and counters.

    ``self_us`` is the mean self time per call over every span of the name,
    start-up probe included; ``calls_per_job`` and the shares count only calls
    made inside the workload's ``jobs`` jobs.
    """
    self_ns = defaultdict(list)
    calls = defaultdict(int)
    for (name, _start, _end, _parent, job, _own), own, _ in tracer.scaled():
        self_ns[name].append(own)
        if job is not None and job >= 0:
            calls[name] += 1
    counts = tracer.counts

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {}
    for name in SELF_TIMED:
        values = self_ns.get(name)
        m[f"{name}.self_us"] = (statistics.fmean(values) / 1e3 if values else 0.0, "us")
    for name in PER_JOB:
        m[f"{name}.calls_per_job"] = (share(calls[name], jobs), "calls/job")
    m["retrieval.candidates.similarity_share"] = (
        share(counts["retrieval.candidates", "similarity"], calls["retrieval.candidates"]),
        "share")
    m["simcluster.submit.fault_share"] = (
        share(counts["simcluster.submit", "fault"], calls["simcluster.submit"]), "share")
    loops = calls["repair.run_loop"]
    m["repair.run_loop.iterations_per_loop"] = (
        share(counts["repair.run_loop", "iterations"], loops), "iterations/loop")
    m["repair.run_loop.resolved_share"] = (
        share(counts["repair.run_loop", "resolved"], loops), "share")
    m["repair.apply_action.applied_share"] = (
        share(counts["repair.apply_action", "applied"], calls["repair.apply_action"]), "share")
    attempts = counts["pipeline.run_pipeline", "attempts"]
    m["pipeline.run_pipeline.attempts_per_job"] = (
        share(attempts, calls["pipeline.run_pipeline"]), "attempts/job")
    m["pipeline.run_pipeline.wasted_attempt_share"] = (
        share(attempts - counts["pipeline.run_pipeline", "won"], attempts), "share")
    return m


IMPORT_MODULES = ("launchport.cli", "launchport.intent", "launchport.bridge", "launchport.clusters")


def import_times_ms(importtime_stderr: str) -> dict:
    """Cumulative import time per module from ``python -X importtime`` output."""
    found = {}
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        module = parts[2].strip()
        if module in IMPORT_MODULES:
            found[module] = int(parts[1]) / 1e3
    return found
