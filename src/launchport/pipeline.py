"""End-to-end generation pipeline.

Runs the full workflow for one finalized job: rank templates, then for each
of the top-k candidates bind, render, lint, and drive the verify/debug
loop (:func:`launchport.repair.run_loop`, against the mock cluster under
the given fault rules).  The first candidate whose loop succeeds wins.
Candidates that cannot be bound (foreign cluster, unfillable parameter)
consume their slot and are recorded, so a report always explains what was
tried.
"""

from __future__ import annotations

from . import retrieval
from .clusters import ClusterProfile
from .errors import ContractViolationError, UnboundParameterError
from .intent import JobSpec
from .repair import FingerprintSet, LoopOutcome, RepairBridge, RepairTable, run_loop
from .retrieval import RankedCandidate
from .simcluster import FaultRuleSet
from .templates import TemplateSet
from .types import FrozenRecord, set_frozen

DEFAULT_CANDIDATES_TRIED = 3


class Attempt(FrozenRecord):
    """One candidate template carried through the pipeline."""

    __slots__ = ("candidate", "outcome", "skip_reason")

    def __init__(
        self, candidate: RankedCandidate, outcome: LoopOutcome | None = None,
        skip_reason: str | None = None,
    ) -> None:
        set_frozen(self, "candidate", candidate)
        set_frozen(self, "outcome", outcome)
        set_frozen(self, "skip_reason", skip_reason)

    @property
    def succeeded(self) -> bool:
        return self.outcome is not None and self.outcome.succeeded


class PipelineResult(FrozenRecord):
    """Everything that happened while generating one script."""

    __slots__ = ("spec", "candidates", "attempts")

    def __init__(
        self, spec: JobSpec, candidates: tuple[RankedCandidate, ...],
        attempts: tuple[Attempt, ...],
    ) -> None:
        set_frozen(self, "spec", spec)
        set_frozen(self, "candidates", candidates)
        set_frozen(self, "attempts", attempts)

    @property
    def winner(self) -> Attempt | None:
        for attempt in self.attempts:
            if attempt.succeeded:
                return attempt
        return None

    @property
    def script_text(self) -> str | None:
        winner = self.winner
        if winner is None or winner.outcome is None:
            return None
        return winner.outcome.final_script.text


def run_pipeline(
    spec: JobSpec,
    profile: ClusterProfile,
    tset: TemplateSet,
    rules: FaultRuleSet,
    *,
    fingerprints: FingerprintSet | None = None,
    repair_table: RepairTable | None = None,
    k: int = DEFAULT_CANDIDATES_TRIED,
    bridge: RepairBridge | None = None,
) -> PipelineResult:
    """Generate and verify a script for ``spec``; stops at the first success.

    ``bridge`` ranks the templates when its ``embed`` capability is enabled
    and repairs unknown failures when its ``repair`` one is.
    """
    embedder = bridge if bridge is not None and bridge.enabled("embed") else None
    ranked = retrieval.candidates(spec, tset, embedder)
    top = retrieval.select(ranked, k)

    attempts: list[Attempt] = []
    for candidate in top:
        template = tset.get(candidate.template_id)
        try:
            outcome = run_loop(
                spec,
                template,
                profile,
                rules,
                fingerprints=fingerprints,
                repair_table=repair_table,
                bridge=bridge,
                template_set=tset,
            )
        except (UnboundParameterError, ContractViolationError) as exc:
            attempts.append(Attempt(candidate=candidate, skip_reason=str(exc)))
            continue
        attempts.append(Attempt(candidate=candidate, outcome=outcome))
        if outcome.succeeded:
            break
    return PipelineResult(
        spec=spec,
        candidates=tuple(ranked),
        attempts=tuple(attempts),
    )


def render_report(result: PipelineResult) -> str:
    """Human-readable account of the pipeline run, deterministic per input."""
    spec = result.spec
    lines = [
        "job:",
        f"  cluster={spec.cluster} framework={spec.framework.value} "
        f"strategy={spec.strategy.value} launcher={spec.launcher.value}",
        f"  nodes={spec.nodes} gpus_per_node={spec.gpus_per_node} "
        f"world_size={spec.world_size} master_port={spec.master_port}",
        f"  entry={spec.entry_script}"
        + (f" args={spec.train_args}" if spec.train_args else ""),
        "candidates:",
    ]
    for candidate in result.candidates[:10]:
        marker = "exact" if candidate.exact else "partial"
        lines.append(f"  {candidate.template_id}: score={candidate.score:.3f} ({marker})")
    for i, attempt in enumerate(result.attempts, start=1):
        lines.append(f"attempt {i}: template={attempt.candidate.template_id}")
        if attempt.skip_reason:
            lines.append(f"  skipped: {attempt.skip_reason}")
            continue
        outcome = attempt.outcome
        assert outcome is not None
        lines.append(
            f"  status={outcome.status} iterations={outcome.iterations_used}"
        )
        for finding in outcome.lint_findings:
            lines.append(f"  lint [{finding.severity}] {finding.code}: {finding.message}")
        for j, entry in enumerate(outcome.history, start=1):
            diag = entry.diagnosis
            fired = entry.result.fault_fired or "-"
            lines.append(
                f"  iter {j}: fault={fired} category={diag.category} "
                f"fingerprint={diag.fingerprint_id or '-'}"
            )
            lines.append(f"    cause: {diag.explanation}")
            if entry.action is not None:
                lines.append(
                    f"    action: {entry.action.kind} {entry.action.payload}"
                )
            else:
                lines.append("    action: none available")
    winner = result.winner
    if winner is not None:
        lines.append(f"result: success via {winner.candidate.template_id}")
    else:
        lines.append("result: unresolved")
    return "\n".join(lines) + "\n"
