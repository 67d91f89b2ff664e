"""End-to-end generation pipeline and the bounded verify/debug loop.

:func:`run_pipeline` runs the full workflow for one finalized job: rank
templates, then for each of the top-k candidates bind, render, lint, and
drive :func:`run_loop` against the mock cluster under the given fault
rules.  The first candidate whose loop succeeds wins.  Candidates that
cannot be bound (foreign cluster, unfillable parameter) consume their slot
and are recorded, so a report always explains what was tried.

:func:`run_loop` submits to the mock cluster (:func:`simcluster.submit`);
on failure it asks the error-correction agent (:mod:`launchport.repair`) to
diagnose and propose, applies one action per iteration, first untried
action first, lints the repaired script, and resubmits.  An action already
tried for the same fingerprint is never retried, which bounds the loop: it
halts within ``max_iter`` repair iterations for every input.  It has one
exit: every failed submission is diagnosed and recorded, and the loop
returns ``unresolved`` when the bound is exhausted or no actions remain.
The agent and its bundled fingerprints and repair table are loaded at the
first failed submission, and the agent module is then kept in ``_repair``,
so a job whose scripts all pass loads none of them.

Lint reads only a script's commands (the lines it runs, as
:func:`intent._commands` reads them), the topology they
state, the spec and the profile, and the loop compares only error counts.
So it lints a repaired script only when the repair can change its errors:
when the spec changed, or when the new script does not carry the current
one's counts: :meth:`~launchport.synthesis.RenderedScript.with_line_above`
carries them for a line above the script that it does not run, and
:meth:`~launchport.synthesis.RenderedScript.with_export` for an export of a
shell name.  It lints the first script only when a repaired script has
lint errors to compare with it: a repaired script with none cannot add
errors.  It never lints at exit: a :class:`LoopOutcome`'s ``lint_findings``
are computed from its final script, spec and profile when they are read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import retrieval
from .clusters import ClusterProfile
from .errors import ContractViolationError, LaunchportError, UnboundParameterError
from .intent import JobSpec
from .lint import Finding, error_count, lint
from .retrieval import RankedCandidate
from .simcluster import ExecutionResult, FaultRuleSet, submit
from .synthesis import RenderedScript, render_for_spec
from .templates import Template, TemplateSet
from .types import FrozenRecord, set_frozen

if TYPE_CHECKING:
    from .repair import Diagnosis, FingerprintSet, RepairAction, RepairBridge, RepairTable

DEFAULT_CANDIDATES_TRIED = 3

STATUS_SUCCESS = "success"
STATUS_UNRESOLVED = "unresolved"

MAX_ITERATIONS = 5

# launchport.repair once the first failed submission has imported it.
_repair = None


def _load_repair():
    """Import the error-correction agent and keep it in ``_repair``."""
    global _repair
    from . import repair

    _repair = repair
    return repair


class HistoryEntry(FrozenRecord):
    __slots__ = ("diagnosis", "action", "result")

    def __init__(
        self, diagnosis: Diagnosis, action: RepairAction | None, result: ExecutionResult,
    ) -> None:
        set_frozen(self, "diagnosis", diagnosis)
        set_frozen(self, "action", action)
        set_frozen(self, "result", result)


class LoopOutcome(FrozenRecord):
    """How a loop ended; its status, iteration count and lint findings follow
    from the rest."""

    __slots__ = ("final_script", "history", "final_spec", "final_result", "profile")

    def __init__(
        self,
        final_script: RenderedScript,
        history: tuple[HistoryEntry, ...],
        final_spec: JobSpec,
        final_result: ExecutionResult,
        profile: ClusterProfile,
    ) -> None:
        set_frozen(self, "final_script", final_script)
        set_frozen(self, "history", history)
        set_frozen(self, "final_spec", final_spec)
        set_frozen(self, "final_result", final_result)
        set_frozen(self, "profile", profile)

    @property
    def lint_findings(self) -> tuple[Finding, ...]:
        """The final script's lint findings, computed each time they are read."""
        return tuple(lint(self.final_script, self.final_spec, self.profile))

    @property
    def succeeded(self) -> bool:
        return self.final_result.exit_code == 0

    @property
    def status(self) -> str:
        return STATUS_SUCCESS if self.succeeded else STATUS_UNRESOLVED

    @property
    def iterations_used(self) -> int:
        """The repairs applied: the history entries that hold an action."""
        return sum(entry.action is not None for entry in self.history)


def run_loop(
    spec: JobSpec,
    t: Template,
    profile: ClusterProfile,
    rules: FaultRuleSet,
    max_iter: int = MAX_ITERATIONS,
    *,
    fingerprints: FingerprintSet | None = None,
    repair_table: RepairTable | None = None,
    bridge: RepairBridge | None = None,
    template_set: TemplateSet | None = None,
) -> LoopOutcome:
    """Submit to the mock cluster under ``rules``; on failure diagnose, repair
    and resubmit, at most ``max_iter`` times.

    One action is applied per iteration, in first-untried order; an action
    already tried for the same fingerprint is skipped, and so is one that
    cannot be applied or that adds lint errors (a repair never increases
    the error count).  ``lint_findings`` are the final script's, linted when
    they are read.  Every failed
    submission is diagnosed and recorded in the history, the last one with
    no action.  ``unresolved`` is a status, not an error.  Without
    ``fingerprints`` or ``repair_table`` the bundled ones are used, loaded
    at the first failed submission.
    """
    if max_iter < 1:
        raise ContractViolationError("max_iter must be >= 1")

    script = render_for_spec(spec, t, profile)
    current_spec = spec
    current_t = t
    errors = None  # the current script's lint error count, once it is read

    result = submit(script, current_spec, profile, rules)
    history: list[HistoryEntry] = []
    if result.exit_code != 0:
        agent = _repair or _load_repair()
        if fingerprints is None:
            fingerprints = agent.default_fingerprints()
        if repair_table is None:
            repair_table = agent.default_repair_table()
        tried: set[tuple[str | None, tuple[str, str]]] = set()
        while result.exit_code != 0:
            diag = agent.diagnose(
                result, profile, fingerprints, bridge=bridge,
                script_text=script.text, spec=current_spec,
            )
            # Every entry so far holds an applied repair, so len(history) counts them.
            actions = agent.propose(diag, repair_table) if len(history) < max_iter else ()
            applied = None
            for action in actions:
                key = (diag.fingerprint_id, action.signature())
                if key in tried:
                    continue
                tried.add(key)
                try:
                    new_script, new_spec, new_t = agent.apply_action(
                        action, script, current_spec, current_t, profile, template_set
                    )
                except LaunchportError:
                    continue  # unappliable action: skip to the next untried one
                # A script that carries the current one's counts (an edit method
                # keeps its topology object) has its errors under the same spec.
                if new_script._topology is not script._topology or new_spec is not current_spec:
                    if new_errors := error_count(lint(new_script, new_spec, profile)):
                        if errors is None:
                            errors = error_count(lint(script, current_spec, profile))
                        if new_errors > errors:
                            continue  # it would add lint errors: unappliable too
                    errors = new_errors
                script, current_spec, current_t = new_script, new_spec, new_t
                applied = action
                break
            history.append(HistoryEntry(diag, applied, result))
            if applied is None:
                break
            result = submit(script, current_spec, profile, rules)

    return LoopOutcome(
        final_script=script,
        history=tuple(history),
        final_spec=current_spec,
        final_result=result,
        profile=profile,
    )


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
