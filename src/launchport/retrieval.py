"""Template retrieval: rank templates against a job.

Ranking is metadata-first with fixed weights so the result is deterministic
and explainable: cluster identity dominates (0.4), framework and strategy
carry 0.25 each, and the launcher 0.1.  A full key-tuple match therefore
scores exactly 1.0 and outranks every non-match.

When no template reaches 0.9 on metadata alone, a text-similarity signal
worth up to 0.1 is blended in and the sum renormalized to [0, 1]: cosine
similarity over an embedder's vectors when one is supplied, token-overlap
(Jaccard over lowercase word sets) otherwise, so the default build needs no
model and no network.  An embedder that fails with a bridge error, or that
returns other than one vector per text, gets the token-overlap fallback
too.  Similarity compares the job's one-line description against each
template's notes plus body.

Ties break on template id, lexicographically, giving a total order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

from .errors import BridgeError, NoCandidatesError
from .intent import JobSpec
from .templates import Template, TemplateSet

WEIGHT_CLUSTER = 0.4
WEIGHT_FRAMEWORK = 0.25
WEIGHT_STRATEGY = 0.25
WEIGHT_LAUNCHER = 0.1
SIMILARITY_WEIGHT = 0.1
SIMILARITY_GATE = 0.9


class Embedder(Protocol):
    """Maps texts to fixed-length vectors; may be remote and blocking."""

    def embed(self, texts: Sequence[str]) -> list[list[float]]: ...


@dataclass(frozen=True)
class RankedCandidate:
    """One template with its score and per-criterion contributions."""

    template_id: str
    score: float
    breakdown: Mapping[str, float]
    exact: bool


def _metadata_score(spec: JobSpec, t: Template) -> dict[str, float]:
    return {
        "cluster": WEIGHT_CLUSTER if t.cluster == spec.cluster else 0.0,
        "framework": WEIGHT_FRAMEWORK if t.framework is spec.framework else 0.0,
        "strategy": WEIGHT_STRATEGY if t.strategy is spec.strategy else 0.0,
        "launcher": WEIGHT_LAUNCHER if t.launcher is spec.launcher else 0.0,
    }


def _jaccard(a: str, b: str) -> float:
    wa = set(a.lower().split())
    wb = set(b.lower().split())
    if not wa or not wb:
        return 0.0
    return len(wa & wb) / len(wa | wb)


def _cosine(u: Sequence[float], v: Sequence[float]) -> float:
    dot = sum(x * y for x, y in zip(u, v))
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(y * y for y in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return max(0.0, min(1.0, dot / (nu * nv)))


def _embed(embedder: Embedder | None, texts: list[str]) -> list[list[float]] | None:
    """One vector per text from ``embedder``; ``None`` when there is none to use."""
    if embedder is None:
        return None
    try:
        vectors = embedder.embed(texts)
    except BridgeError:
        return None
    return vectors if len(vectors) == len(texts) else None


def candidates(
    spec: JobSpec,
    tset: TemplateSet,
    embedder: Embedder | None = None,
) -> list[RankedCandidate]:
    """Rank every template against the job, best first.

    Deterministic for identical inputs.  Raises
    :class:`NoCandidatesError` on an empty set.
    """
    templates = sorted(tset, key=lambda t: t.id)
    if not templates:
        raise NoCandidatesError("the template set is empty")

    metadata = {t.id: _metadata_score(spec, t) for t in templates}
    best_meta = max(sum(m.values()) for m in metadata.values())

    similarities: dict[str, float] = {}
    if best_meta < SIMILARITY_GATE:
        description = spec.description()
        texts = [f"{t.notes} {t.body}" for t in templates]
        vectors = _embed(embedder, [description] + texts)
        if vectors is not None:
            query = vectors[0]
            for t, vec in zip(templates, vectors[1:]):
                similarities[t.id] = _cosine(query, vec)
        else:
            for t, text in zip(templates, texts):
                similarities[t.id] = _jaccard(description, text)

    ranked = []
    for t in templates:
        breakdown = dict(metadata[t.id])
        meta = sum(breakdown.values())
        if similarities:
            sim = similarities[t.id]
            breakdown["similarity"] = sim
            score = (meta + SIMILARITY_WEIGHT * sim) / (1.0 + SIMILARITY_WEIGHT)
        else:
            breakdown["similarity"] = 0.0
            score = meta
        exact = t.key == (spec.cluster, spec.framework, spec.strategy, spec.launcher)
        ranked.append(
            RankedCandidate(
                template_id=t.id,
                score=score,
                breakdown=breakdown,
                exact=exact,
            )
        )
    ranked.sort(key=lambda c: (-c.score, c.template_id))
    return ranked


def select(cands: list[RankedCandidate], k: int) -> list[RankedCandidate]:
    """Top ``k`` candidates, order preserved; fewer when the list is short."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return cands[: min(k, len(cands))]
