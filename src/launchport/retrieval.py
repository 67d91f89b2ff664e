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
template's notes plus body.  That template side (the text and its word set)
is computed once per template set, on the first ranking below the gate,
and kept by the set.

Ties break on template id, lexicographically, giving a total order: one
pass scores the set's templates in id order, and a stable sort on score
alone keeps equal scores in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

from .errors import BridgeError, NoCandidatesError
from .intent import JobSpec
from .templates import TemplateSet

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


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


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


def _similarities(
    spec: JobSpec, tset: TemplateSet, embedder: Embedder | None
) -> list[float]:
    """Similarity of the job's description to each template, in id order."""
    description = spec.description()
    texts = tset.similarity_texts
    vectors = _embed(embedder, [description] + [text for text, _ in texts])
    if vectors is not None:
        query = vectors[0]
        return [_cosine(query, vec) for vec in vectors[1:]]
    words = frozenset(description.lower().split())
    return [_jaccard(words, template_words) for _, template_words in texts]


def candidates(
    spec: JobSpec,
    tset: TemplateSet,
    embedder: Embedder | None = None,
) -> list[RankedCandidate]:
    """Rank every template against the job, best first.

    Deterministic for identical inputs.  Raises
    :class:`NoCandidatesError` on an empty set.
    """
    templates = tset.in_id_order()
    if not templates:
        raise NoCandidatesError("the template set is empty")

    key = (spec.cluster, spec.framework, spec.strategy, spec.launcher)
    exact_match = tset.find_key(key)  # keys are unique: at most one exact template
    cluster, framework, strategy, launcher = key
    rows = []
    best_meta = 0.0
    for t in templates:
        c = WEIGHT_CLUSTER if t.cluster == cluster else 0.0
        f = WEIGHT_FRAMEWORK if t.framework is framework else 0.0
        s = WEIGHT_STRATEGY if t.strategy is strategy else 0.0
        la = WEIGHT_LAUNCHER if t.launcher is launcher else 0.0
        meta = c + f + s + la
        if meta > best_meta:
            best_meta = meta
        breakdown = {"cluster": c, "framework": f, "strategy": s, "launcher": la}
        rows.append((t, meta, breakdown))

    ranked = []
    if best_meta < SIMILARITY_GATE:
        similarities = _similarities(spec, tset, embedder)
        for (t, meta, breakdown), sim in zip(rows, similarities):
            breakdown["similarity"] = sim
            score = (meta + SIMILARITY_WEIGHT * sim) / (1.0 + SIMILARITY_WEIGHT)
            ranked.append(RankedCandidate(t.id, score, breakdown, t is exact_match))
    else:
        for t, meta, breakdown in rows:
            breakdown["similarity"] = 0.0
            ranked.append(RankedCandidate(t.id, meta, breakdown, t is exact_match))
    # Stable over the id order, so equal scores stay ordered by id.
    ranked.sort(key=lambda c: -c.score)
    return ranked


def select(cands: list[RankedCandidate], k: int) -> list[RankedCandidate]:
    """Top ``k`` candidates, order preserved; fewer when the list is short."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return cands[: min(k, len(cands))]
