"""Template retrieval: rank templates against a job.

Ranking is metadata-first with fixed weights so the result is deterministic
and explainable: cluster identity dominates (0.4), framework and strategy
carry 0.25 each, and the launcher 0.1.  A full key-tuple match therefore
scores exactly 1.0 and outranks every non-match.

When no template reaches 0.9 on metadata alone, a text-similarity signal
worth up to 0.1 is blended in and the sum renormalized to [0, 1]: cosine
similarity over an embedder's vectors when one is supplied, token-overlap
(Jaccard over lowercase word sets, the union's size counted from the two
sizes and the intersection's, not built) otherwise, so the default build
needs no model and no network.  An embedder that fails with a bridge
error, or that returns other than one vector per text, gets the
token-overlap fallback too.  Similarity compares the job's one-line
description against each template's notes plus body.

Ties break on template id, lexicographically, giving a total order: one
pass scores the set's templates in id order, and a stable sort on score
alone keeps equal scores in that order.

A ranking reads only the job's framework, strategy and launcher, and its
cluster when some template names it.  Each template set gets a table,
created on its first ranking and dropped with the set, keyed by those four
facts (a cluster no template names as ``None``): at most (clusters in the
set + 1) x 3 x 3 x 5 entries however many jobs are ranked.  A key's first
ranking computes each template's match pattern.  Above the gate nothing
else counts, so the table keeps the ranked candidates, and later rankings
return a new list of them, with read-only breakdowns, one per pattern.
Below the gate it keeps each template's pattern beside its candidate at
similarity 0.0, with that pattern's read-only breakdown: the similarity
blend reads the description and the embedder, so it runs on every ranking,
but a new candidate is built only where a template's similarity is not
0.0.  Only keys that repeat within a process gain; one CLI run ranks once
and exits.  The store also keeps each template's text and word set.
"""

from __future__ import annotations

import functools
import math
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, Protocol, Sequence

from .errors import BridgeError, NoCandidatesError
from .intent import JobSpec
from .templates import Template, TemplateSet
from .types import FrozenRecord, set_frozen

WEIGHT_CLUSTER = 0.4
WEIGHT_FRAMEWORK = 0.25
WEIGHT_STRATEGY = 0.25
WEIGHT_LAUNCHER = 0.1
SIMILARITY_WEIGHT = 0.1
SIMILARITY_GATE = 0.9

# Per match pattern (bit 8 cluster, 4 framework, 2 strategy, 1 launcher):
# the four weights, their sum, and the breakdown a candidate above the gate
# carries.  The sum is c + f + s + la in that order, as ranking has always
# added it, so scores keep their exact bits.
_WEIGHTS = tuple(
    (
        WEIGHT_CLUSTER if p & 8 else 0.0,
        WEIGHT_FRAMEWORK if p & 4 else 0.0,
        WEIGHT_STRATEGY if p & 2 else 0.0,
        WEIGHT_LAUNCHER if p & 1 else 0.0,
    )
    for p in range(16)
)
_META = tuple(c + f + s + la for c, f, s, la in _WEIGHTS)
_ABOVE_GATE = frozenset(p for p, meta in enumerate(_META) if meta >= SIMILARITY_GATE)
_BREAKDOWNS = tuple(
    MappingProxyType({"cluster": c, "framework": f, "strategy": s, "launcher": la,
                      "similarity": 0.0})
    for c, f, s, la in _WEIGHTS
)
# Keys are unique in a set, so the one template matching on all four is the
# exact match.
_EXACT = 15
_SCORE = attrgetter("score")


class Embedder(Protocol):
    """Maps texts to fixed-length vectors; may be remote and blocking."""

    def embed(self, texts: Sequence[str]) -> list[list[float]]: ...


class RankedCandidate(FrozenRecord):
    """One template with its score and per-criterion contributions.

    ``breakdown`` is read-only: above the gate, and below it at similarity
    0.0, it is one mapping per match pattern, the same object in every
    candidate that matches that way.
    """

    __slots__ = ("template_id", "score", "breakdown", "exact")

    def __init__(
        self, template_id: str, score: float, breakdown: Mapping[str, float], exact: bool,
    ) -> None:
        set_frozen(self, "template_id", template_id)
        set_frozen(self, "score", score)
        set_frozen(self, "breakdown", breakdown)
        set_frozen(self, "exact", exact)

    def __reduce__(self):
        # A mappingproxy can be neither pickled nor deep-copied: the breakdown
        # travels as a dict and is wrapped again when the candidate is rebuilt.
        return _candidate, (self.template_id, self.score, dict(self.breakdown), self.exact)


def _candidate(
    template_id: str, score: float, breakdown: dict[str, float], exact: bool,
) -> RankedCandidate:
    """A candidate rebuilt from its fields, with a read-only breakdown again."""
    return RankedCandidate(template_id, score, MappingProxyType(breakdown), exact)


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    # ``a`` is a job description's words, never empty (JobSpec.description).
    shared = len(a & b)
    return shared / (len(a) + len(b) - shared)


def _cosine(u: Sequence[float], v: Sequence[float]) -> float:
    dot = sum(x * y for x, y in zip(u, v))
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(y * y for y in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return max(0.0, min(1.0, dot / (nu * nv)))


def _embed(embedder: Embedder, texts: list[str]) -> list[list[float]] | None:
    """One vector per text from ``embedder``; ``None`` when it raises a bridge
    error or gives another number of vectors."""
    try:
        vectors = embedder.embed(texts)
    except BridgeError:
        return None
    return vectors if len(vectors) == len(texts) else None


class _SetStore:
    """What rankings against one template set share; see the module docstring."""

    def __init__(self, templates: tuple[Template, ...]):
        self.templates = templates
        self.clusters = frozenset(t.cluster for t in templates)
        # Per job key: the ranked candidates above the gate, or, below it,
        # each template's match pattern and candidate at similarity 0.0, in
        # id order.
        self.table: dict[tuple, tuple[RankedCandidate, ...]
                         | tuple[tuple[int, RankedCandidate], ...]] = {}

    @functools.cached_property
    def texts(self) -> tuple[tuple[str, frozenset[str]], ...]:
        """Per template in id order: ``"{notes} {body}"`` and its lowercase word set."""
        texts = (f"{t.notes} {t.body}" for t in self.templates)
        return tuple((text, frozenset(text.lower().split())) for text in texts)

    def rank(
        self, key: tuple
    ) -> tuple[RankedCandidate, ...] | tuple[tuple[int, RankedCandidate], ...]:
        """Build and keep the table's entry for ``key``."""
        cluster, framework, strategy, launcher = key
        patterns = tuple(
            (t.cluster == cluster) << 3 | (t.framework is framework) << 2
            | (t.strategy is strategy) << 1 | (t.launcher is launcher)
            for t in self.templates)
        if not _ABOVE_GATE.isdisjoint(patterns):
            # Stable over the id order, so equal scores stay ordered by id.
            entry = tuple(sorted(
                (RankedCandidate(t.id, _META[p], _BREAKDOWNS[p], p == _EXACT)
                 for t, p in zip(self.templates, patterns)), key=_SCORE, reverse=True))
        else:
            # (meta + w * 0.0) / (1 + w) has the bits of meta / (1 + w).
            entry = tuple(
                (p, RankedCandidate(t.id, _META[p] / (1.0 + SIMILARITY_WEIGHT), _BREAKDOWNS[p],
                                    p == _EXACT))
                for t, p in zip(self.templates, patterns))
        self.table[key] = entry
        return entry


def _similarities(
    spec: JobSpec, store: _SetStore, embedder: Embedder | None
) -> list[float]:
    """Similarity of the job's description to each template, in id order."""
    description = spec.description()
    if embedder is not None and (
            vectors := _embed(embedder, [description, *(text for text, _ in store.texts)])):
        return [_cosine(vectors[0], vec) for vec in vectors[1:]]
    words = frozenset(description.lower().split())
    return [_jaccard(words, template_words) for _, template_words in store.texts]


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
    store = tset._ranking
    if store is None:
        store = tset._ranking = _SetStore(templates)
    key = (spec.cluster if spec.cluster in store.clusters else None,
           spec.framework, spec.strategy, spec.launcher)
    entry = store.table.get(key) or store.rank(key)
    if isinstance(entry[0], RankedCandidate):
        return list(entry)
    similarities = _similarities(spec, store, embedder)
    ranked = []
    for t, (pattern, zero), sim in zip(templates, entry, similarities):
        if sim == 0.0:
            ranked.append(zero)
            continue
        c, f, s, la = _WEIGHTS[pattern]
        breakdown = {"cluster": c, "framework": f, "strategy": s, "launcher": la,
                     "similarity": sim}
        score = (_META[pattern] + SIMILARITY_WEIGHT * sim) / (1.0 + SIMILARITY_WEIGHT)
        ranked.append(RankedCandidate(t.id, score, MappingProxyType(breakdown),
                                      pattern == _EXACT))
    ranked.sort(key=_SCORE, reverse=True)
    return ranked


def select(cands: list[RankedCandidate], k: int) -> list[RankedCandidate]:
    """Top ``k`` candidates, order preserved; fewer when the list is short."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return cands[:k]
