"""Job-intent extraction and normalization.

This module turns three kinds of user input into a canonical job
description: free text ("train ViT on two nodes with 8 GPUs"), an existing
launch script from another machine, or explicit field values.  The result is
first a :class:`PartialJobSpec` (every field optional, absence represented
rather than raised) and, once the required fields are present or derivable,
a validated :class:`JobSpec`.

Normalization rules, fixed so that extraction is deterministic:

* number words "one" through "sixty-four" are read as integers when they
  stand as whole words; larger counts must be written as digits.  One pass
  rewrites every number word as digits in a copy of the text (longest word
  first, so "twenty-one" becomes 21, not 20 and 1).  Only the node,
  per-node and total-GPU count patterns read that copy, and they match
  digits alone; everything else reads the text as given;
* the cluster is the earliest name or alias in the text that stands
  apart from word characters and hyphens, found by one search over all of
  them; where two start at the same place the longer name wins
  ("deltaai" over "delta");
* "servers", "machines", "hosts", and "compute nodes" all mean nodes;
* "N GPUs per node" is a per-node count; a bare "N GPUs" is a total
  (with nodes defaulting to 1 when no node count is given anywhere);
* explicit flags embedded in the text ("--nodes 2") win over prose;
* the launcher implies the framework (torchrun -> pytorch,
  deepspeed -> deepspeed, accelerate -> accelerate), the strategy implies
  the framework (zero3 -> deepspeed, fsdp -> pytorch), and the strategy
  defaults to ddp once a framework is known.

A stated communication backend (for example "nccl") is intentionally not
extracted into a field of its own; none of the bundled templates consume
it, so it travels with the user's training arguments.

Everything here is pure: the same text always yields the same spec.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field, replace
from typing import Protocol

from .clusters import ClusterProfile, default_profiles
from .errors import (
    CapacityError,
    IncompleteSpecError,
    InconsistentTopologyError,
)
from .types import (
    DEFAULT_MASTER_PORT,
    Framework,
    Launcher,
    PORT_MAX,
    PORT_MIN,
    Strategy,
)

REQUIRED_FIELDS = ("cluster", "framework", "strategy", "nodes", "gpus_per_node", "entry_script")

# Launcher-implication table: naming the launcher is enough to fix the
# framework, and a framework without a named strategy means plain DDP.
# mpiexec and srun drive the training program directly, which is the plain
# PyTorch launch form; DeepSpeed and Accelerate jobs go through their own
# launchers.
LAUNCHER_IMPLIES_FRAMEWORK = {
    Launcher.TORCHRUN: Framework.PYTORCH,
    Launcher.DEEPSPEED: Framework.DEEPSPEED,
    Launcher.ACCELERATE: Framework.ACCELERATE,
    Launcher.MPIEXEC: Framework.PYTORCH,
    Launcher.SRUN: Framework.PYTORCH,
}
STRATEGY_IMPLIES_FRAMEWORK = {
    Strategy.ZERO3: Framework.DEEPSPEED,
    Strategy.FSDP: Framework.PYTORCH,
}
FRAMEWORK_DEFAULT_LAUNCHER = {
    Framework.DEEPSPEED: Launcher.DEEPSPEED,
    Framework.ACCELERATE: Launcher.ACCELERATE,
}


def _number_words() -> dict[str, int]:
    units = ["one", "two", "three", "four", "five", "six", "seven", "eight", "nine"]
    teens = [
        "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen",
        "sixteen", "seventeen", "eighteen", "nineteen",
    ]
    tens = {"twenty": 20, "thirty": 30, "forty": 40, "fifty": 50, "sixty": 60}
    words = {w: i + 1 for i, w in enumerate(units)}
    words.update({w: 10 + i for i, w in enumerate(teens)})
    for name, base in tens.items():
        words[name] = base
        for i, unit in enumerate(units):
            value = base + i + 1
            if value <= 64:
                words[f"{name}-{unit}"] = value
                words[f"{name} {unit}"] = value
    return words

NUMBER_WORDS = _number_words()

# Whole words only ("seventy" holds no "seven", "someone" no "one"), longest
# first so "twenty-one" wins over "twenty".  The lookahead on the first
# letters lets most positions fail before the alternation is tried.
_NUMBER_WORD_RE = re.compile(
    r"\b(?=[" + "".join(sorted({w[0] for w in NUMBER_WORDS})) + "])(?:"
    + "|".join(sorted((re.escape(w) for w in NUMBER_WORDS), key=len, reverse=True))
    + r")\b",
    re.I,
)
_NUM = r"(\d+)"


def _digits(text: str) -> str:
    """``text`` with every number word rewritten as its digits."""
    # re.I also matches case variants outside ASCII ("ſix"); no number word
    # has that spelling, so such a match stays as written.
    return _NUMBER_WORD_RE.sub(
        lambda m: str(NUMBER_WORDS.get(m.group().lower(), m.group())), text
    )


@dataclass
class PartialJobSpec:
    """Best-effort job description; every field may be absent.

    Present fields are validated on construction: counts must be positive
    and ports must fall in [1024, 65535].
    """

    cluster: str | None = None
    framework: Framework | None = None
    strategy: Strategy | None = None
    launcher: Launcher | None = None
    nodes: int | None = None
    gpus_per_node: int | None = None
    total_gpus: int | None = None
    master_port: int | None = None
    entry_script: str | None = None
    train_args: str = ""
    deepspeed_config: str | None = None

    def __post_init__(self) -> None:
        for name in ("nodes", "gpus_per_node", "total_gpus"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.master_port is not None and not (PORT_MIN <= self.master_port <= PORT_MAX):
            raise ValueError(
                f"master_port must be in [{PORT_MIN}, {PORT_MAX}], got {self.master_port}"
            )

    def merged_with(self, other: "PartialJobSpec") -> "PartialJobSpec":
        """Overlay ``other`` on top of this spec; present fields in ``other`` win."""
        updates = {}
        for name in self.__dataclass_fields__:
            value = getattr(other, name)
            if name == "train_args":
                if value:
                    updates[name] = value
            elif value is not None:
                updates[name] = value
        return replace(self, **updates)

    def is_empty(self) -> bool:
        return all(
            getattr(self, name) in (None, "")
            for name in self.__dataclass_fields__
        )


@dataclass(frozen=True)
class JobSpec:
    """Validated, canonical description of a distributed training job.

    ``world_size`` is always recomputed from nodes and gpus_per_node; it is
    never stored independently, so the two can never disagree.
    ``master_port_explicit`` records whether the port came from the user (or
    from a parsed script) as opposed to the package default; only explicit
    ports override a template's own declared port.
    """

    cluster: str
    framework: Framework
    strategy: Strategy
    launcher: Launcher
    nodes: int
    gpus_per_node: int
    entry_script: str
    train_args: str = ""
    master_port: int = DEFAULT_MASTER_PORT
    master_port_explicit: bool = False
    deepspeed_config: str | None = None

    @property
    def world_size(self) -> int:
        return self.nodes * self.gpus_per_node

    def description(self) -> str:
        """One-line text form, used for similarity matching in retrieval."""
        parts = [
            self.cluster,
            self.framework.value,
            self.strategy.value,
            self.launcher.value,
            self.entry_script,
            self.train_args,
        ]
        return " ".join(p for p in parts if p)


class Extractor(Protocol):
    """Anything that maps free text to a PartialJobSpec."""

    def extract(self, text: str) -> PartialJobSpec: ...


# ---------------------------------------------------------------------------
# Rule-based extraction
# ---------------------------------------------------------------------------

_NODE_NOUN = r"(?:compute\s+|gpu\s+)?(?:nodes?|servers?|machines?|hosts?)"

_FLAG_PATTERNS = {
    "nodes": re.compile(r"--n?nodes[=\s]+(\d+)", re.I),
    "gpus_per_node": re.compile(r"--(?:gpus[-_]per[-_]node|nproc[-_]per[-_]node)[=\s]+(\d+)", re.I),
    "total_gpus": re.compile(r"--(?:total[-_]gpus|num[-_]gpus)[=\s]+(\d+)", re.I),
    "master_port": re.compile(r"--(?:master[-_]port|main[-_]process[-_]port|port)[=\s]+(\d+)", re.I),
}

_NODES_PROSE = [
    re.compile(rf"\b{_NUM}\s+{_NODE_NOUN}\b", re.I),
    re.compile(rf"\b(?:across|on|over|spanning|spread\s+over)\s+{_NUM}\s+{_NODE_NOUN}\b", re.I),
]
_SINGLE_NODE = re.compile(r"\b(?:a\s+single|single|one)[-\s](?:node|server|machine|host)\b", re.I)

_GPUS_PER_NODE_PROSE = [
    re.compile(rf"\b{_NUM}\s+gpus?\s+(?:per|on\s+each|in\s+each|for\s+each|each|a)\s+(?:node|server|machine|host)\b", re.I),
    re.compile(rf"\b{_NUM}\s+gpus?\s*/\s*node\b", re.I),
    re.compile(rf"\b{_NUM}\s+gpus?\s+(?:each|apiece)\b", re.I),
    re.compile(rf"\bper[-\s]node\s+gpus?\s*(?:of|is|:|=)?\s*{_NUM}\b", re.I),
]
_TOTAL_GPUS_PROSE = [
    re.compile(rf"\b{_NUM}\s+gpus?\s+(?:in\s+total|total|overall|altogether)\b", re.I),
    re.compile(rf"\b(?:a\s+)?total\s+of\s+{_NUM}\s+gpus?\b", re.I),
    re.compile(rf"\b{_NUM}\s+total\s+gpus?\b", re.I),
    re.compile(rf"\b{_NUM}\s+gpus?\b", re.I),
]

_PORT_PROSE = re.compile(r"\b(?:master\s+|rendezvous\s+)?port\s*(?:is|of|:|=)?\s*(\d{4,5})\b", re.I)

_ENTRY_PROSE = [
    re.compile(
        r"\b(?:training|train|entry|launch|main)\s+(?:file|script|point|program)\s*"
        r"(?:is|will\s+be|:|=)?\s*([\w./-]+\.(?:py|sh))",
        re.I,
    ),
    re.compile(r"--entry(?:[-_]script)?[=\s]+([\w./-]+\.(?:py|sh))", re.I),
    re.compile(r"\b(?:run|execute|launch|start)\s+([\w./-]+\.py)\b", re.I),
    re.compile(r"\bpython3?\s+(?:-u\s+)?([\w./-]+\.py)\b", re.I),
]
_ANY_PY = re.compile(r"(?<![\w/.-])([\w./-]+\.py)\b")

_DS_CONFIG_PROSE = [
    re.compile(r"--deepspeed[-_]config[=\s]+(\S+)", re.I),
    re.compile(
        r"\b(?:deepspeed\s+)?config(?:uration)?(?:\s+file)?\s*(?:is|at|:|=)?\s*([\w./-]+\.json)",
        re.I,
    ),
    re.compile(r"(?<![\w/.-])([\w./-]+\.json)\b"),
]

_ARGS_PROSE = re.compile(
    r"\b(?:(?:my|the|with)\s+)?(?:training\s+|extra\s+)?arg(?:ument)?s?\s+(?:is|are|being|:)\s*(.+)$",
    re.I | re.S,
)

_FRAMEWORK_TERMS = [
    (re.compile(r"\bpytorch\b", re.I), Framework.PYTORCH),
    (re.compile(r"\bdeep\s?speed\b", re.I), Framework.DEEPSPEED),
    (re.compile(r"\b(?:hf\s+|hugging\s?face\s+)?accelerate\b", re.I), Framework.ACCELERATE),
]

# FSDP and ZeRO first: "fully sharded data parallel" contains "data parallel".
_STRATEGY_TERMS = [
    (re.compile(r"\bfsdp\b|\bfully[-\s]sharded(?:\s+data[-\s]parallel(?:ism)?)?\b", re.I), Strategy.FSDP),
    (re.compile(r"\bzero[-\s]?3\b|\bzero\s+stage\s+3\b|\bstage[-\s]?3\b|\bzero3\b", re.I), Strategy.ZERO3),
    (re.compile(r"\bddp\b|\bdistributed\s+data[-\s]parallel(?:ism)?\b|\bdata[-\s]parallel(?:ism)?\b", re.I), Strategy.DDP),
]

_COMBO_ACC_DDP = re.compile(r"\bacc(?:elerate)?[-\s]ddp\b", re.I)

_LAUNCHER_TERMS = [
    (re.compile(r"\btorchrun\b", re.I), Launcher.TORCHRUN),
    (re.compile(r"\bmpiexec\b|\bmpirun\b", re.I), Launcher.MPIEXEC),
    (re.compile(r"\bsrun\b", re.I), Launcher.SRUN),
    (re.compile(r"\bdeepspeed\s+launcher\b", re.I), Launcher.DEEPSPEED),
    (re.compile(r"\baccelerate\s+launch(?:er)?\b", re.I), Launcher.ACCELERATE),
]


class RuleBasedExtractor:
    """Deterministic extractor over the documented phrasing lexicon.

    ``cluster_names`` maps every recognizable cluster name or alias to its
    canonical id; by default the bundled registry supplies it.
    """

    def __init__(self, cluster_names: dict[str, str] | None = None):
        if cluster_names is None:
            cluster_names = default_profiles().names()
        # One group per name, longest first, so at a shared position
        # "deltaai" wins over "delta".  A match maps back through its group
        # number, never through its text: re.I also matches spellings such
        # as "ſ" for "s" that no lowercased key holds.
        ordered = sorted(cluster_names.items(), key=lambda kv: len(kv[0]), reverse=True)
        self._cluster_ids = [canonical for _, canonical in ordered]
        # "(?!)" never matches: an empty registry names no cluster.
        alternation = "|".join(f"({re.escape(name)})" for name, _ in ordered) or "(?!)"
        self._cluster_re = re.compile(rf"(?<![\w-])(?:{alternation})(?![\w-])", re.I)

    def extract(self, text: str) -> PartialJobSpec:
        if not text:
            raise ValueError("extract requires non-empty text")
        spec = PartialJobSpec()
        matched_any = False

        m = self._cluster_re.search(text)
        if m:
            spec.cluster = self._cluster_ids[m.lastindex - 1]
            matched_any = True

        for pattern, framework in _FRAMEWORK_TERMS:
            if pattern.search(text):
                spec.framework = framework
                matched_any = True
                break

        if _COMBO_ACC_DDP.search(text):
            spec.framework = Framework.ACCELERATE
            spec.strategy = Strategy.DDP
            matched_any = True
        else:
            for pattern, strategy in _STRATEGY_TERMS:
                if pattern.search(text):
                    spec.strategy = strategy
                    matched_any = True
                    break

        for pattern, launcher in _LAUNCHER_TERMS:
            if pattern.search(text):
                spec.launcher = launcher
                matched_any = True
                break

        # Flags read the text as given; prose counts read the digit copy.
        digits = _digits(text)
        nodes = _first_int(text, _FLAG_PATTERNS["nodes"]) or _first_int(digits, *_NODES_PROSE)
        if nodes is None and _SINGLE_NODE.search(text):
            nodes = 1
        if nodes is not None:
            spec.nodes = nodes
            matched_any = True

        per_node = _first_int(text, _FLAG_PATTERNS["gpus_per_node"]) or _first_int(
            digits, *_GPUS_PER_NODE_PROSE
        )
        if per_node is not None:
            spec.gpus_per_node = per_node
            matched_any = True
        else:
            total = _first_int(text, _FLAG_PATTERNS["total_gpus"]) or _first_int(
                digits, *_TOTAL_GPUS_PROSE
            )
            if total is not None:
                spec.total_gpus = total
                matched_any = True

        port = _first_int(text, _FLAG_PATTERNS["master_port"], _PORT_PROSE)
        if port is not None and PORT_MIN <= port <= PORT_MAX:
            spec.master_port = port
            matched_any = True

        for pattern in _ENTRY_PROSE:
            m = pattern.search(text)
            if m:
                spec.entry_script = m.group(1)
                matched_any = True
                break
        else:
            m = _ANY_PY.search(text)
            if m:
                spec.entry_script = m.group(1)
                matched_any = True

        if spec.framework is Framework.DEEPSPEED or "deepspeed" in text.lower():
            for pattern in _DS_CONFIG_PROSE:
                m = pattern.search(text)
                if m:
                    spec.deepspeed_config = m.group(1)
                    matched_any = True
                    break

        args_match = _ARGS_PROSE.search(text)
        if args_match:
            spec.train_args = args_match.group(1).strip()
        elif not matched_any:
            # Nothing extractable: keep the input verbatim so it is not lost.
            spec.train_args = text.strip()
        return spec


def _first_int(text: str, *patterns: re.Pattern) -> int | None:
    """The first positive count captured by ``patterns``, tried in order."""
    for pattern in patterns:
        m = pattern.search(text)
        if m:
            value = int(m.group(1))
            if value >= 1:
                return value
    return None


@functools.cache
def _default_extractor() -> RuleBasedExtractor:
    return RuleBasedExtractor()


def extract(text: str, extractor: Extractor | None = None) -> PartialJobSpec:
    """Extract a PartialJobSpec from free text.

    Extraction is best effort and never raises on unrecognized content; an
    empty ``text`` violates the precondition and raises ``ValueError``.
    Without an ``extractor``, one rule-based extractor over the bundled
    registry is built on first use and reused.
    """
    if not text:
        raise ValueError("extract requires non-empty text")
    if extractor is None:
        extractor = _default_extractor()
    return extractor.extract(text)


# ---------------------------------------------------------------------------
# Derivation, completeness, and finalization
# ---------------------------------------------------------------------------


def derive(p: PartialJobSpec) -> PartialJobSpec:
    """Fill fields that follow from others, without guessing.

    Applies the launcher/strategy implication tables and resolves the
    nodes / gpus_per_node / total_gpus triangle wherever two corners are
    known.  Contradictory counts are left for :func:`finalize` to reject.
    """
    d = replace(p)
    if d.framework is None and d.launcher is not None:
        d.framework = LAUNCHER_IMPLIES_FRAMEWORK.get(d.launcher)
    if d.framework is None and d.strategy is not None:
        d.framework = STRATEGY_IMPLIES_FRAMEWORK.get(d.strategy)
    if d.strategy is None and d.framework is not None:
        d.strategy = Strategy.ZERO3 if d.framework is Framework.DEEPSPEED else Strategy.DDP

    if d.nodes is None and d.total_gpus is not None:
        if d.gpus_per_node is not None:
            if d.total_gpus % d.gpus_per_node == 0:
                d.nodes = d.total_gpus // d.gpus_per_node
        else:
            # A bare total with no node count anywhere means a single node.
            d.nodes = 1
    if d.gpus_per_node is None and d.total_gpus is not None and d.nodes is not None:
        if d.total_gpus % d.nodes == 0:
            d.gpus_per_node = d.total_gpus // d.nodes
    return d


def missing_fields(p: PartialJobSpec) -> list[str]:
    """Required fields that can neither be read nor derived, in stable order."""
    d = derive(p)
    missing = []
    for name in REQUIRED_FIELDS:
        if name == "gpus_per_node":
            if d.gpus_per_node is None and d.total_gpus is None:
                missing.append(name)
        elif getattr(d, name) in (None, ""):
            missing.append(name)
    return missing


def finalize(p: PartialJobSpec, profile: ClusterProfile) -> JobSpec:
    """Validate and complete a partial spec against a cluster profile.

    Raises :class:`IncompleteSpecError` when required fields are missing,
    :class:`InconsistentTopologyError` when counts contradict each other,
    and :class:`CapacityError` when the per-node GPU count exceeds the
    profile.
    """
    missing = missing_fields(p)
    if missing:
        raise IncompleteSpecError(missing)
    d = derive(p)

    if d.total_gpus is not None and d.nodes is not None:
        if d.total_gpus % d.nodes != 0:
            raise InconsistentTopologyError(
                f"{d.total_gpus} total GPUs cannot be split evenly across {d.nodes} nodes"
            )
        per_node = d.total_gpus // d.nodes
        if d.gpus_per_node is not None and d.gpus_per_node != per_node:
            raise InconsistentTopologyError(
                f"gpus_per_node={d.gpus_per_node} contradicts "
                f"{d.total_gpus} GPUs over {d.nodes} nodes"
            )
        d.gpus_per_node = per_node

    assert d.nodes is not None and d.gpus_per_node is not None
    if d.gpus_per_node > profile.gpus_per_node:
        raise CapacityError(
            f"{d.gpus_per_node} GPUs per node requested but {profile.id} "
            f"offers {profile.gpus_per_node}",
            limit=profile.gpus_per_node,
        )

    launcher = d.launcher
    if launcher is None:
        launcher = FRAMEWORK_DEFAULT_LAUNCHER.get(d.framework)  # type: ignore[arg-type]
    if launcher is None:
        # PyTorch jobs take the cluster's customary launcher.
        launcher = profile.default_launcher
        if launcher not in (Launcher.TORCHRUN, Launcher.MPIEXEC, Launcher.SRUN):
            launcher = Launcher.TORCHRUN

    explicit_port = d.master_port is not None
    return JobSpec(
        cluster=profile.id,
        framework=d.framework,  # type: ignore[arg-type]
        strategy=d.strategy,  # type: ignore[arg-type]
        launcher=launcher,
        nodes=d.nodes,
        gpus_per_node=d.gpus_per_node,
        entry_script=d.entry_script,  # type: ignore[arg-type]
        train_args=d.train_args,
        master_port=d.master_port if explicit_port else DEFAULT_MASTER_PORT,
        master_port_explicit=explicit_port,
        deepspeed_config=d.deepspeed_config,
    )


# ---------------------------------------------------------------------------
# Launch-script parsing
# ---------------------------------------------------------------------------

_LAUNCHER_WORDS = ("torchrun", "deepspeed", "mpiexec", "mpirun", "srun", "accelerate")

_RE_NNODES = re.compile(r"--nnodes[=\s]+(\d+)")
_RE_NPROC = re.compile(r"--nproc[-_]per[-_]node[=\s]+(\d+)")
_RE_TORCH_PORT = re.compile(r"--master[-_]port[=\s]+(\d+)")
_RE_GENV_PORT = re.compile(r"MASTER_PORT[=\s]+(\d+)")
_RE_NUM_MACHINES = re.compile(r"--num[-_]machines[=\s]+(\d+)")
_RE_NUM_PROCESSES = re.compile(r"--num[-_]processes[=\s]+(\d+)")
_RE_MAIN_PORT = re.compile(r"--main[-_]process[-_]port[=\s]+(\d+)")
_RE_NUM_NODES = re.compile(r"--num[-_]nodes[=\s]+(\d+)")
_RE_NUM_GPUS = re.compile(r"--num[-_]gpus[=\s]+(\d+)")
_RE_SLOTS = re.compile(r"slots=(\d+)")
_RE_SRUN_N_UPPER = re.compile(r"\bsrun\b[^\n]*?-N[=\s]+(\d+)")
_RE_TRAILING_JSON = re.compile(r"([\w./-]+\.json)\s*'?\s*$")


def parse_script(script: str) -> PartialJobSpec:
    """Recover job parameters from a launch script written for some cluster.

    Best effort: recognizes srun, mpiexec, torchrun, deepspeed, and
    accelerate invocations; anything else yields an empty spec.  The node
    count is reported only when the script states it directly (torchrun,
    accelerate, and deepspeed forms); an mpiexec "-n W -ppn G" pair leaves
    the node count for spec finalization to derive.  A per-node count is
    derived from total/machines when both are visible.
    """
    spec = PartialJobSpec()
    lowered = script.lower()
    if not any(word in lowered for word in _LAUNCHER_WORDS):
        return spec

    if "torchrun" in lowered:
        spec.launcher = Launcher.TORCHRUN
    elif "deepspeed" in lowered:
        spec.launcher = Launcher.DEEPSPEED
    elif "accelerate" in lowered:
        spec.launcher = Launcher.ACCELERATE
    elif "mpiexec" in lowered or "mpirun" in lowered:
        spec.launcher = Launcher.MPIEXEC
    elif "srun" in lowered:
        spec.launcher = Launcher.SRUN

    def grab(pattern: re.Pattern) -> int | None:
        m = pattern.search(script)
        return _positive(int(m.group(1))) if m else None

    if spec.launcher is Launcher.TORCHRUN:
        spec.nodes = grab(_RE_NNODES)
        spec.gpus_per_node = grab(_RE_NPROC)
        spec.master_port = _valid_port(grab(_RE_TORCH_PORT))
        if spec.nodes is None:
            spec.nodes = grab(_RE_SRUN_N_UPPER)
    elif spec.launcher is Launcher.ACCELERATE:
        spec.nodes = grab(_RE_NUM_MACHINES)
        spec.total_gpus = grab(_RE_NUM_PROCESSES)
        spec.master_port = _valid_port(grab(_RE_MAIN_PORT))
        if spec.nodes and spec.total_gpus and spec.total_gpus % spec.nodes == 0:
            spec.gpus_per_node = spec.total_gpus // spec.nodes
    elif spec.launcher is Launcher.DEEPSPEED:
        spec.nodes = grab(_RE_NUM_NODES)
        spec.gpus_per_node = grab(_RE_NUM_GPUS) or grab(_RE_SLOTS)
        spec.master_port = _valid_port(grab(_RE_TORCH_PORT))
    elif spec.launcher is Launcher.MPIEXEC:
        idx = lowered.find("mpiexec")
        if idx < 0:
            idx = lowered.find("mpirun")
        tail = script[idx:]
        m_world = re.search(r"(?<![\w-])-n[=\s]+(\d+)", tail)
        m_ppn = re.search(r"(?<![\w-])-ppn[=\s]+(\d+)", tail)
        spec.total_gpus = _positive(int(m_world.group(1))) if m_world else None
        spec.gpus_per_node = _positive(int(m_ppn.group(1))) if m_ppn else None
        spec.master_port = _valid_port(grab(_RE_GENV_PORT))
    else:  # bare srun
        spec.nodes = grab(_RE_SRUN_N_UPPER)

    if spec.master_port is None:
        spec.master_port = _valid_port(grab(_RE_GENV_PORT)) or _valid_port(grab(_RE_TORCH_PORT))

    entry = _ANY_PY.search(script)
    if entry:
        spec.entry_script = entry.group(1)
        tail = script[entry.end():]
        tail = tail.strip().strip("'\"").strip()
        if spec.launcher is Launcher.DEEPSPEED:
            m_cfg = _RE_TRAILING_JSON.search(tail)
            if m_cfg:
                spec.deepspeed_config = m_cfg.group(1)
                tail = tail[: m_cfg.start()].strip()
        spec.train_args = tail
    return spec


def _valid_port(value: int | None) -> int | None:
    if value is not None and PORT_MIN <= value <= PORT_MAX:
        return value
    return None


def _positive(value: int | None) -> int | None:
    return value if value is not None and value >= 1 else None
