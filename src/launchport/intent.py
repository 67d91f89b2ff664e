"""Job-intent extraction and normalization.

This module turns three kinds of user input into a canonical job
description: free text ("train ViT on two nodes with 8 GPUs"), an existing
launch script from another machine, or explicit field values.  The result is
first a :class:`PartialJobSpec` (every field optional, absence represented
rather than raised) and, once the required fields are present or derivable,
a validated :class:`JobSpec`.

Extraction reads the text once, case-insensitively, into tokens:

* counts: digits, or a number word "one" through "sixty-four" standing as a
  whole word ("twenty one" and "twenty-one" are 21); larger counts must be
  written as digits.  A count carries the phrase after it: node nouns
  ("servers", "machines", "hosts" and "compute nodes" all mean nodes) or
  GPUs, with "per node", "each", "/node" or "in total";
* phrases that lead up to a count ("on 2 nodes", "a total of 8 GPUs",
  "per-node GPUs: 4") and "a single node";
* flags with their values ("--nodes 2", "--entry train.py");
* paths ending in ".py" or ".json", and the port, entry-script,
  DeepSpeed-config and training-argument phrases;
* framework, strategy and launcher terms;
* cluster names and aliases standing apart from word characters and hyphens.

Precedence rules over the tokens, fixed so that extraction is deterministic:

* a flag wins over prose for every field;
* each phrase is read where it first occurs, and a count of 0 there (or
  one too long for ``int()``) passes the field on to the next phrase;
* a per-node count ("N GPUs per node") is read before a total; a bare
  "N GPUs" is a total, with nodes defaulting to 1 when no node count is
  given anywhere;
* the cluster is the earliest name; where two start at the same place the
  longer one wins ("deltaai" over "delta");
* FSDP and ZeRO-3 come before DDP ("fully sharded data parallel" names no
  DDP), and "acc-ddp" means Accelerate with DDP whatever else is named;
* the entry script is the first of: the flag, an "entry/training file is"
  phrase, "run X", "python X", and any ".py" path;
* a DeepSpeed config is read only when DeepSpeed is named;
* "... arguments are X" makes the rest of the text the training
  arguments; when nothing at all is read, the text is kept whole as the
  arguments;
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
from typing import Protocol

from .clusters import ClusterProfile, default_profiles
from .errors import (
    CapacityError,
    IncompleteSpecError,
    InconsistentTopologyError,
    UsageError,
)
from .types import (
    DEFAULT_MASTER_PORT,
    Framework,
    FrozenRecord,
    Launcher,
    PORT_MAX,
    PORT_MIN,
    Record,
    Strategy,
    set_frozen,
    valid_port,
)

REQUIRED_FIELDS = ("cluster", "framework", "strategy", "nodes", "gpus_per_node", "entry_script")

# The most nodes one job may span: above every real cluster (Aurora has
# 10,624 nodes).  The mock cluster builds one rank per GPU, so a count
# without a limit could ask it for an unbounded amount of memory.
MAX_NODES = 16_384

# Launcher-implication table: naming the launcher is enough to fix the
# framework, and a framework without a named strategy means plain DDP.
# mpiexec and srun drive the training program directly, which is the plain
# PyTorch launch form; DeepSpeed and Accelerate jobs go through their own
# launchers.  A job that names no launcher takes the cluster's default when
# it implies the job's framework, else the first launcher here that does.
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
# Strategy shorthands: each names a framework and a strategy, and its
# framework wins over any other one stated.  The CLI's --strategy choices,
# --answers and prompt, and the prose reading of "acc-ddp", use this table.
STRATEGY_SHORTHANDS = {"acc-ddp": (Framework.ACCELERATE, Strategy.DDP)}
# The launchers that imply each framework, in table order.
_FRAMEWORK_LAUNCHERS = {
    framework: tuple(launcher for launcher, implied in LAUNCHER_IMPLIES_FRAMEWORK.items()
                     if implied is framework)
    for framework in Framework
}


_UNITS = ("one", "two", "three", "four", "five", "six", "seven", "eight", "nine")
_TEENS = ("ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen",
          "seventeen", "eighteen", "nineteen")
_TENS = {"twenty": 20, "thirty": 30, "forty": 40, "fifty": 50, "sixty": 60}


def _tens_units(base: int) -> tuple[str, ...]:
    """The units a tens word takes without passing 64."""
    return _UNITS[: 64 - base]


def _number_words() -> dict[str, int]:
    words = {w: i + 1 for i, w in enumerate(_UNITS)}
    words.update({w: 10 + i for i, w in enumerate(_TEENS)})
    for name, base in _TENS.items():
        words[name] = base
        for i, unit in enumerate(_tens_units(base)):
            words[f"{name}-{unit}"] = base + i + 1
            words[f"{name} {unit}"] = base + i + 1
    return words


NUMBER_WORDS = _number_words()


# How each field that a user may state is read from text, in prompt order.
# The CLI reads ``--answers`` and prompted values with it; the bridge reads
# a remote extraction with it, plus the launcher.
FIELD_PARSERS = {
    "cluster": str,
    "framework": Framework,
    "strategy": Strategy,
    "nodes": int,
    "gpus_per_node": int,
    "total_gpus": int,
    "master_port": int,
    "entry_script": str,
    "deepspeed_config": str,
    "train_args": str,
}


class PartialJobSpec(Record):
    """Best-effort job description; every field may be absent.

    Present fields are validated on construction: counts must be positive
    and a port must pass :func:`~launchport.types.valid_port`, which also
    reads a port given as text.  Fields may be assigned afterwards,
    unchecked.
    """

    __slots__ = ("cluster", "framework", "strategy", "launcher", "nodes", "gpus_per_node",
                 "total_gpus", "master_port", "entry_script", "train_args", "deepspeed_config")

    def __init__(
        self,
        cluster: str | None = None,
        framework: Framework | None = None,
        strategy: Strategy | None = None,
        launcher: Launcher | None = None,
        nodes: int | None = None,
        gpus_per_node: int | None = None,
        total_gpus: int | None = None,
        master_port: int | None = None,
        entry_script: str | None = None,
        train_args: str = "",
        deepspeed_config: str | None = None,
    ) -> None:
        for name, value in (("nodes", nodes), ("gpus_per_node", gpus_per_node),
                            ("total_gpus", total_gpus)):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {_shown(value)}")
        port = valid_port(master_port)
        if port is None and master_port is not None:
            raise ValueError(
                f"master_port must be in [{PORT_MIN}, {PORT_MAX}], got {_shown(master_port)}")
        self.cluster = cluster
        self.framework = framework
        self.strategy = strategy
        self.launcher = launcher
        self.nodes = nodes
        self.gpus_per_node = gpus_per_node
        self.total_gpus = total_gpus
        self.master_port = port
        self.entry_script = entry_script
        self.train_args = train_args
        self.deepspeed_config = deepspeed_config

    def merged_with(self, other: "PartialJobSpec") -> "PartialJobSpec":
        """Overlay ``other`` on top of this spec; present fields in ``other`` win."""
        updates = {}
        for name in self._fields:
            value = getattr(other, name)
            if name == "train_args":
                if value:
                    updates[name] = value
            elif value is not None:
                updates[name] = value
        return self.replace(**updates)


def _shown(value: object) -> str:
    """``value`` as text for a message; an int too long to convert is not converted."""
    try:
        return str(value)
    except ValueError:
        return "an integer too long to show"


class JobSpec(FrozenRecord):
    """Validated, canonical description of a distributed training job.

    ``world_size`` is always recomputed from nodes and gpus_per_node; it is
    never stored independently, so the two can never disagree.
    ``master_port_explicit`` records whether the port came from the user (or
    from a parsed script) as opposed to the package default; only explicit
    ports override a template's own declared port.
    """

    __slots__ = ("cluster", "framework", "strategy", "launcher", "nodes", "gpus_per_node",
                 "entry_script", "train_args", "master_port", "master_port_explicit",
                 "deepspeed_config")

    def __init__(
        self,
        cluster: str,
        framework: Framework,
        strategy: Strategy,
        launcher: Launcher,
        nodes: int,
        gpus_per_node: int,
        entry_script: str,
        train_args: str = "",
        master_port: int = DEFAULT_MASTER_PORT,
        master_port_explicit: bool = False,
        deepspeed_config: str | None = None,
    ) -> None:
        set_frozen(self, "cluster", cluster)
        set_frozen(self, "framework", framework)
        set_frozen(self, "strategy", strategy)
        set_frozen(self, "launcher", launcher)
        set_frozen(self, "nodes", nodes)
        set_frozen(self, "gpus_per_node", gpus_per_node)
        set_frozen(self, "entry_script", entry_script)
        set_frozen(self, "train_args", train_args)
        set_frozen(self, "master_port", master_port)
        set_frozen(self, "master_port_explicit", master_port_explicit)
        set_frozen(self, "deepspeed_config", deepspeed_config)

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

# One scanner per cluster registry reads the text in one finditer pass
# (re.I).  Each match is a token; its kind is the name of the group that
# closes last, an empty group at the end of each branch.  A token consumes at
# most the start of one word, or the "--" of a flag, and reads the phrase after
# it through lookaheads, so no token hides the start of another: every word
# start, every "--" and every start of a run of path characters is scanned.

_NODE = r"(?:node|server|machine|host)"

# The letters outside ASCII that re.I matches to an ASCII letter.
_FOLDS = {"i": "\u0130\u0131", "k": "\u212a", "s": "\u017f"}  # İ ı, Kelvin sign, ſ


def _words(*words: str) -> str:
    """Any of ``words``: one case-sensitive test of the first letter, then the rest.

    Each word is a pattern that starts with an ASCII letter.  The regex engine
    skips a branch that starts with a case-sensitive test after one character
    comparison, where under re.I it would enter the branch; the test admits
    every letter that re.I matches to the first one.  Where the words start
    with different letters, a lookbehind tells which one stood there.
    """
    firsts = sorted({word[0] for word in words})
    letters = "".join(f + f.upper() + _FOLDS.get(f, "") for f in firsts)
    rests = [word[1:] if len(firsts) == 1 else f"(?<={word[0]}){word[1:]}" for word in words]
    return f"(?-i:[{letters}])(?:" + "|".join(rests) + ")"


def _cluster_names(names: dict[str, str]) -> tuple[str, list[str]]:
    """The names as one pattern with a group each, and the id of each group.

    Names are grouped by first letter and tried longest first within a group,
    so at a shared place "deltaai" wins over "delta"; a letter re.I folds onto
    an ASCII one ("ſ" onto "s") joins that letter's group, and names starting
    with anything else share one group, which no other group can match where
    they do.  A match maps back through its group number, never through its
    text, which re.I lets differ from every key.  "(?!)" never matches: an
    empty registry names no cluster.
    """
    unfold = {char: letter for letter, chars in _FOLDS.items() for char in chars}
    groups: dict[str, list[tuple[str, str]]] = {}
    for name, canonical in sorted(names.items(), key=lambda kv: len(kv[0]), reverse=True):
        first = unfold.get(name[:1], name[:1].lower())
        letter = first if first.isascii() and first.isalpha() else ""
        groups.setdefault(letter, []).append((name, canonical))
    arms = [
        _words(*(f"{letter}({re.escape(name[1:])})" for name, _ in group)) if letter
        else "(?:" + "|".join(f"({re.escape(name)})" for name, _ in group) + ")"
        for letter, group in groups.items()
    ]
    pattern = f"(?:{'|'.join(arms)})(?![\\w-])" if arms else "(?!)"
    return pattern, [canonical for group in groups.values() for _, canonical in group]


def _number_word() -> str:
    """Any number word, whole; a tens word reads its unit too ("twenty-one")."""
    arms = [f"{name}(?:[- ](?:{'|'.join(_tens_units(base))}))?" for name, base in _TENS.items()]
    by_letter: dict[str, list[str]] = {}
    for arm in arms + list(_TEENS) + list(_UNITS):
        by_letter.setdefault(arm[0], []).append(arm)
    return r"\b(?:" + "|".join(_words(*arms) for arms in by_letter.values()) + r")\b"


# Whole words only: "seventy" holds no "seven", "someone" no "one".
_NUMBER_WORD = _number_word()
_PY = r"[\w./-]+\.py"

_SCANNER = (
    # Zero-width, where no word character or hyphen precedes: a path, case as
    # written, where a run of path characters with a dot starts, and a cluster
    # name.  The word that starts there is scanned next.
    r"(?<![\w-])"
    r"(?=(?<![/.])(?=[\w/-]*\.)(?-i:(?=(?P<py>" + _PY + r")\b|)(?=(?P<json>[\w./-]+\.json)\b|))|)"
    r"(?:(?={clusters})|(?(py)|(?(json)|(?!))))"
    # Flags with their values.
    r"|--(?="
    r"n?nodes[=\s]+(?P<f_nodes>\d+)"
    r"|(?:gpus|nproc)[-_]per[-_]node[=\s]+(?P<f_gpus_per_node>\d+)"
    r"|(?:total|num)[-_]gpus[=\s]+(?P<f_total_gpus>\d+)"
    r"|(?:master[-_]|main[-_]process[-_])?port[=\s]+(?P<f_master_port>\d+)"
    r"|entry(?:[-_]script)?[=\s]+(?P<f_entry>[\w./-]+\.(?:py|sh))"
    r"|deepspeed[-_]config[=\s]+(?P<f_config>\S*[^\s,;]))"
    # Every branch below starts with a word character, so the lookahead
    # skips them all at once where a word ends.
    r"|\b(?=\w)(?:"
    # A count and the phrase after it: digits only with a phrase, a number
    # word also without one ("per node GPUs: eight"); "one" before a node
    # noun also means a single node.
    r"(?=one[-\s]" + _NODE + r"\b(?P<one_node>)|)"
    r"(?=(?:(?P<digits>\d+)|(?P<word>" + _NUMBER_WORD + r"))(?:\s+(?:"
    r"gpu\s+" + _NODE + r"s?\b(?P<gpu_nodes>)"
    r"|(?:compute\s+)?" + _NODE + r"s?\b(?P<nodes>)"
    r"|total\s+gpus?\b(?P<total_gpus>)"
    r"|gpus?(?:\s+each\s+" + _NODE + r"\b(?P<per_node_each>)"
    r"|\s+(?:per|on\s+each|in\s+each|for\s+each|a)\s+" + _NODE + r"\b(?P<per_node>)"
    r"|\s*/\s*node\b(?P<per_node_slash>)"
    r"|\s+(?:each|apiece)\b(?P<each>)"
    r"|\s+(?:in\s+total|total|overall|altogether)\b(?P<in_total>)"
    r"|\b(?P<gpus>)))|(?(word)|(?!))))\w+"
    # Phrases that lead up to a count: "on 2 nodes", "total of 8 GPUs",
    # "per-node GPUs: 4"; and "a single node".
    r"|" + _words("across", "on", "over", "spanning") + r"(?=\s+(?P<across>)[\defnost])"
    r"|" + _words(r"total(?=\s+of\s+(?P<total_of>)[\defnost])")
    + r"|" + _words(r"per(?=[-\s]node\s+gpus?\s*(?:of|is|:|=)?\s*"
                    r"(?:(?P<per_node_digits>\d+)\b|\b(?P<per_node_word>)(?=[^\W\d])))")
    + r"|" + _words(r"single(?=[-\s]" + _NODE + r"\b)(?P<single>)")
    # Framework, strategy and launcher terms.
    + r"|" + _words(r"pytorch\b(?P<pytorch>)")
    + r"|" + _words(r"deep(?=\s?speed\b)(?=speed\s+launcher\b(?P<deepspeed_launcher>)|)"
                    r"(?P<deepspeed>)")
    + r"|" + _words(r"acc(?=elerate\b|[-\s]ddp\b)(?:elerate\b(?P<accelerate>)"
                    r"(?=\s+launch(?:er)?\b(?P<accelerate_launcher>)|))?"
                    r"(?=[-\s]ddp\b(?P<acc_ddp>)|)(?P<acc>)")
    + r"|" + _words(r"fsdp\b(?P<fsdp>)", r"fully(?=[-\s]sharded\b)(?P<fully_sharded>)")
    + r"|" + _words(r"zero(?=[-\s]?3\b)(?P<zero3>)")
    + r"|" + _words(r"stage(?=[-\s]?3\b)(?P<stage3>)")
    + r"|" + _words(r"ddp\b(?P<ddp>)", r"data(?=[-\s]parallel(?:ism)?\b)(?P<data_parallel>)")
    + r"|" + _words(r"torchrun\b(?P<torchrun>)")
    + r"|" + _words(r"mpiexec\b(?P<mpiexec>)", r"mpirun\b(?P<mpirun>)")
    + r"|" + _words(r"srun\b(?P<srun>)")
    # Port, entry script, DeepSpeed config and training arguments.
    + r"|" + _words(r"port(?=\s*(?:is|of|:|=)?\s*(?P<port>\d{4,5})\b)")
    + r"|" + _words("training", "train", "entry", "launch", "main")
    + r"(?=\s+(?:file|script|point|program)\s*(?:is|will\s+be|:|=)?\s*"
    r"(?P<entry_phrase>[\w./-]+\.(?:py|sh)))"
    r"|" + _words("run", "execute", "launch", "start") + r"(?=\s+(?P<run>" + _PY + r")\b)"
    r"|" + _words(r"python3?(?=\s+(?:-u\s+)?(?P<python>" + _PY + r")\b)")
    + r"|" + _words(r"config(?=(?:uration)?(?:\s+file)?\s*(?:is|at|:|=)?\s*"
                    r"(?P<config>[\w./-]+\.json))")
    + r"|" + _words(r"arg(?=(?:ument)?s?\s+(?:is|are|being|:)\s*(?P<args>(?s:.+))$)")
    + r")"
)

# What a count is, by the phrase after it: the phrases it fills, in the
# order the precedence rules read them.
_COUNT_PHRASES = {
    "digits": (),
    "word": (),
    "gpu_nodes": ("nodes", "gpus"),
    "nodes": ("nodes",),
    "total_gpus": ("total_gpus",),
    "per_node_each": ("per_node", "each", "gpus"),
    "per_node": ("per_node", "gpus"),
    "per_node_slash": ("per_node_slash", "gpus"),
    "each": ("each", "gpus"),
    "in_total": ("in_total", "gpus"),
    "gpus": ("gpus",),
}

# Phrases that end where their count starts: the phrase they fill and the
# phrase the count itself must fill there ("on 2 nodes", "total of 8 GPUs",
# "per-node GPUs: eight").
_LEADS = {
    "across": ("across", "nodes"),
    "total_of": ("total_of", "gpus"),
    "per_node_word": ("per_node_phrase", None),
}

# Terms by rank: the first one the text holds fixes the field.  FSDP and ZeRO
# come before DDP: "fully sharded data parallel" contains "data parallel".
_FRAMEWORK_TERMS = (
    ("pytorch", Framework.PYTORCH),
    ("deepspeed", Framework.DEEPSPEED),
    ("accelerate", Framework.ACCELERATE),
)
_STRATEGY_TERMS = (
    ("fsdp", Strategy.FSDP),
    ("fully_sharded", Strategy.FSDP),
    ("zero3", Strategy.ZERO3),
    ("stage3", Strategy.ZERO3),
    ("ddp", Strategy.DDP),
    ("data_parallel", Strategy.DDP),
)
_LAUNCHER_TERMS = (
    ("torchrun", Launcher.TORCHRUN),
    ("mpiexec", Launcher.MPIEXEC),
    ("mpirun", Launcher.MPIEXEC),
    ("srun", Launcher.SRUN),
    ("deepspeed_launcher", Launcher.DEEPSPEED),
    ("accelerate_launcher", Launcher.ACCELERATE),
)


class RuleBasedExtractor:
    """Deterministic extractor over the documented phrasing lexicon.

    ``cluster_names`` maps every recognizable cluster name or alias to its
    canonical id; by default the bundled registry supplies it.
    """

    def __init__(self, cluster_names: dict[str, str] | None = None):
        if cluster_names is None:
            cluster_names = default_profiles().names()
        clusters, self._cluster_ids = _cluster_names(cluster_names)
        scanner = re.compile(_SCANNER.replace("{clusters}", clusters), re.I)
        self._scan = scanner.finditer
        self._cluster_group = scanner.groupindex["json"] + 1

    def extract(self, text: str) -> PartialJobSpec:
        if not text:
            raise ValueError("extract requires non-empty text")
        first: dict[str, object] = {}  # what the first phrase of each kind read
        leads = {}  # where a phrase expects its count -> what it reads there
        word_end = 0  # no count starts inside a number word
        cluster = None
        for m in self._scan(text):
            kind = m.lastgroup
            phrases = _COUNT_PHRASES.get(kind)
            if phrases is not None:
                if m["one_node"] is not None:
                    first.setdefault("single", "")
                word = m["word"]
                if word is None:
                    value = _int(m["digits"])
                elif m.start() < word_end:
                    continue
                else:
                    word_end = m.start() + len(word)
                    # Only a number word spelled in ASCII letters is read; one
                    # that re.I matches through "ſ" or "ı" is no count.
                    value = NUMBER_WORDS.get(word.lower())
                    if value is None:
                        continue
                for phrase in phrases:
                    first.setdefault(phrase, value)
                lead = leads.get(m.start())
                if lead is not None and (lead[1] is None or lead[1] in phrases):
                    first.setdefault(lead[0], value)
            elif kind in _LEADS:
                leads[m.start(kind)] = _LEADS[kind]
            elif kind == "per_node_digits":
                first.setdefault("per_node_phrase", _int(m[kind]))
            elif kind == "acc":
                for term in ("accelerate", "accelerate_launcher", "acc_ddp"):
                    if m[term] is not None:
                        first.setdefault(term, "")
            elif kind == "deepspeed":
                first.setdefault(kind, "")
                if m["deepspeed_launcher"] is not None:
                    first.setdefault("deepspeed_launcher", "")
            elif kind is None or kind == "py" or kind == "json":
                # Where a path or a cluster name starts; a name's group is
                # unnamed, so its kind is None.
                for path in ("py", "json"):
                    if m[path] is not None:
                        first.setdefault(path, m[path])
                if cluster is None and m.lastindex >= self._cluster_group:
                    cluster = self._cluster_ids[m.lastindex - self._cluster_group]
            else:
                first.setdefault(kind, m[kind])
        return _resolve(text, first, cluster)


def _resolve(text: str, first: dict[str, object], cluster: str | None) -> PartialJobSpec:
    """The precedence rules over what the scan read first of each kind."""

    def count(*kinds: str) -> int | None:
        """The count of the first kind present, if it is at least 1.

        Each phrase is read at its first place only; a count of 0 there
        passes the field on to the next kind.  Flag and port values are
        still digits as written.
        """
        for kind in kinds:
            value = first.get(kind)
            if value is not None:
                value = _int(value) if isinstance(value, str) else value
                if value >= 1:
                    return value
        return None

    spec = PartialJobSpec(cluster=cluster)
    spec.framework = next((v for k, v in _FRAMEWORK_TERMS if k in first), None)
    if "acc_ddp" in first:
        spec.framework, spec.strategy = STRATEGY_SHORTHANDS["acc-ddp"]
    else:
        spec.strategy = next((v for k, v in _STRATEGY_TERMS if k in first), None)
    spec.launcher = next((v for k, v in _LAUNCHER_TERMS if k in first), None)

    spec.nodes = count("f_nodes", "nodes", "across") or (1 if "single" in first else None)
    spec.gpus_per_node = count("f_gpus_per_node", "per_node", "per_node_slash", "each",
                               "per_node_phrase")
    if spec.gpus_per_node is None:
        spec.total_gpus = count("f_total_gpus", "in_total", "total_of", "total_gpus", "gpus")
    spec.master_port = valid_port(count("f_master_port", "port"))
    spec.entry_script = (first.get("f_entry") or first.get("entry_phrase")
                         or first.get("run") or first.get("python") or first.get("py"))
    config = first.get("f_config") or first.get("config") or first.get("json")
    if config and (spec.framework is Framework.DEEPSPEED or "deepspeed" in text.lower()):
        spec.deepspeed_config = config

    if "args" in first:
        spec.train_args = first["args"].strip()
    elif spec == PartialJobSpec():
        # Nothing extractable: keep the input verbatim so it is not lost.
        spec.train_args = text.strip()
    return spec


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
    d = p.replace()
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
    return _missing(derive(p))


def _missing(d: PartialJobSpec) -> list[str]:
    """The required fields a derived spec lacks, in stable order."""
    missing = []
    for name in REQUIRED_FIELDS:
        if name == "gpus_per_node":
            if d.gpus_per_node is None and d.total_gpus is None:
                missing.append(name)
        elif getattr(d, name) in (None, ""):
            missing.append(name)
    return missing


def check_script_text(name: str, value: object) -> None:
    """Raise :class:`UsageError` if ``value``, the text of job field ``name``,
    holds a single quote or a newline: most templates put it inside
    ``bash -c '...'``, which a quote would end early and a newline split in two."""
    if isinstance(value, str) and ("'" in value or "\n" in value):
        raise UsageError(f"{name} may not hold a single quote or a newline, which would break the "
                         f"quoted launch command; use double quotes, on one line (got {value!r})")


def finalize(p: PartialJobSpec, profile: ClusterProfile) -> JobSpec:
    """Validate and complete a partial spec against a cluster profile.

    Raises :class:`IncompleteSpecError` when required fields are missing,
    :class:`UsageError` when a text field breaks :func:`check_script_text`,
    :class:`InconsistentTopologyError` when counts contradict each other or
    the job spans more than :data:`MAX_NODES` nodes, and
    :class:`CapacityError` when the per-node GPU count exceeds the profile;
    the error suggests every split of the same world size that fits, nearest
    node count first.
    """
    d = derive(p)
    missing = _missing(d)
    if missing:
        raise IncompleteSpecError(missing)
    for name in ("entry_script", "train_args", "deepspeed_config"):
        check_script_text(name, getattr(d, name))

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
    if d.nodes > MAX_NODES:
        raise InconsistentTopologyError(
            f"a job may span at most {MAX_NODES} nodes; this one asks for more"
        )
    limit = profile.gpus_per_node
    if d.gpus_per_node > limit:
        world = d.nodes * d.gpus_per_node
        # Every split that fits spans more nodes than asked for, so the one
        # with the most GPUs per node is the nearest.
        splits = [(world // g, g) for g in range(limit, 0, -1) if world % g == 0]
        raise CapacityError(
            f"{d.gpus_per_node} GPUs per node does not fit on {profile.id} "
            f"(limit {limit}) for world size {world}",
            limit=limit,
            suggestions=splits,
        )

    launcher = d.launcher
    if launcher is None:
        launchers = _FRAMEWORK_LAUNCHERS[d.framework]  # type: ignore[index]
        launcher = profile.default_launcher
        if launcher not in launchers:
            launcher = launchers[0]

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

# The three flags that set a rendezvous port: torchrun's, accelerate's and
# the environment variable mpiexec and srun pass on.
_PORT_FLAGS = (r"--master[-_]port", r"--main[-_]process[-_]port", "MASTER_PORT")
_RE_TORCH_PORT, _RE_MAIN_PORT, _RE_GENV_PORT = (
    re.compile(flag + r"[=\s]+(\d+)") for flag in _PORT_FLAGS
)
# Any of the three flags and its digits (group 1), for every port a script states.
PORT_FLAG_RE = re.compile("(?:" + "|".join(_PORT_FLAGS) + r")[=\s]+(\d+)")

_RE_NNODES = re.compile(r"--nnodes[=\s]+(\d+)")
_RE_NPROC = re.compile(r"--nproc[-_]per[-_]node[=\s]+(\d+)")
_RE_NUM_MACHINES = re.compile(r"--num[-_]machines[=\s]+(\d+)")
_RE_NUM_PROCESSES = re.compile(r"--num[-_]processes[=\s]+(\d+)")
_RE_NUM_NODES = re.compile(r"--num[-_]nodes[=\s]+(\d+)")
_RE_NUM_GPUS = re.compile(r"--num[-_]gpus[=\s]+(\d+)")
_RE_SLOTS = re.compile(r"slots=(\d+)")
_RE_SRUN_N_UPPER = re.compile(r"\bsrun\b[^\n]*?-N[=\s]+(\d+)")
_RE_MPI_WORLD = re.compile(r"(?<![\w-])-n[=\s]+(\d+)")
_RE_MPI_PPN = re.compile(r"(?<![\w-])-ppn[=\s]+(\d+)")
# re.A keeps these in step with the other launchers' ``in script.lower()``
# tests: re.I alone also matches "İ", "ı", "K" and "ſ" to ASCII letters.
_RE_MPIEXEC = re.compile("mpiexec", re.I | re.A)
_RE_MPIRUN = re.compile("mpirun", re.I | re.A)
_RE_TRAILING_JSON = re.compile(r"([\w./-]+\.json)\s*'?\s*$")
_ANY_PY = re.compile(r"(?<![\w/.-])(" + _PY + r")\b")

# The port flags each launcher reads, in order; the first valid port wins.
_PORT_PATTERNS = {
    Launcher.TORCHRUN: (_RE_TORCH_PORT, _RE_GENV_PORT),
    Launcher.DEEPSPEED: (_RE_TORCH_PORT, _RE_GENV_PORT),
    Launcher.ACCELERATE: (_RE_MAIN_PORT, _RE_GENV_PORT, _RE_TORCH_PORT),
    Launcher.MPIEXEC: (_RE_GENV_PORT, _RE_TORCH_PORT),
    Launcher.SRUN: (_RE_GENV_PORT, _RE_TORCH_PORT),
}

Topology = tuple[int | None, int | None, int | None]


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
    launcher, (spec.nodes, spec.gpus_per_node, spec.total_gpus) = _launch(script)
    if launcher is None:
        return spec
    spec.launcher = launcher
    for pattern in _PORT_PATTERNS[launcher]:
        spec.master_port = valid_port(_grab(pattern, script))
        if spec.master_port is not None:
            break

    entry = _ANY_PY.search(script)
    if entry:
        spec.entry_script = entry.group(1)
        tail = script[entry.end():]
        tail = tail.strip().strip("'\"").strip()
        if launcher is Launcher.DEEPSPEED:
            m_cfg = _RE_TRAILING_JSON.search(tail)
            if m_cfg:
                spec.deepspeed_config = m_cfg.group(1)
                tail = tail[: m_cfg.start()].strip()
        spec.train_args = tail
    return spec


def script_topology(script: str) -> Topology:
    """``(nodes, gpus_per_node, total_gpus)`` as :func:`parse_script` reads them.

    Reads only the launcher and its counts, not the ports, the entry script
    or the arguments; absent counts are ``None``.
    """
    return _launch(script)[1]


def _launch(script: str) -> tuple[Launcher | None, Topology]:
    """The launcher a script invokes and the counts it states for it.

    The launcher is the first of torchrun, deepspeed, accelerate,
    mpiexec/mpirun and srun that the text names anywhere; a text naming
    none of them has no launcher and no counts.
    """
    lowered = script.lower()
    nodes = per_node = total = None
    if "torchrun" in lowered:
        launcher = Launcher.TORCHRUN
        nodes = _grab(_RE_NNODES, script) or _grab(_RE_SRUN_N_UPPER, script)
        per_node = _grab(_RE_NPROC, script)
    elif "deepspeed" in lowered:
        launcher = Launcher.DEEPSPEED
        nodes = _grab(_RE_NUM_NODES, script)
        per_node = _grab(_RE_NUM_GPUS, script) or _grab(_RE_SLOTS, script)
    elif "accelerate" in lowered:
        launcher = Launcher.ACCELERATE
        nodes = _grab(_RE_NUM_MACHINES, script)
        total = _grab(_RE_NUM_PROCESSES, script)
        if nodes and total and total % nodes == 0:
            per_node = total // nodes
    elif at := _RE_MPIEXEC.search(script) or _RE_MPIRUN.search(script):
        # Sliced at a match in the original text: lower() can lengthen it ("İ").
        launcher = Launcher.MPIEXEC
        tail = script[at.start():]
        total = _grab(_RE_MPI_WORLD, tail)
        per_node = _grab(_RE_MPI_PPN, tail)
    elif "srun" in lowered:
        launcher = Launcher.SRUN
        nodes = _grab(_RE_SRUN_N_UPPER, script)
    else:
        launcher = None
    return launcher, (nodes, per_node, total)


def _grab(pattern: re.Pattern, text: str) -> int | None:
    """The first count ``pattern`` reads in ``text``, if it is at least 1."""
    m = pattern.search(text)
    return _positive(_int(m.group(1))) if m else None


def _positive(value: int | None) -> int | None:
    return value if value is not None and value >= 1 else None


def _int(digits: str) -> int:
    """``digits`` as an integer, or 0 (which no count or port accepts) when
    there are more of them than ``int()`` converts."""
    try:
        return int(digits)
    except ValueError:
        return 0
