"""Free-text extraction: the information-extraction agent.

Reads a plain-language job description ("train ViT on two nodes with 8 GPUs")
into a :class:`~launchport.intent.PartialJobSpec`.  The CLI imports this module
only when a description is given; a job stated by flags alone, or read from a
launch script (:func:`launchport.intent.parse_script`), never loads it.

Extraction reads the text word by word, case-insensitively:

* counts: digits, or a number word "one" through "sixty-four" standing as a
  whole word ("twenty one" and "twenty-one" are 21); larger counts must be
  written as digits.  A count carries the phrase after it: node nouns
  ("servers", "machines", "hosts" and "compute nodes" all mean nodes) or GPUs,
  with "per node", "each", "/node" or "in total";
* phrases that lead up to a count ("on 2 nodes", "a total of 8 GPUs",
  "per-node GPUs: 4") and "a single node";
* flags with their values ("--nodes 2", "--entry train.py");
* paths ending in ".py" or ".json", and the port, entry-script,
  DeepSpeed-config and training-argument phrases;
* framework, strategy and launcher terms;
* cluster names and aliases standing apart from word characters and hyphens.

Precedence rules over what is read, fixed so that extraction is deterministic:

* a flag wins over prose for every field;
* each phrase is read where it first occurs, and a count of 0 there (or one
  too long for ``int()``) passes the field on to the next phrase;
* a per-node count ("N GPUs per node") is read before a total; beside it, a
  total is read only when no node count is given, a stated one ("in total",
  "a total of", "--total-gpus") before a bare "N GPUs"; without it, any "N
  GPUs" is a total, with nodes defaulting to 1 when no node count is given;
* the cluster is the earliest name; where two start at the same place the
  longer one wins ("deltaai" over "delta");
* FSDP and ZeRO-3 come before DDP ("fully sharded data parallel" names no
  DDP), and "acc-ddp" means Accelerate with DDP whatever else is named;
* the entry script is the first of: the flag, an "entry/training file is"
  phrase, "run X", "python X", and any ".py" path;
* a DeepSpeed config is read only when DeepSpeed is named;
* "... arguments are X" makes the rest of the text the training arguments;
  when nothing at all is read, the text is kept whole as the arguments;
* the launcher implies the framework (torchrun -> pytorch, deepspeed ->
  deepspeed, accelerate -> accelerate), the strategy implies the framework
  (zero3 -> deepspeed, fsdp -> pytorch), and the strategy defaults to ddp once
  a framework is known (:func:`launchport.intent.derive`).

A stated communication backend (for example "nccl") is intentionally not
extracted into a field of its own; none of the bundled templates consume it,
so it travels with the user's training arguments.

Everything here is pure: the same text always yields the same spec."""

from __future__ import annotations

import functools
import re
from typing import Protocol

from .clusters import default_profiles
from .intent import (
    _PY,
    _PY_PATH,
    STRATEGY_SHORTHANDS,
    PartialJobSpec,
    _first_path,
    _int,
    _LazyPattern,
)
from .types import Framework, Launcher, Strategy, valid_port

_UNITS = ("one", "two", "three", "four", "five", "six", "seven", "eight", "nine")
_TEENS = ("ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen",
          "seventeen", "eighteen", "nineteen")
_TENS = {"twenty": 20, "thirty": 30, "forty": 40, "fifty": 50, "sixty": 60}


def _tens_units(base: int) -> tuple[str, ...]:
    """The units a tens word takes without passing 64."""
    return _UNITS[: 64 - base]


def _number_words() -> dict[str, int]:
    words = {word: i for i, word in enumerate(_UNITS + _TEENS, 1)}
    for name, base in _TENS.items():
        words[name] = base
        for i, unit in enumerate(_tens_units(base), 1):
            words[f"{name}-{unit}"] = words[f"{name} {unit}"] = base + i
    return words


NUMBER_WORDS = _number_words()


class Extractor(Protocol):
    """Anything that maps free text to a PartialJobSpec."""

    def extract(self, text: str) -> PartialJobSpec: ...


# Extraction reads words, not characters.  The text is folded once: a letter that
# re.I matches to an ASCII letter (_FOLDS) becomes it, the rest are lowercased,
# so every character keeps its place and an ASCII pattern matches the folded
# text where re.I matched the text.  One pass of _WORDS finds each word.  The
# extractor's table maps a word to the phrase it heads and only a hit runs that
# phrase's pattern, anchored at the word; a word of digits heads a count.  The
# one named group a phrase matched is what it read, sliced from the text as
# written.  A phrase whose first letters need not end a word ("--nodes",
# "port29500", "configuration") is read wherever str.find finds them (_FOUND).
# A path is read, only when no phrase named the file, from the first run of
# path characters holding ".py" (or ".json"), case as written.
_FOLDS = {"i": "\u0130\u0131", "k": "\u212a", "s": "\u017f"}  # İ ı, Kelvin sign, ſ
_FOLD = str.maketrans({char: letter for letter, chars in _FOLDS.items() for char in chars})

_WORDS = re.compile(r"\w+").finditer
_WORD_OR_HYPHEN = re.compile(r"[\w-]").match

_NODE = r"(?:node|server|machine|host)"
# Any number word, whole; a tens word reads its unit too ("twenty-one").
_NUMBER_WORD = "|".join(
    [f"{name}(?:[- ](?:{'|'.join(_tens_units(base))}))?" for name, base in _TENS.items()]
    + list(_TEENS) + list(_UNITS))

# What a count is, by the phrase after it: the phrases it fills.  "gpus" is any
# GPU count, "bare_gpus" one with no node, "each" or total phrase after "GPUs".
_COUNT_PHRASES = {
    "word": (), "gpu_nodes": ("nodes", "gpus"), "nodes": ("nodes",),
    "total_gpus": ("total_gpus",), "per_node_each": ("per_node", "each", "gpus"),
    "per_node": ("per_node", "gpus"), "per_node_slash": ("per_node_slash", "gpus"),
    "each": ("each", "gpus"), "in_total": ("in_total", "gpus"), "bare_gpus": ("gpus", "bare_gpus"),
}

# Phrases that end where their count starts: the phrase they fill and the one
# the count must fill there ("on 2 nodes", "total of 8 GPUs", "per node GPUs: six").
_LEADS = {"across": ("across", "nodes"), "total_of": ("total_of", "gpus"),
          "per_node_word": ("per_node_phrase", None)}


class _Reading:
    """What one extraction has read so far; nothing of it outlives the call."""

    __slots__ = ("text", "folded", "first", "leads", "word_end", "cluster")

    def __init__(self, text: str):
        self.text, self.folded = text, (text if text.isascii() else text.translate(_FOLD)).lower()
        self.first: dict[str, object] = {}  # what the first phrase of each kind read
        self.leads: dict[int, tuple] = {}  # where a phrase expects its count -> what it reads
        self.word_end = 0  # no count starts inside a number word
        self.cluster: tuple[int, int, str] | None = None  # (start, rank, id) of a name


class _Phrase(_LazyPattern):
    """A pattern read where its head word starts: what its one matched group read,
    or where a lead expects its count.  It compiles when a text first reaches it."""

    __slots__ = ()

    def __call__(self, reading: _Reading, pos: int) -> None:
        m = self.match(reading.folded, pos)
        if m is not None:
            kind = m.lastgroup
            start, end = m.span(kind)
            lead = _LEADS.get(kind)
            if lead is None:
                reading.first.setdefault(kind, reading.text[start:end])
            else:
                reading.leads[start] = lead


class _Count(_Phrase):
    """A count, the phrase after it, and the lead that expected it there."""

    __slots__ = ()

    def __call__(self, reading: _Reading, pos: int) -> None:
        m = self.match(reading.folded, pos)
        if m is None:
            return
        first = reading.first
        if m["single"] is not None:  # "one node"
            first["single"] = ""
        if (word := m["word"]) is None:
            value = _int(m["digits"])
        elif pos < reading.word_end:
            return
        else:
            reading.word_end = m.end("word")
            # Only a number word spelled in ASCII letters is read, not "ſix".
            if not reading.text[pos:reading.word_end].isascii():
                return
            value = NUMBER_WORDS[word]
        phrases = _COUNT_PHRASES[m.lastgroup]
        for phrase in phrases:
            first.setdefault(phrase, value)
        lead = reading.leads.get(pos)
        if lead is not None and (lead[1] is None or lead[1] in phrases):
            first.setdefault(lead[0], value)


_COUNT = _Count(
    r"(?=one[-\s]" + _NODE + r"\b(?P<single>)|)"
    r"(?:(?P<digits>\d+)|(?P<word>(?:" + _NUMBER_WORD + r")\b))(?:\s+(?:"
    r"gpu\s+" + _NODE + r"s?\b(?P<gpu_nodes>)"
    r"|(?:compute\s+)?" + _NODE + r"s?\b(?P<nodes>)"
    r"|total\s+gpus?\b(?P<total_gpus>)"
    r"|gpus?(?:\s+each\s+" + _NODE + r"\b(?P<per_node_each>)"
    r"|\s+(?:per|on\s+each|in\s+each|for\s+each|a)\s+" + _NODE + r"\b(?P<per_node>)"
    r"|\s*/\s*node\b(?P<per_node_slash>)"
    r"|\s+(?:each|apiece)\b(?P<each>)"
    r"|\s+(?:in\s+total|total|overall|altogether)\b(?P<in_total>)"
    r"|\b(?P<bare_gpus>)))|(?(digits)(?!)))")  # digits count only with a phrase
_ENTRY = (r"\w+\s+(?:file|script|point|program)\s*(?:is|will\s+be|:|=)?\s*"
          r"(?P<entry_phrase>[\w./-]+\.(?:py|sh))")
_RUN_PY = r"\w+\s+(?P<run>" + _PY + r")\b"

_FOUND = (("--", _Phrase(
    r"--(?:n?nodes[=\s]+(?P<f_nodes>\d+)"
    r"|(?:gpus|nproc)[-_]per[-_]node[=\s]+(?P<f_gpus_per_node>\d+)"
    r"|(?:total|num)[-_]gpus[=\s]+(?P<f_total_gpus>\d+)"
    r"|(?:master[-_]|main[-_]process[-_])?port[=\s]+(?P<f_master_port>\d+)"
    r"|entry(?:[-_]script)?[=\s]+(?P<f_entry>[\w./-]+\.(?:py|sh))"
    r"|deepspeed[-_]config[=\s]+(?P<f_config>\S*[^\s,;]))")),
    ("port", _Phrase(r"(?<!\w)port\s*(?:is|of|:|=)?\s*(?P<port>\d{4,5})\b")),
    ("conf", _Phrase(r"(?<!\w)config(?:uration)?(?:\s+file)?\s*(?:is|at|:|=)?\s*"
                     r"(?P<config>[\w./-]+\.json)")))

# Each head word and the phrase it starts.
_PHRASES = {word: phrase for words, phrase in (
    (" ".join((*_UNITS, *_TEENS, *_TENS)), _COUNT),
    # Phrases that lead up to a count, and "a single node".
    ("across on over spanning", _Phrase(r"\w+\s+(?P<across>)(?=[\defnost])")),
    ("total", _Phrase(r"total\s+of\s+(?P<total_of>)(?=[\defnost])")),
    ("per", _Phrase(r"per[-\s]node\s+gpus?\s*(?:of|is|:|=)?\s*"
                    r"(?:(?P<per_node_phrase>\d+)\b|\b(?P<per_node_word>)(?=[^\W\d]))")),
    ("single", _Phrase(r"single[-\s]" + _NODE + r"\b(?P<single>)")),
    # Framework, strategy and launcher terms; synonyms share a kind.
    *((word, _Phrase(f"(?P<{kind}>)")) for word, kind in (
        ("pytorch", "pytorch"), ("fsdp", "fsdp"), ("zero3", "zero3"), ("stage3", "zero3"),
        ("ddp", "ddp"), ("torchrun", "torchrun"), ("mpiexec", "mpiexec"), ("mpirun", "mpiexec"),
        ("srun", "srun"))),
    ("deepspeed", _Phrase(r"\w+(?P<deepspeed>)(?:\s+launcher\b(?P<deepspeed_launcher>))?")),
    ("deep", _Phrase(r"deep\s?speed\b(?P<deepspeed>)")),
    ("accelerate", _Phrase(r"\w+(?P<accelerate>)(?:\s+launch(?:er)?\b(?P<accelerate_launcher>)"
                           r"|[-\s]ddp\b(?P<acc_ddp>))?")),
    ("acc", _Phrase(r"acc[-\s]ddp\b(?P<acc_ddp>)")),
    ("fully", _Phrase(r"fully[-\s]sharded\b(?P<fsdp>)")),
    ("zero stage", _Phrase(r"\w+[-\s]?3\b(?P<zero3>)")),
    ("data", _Phrase(r"data[-\s]parallel(?:ism)?\b(?P<ddp>)")),
    # Entry script and training arguments.
    ("training train entry main", _Phrase(_ENTRY)),
    ("launch", _Phrase(f"{_ENTRY}|{_RUN_PY}")),
    ("run execute start", _Phrase(_RUN_PY)),
    ("python python3", _Phrase(r"\w+\s+(?:-u\s+)?(?P<python>" + _PY + r")\b")),
    ("arg args argument arguments", _Phrase(r"\w+\s+(?:is|are|being|:)\s*(?P<args>(?s:.+))$")),
) for word in words.split(" ")}
_JSON_PATH = _LazyPattern(r"[\w./-]+\.json\b")


def _cluster_head(names: list[tuple[str, int, str]], then):
    """Reads the names (folded, rank, id; longest first) that start with one word,
    then the phrase that word heads."""

    def read(reading: _Reading, pos: int) -> None:
        # The first name found is the earliest; no hyphen may stand before it.
        if reading.cluster is None and reading.text[pos - 1 : pos] != "-":
            for name, rank, canonical in names:
                if (reading.folded.startswith(name, pos)
                        and not _WORD_OR_HYPHEN(reading.folded, pos + len(name))):
                    reading.cluster = (pos, rank, canonical)
                    break
        if then is not None:
            then(reading, pos)
    return read


class RuleBasedExtractor:
    """Deterministic extractor over the documented phrasing lexicon.

    ``cluster_names`` maps every recognizable cluster name or alias to its id;
    by default the bundled registry supplies it.  An ASCII name starting with a
    word character is found through its first word, any other by one search."""

    def __init__(self, cluster_names: dict[str, str] | None = None):
        if cluster_names is None:
            cluster_names = default_profiles().names()
        heads: dict[str, list[tuple[str, int, str]]] = {}
        others, self._other_ids = [], []
        for rank, name in enumerate(sorted(cluster_names, key=len, reverse=True)):
            head = re.match(r"\w+", name) if name.isascii() else None
            if head is None:
                others.append(f"({re.escape(name)})")
                self._other_ids.append((rank, cluster_names[name]))
            else:
                heads.setdefault(head[0].lower(), []).append(
                    (name.lower(), rank, cluster_names[name]))
        self._phrases: dict[str, object] = dict(_PHRASES)
        for head, names in heads.items():
            then = _PHRASES.get(head) or (_COUNT if head.isdecimal() else None)
            self._phrases[head] = _cluster_head(names, then)
        self._others = (re.compile(rf"(?<![\w-])(?:{'|'.join(others)})(?![\w-])", re.I).search
                        if others else None)

    def extract(self, text: str) -> PartialJobSpec:
        if not text:
            raise ValueError("extract requires non-empty text")
        reading = _Reading(text)
        phrases, folded = self._phrases, reading.folded
        for word in _WORDS(folded):
            head = word[0]
            phrase = phrases.get(head) or (_COUNT if head.isdecimal() else None)
            if phrase is not None:
                phrase(reading, word.start())
        for start, phrase in _FOUND:
            at = folded.find(start)
            while at >= 0:
                phrase(reading, at)
                at = folded.find(start, at + 1)
        cluster = reading.cluster
        other = self._others and self._others(text)
        if other:
            rank, canonical = self._other_ids[other.lastindex - 1]
            if cluster is None or (other.start(), rank) < cluster[:2]:
                cluster = (other.start(), rank, canonical)
        return _resolve(text, reading.first, cluster and cluster[2])


# Terms by rank: the first one the text holds fixes the field.  FSDP comes before
# DDP ("fully sharded data parallel"); a launcher phrase also names its framework.
_FRAMEWORK_TERMS = (("pytorch", Framework.PYTORCH), ("deepspeed", Framework.DEEPSPEED),
                    ("deepspeed_launcher", Framework.DEEPSPEED),
                    ("accelerate", Framework.ACCELERATE),
                    ("accelerate_launcher", Framework.ACCELERATE))
_STRATEGY_TERMS = (("fsdp", Strategy.FSDP), ("zero3", Strategy.ZERO3), ("ddp", Strategy.DDP))
_LAUNCHER_TERMS = (("torchrun", Launcher.TORCHRUN), ("mpiexec", Launcher.MPIEXEC),
                   ("srun", Launcher.SRUN), ("deepspeed_launcher", Launcher.DEEPSPEED),
                   ("accelerate_launcher", Launcher.ACCELERATE))


def _count(first: dict[str, object], kinds: tuple[str, ...]) -> int | None:
    """The count of the first kind present that is at least 1 (digits as written or int)."""
    for kind in kinds:
        value = first.get(kind)
        if value is not None:
            value = _int(value) if isinstance(value, str) else value
            if value >= 1:
                return value
    return None


def _term(first: dict[str, object], terms: tuple[tuple[str, object], ...]):
    """The value of the first of ``terms`` whose kind the text holds, if any."""
    for kind, value in terms:
        if kind in first:
            return value
    return None


def _resolve(text: str, first: dict[str, object], cluster: str | None) -> PartialJobSpec:
    """The precedence rules over what the words read first of each kind."""
    framework, strategy = (STRATEGY_SHORTHANDS["acc-ddp"] if "acc_ddp" in first
                           else (_term(first, _FRAMEWORK_TERMS), _term(first, _STRATEGY_TERMS)))
    nodes = _count(first, ("f_nodes", "nodes", "across")) or (1 if "single" in first else None)
    per_node = _count(first, ("f_gpus_per_node", "per_node", "per_node_slash", "each",
                              "per_node_phrase"))
    total = None
    if per_node is None:
        total = _count(first, ("f_total_gpus", "in_total", "total_of", "total_gpus", "gpus"))
    elif nodes is None:
        # A total sets the node count, or shows that the two counts do not fit.
        total = _count(first, ("f_total_gpus", "in_total", "total_of", "total_gpus", "bare_gpus"))
    config = None
    if framework is Framework.DEEPSPEED or "deepspeed" in text.lower():
        config = (first.get("f_config") or first.get("config")
                  or ((found := _first_path(text, ".json", _JSON_PATH)) and found[0]))
    fields = (cluster, framework, strategy, _term(first, _LAUNCHER_TERMS), nodes, per_node, total,
              valid_port(_count(first, ("f_master_port", "port"))),
              first.get("f_entry") or first.get("entry_phrase") or first.get("run")
              or first.get("python")
              or ((found := _first_path(text, ".py", _PY_PATH)) and found[0]))
    if "args" in first:
        train_args = first["args"].strip()
    else:
        # Nothing extractable: keep the input verbatim so it is not lost.
        train_args = text.strip() if fields.count(None) == len(fields) and not config else ""
    return PartialJobSpec(*fields, train_args, config)


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
