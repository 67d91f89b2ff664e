"""Free-text extraction: the information-extraction agent.

Reads a plain-language job description ("train ViT on two nodes with 8
GPUs") into a :class:`~launchport.intent.PartialJobSpec`.  The CLI imports
this module only when a description is given; a job stated by flags alone,
or read from a launch script (:func:`launchport.intent.parse_script`), never
loads it.

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
* a per-node count ("N GPUs per node") is read before a total; beside it,
  only a stated total ("in total", "a total of", "--total-gpus") is read,
  and only when no node count is given; a bare "N GPUs" is a total, with
  nodes defaulting to 1 when no node count is given anywhere;
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
  defaults to ddp once a framework is known (:func:`launchport.intent.derive`).

A stated communication backend (for example "nccl") is intentionally not
extracted into a field of its own; none of the bundled templates consume
it, so it travels with the user's training arguments.

Everything here is pure: the same text always yields the same spec.
"""

from __future__ import annotations

import functools
import re
from typing import Protocol

from .clusters import default_profiles
from .intent import _PY, STRATEGY_SHORTHANDS, PartialJobSpec, _int
from .types import Framework, Launcher, Strategy, valid_port

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


class Extractor(Protocol):
    """Anything that maps free text to a PartialJobSpec."""

    def extract(self, text: str) -> PartialJobSpec: ...


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
    elif spec.nodes is None:
        # A stated total sets the node count, or shows that the two counts do
        # not fit; a bare "N GPUs" may be the per-node phrase itself.
        spec.total_gpus = count("f_total_gpus", "in_total", "total_of", "total_gpus")
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
