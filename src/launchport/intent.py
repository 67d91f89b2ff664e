"""Job intent: the job records, their derivation and finalization, and script parsing.

This module turns user input into a canonical job description.  Input comes
as explicit field values (flags, ``--answers``, prompts), as an existing
launch script from another machine (:func:`parse_script`), or as free text,
which :mod:`launchport.prose` reads.  The result is first a
:class:`PartialJobSpec` (every field optional, absence represented rather
than raised) and, once the required fields are present or derivable
(:func:`derive`), a validated :class:`JobSpec` (:func:`finalize`).

``extract`` and ``RuleBasedExtractor`` live in :mod:`launchport.prose`; they
stay readable here as ``launchport.intent.extract`` and
``launchport.intent.RuleBasedExtractor``, which import that module on first
access.

Everything here is pure: the same input always yields the same spec.
"""

from __future__ import annotations

import re
from typing import Iterator

from .clusters import ClusterProfile
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


# How each field that a user may state is read from text, in prompt order.
# The CLI reads ``--answers`` and prompted values with it.
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
    """The required fields a derived spec lacks, in stable order.

    Raises :class:`InconsistentTopologyError` when a total GPU count does not
    split into the stated per-node count, which no node count could mend.
    """
    if d.nodes is None and d.total_gpus is not None and d.gpus_per_node is not None:
        raise InconsistentTopologyError(
            f"{d.total_gpus} total GPUs cannot be split into {d.gpus_per_node} per node")
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
    :class:`UsageError` when a text field breaks :func:`check_script_text`
    or the entry script holds whitespace,
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
    entry = d.entry_script
    if entry.split() != [entry]:  # type: ignore[union-attr]
        raise UsageError(f"entry_script may not hold whitespace, which would split the launch "
                         f"command in two; rename the file or its folder (got {entry!r})")

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

class _LazyPattern:
    """A regular expression compiled when it is first used.

    ``search``, ``match`` and ``finditer`` take what :class:`re.Pattern`'s do.
    The first call of any of them compiles ``source`` with ``flags``; from then
    on all three are the compiled pattern's own bound methods, so a later call
    costs what it would on a pattern compiled at import.  A cold process thus
    compiles only the patterns its job reads.
    """

    __slots__ = ("source", "flags", "search", "match", "finditer")

    def __init__(self, source: str, flags: int = 0) -> None:
        self.source, self.flags = source, flags
        self.search, self.match, self.finditer = (
            self._search_first, self._match_first, self._finditer_first)

    def _compiled(self) -> re.Pattern:
        pattern = re.compile(self.source, self.flags)
        self.search, self.match, self.finditer = pattern.search, pattern.match, pattern.finditer
        return pattern

    def _search_first(self, *args) -> re.Match | None:
        return self._compiled().search(*args)

    def _match_first(self, *args) -> re.Match | None:
        return self._compiled().match(*args)

    def _finditer_first(self, *args) -> Iterator[re.Match]:
        return self._compiled().finditer(*args)


# A path to a Python file, and the pattern that reads one from where its run of
# path characters starts (:func:`_first_path`); the prose extractor reads entry
# scripts with both too.
_PY = r"[\w./-]+\.py"
_PY_PATH = _LazyPattern(_PY + r"\b")
_PATH_RUN = _LazyPattern(r"[\w./-]*")  # path characters


def _first_path(text: str, suffix: str, path) -> re.Match | None:
    """What ``path.match(text, pos)`` reads first from the start of a run of
    path characters holding ``suffix``, or ``None``.

    This is what a search for ``path`` preceded by no path character finds
    (``(?<![\\w/.-])`` before it), for a ``path`` that reads only path
    characters and ends in ``suffix``; only the runs ``str.find`` of the
    suffix reaches are read.
    """
    floor, at = 0, text.find(suffix)
    while at >= 0:
        found = path.match(text, at + 1 - _PATH_RUN.match(text[floor : at + 1][::-1]).end())
        if found is not None:
            return found
        floor = _PATH_RUN.match(text, at).end()
        at = text.find(suffix, floor)
    return None


# The three flags that set a rendezvous port (torchrun's, accelerate's and the
# environment variable mpiexec and srun pass on) and their digits (group 1).
# Between a flag and its digits stand only "=", spaces and tabs, as in each
# count pattern below: the shell runs a next line as another command.
PORT_FLAG_RE = _LazyPattern(
    r"(?:--master[-_]port|--main[-_]process[-_]port|MASTER_PORT)[= \t]+(\d+)")
# How the flags each launcher reads start, in its order; the first valid port wins.
_LAUNCHER_PORT_FLAGS = {
    Launcher.TORCHRUN: ("--master", "MASTER"), Launcher.DEEPSPEED: ("--master", "MASTER"),
    Launcher.ACCELERATE: ("--main", "MASTER", "--master"),
    Launcher.MPIEXEC: ("MASTER", "--master"), Launcher.SRUN: ("MASTER", "--master"),
}


_RE_NNODES = _LazyPattern(r"--nnodes[= \t]+(\d+)")
_RE_NPROC = _LazyPattern(r"--nproc[-_]per[-_]node[= \t]+(\d+)")
_RE_NUM_MACHINES = _LazyPattern(r"--num[-_]machines[= \t]+(\d+)")
_RE_NUM_PROCESSES = _LazyPattern(r"--num[-_]processes[= \t]+(\d+)")
_RE_NUM_NODES = _LazyPattern(r"--num[-_]nodes[= \t]+(\d+)")
_RE_NUM_GPUS = _LazyPattern(r"--num[-_]gpus[= \t]+(\d+)")
_RE_SLOTS = _LazyPattern(r"slots=(\d+)")
_RE_SRUN_N_UPPER = _LazyPattern(r"\bsrun\b[^\n]*?-N[= \t]+(\d+)")
_RE_MPI_WORLD = _LazyPattern(r"(?<![\w-])-n[= \t]+(\d+)")
_RE_MPI_PPN = _LazyPattern(r"(?<![\w-])-ppn[= \t]+(\d+)")
# A launcher's name counts only where it stands alone (_names): no ASCII letter,
# digit, "_", "." or "-" and no non-ASCII character on either side, and no "/"
# after it, so /opt/bin/torchrun counts and run_deepspeed.py does not.  These are
# what may stand before and after it; "" is the text's start or end.
_BEFORE = frozenset(c for c in map(chr, range(128)) if not c.isalnum() and c not in "_.-") | {""}
_AFTER = _BEFORE - {"/"}

# A DeepSpeed config at the end of a deepspeed command's arguments.
_TRAILING_JSON = _LazyPattern(r"([\w./-]+\.json)\s*'?\s*$")


Topology = tuple[int | None, int | None, int | None]


def parse_script(script: str) -> PartialJobSpec:
    """Recover job parameters from a launch script written for some cluster.

    Best effort: recognizes srun, mpiexec, torchrun, deepspeed, and
    accelerate invocations; anything else yields an empty spec.  Only the
    lines the script runs are read (:func:`_commands`).  The node
    count is reported only when the script states it directly (torchrun,
    accelerate, and deepspeed forms); an mpiexec "-n W -ppn G" pair leaves
    the node count for spec finalization to derive.  A per-node count is
    derived from total/machines when both are visible.
    """
    spec = PartialJobSpec()
    script = _commands(script)
    launcher, (spec.nodes, spec.gpus_per_node, spec.total_gpus) = _launch(script)
    if launcher is None:
        return spec
    spec.launcher = launcher
    ports = list(PORT_FLAG_RE.finditer(script))
    for flag in _LAUNCHER_PORT_FLAGS[launcher]:
        digits = next((m[1] for m in ports if m[0].startswith(flag)), "0")  # "0": none
        spec.master_port = valid_port(_int(digits))
        if spec.master_port is not None:
            break

    entry = _first_path(script, ".py", _PY_PATH)
    if entry:
        spec.entry_script = entry.group(0)
        tail = _arguments(script, entry)
        if launcher is Launcher.DEEPSPEED:
            m_cfg = _TRAILING_JSON.search(tail)
            if m_cfg:
                spec.deepspeed_config = m_cfg.group(1)
                tail = tail[: m_cfg.start()].strip()
        spec.train_args = tail
    return spec


def _arguments(script: str, entry: re.Match) -> str:
    """The text after the entry script, less the shell quoting around it.

    Whitespace goes from both ends, and so does the ``'`` that closes a
    ``bash -c '...'`` payload opened before the entry.  A ``"`` goes only
    where the text holds an odd number of them: a balanced pair
    (``--run-name "vit base"``) is the user's own.
    """
    tail = script[entry.end():].strip()
    if script.count("'", 0, entry.start()) % 2 and tail.endswith("'"):
        tail = tail[:-1].rstrip()
    if tail.count('"') % 2:
        if tail.endswith('"'):
            tail = tail[:-1].rstrip()
        elif tail.startswith('"'):
            tail = tail[1:].lstrip()
    return tail


def _runs(line: str, modules: bool = False) -> bool:
    """Whether :func:`_commands` keeps ``line``: its first non-blank character
    is not ``#`` and, unless ``modules``, it is no ``module`` command (the word
    ``module`` and a space or a tab first)."""
    line = line.lstrip()
    return not line.startswith("#") and (modules or not line.startswith(("module ", "module\t")))


def _commands(script: str, modules: bool = False) -> str:
    """The lines of ``script`` the shell runs, the one reading of them that
    every reader of a script's lines shares.

    Comment lines go, and so do ``module`` commands unless ``modules`` (only
    the mock's needles read them); either may name a launcher, an entry script
    or flags that the script does not run (``module load deepspeed/0.14``,
    ``# was: torchrun --nnodes=2 train.py``).  A trailing comment goes from
    the space or tab before its ``#`` to the end of the line; a ``#`` starts
    one only after a space or tab with an even number of ``'`` and of ``"``
    before it on its line.  A text that holds neither ``#`` nor (unless
    ``modules``) ``module`` is returned as it is.
    """
    if "#" not in script and (modules or "module" not in script):
        return script
    kept = []
    for line in script.split("\n"):
        if _runs(line, modules):
            at = line.find("#")  # never 0 on a line that runs
            while at > 0 and not (line[at - 1] in " \t" and not line.count("'", 0, at) % 2
                                  and not line.count('"', 0, at) % 2):
                at = line.find("#", at + 1)
            kept.append(line[: at - 1] if at > 0 else line)
    return "\n".join(kept)


# The launcher names _launch reads, lowered.
_LAUNCHER_NAMES = ("torchrun", "deepspeed", "accelerate", "mpiexec", "mpirun", "srun")


def _launch(script: str) -> tuple[Launcher | None, Topology]:
    """The launcher a script invokes and the counts it states for it.

    The launcher is the first of torchrun, deepspeed, accelerate,
    mpiexec/mpirun and srun whose name the text holds anywhere standing
    alone in any ASCII case (:func:`_names`); a text naming none of them has
    no launcher and no counts.  Callers pass it through :func:`_commands` first.
    """
    lowered = script.lower()
    if len(lowered) != len(script):
        # Lowered one character for one, so an index in it slices script: only
        # "İ" lowers to two, and "ı" neither completes nor borders a name either.
        lowered = script.replace("İ", "ı").lower()
    nodes = per_node = total = None
    if "torchrun" in lowered and _names(lowered, "torchrun") >= 0:
        launcher = Launcher.TORCHRUN
        nodes = _grab(_RE_NNODES, script) or _grab(_RE_SRUN_N_UPPER, script)
        per_node = _grab(_RE_NPROC, script)
    elif "deepspeed" in lowered and _names(lowered, "deepspeed") >= 0:
        launcher = Launcher.DEEPSPEED
        nodes = _grab(_RE_NUM_NODES, script)
        per_node = _grab(_RE_NUM_GPUS, script) or _grab(_RE_SLOTS, script)
    elif "accelerate" in lowered and _names(lowered, "accelerate") >= 0:
        launcher = Launcher.ACCELERATE
        nodes = _grab(_RE_NUM_MACHINES, script)
        total = _grab(_RE_NUM_PROCESSES, script)
        if nodes and total and total % nodes == 0:
            per_node = total // nodes
    elif (at := _names(lowered, "mpiexec")) >= 0 or (at := _names(lowered, "mpirun")) >= 0:
        launcher = Launcher.MPIEXEC
        tail = script[at:]
        total = _grab(_RE_MPI_WORLD, tail)
        per_node = _grab(_RE_MPI_PPN, tail)
    elif "srun" in lowered and _names(lowered, "srun") >= 0:
        launcher = Launcher.SRUN
        nodes = _grab(_RE_SRUN_N_UPPER, script)
    else:
        launcher = None
    return launcher, (nodes, per_node, total)


def _names(lowered: str, name: str) -> int:
    """Where ``name`` first stands alone (``_BEFORE``, ``_AFTER``) in ``lowered``, or -1."""
    at = lowered.find(name)
    while at >= 0:
        end = at + len(name)
        if lowered[at - 1 : at] in _BEFORE and lowered[end : end + 1] in _AFTER:
            return at
        at = lowered.find(name, at + 1)
    return -1


def _grab(pattern: _LazyPattern, text: str) -> int | None:
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


def __getattr__(name: str):
    """``extract`` and ``RuleBasedExtractor``, read from :mod:`launchport.prose`.

    Importing this module does not load the extractor; reading either name
    here does, on first access.
    """
    if name in ("extract", "RuleBasedExtractor"):
        from . import prose

        return getattr(prose, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
