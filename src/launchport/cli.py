"""Command-line interface.

Commands:

* ``generate`` - description or flags in, verified launch script out
* ``port`` - rewrite a working script from one cluster for another
* ``templates`` - list / validate / add repository entries
* ``clusters`` - list / validate / add cluster profiles

Exit codes are stable: 0 success, 1 usage or configuration error, 2 the
pipeline ran but verification stayed unresolved.  In the default
script-only output mode, ``generate`` and ``port`` print exactly the script
bytes plus a trailing newline; ``--report`` adds the ranked candidates,
lint findings, and the verify/debug history on top.

Missing required fields are prompted one at a time, in a stable order, when
stdin is a terminal; ``--answers field=value,...`` supplies them for
scripted use, and ``--non-interactive`` turns prompting into a hard error
instead of blocking.

The options of ``generate`` and ``port`` are declared once, in
:data:`JOB_COMMANDS`.  :func:`read_job_args` reads a well-formed command line
against that table without argparse; anything else (``--help``, no command,
a mistake, ``templates`` or ``clusters``) goes to the argparse parser that
:mod:`launchport.registry` builds from the same table, so argparse owns every
help text, usage line and error.  One invocation also loads only the agents
its job reaches: the free-text extractor (:mod:`launchport.prose`) when a
description is given, the error-correction agent (:mod:`launchport.repair`)
at the first failed submission and the bridge for ``--bridge-config``.  It
compiles only the launch-flag patterns its job reads: each is compiled on
first use.

A process that imports this module freezes the garbage collector at exit,
so the interpreter's shutdown collections have nothing to traverse; a
program that only imports :mod:`launchport` keeps its normal shutdown.
"""

from __future__ import annotations

import atexit
import gc
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .clusters import ProfileSet, default_profiles, load_profiles
from .documents import read_text
from .errors import BridgeError, IncompleteSpecError, LaunchportError, UsageError
from .intent import (
    FIELD_PARSERS,
    STRATEGY_SHORTHANDS,
    PartialJobSpec,
    finalize,
    missing_fields,
    parse_script,
)
from .pipeline import DEFAULT_CANDIDATES_TRIED, render_report, run_pipeline
from .simcluster import FaultRuleSet, default_fault_rules, load_fault_rules
from .templates import TemplateSet, default_templates, load_repository
from .types import Framework, Strategy

if TYPE_CHECKING:
    from .bridge import RemoteBridge

# At exit, move every object out of the collector's reach: shutdown collects nothing.
atexit.register(gc.freeze)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNRESOLVED = 2

_STRATEGY_CHOICES = (*(s.value for s in Strategy), *STRATEGY_SHORTHANDS)

_PROMPTS = {
    "cluster": "Target cluster",
    "framework": "Framework (pytorch/deepspeed/accelerate)",
    "strategy": f"Strategy ({'/'.join(_STRATEGY_CHOICES)})",
    "nodes": "Number of nodes",
    "gpus_per_node": "GPUs per node",
    "entry_script": "Training script",
}

# The options of ``generate`` and ``port``, in the order their --help lists
# them: (flag, dest, kind, default, help).  A kind is str, int, bool (a
# switch) or the tuple of choices.  JOB_COMMANDS adds each command's own
# arguments; there a name without dashes is the positional and a default of
# ``...`` marks a required argument.
_JOB_OPTIONS = (
    ("--cluster", "cluster", str, None, None),
    ("--framework", "framework", tuple(f.value for f in Framework), None, None),
    ("--strategy", "strategy", _STRATEGY_CHOICES, None, None),
    ("--nodes", "nodes", int, None, None),
    ("--gpus-per-node", "gpus_per_node", int, None, None),
    ("--total-gpus", "total_gpus", int, None, None),
    ("--port", "master_port", int, None, None),
    ("--entry", "entry_script", str, None, None),
    ("--args", "train_args", str, None, None),
    ("--answers", "answers", str, "", "field=value pairs, comma separated"),
    ("--report", "report", bool, False, "print the full verification report"),
    ("--profiles", "profiles", str, None, "cluster profile document"),
    ("--templates", "templates", str, None, "template repository document"),
    ("--rules", "rules", str, None, "fault rule document"),
    ("--bridge-config", "bridge_config", str, None, None),
    ("--candidates", "k", int, DEFAULT_CANDIDATES_TRIED,
     f"how many ranked templates to try (default {DEFAULT_CANDIDATES_TRIED})"),
    ("--non-interactive", "non_interactive", bool, False, None),
)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = read_job_args(argv)
        if args is None:
            # Imported here: a well-formed generate or port never loads argparse.
            from .registry import build_parser

            parser = build_parser(argv[0] if argv else None)
            args = parser.parse_args(argv)
            if args.command is None:
                parser.print_help()
                return EXIT_USAGE
        return args.func(args)
    except (LaunchportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def read_job_args(argv: list[str]) -> SimpleNamespace | None:
    """A ``generate`` or ``port`` command line read against :data:`JOB_COMMANDS`.

    Returns the namespace argparse's parser would, or ``None`` for anything
    it does not read exactly: a command other than these two, ``-h``, an
    unknown or abbreviated option, ``--``, a switch given ``=``, a value
    after its flag that starts with ``-``, a value ``int()`` or the choices
    refuse, a second positional or a missing required argument.  argparse
    reads those, so it owns every help text, usage line and error.
    """
    command = argv[0] if argv else None
    if command not in JOB_COMMANDS:
        return None
    func, arguments = JOB_COMMANDS[command]
    values: dict[str, object] = {"command": command, "func": func}
    options = {}
    positional = None
    for name, dest, kind, default, _ in arguments:
        if name.startswith("-"):
            options[name] = dest, kind
        else:
            positional = dest
        if default is not ...:
            values[dest] = default
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            if positional is None:
                return None
            values[positional] = arg
            positional = None
            continue
        flag, explicit, value = arg.partition("=")
        if flag not in options:
            return None
        dest, kind = options[flag]
        if kind is bool:
            if explicit:
                return None
            values[dest] = True
            continue
        if not explicit:
            value = next(rest, None)
            if value is None or value.startswith("-"):
                return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        values[dest] = value
    if any(dest not in values for _, dest, *_ in arguments):
        return None
    return SimpleNamespace(**values)


def _bundles(args) -> tuple[ProfileSet, TemplateSet, FaultRuleSet, RemoteBridge | None]:
    """The profiles, templates, fault rules and bridge the command line names,
    else the bundled ones and no bridge.

    It also checks ``--candidates``, so a mistake there is reported after one
    in these documents and before one in ``--answers``.
    """
    profiles = load_profiles(Path(args.profiles)) if args.profiles else default_profiles()
    templates = load_repository(Path(args.templates)) if args.templates else default_templates()
    rules = (
        load_fault_rules(Path(args.rules), known_clusters=set(profiles.ids()))
        if args.rules
        else default_fault_rules()
    )
    bridge = None
    if args.bridge_config:
        # Imported here: a run without a bridge never loads the module.
        from .bridge import RemoteBridge, load_bridge_config

        bridge = RemoteBridge(load_bridge_config(Path(args.bridge_config)))
    if args.k < 1:
        raise UsageError(f"--candidates must be >= 1, got {args.k}")
    return profiles, templates, rules, bridge


def _flag_overrides(args) -> PartialJobSpec:
    fields = {"framework": Framework(args.framework) if args.framework else None}
    if args.strategy:
        fields.update(_parse_answer("strategy", args.strategy))
    try:
        return PartialJobSpec(
            cluster=args.cluster,
            **fields,
            nodes=args.nodes,
            gpus_per_node=args.gpus_per_node,
            total_gpus=args.total_gpus,
            master_port=args.master_port,
            entry_script=args.entry_script,
            train_args=args.train_args or "",
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_answers(text: str) -> dict[str, object]:
    """The typed fields ``--answers field=value,...`` sets."""
    answers: dict[str, object] = {}
    fixed: dict[str, object] = {}  # what a strategy shorthand fixes wins, in any order
    for pair in text.split(","):
        pair = pair.strip()
        if pair:
            key, _, value = pair.partition("=")
            key = key.strip()
            fields = _parse_answer(key, value.strip())
            answers[key] = fields.pop(key)
            fixed.update(fields)
    answers.update(fixed)
    return answers


def _parse_answer(name: str, value: str) -> dict[str, object]:
    """The typed fields one answered field sets; range-checked like a flag.

    A strategy shorthand sets its framework too.
    """
    parse = FIELD_PARSERS.get(name)
    if parse is None:
        raise UsageError(f"unknown answer field '{name}'; valid: {', '.join(FIELD_PARSERS)}")
    if name == "strategy" and value in STRATEGY_SHORTHANDS:
        framework, strategy = STRATEGY_SHORTHANDS[value]
        return {"strategy": strategy, "framework": framework}
    try:
        parsed = parse(value)
        PartialJobSpec(**{name: parsed})
    except ValueError as exc:
        raise UsageError(f"invalid answer {name}={value}: {exc}") from exc
    return {name: parsed}


def _fill_missing(partial: PartialJobSpec, answers: dict[str, object],
                  non_interactive: bool) -> PartialJobSpec:
    """Answer, then prompt for, missing fields, one at a time, in stable order.

    Prompting needs a terminal on stdin (the interpreter sets ``sys.stdin``
    to ``None`` when its descriptor is closed) and no ``--non-interactive``.
    """
    for name, value in answers.items():
        setattr(partial, name, value)
    missing = missing_fields(partial)
    if not missing:
        return partial
    if non_interactive or sys.stdin is None or not sys.stdin.isatty():
        raise IncompleteSpecError(missing)
    for name in list(missing):
        prompt = _PROMPTS.get(name, name)
        value = input(f"{prompt}: ").strip()
        if value:
            for field, parsed in _parse_answer(name, value).items():
                setattr(partial, field, parsed)
    still_missing = missing_fields(partial)
    if still_missing:
        raise IncompleteSpecError(still_missing)
    return partial


def _read_description(text: str, profiles: ProfileSet,
                      bridge: RemoteBridge | None) -> PartialJobSpec:
    """The fields ``text`` states, read by the remote extractor when ``bridge``
    enables it, else, or when it is out of reach, by the rule-based one over
    every cluster of ``profiles``."""
    # Imported here: a job stated by flags alone never loads the extractor.
    from .prose import RuleBasedExtractor, extract

    if bridge is not None and bridge.enabled("extract"):
        try:
            return extract(text, bridge)
        except BridgeError as exc:
            print(f"notice: remote extractor unavailable ({exc}); "
                  "using the rule-based extractor", file=sys.stderr)
    return extract(text, RuleBasedExtractor(cluster_names=profiles.names()))


def _run(args, partial, profile, templates, rules, bridge) -> int:
    """Finalize the job for ``profile``, run the pipeline with every bridge
    capability the command line enables, and print the script or the report."""
    spec = finalize(partial, profile)
    result = run_pipeline(spec, profile, templates, rules, k=args.k, bridge=bridge)
    script = result.script_text
    if script is None:
        print(render_report(result), end="", file=sys.stderr)
        return EXIT_UNRESOLVED
    if args.report:
        print(render_report(result), end="")
        print("script:")
    print(script)
    return EXIT_OK


def cmd_generate(args) -> int:
    profiles, templates, rules, bridge = _bundles(args)
    answers = _parse_answers(args.answers)
    overrides = _flag_overrides(args)
    partial = PartialJobSpec()
    if args.description:
        partial = _read_description(args.description, profiles, bridge)
    partial = _fill_missing(partial.merged_with(overrides), answers, args.non_interactive)
    return _run(args, partial, profiles.resolve(partial.cluster), templates, rules, bridge)


def cmd_port(args) -> int:
    profiles, templates, rules, bridge = _bundles(args)
    answers = _parse_answers(args.answers)
    parsed = parse_script(read_text(Path(args.script), UsageError))
    target = profiles.resolve(args.to_cluster)
    parsed.cluster = target.id

    overrides = _flag_overrides(args)
    overrides.cluster = None  # --to names the target; ignore a stray --cluster
    parsed = _fill_missing(parsed.merged_with(overrides), answers, args.non_interactive)
    return _run(args, parsed, target, templates, rules, bridge)


# Each job command: the function that runs it and its arguments.
JOB_COMMANDS = {
    "generate": (cmd_generate, (
        ("description", "description", str, "", "job description in plain words"),
        *_JOB_OPTIONS,
    )),
    "port": (cmd_port, (
        ("script", "script", str, ..., "path to the working script"),
        ("--to", "to_cluster", str, ..., "target cluster name"),
        *_JOB_OPTIONS,
    )),
}


if __name__ == "__main__":
    sys.exit(main())
