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
the session is interactive; ``--answers field=value,...`` supplies them for
scripted use, and ``--non-interactive`` turns prompting into a hard error
instead of blocking.

One invocation builds only the parser of the command it names and loads
only the agents its job reaches: the free-text extractor
(:mod:`launchport.prose`) when a description is given, the error-correction
agent (:mod:`launchport.repair`) at the first failed submission, the bridge
for ``--bridge-config`` and :mod:`launchport.registry` for ``templates`` and
``clusters``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
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
from .types import Framework, Record, Strategy

if TYPE_CHECKING:
    from .bridge import RemoteBridge

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNRESOLVED = 2

_STRATEGY_CHOICES = [s.value for s in Strategy] + list(STRATEGY_SHORTHANDS)

_PROMPTS = {
    "cluster": "Target cluster",
    "framework": "Framework (pytorch/deepspeed/accelerate)",
    "strategy": f"Strategy ({'/'.join(_STRATEGY_CHOICES)})",
    "nodes": "Number of nodes",
    "gpus_per_node": "GPUs per node",
    "entry_script": "Training script",
}


class CliSession(Record):
    """Resolved configuration for one invocation."""

    __slots__ = ("interactive", "report", "profiles", "templates", "rules", "bridge", "answers",
                 "k")

    def __init__(
        self,
        interactive: bool,
        report: bool,
        profiles: ProfileSet,
        templates: TemplateSet,
        rules: FaultRuleSet,
        bridge: RemoteBridge | None,
        answers: dict[str, object],
        k: int,
    ) -> None:
        self.interactive = interactive
        self.report = report
        self.profiles = profiles
        self.templates = templates
        self.rules = rules
        self.bridge = bridge
        self.answers = answers
        self.k = k


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        return args.func(args)
    except (LaunchportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


class _Parser(argparse.ArgumentParser):
    """An argument parser whose mistakes raise :class:`UsageError`.

    argparse would exit with code 2, which here means "unresolved".
    Subcommand parsers are built from this class too.
    """

    def error(self, message: str):
        raise UsageError(f"{message} (see '{self.prog} --help')")


# Each command and its one-line help, in the order --help lists them.
_COMMANDS = {
    "generate": "generate a verified launch script",
    "port": "port an existing launch script to another cluster",
    "templates": "inspect or extend the template repository",
    "clusters": "inspect or extend the cluster registry",
}


def _build_parser(first: str | None) -> argparse.ArgumentParser:
    """The parser, with the subparser of the command ``first`` names.

    When ``first`` names no command (``--help``, no arguments, a mistyped
    command) every subparser is built, so help and errors list them all.
    """
    parser = _Parser(
        prog="launchport",
        description="Generate, verify, and repair distributed DL launch scripts.",
    )
    parser.add_argument("--version", action="version", version=f"launchport {__version__}")
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)
    for name, help_line in _COMMANDS.items():
        if first in _COMMANDS and name != first:
            continue
        command = sub.add_parser(name, help=help_line)
        if name in ("generate", "port"):
            _add_job_arguments(name, command)
        else:
            # Imported here: generate and port never load the registry commands.
            from . import registry

            registry.add_actions(name, command)
    return parser


def _add_job_arguments(name: str, parser: argparse.ArgumentParser) -> None:
    """The arguments of ``generate`` or ``port``."""
    if name == "generate":
        parser.add_argument("description", nargs="?", default="",
                            help="job description in plain words")
        parser.set_defaults(func=cmd_generate)
    else:
        parser.add_argument("script", help="path to the working script")
        parser.add_argument("--to", required=True, dest="to_cluster", help="target cluster name")
        parser.set_defaults(func=cmd_port)
    _add_spec_flags(parser)
    _add_config_flags(parser)


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cluster")
    parser.add_argument("--framework", choices=[f.value for f in Framework])
    parser.add_argument("--strategy", choices=_STRATEGY_CHOICES)
    parser.add_argument("--nodes", type=int)
    parser.add_argument("--gpus-per-node", type=int, dest="gpus_per_node")
    parser.add_argument("--total-gpus", type=int, dest="total_gpus")
    parser.add_argument("--port", type=int, dest="master_port")
    parser.add_argument("--entry", dest="entry_script")
    parser.add_argument("--args", dest="train_args")
    parser.add_argument("--answers", default="", help="field=value pairs, comma separated")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--report", action="store_true", help="print the full verification report")
    parser.add_argument("--profiles", default=None, help="cluster profile document")
    parser.add_argument("--templates", default=None, help="template repository document")
    parser.add_argument("--rules", default=None, help="fault rule document")
    parser.add_argument("--bridge-config", default=None, dest="bridge_config")
    parser.add_argument("--candidates", type=int, default=DEFAULT_CANDIDATES_TRIED, dest="k",
                        help="how many ranked templates to try "
                             f"(default {DEFAULT_CANDIDATES_TRIED})")
    parser.add_argument("--non-interactive", action="store_true", dest="non_interactive")


def _session(args) -> CliSession:
    profiles = load_profiles(Path(args.profiles)) if args.profiles else default_profiles()
    templates = load_repository(Path(args.templates)) if args.templates else default_templates()
    known = set(profiles.ids())
    rules = (
        load_fault_rules(Path(args.rules), known_clusters=known)
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
    answers: dict[str, object] = {}
    fixed: dict[str, object] = {}  # what a strategy shorthand fixes wins, in any order
    for pair in args.answers.split(","):
        pair = pair.strip()
        if pair:
            key, _, value = pair.partition("=")
            key = key.strip()
            fields = _parse_answer(key, value.strip())
            answers[key] = fields.pop(key)
            fixed.update(fields)
    answers.update(fixed)
    interactive = not args.non_interactive and sys.stdin.isatty()
    return CliSession(
        interactive=interactive,
        report=args.report,
        profiles=profiles,
        templates=templates,
        rules=rules,
        bridge=bridge,
        answers=answers,
        k=args.k,
    )


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


def _fill_missing(partial: PartialJobSpec, session: CliSession) -> PartialJobSpec:
    """Prompt for or answer missing fields, one at a time, in stable order."""
    for name, value in session.answers.items():
        setattr(partial, name, value)
    missing = missing_fields(partial)
    if not missing:
        return partial
    if not session.interactive:
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


def _read_description(text: str, session: CliSession) -> PartialJobSpec:
    """The fields ``text`` states, read by the remote extractor when the
    session enables it, else, or when it is out of reach, by the rule-based
    one over every cluster of the session's profiles."""
    # Imported here: a job stated by flags alone never loads the extractor.
    from .prose import RuleBasedExtractor, extract

    if session.bridge is not None and session.bridge.enabled("extract"):
        try:
            return extract(text, session.bridge)
        except BridgeError as exc:
            print(f"notice: remote extractor unavailable ({exc}); "
                  "using the rule-based extractor", file=sys.stderr)
    return extract(text, RuleBasedExtractor(cluster_names=session.profiles.names()))


def cmd_generate(args) -> int:
    session = _session(args)
    overrides = _flag_overrides(args)
    partial = PartialJobSpec()
    if args.description:
        partial = _read_description(args.description, session)
    partial = partial.merged_with(overrides)
    partial = _fill_missing(partial, session)

    profile = session.profiles.resolve(partial.cluster)
    return _run(finalize(partial, profile), profile, session)


def cmd_port(args) -> int:
    session = _session(args)
    source = read_text(Path(args.script), UsageError)
    parsed = parse_script(source)
    target = session.profiles.resolve(args.to_cluster)
    parsed.cluster = target.id

    overrides = _flag_overrides(args)
    overrides.cluster = None  # --to names the target; ignore a stray --cluster
    parsed = parsed.merged_with(overrides)
    parsed = _fill_missing(parsed, session)
    return _run(finalize(parsed, target), target, session)


def _run(spec, profile, session: CliSession) -> int:
    """Run the pipeline with every bridge capability the session enables."""
    result = run_pipeline(
        spec, profile, session.templates, session.rules, k=session.k, bridge=session.bridge,
    )
    return _emit(result, session)


def _emit(result, session: CliSession) -> int:
    script = result.script_text
    if script is not None:
        if session.report:
            print(render_report(result), end="")
            print("script:")
        print(script)
        return EXIT_OK
    print(render_report(result), end="", file=sys.stderr)
    return EXIT_UNRESOLVED


if __name__ == "__main__":
    sys.exit(main())
