"""The command-line parser, and the ``templates`` and ``clusters`` commands.

:mod:`launchport.cli` reads a well-formed ``generate`` or ``port`` command
line itself and imports this module for anything else: ``--help``, no
command, an error, or a registry command.  :func:`build_parser` builds the
argparse parser, the job commands' options from ``cli.JOB_COMMANDS``, so
argparse owns every help text, usage line and error.  The registry commands:

* ``templates list | validate | add`` - inspect, check or extend a template
  repository document;
* ``clusters list | validate | add`` - the same for a cluster profile
  document.

Exit codes are the CLI's: 0 success, 1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from . import __version__
from .cli import EXIT_OK, JOB_COMMANDS
from .clusters import default_profiles, load_profiles
from .documents import load_json
from .errors import ProfileParseError, TemplateInvalidError, UsageError
from .templates import default_templates, load_repository


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


def build_parser(first: str | None) -> argparse.ArgumentParser:
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
        if name in JOB_COMMANDS:
            func, arguments = JOB_COMMANDS[name]
            for argument in arguments:
                _add_argument(command, *argument)
            command.set_defaults(func=func)
        else:
            _add_actions(name, command)
    return parser


def _add_argument(parser: argparse.ArgumentParser, name: str, dest: str, kind, default,
                  help_text: str | None) -> None:
    """Add one row of ``cli.JOB_COMMANDS`` to a job command's parser."""
    options: dict[str, object] = {"help": help_text}
    if kind is bool:
        options["action"] = "store_true"
    elif kind is int:
        options["type"] = int
    elif kind is not str:
        options["choices"] = kind
    if not name.startswith("-"):
        if default is not ...:
            options.update(nargs="?", default=default)
        parser.add_argument(name, **options)
    elif default is ...:
        parser.add_argument(name, dest=dest, required=True, **options)
    else:
        parser.add_argument(name, dest=dest, default=default, **options)


def _add_actions(command: str, parser: argparse.ArgumentParser) -> None:
    """Add the actions of ``command`` (``templates`` or ``clusters``) to its parser."""
    actions = parser.add_subparsers(dest="action", required=True)
    if command == "templates":
        tpl_list = actions.add_parser("list", help="list templates")
        tpl_list.add_argument("--cluster", default=None)
        tpl_list.add_argument("--templates", default=None, help="repository document path")
        tpl_list.set_defaults(func=cmd_templates_list)
        tpl_val = actions.add_parser("validate", help="validate a repository document")
        tpl_val.add_argument("file")
        tpl_val.set_defaults(func=cmd_templates_validate)
        tpl_add = actions.add_parser("add", help="add templates to a repository document")
        tpl_add.add_argument("file", help="document with the new template records")
        tpl_add.add_argument("--templates", required=True, help="repository document to extend")
        tpl_add.set_defaults(func=cmd_templates_add)
    else:
        clu_list = actions.add_parser("list", help="list cluster profiles")
        clu_list.add_argument("--profiles", default=None)
        clu_list.set_defaults(func=cmd_clusters_list)
        clu_val = actions.add_parser("validate", help="validate a profile document")
        clu_val.add_argument("file")
        clu_val.set_defaults(func=cmd_clusters_validate)
        clu_add = actions.add_parser("add", help="add profiles to a profile document")
        clu_add.add_argument("file")
        clu_add.add_argument("--profiles", required=True, help="profile document to extend")
        clu_add.set_defaults(func=cmd_clusters_add)


def cmd_templates_list(args) -> int:
    tset = load_repository(Path(args.templates)) if args.templates else default_templates()
    cluster = None if args.cluster is None else args.cluster.lower()
    if cluster is not None and all(t.cluster != cluster for t in tset):
        # Not a cluster of the repository: an id or alias of the bundled registry.
        cluster = default_profiles().resolve(args.cluster).id
    rows = [
        (t.id, t.framework.value, t.strategy.value, t.launcher.value, str(t.verified).lower())
        for t in sorted(tset, key=lambda t: t.id)
        if cluster is None or t.cluster == cluster
    ]
    _print_table(("id", "framework", "strategy", "launcher", "verified"), rows)
    return EXIT_OK


def cmd_templates_validate(args) -> int:
    load_repository(Path(args.file))
    print("ok")
    return EXIT_OK


def cmd_templates_add(args) -> int:
    def unverified(record):
        # User-added templates start unverified regardless of the document.
        return {**record, "verified": False} if isinstance(record, dict) else record

    added = _add_records(
        Path(args.file), Path(args.templates), load_repository, "repository document",
        lambda message: TemplateInvalidError("<document>", message), unverified,
    )
    print(f"added {added} template(s) to {args.templates}")
    return EXIT_OK


def cmd_clusters_list(args) -> int:
    profiles = load_profiles(Path(args.profiles)) if args.profiles else default_profiles()
    rows = [
        (
            p.id,
            p.scheduler.value,
            p.default_launcher.value,
            str(p.gpus_per_node),
            p.gpu_type,
            "yes" if p.env_propagation else "no",
        )
        for p in sorted(profiles, key=lambda p: p.id)
    ]
    _print_table(("id", "scheduler", "launcher", "gpus/node", "gpu", "env-propagation"), rows)
    return EXIT_OK


def cmd_clusters_validate(args) -> int:
    load_profiles(Path(args.file))
    print("ok")
    return EXIT_OK


def cmd_clusters_add(args) -> int:
    added = _add_records(
        Path(args.file), Path(args.profiles), load_profiles,
        "profile document", ProfileParseError, lambda record: record,
    )
    print(f"added {added} profile(s) to {args.profiles}")
    return EXIT_OK


def _add_records(source: Path, target: Path, load, what: str, error, stamp) -> int:
    """Append the records of ``source`` to the document ``target``.

    Records are appended verbatim after ``stamp``; the merged document is
    validated with ``load`` and written only when it loads, so ``target`` is
    untouched on any failure.  Returns the number of records added.
    """
    existing = load_json(target, list, what, error)
    incoming = [stamp(record) for record in load_json(source, list, what, error)]
    merged = json.dumps(existing + incoming, indent=2) + "\n"
    load(merged)
    target.write_text(merged, "utf-8")
    return len(incoming)


def _print_table(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    for row in rows:
        print(fmt.format(*row))
