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
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .bridge import BridgeExtractor, RemoteBridge, load_bridge_config
from .clusters import ProfileSet, default_profiles, load_profiles
from .errors import (
    BridgeError,
    CapacityError,
    IncompleteSpecError,
    LaunchportError,
    ProfileParseError,
    UsageError,
)
from .intent import (
    PartialJobSpec,
    RuleBasedExtractor,
    extract,
    finalize,
    missing_fields,
    parse_script,
)
from .pipeline import render_report, run_pipeline
from .repair import (
    FingerprintSet,
    RepairTable,
    default_fingerprints,
    default_repair_table,
)
from .simcluster import FaultRuleSet, default_fault_rules, load_fault_rules
from .templates import (
    TemplateSet,
    add_template,
    default_templates,
    dump_repository,
    load_repository,
)
from .types import Framework, Strategy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNRESOLVED = 2

# Fields that --answers and the prompts may set, each with its value parser.
_ANSWER_TYPES = {
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

_PROMPTS = {
    "cluster": "Target cluster",
    "framework": "Framework (pytorch/deepspeed/accelerate)",
    "strategy": "Strategy (ddp/fsdp/zero3)",
    "nodes": "Number of nodes",
    "gpus_per_node": "GPUs per node",
    "entry_script": "Training script",
}


@dataclass
class CliSession:
    """Resolved configuration for one invocation."""

    interactive: bool
    report: bool
    profiles: ProfileSet
    templates: TemplateSet
    rules: FaultRuleSet
    fingerprints: FingerprintSet
    repair_table: RepairTable
    bridge: RemoteBridge | None
    answers: dict[str, object]
    k: int


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
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


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="launchport",
        description="Generate, verify, and repair distributed DL launch scripts.",
    )
    parser.add_argument("--version", action="version", version=f"launchport {__version__}")
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    gen = sub.add_parser("generate", help="generate a verified launch script")
    gen.add_argument("description", nargs="?", default="", help="job description in plain words")
    _add_spec_flags(gen)
    _add_config_flags(gen)
    gen.set_defaults(func=cmd_generate)

    port = sub.add_parser("port", help="port an existing launch script to another cluster")
    port.add_argument("script", help="path to the working script")
    port.add_argument("--to", required=True, dest="to_cluster", help="target cluster name")
    _add_spec_flags(port)
    _add_config_flags(port)
    port.set_defaults(func=cmd_port)

    tpl = sub.add_parser("templates", help="inspect or extend the template repository")
    tpl_sub = tpl.add_subparsers(dest="action", required=True)
    tpl_list = tpl_sub.add_parser("list", help="list templates")
    tpl_list.add_argument("--cluster", default=None)
    tpl_list.add_argument("--templates", default=None, help="repository document path")
    tpl_list.set_defaults(func=cmd_templates_list)
    tpl_val = tpl_sub.add_parser("validate", help="validate a repository document")
    tpl_val.add_argument("file")
    tpl_val.set_defaults(func=cmd_templates_validate)
    tpl_add = tpl_sub.add_parser("add", help="add templates to a repository document")
    tpl_add.add_argument("file", help="document with the new template records")
    tpl_add.add_argument("--templates", required=True, help="repository document to extend")
    tpl_add.set_defaults(func=cmd_templates_add)

    clu = sub.add_parser("clusters", help="inspect or extend the cluster registry")
    clu_sub = clu.add_subparsers(dest="action", required=True)
    clu_list = clu_sub.add_parser("list", help="list cluster profiles")
    clu_list.add_argument("--profiles", default=None)
    clu_list.set_defaults(func=cmd_clusters_list)
    clu_val = clu_sub.add_parser("validate", help="validate a profile document")
    clu_val.add_argument("file")
    clu_val.set_defaults(func=cmd_clusters_validate)
    clu_add = clu_sub.add_parser("add", help="add profiles to a profile document")
    clu_add.add_argument("file")
    clu_add.add_argument("--profiles", required=True, help="profile document to extend")
    clu_add.set_defaults(func=cmd_clusters_add)
    return parser


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cluster")
    parser.add_argument("--framework", choices=[f.value for f in Framework])
    parser.add_argument("--strategy", choices=[s.value for s in Strategy] + ["acc-ddp"])
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
    parser.add_argument("--candidates", type=int, default=3, dest="k",
                        help="how many ranked templates to try (default 3)")
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
        bridge = RemoteBridge(load_bridge_config(Path(args.bridge_config)))
    if args.k < 1:
        raise UsageError(f"--candidates must be >= 1, got {args.k}")
    answers = {}
    for pair in args.answers.split(","):
        pair = pair.strip()
        if pair:
            key, _, value = pair.partition("=")
            key = key.strip()
            answers[key] = _parse_answer(key, value.strip())
    interactive = not args.non_interactive and sys.stdin.isatty()
    return CliSession(
        interactive=interactive,
        report=args.report,
        profiles=profiles,
        templates=templates,
        rules=rules,
        fingerprints=default_fingerprints(),
        repair_table=default_repair_table(),
        bridge=bridge,
        answers=answers,
        k=args.k,
    )


def _flag_overrides(args) -> PartialJobSpec:
    framework = Framework(args.framework) if args.framework else None
    strategy = None
    if args.strategy == "acc-ddp":
        framework = Framework.ACCELERATE
        strategy = Strategy.DDP
    elif args.strategy:
        strategy = Strategy(args.strategy)
    try:
        return PartialJobSpec(
            cluster=args.cluster,
            framework=framework,
            strategy=strategy,
            nodes=args.nodes,
            gpus_per_node=args.gpus_per_node,
            total_gpus=args.total_gpus,
            master_port=args.master_port,
            entry_script=args.entry_script,
            train_args=args.train_args or "",
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_answer(name: str, value: str) -> object:
    """The typed value of one answered field; range-checked like a flag."""
    parse = _ANSWER_TYPES.get(name)
    if parse is None:
        raise UsageError(f"unknown answer field '{name}'; valid: {', '.join(_ANSWER_TYPES)}")
    try:
        parsed = parse(value)
        PartialJobSpec(**{name: parsed})
    except ValueError as exc:
        raise UsageError(f"invalid answer {name}={value}: {exc}") from exc
    return parsed


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
            setattr(partial, name, _parse_answer(name, value))
    still_missing = missing_fields(partial)
    if still_missing:
        raise IncompleteSpecError(still_missing)
    return partial


def _extractor(session: CliSession):
    if session.bridge is not None and session.bridge.enabled("extract"):
        return BridgeExtractor(session.bridge)
    return _rule_extractor(session)


def _rule_extractor(session: CliSession) -> RuleBasedExtractor:
    """The offline extractor, knowing every cluster of the session's profiles."""
    return RuleBasedExtractor(cluster_names=session.profiles.names())


def cmd_generate(args) -> int:
    session = _session(args)
    overrides = _flag_overrides(args)
    partial = PartialJobSpec()
    if args.description:
        try:
            partial = extract(args.description, _extractor(session))
        except BridgeError as exc:
            # Remote extractor out of reach; the rule-based one always works.
            print(f"notice: remote extractor unavailable ({exc}); "
                  "using the rule-based extractor", file=sys.stderr)
            partial = extract(args.description, _rule_extractor(session))
    partial = partial.merged_with(overrides)
    partial = _fill_missing(partial, session)

    profile = session.profiles.resolve(partial.cluster)
    spec = finalize(partial, profile)
    result = run_pipeline(
        spec,
        profile,
        session.templates,
        session.rules,
        fingerprints=session.fingerprints,
        repair_table=session.repair_table,
        k=session.k,
        bridge=session.bridge if session.bridge and session.bridge.enabled("repair") else None,
    )
    return _emit(result, session)


def cmd_port(args) -> int:
    session = _session(args)
    source = Path(args.script).read_text("utf-8")
    parsed = parse_script(source)
    target = session.profiles.resolve(args.to_cluster)
    parsed.cluster = target.id

    overrides = _flag_overrides(args)
    overrides.cluster = None  # --to names the target; ignore a stray --cluster
    parsed = parsed.merged_with(overrides)
    parsed = _fill_missing(parsed, session)

    try:
        spec = finalize(parsed, target)
    except CapacityError as exc:
        raise _with_topology_suggestions(exc, parsed, target) from exc
    result = run_pipeline(
        spec,
        target,
        session.templates,
        session.rules,
        fingerprints=session.fingerprints,
        repair_table=session.repair_table,
        k=session.k,
    )
    return _emit(result, session)


def _with_topology_suggestions(
    exc: CapacityError, parsed: PartialJobSpec, target
) -> CapacityError:
    """Rebuild a capacity error with world-size-preserving splits for the target."""
    nodes = parsed.nodes or 1
    per_node = parsed.gpus_per_node or 1
    world = parsed.total_gpus or nodes * per_node
    suggestions = [
        (world // g, g)
        for g in range(target.gpus_per_node, 0, -1)
        if world % g == 0 and g <= target.gpus_per_node
    ]
    suggestions.sort(key=lambda ng: (abs(ng[0] - nodes), ng[0]))
    return CapacityError(
        f"{per_node} GPUs per node does not fit on {target.id} "
        f"(limit {target.gpus_per_node}) for world size {world}",
        limit=target.gpus_per_node,
        suggestions=suggestions,
    )


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


def cmd_templates_list(args) -> int:
    tset = load_repository(Path(args.templates)) if args.templates else default_templates()
    rows = [
        (t.id, t.framework.value, t.strategy.value, t.launcher.value, str(t.verified).lower())
        for t in sorted(tset, key=lambda t: t.id)
        if args.cluster is None or t.cluster == args.cluster.lower()
    ]
    _print_table(("id", "framework", "strategy", "launcher", "verified"), rows)
    return EXIT_OK


def cmd_templates_validate(args) -> int:
    load_repository(Path(args.file))
    print("ok")
    return EXIT_OK


def cmd_templates_add(args) -> int:
    repo_path = Path(args.templates)
    tset = load_repository(repo_path)
    incoming = load_repository(Path(args.file))
    for t in incoming:
        # User-added templates start unverified regardless of the document.
        tset = add_template(tset, t if not t.verified else _unverified(t))
    repo_path.write_text(dump_repository(tset), "utf-8")
    print(f"added {len(incoming)} template(s) to {repo_path}")
    return EXIT_OK


def _unverified(t):
    from dataclasses import replace

    return replace(t, verified=False)


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
    registry_path = Path(args.profiles)
    existing = _profile_records(registry_path)
    incoming = _profile_records(Path(args.file))
    merged = existing + incoming
    load_profiles(json.dumps(merged))  # validates ids, aliases, fields
    registry_path.write_text(json.dumps(merged, indent=2) + "\n", "utf-8")
    print(f"added {len(incoming)} profile(s) to {registry_path}")
    return EXIT_OK


def _profile_records(path: Path) -> list:
    """The records of a profile document; only its JSON-array shape is checked."""
    try:
        records = json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise ProfileParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(records, list):
        raise ProfileParseError(f"{path}: profile document must be a JSON array")
    return records


def _print_table(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    for row in rows:
        print(fmt.format(*row))


if __name__ == "__main__":
    sys.exit(main())
