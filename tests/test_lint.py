import re

import pytest
from hypothesis import example, given, strategies as st

from launchport.errors import LaunchportError, UnboundParameterError
from launchport.intent import PORT_FLAG_RE, parse_script
from launchport.lint import (
    CATALOG,
    ENV_PROPAGATION_RISK,
    GPU_CAPACITY_EXCEEDED,
    LAUNCH_SCHED_CONFLICT,
    PORT_OUT_OF_RANGE,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    TOPOLOGY_MISMATCH,
    Finding,
    error_count,
    lint,
)
from launchport.synthesis import RenderedScript, render_for_spec
from launchport.types import PORT_MAX, PORT_MIN, Framework, Launcher, Strategy, valid_port

from conftest import make_spec


def _raw_script(text):
    """A script from outside the template repository, such as a hand edit."""
    return RenderedScript(text, "external")


def test_reference_script_is_clean(profiles, templates):
    profile = profiles.resolve("perlmutter")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP,
                     entry_script="run_image_classification.py")
    rendered = render_for_spec(spec, templates.get("perlmutter-ddp"), profile)
    assert lint(rendered, spec, profile) == []


def test_accelerate_on_pbs_is_a_conflict(profiles, templates):
    profile = profiles.resolve("aurora")
    spec = make_spec(profile, Framework.ACCELERATE, Strategy.DDP)
    rendered = render_for_spec(spec, templates.get("aurora-ddp"), profile)
    findings = lint(rendered, spec, profile)
    assert [f.code for f in findings if f.severity == SEVERITY_ERROR] == [LAUNCH_SCHED_CONFLICT]


def test_env_propagation_warning_on_multi_node(profiles, templates):
    profile = profiles.resolve("deltaai")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=2)
    rendered = render_for_spec(spec, templates.get("deltaai-ddp"), profile)
    findings = lint(rendered, spec, profile)
    assert [f.code for f in findings] == [ENV_PROPAGATION_RISK]
    assert findings[0].severity == SEVERITY_WARNING


def test_no_env_warning_on_one_node(profiles, templates):
    profile = profiles.resolve("deltaai")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=1)
    assert lint(render_for_spec(spec, templates.get("deltaai-ddp"), profile), spec, profile) == []


def test_env_warning_suppressed_by_exports(profiles, templates):
    profile = profiles.resolve("deltaai")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=2)
    rendered = render_for_spec(spec, templates.get("deltaai-ddp"), profile)
    patched = _raw_script("export PYTHONPATH=$PYTHONPATH\n" + rendered.text)
    assert lint(patched, spec, profile) == []


# Checks 1, 4 and 5 once read comment lines and module commands too.
def test_a_commented_accelerate_line_is_no_conflict(profiles):
    profile = profiles.resolve("aurora")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, launcher=Launcher.MPIEXEC)
    script = _raw_script("# was: accelerate launch --num_machines=2 train.py\n"
                         "mpiexec -n 8 -ppn 4 python -u train.py")
    assert lint(script, spec, profile) == []
    uncommented = _raw_script(script.text[len("# was: "):])
    assert LAUNCH_SCHED_CONFLICT in [f.code for f in lint(uncommented, spec, profile)]


def test_a_port_on_a_comment_line_is_not_read(profiles):
    profile = profiles.resolve("aurora")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, launcher=Launcher.MPIEXEC)
    head = "  # old: MASTER_PORT 99999\nmodule load MASTER_PORT=1\n"
    script = _raw_script(head + "mpiexec -n 8 -ppn 4 -genv MASTER_PORT 70000 python -u train.py")
    flagged = [f for f in lint(script, spec, profile) if f.code == PORT_OUT_OF_RANGE]
    # Only the port the script runs.
    assert [f.message for f in flagged] == [f"port 70000 outside [{PORT_MIN}, {PORT_MAX}]"]
    assert lint(_raw_script(head + "mpiexec -n 8 -ppn 4 python -u train.py"), spec, profile) == []


@pytest.mark.parametrize("prefix, line", [
    ("# ", "MASTER_PORT=99999"),
    ("   # old: ", "--master_port 70000"),
    ("\t#", "--main_process_port=0"),
    ("module load ", "MASTER_PORT=1"),
    ("  module swap old ", "--master-port 99999"),
    ("\tmodule\tswap old ", "--master-port 99999"),
    ("cd $HOME  # ", "--master_port=99999"),
    ("echo 'a b'\t#", "MASTER_PORT=99999"),
])
def test_lint_and_parse_read_no_port_on_a_line_the_script_does_not_run(profiles, prefix, line):
    # Check 4 reads the lines parse_script reads; both read the line once it runs.
    profile = profiles.resolve("perlmutter")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, launcher=Launcher.TORCHRUN)
    run = "torchrun --nnodes=2 --nproc_per_node=4 train.py"
    unread, read = _raw_script(f"{prefix}{line}\n{run}"), _raw_script(f"{line}\n{run}")
    assert PORT_OUT_OF_RANGE not in [f.code for f in lint(unread, spec, profile)]
    assert PORT_OUT_OF_RANGE in [f.code for f in lint(read, spec, profile)]
    assert parse_script(unread.text) == parse_script(run)


@pytest.mark.parametrize("between", ["\n", "\n# the port\n", "\n\tmodule load x\n"],
                         ids=["newline", "comment", "module"])
@pytest.mark.parametrize("flag", ["--master_port", "--main-process-port", "MASTER_PORT"])
def test_lint_reads_no_port_from_the_line_after_its_flag(profiles, flag, between):
    # The shell runs "99999 train.py" as a command of its own, not as the port.
    profile = profiles.resolve("perlmutter")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, launcher=Launcher.TORCHRUN)
    run = "torchrun --nnodes=2 --nproc_per_node=4"
    split = _raw_script(f"{run} {flag}{between}99999 train.py")
    assert PORT_OUT_OF_RANGE not in [f.code for f in lint(split, spec, profile)]
    for gap in (" ", "\t", "=", " = "):
        joined = _raw_script(f"{run} {flag}{gap}99999 train.py")
        assert [f.message for f in lint(joined, spec, profile) if f.code == PORT_OUT_OF_RANGE] \
            == [f"port 99999 outside [{PORT_MIN}, {PORT_MAX}]"]


def test_a_commented_export_does_not_silence_the_env_warning(profiles, templates):
    profile = profiles.resolve("deltaai")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=2)
    rendered = render_for_spec(spec, templates.get("deltaai-ddp"), profile)
    for commented in (_raw_script("# export PYTHONPATH=$PYTHONPATH\n" + rendered.text),
                      _raw_script(rendered.text + "  # TODO export PYTHONPATH")):
        assert [f.code for f in lint(commented, spec, profile)] == [ENV_PROPAGATION_RISK]


def test_placeholder_in_a_bound_value_is_refused(profiles, templates):
    # A template declares every placeholder it holds, so one reaches a
    # rendered text only inside a bound value, and is refused before lint.
    profile = profiles.resolve("delta")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, train_args="--cfg {x}")
    with pytest.raises(UnboundParameterError) as exc:
        render_for_spec(spec, templates.get("delta-ddp"), profile)
    assert exc.value.param == "x"
    assert exc.value.template_id == "delta-ddp"


def test_topology_mismatch_detected(profiles):
    profile = profiles.resolve("aurora")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=2, gpus_per_node=4)
    script = _raw_script(
        "mpiexec -n 9 -ppn 4 -hostfile hostfiles.txt python -u train.py"
    )
    codes = [f.code for f in lint(script, spec, profile)]
    assert TOPOLOGY_MISMATCH in codes


def test_capacity_check_uses_script_counts(profiles):
    profile = profiles.resolve("lonestar6")  # 3 GPUs per node
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, gpus_per_node=3)
    script = _raw_script(
        "srun -N 2 -n 2 bash -c 'torchrun --nnodes=2 --nproc_per_node=4 "
        "--master_port=29500 train.py'"
    )
    codes = [f.code for f in lint(script, spec, profile)]
    assert GPU_CAPACITY_EXCEEDED in codes


def test_port_range_checked(profiles):
    profile = profiles.resolve("delta")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
    script = _raw_script(
        "srun -N 2 -n 2 bash -c 'torchrun --nnodes=2 --nproc_per_node=4 "
        "--master_port=70000 train.py'"
    )
    codes = [f.code for f in lint(script, spec, profile)]
    assert PORT_OUT_OF_RANGE in codes


def test_spec_port_too_long_to_show_is_a_finding(profiles):
    # Only a hand-built JobSpec carries such a port: finalize checks it first.
    profile = profiles.resolve("delta")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, master_port=10**5000)
    script = _raw_script("srun -N 2 -n 2 bash -c 'torchrun --nnodes=2 train.py'")
    flagged = [f for f in lint(script, spec, profile) if f.code == PORT_OUT_OF_RANGE]
    assert [f.message for f in flagged] == [
        f"port an integer too long to show outside [{PORT_MIN}, {PORT_MAX}]"
    ]


def test_findings_follow_check_order(profiles):
    profile = profiles.resolve("aurora")
    spec = make_spec(profile, Framework.ACCELERATE, Strategy.DDP)
    script = _raw_script("mpiexec -n 9 -ppn 4 python -u train.py")
    findings = lint(script, spec, profile)
    assert [f.code for f in findings] == [LAUNCH_SCHED_CONFLICT, TOPOLOGY_MISMATCH]
    assert error_count(findings) == 2


def test_severities_come_from_the_catalog(profiles):
    script = _raw_script("mpiexec -n 9 -ppn 12 -genv MASTER_PORT 80 python -u train.py")
    codes = set()
    for cluster in ("aurora", "deltaai"):
        profile = profiles.resolve(cluster)
        spec = make_spec(profile, Framework.ACCELERATE, Strategy.DDP)
        for finding in lint(script, spec, profile):
            assert finding.severity == CATALOG[finding.code]
            codes.add(finding.code)
    assert codes == set(CATALOG)


@pytest.mark.parametrize("code", sorted(CATALOG))
def test_a_finding_takes_its_severity_from_the_catalog(code):
    finding = Finding(code, "message")
    assert finding.severity == CATALOG[code]
    assert finding == Finding(code, "message")
    assert repr(finding) == f"Finding(code='{code}', message='message')"


def test_a_finding_with_an_unknown_code_is_refused():
    with pytest.raises(LaunchportError, match="unknown finding code 'NOT_A_CODE'"):
        Finding("NOT_A_CODE", "message")


def test_lint_is_pure(profiles, templates):
    profile = profiles.resolve("deltaai")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
    rendered = render_for_spec(spec, templates.get("deltaai-ddp"), profile)
    results = [lint(rendered, spec, profile) for _ in range(10)]
    assert all(r == results[0] for r in results)


def test_soundness_over_verified_bundle(profiles, templates):
    """Every verified template, rendered for a legal matching job, lints clean
    of errors (warnings are allowed)."""
    for t in templates:
        if not t.verified:
            continue
        profile = profiles.resolve(t.cluster)
        spec = make_spec(profile, t.framework, t.strategy, launcher=t.launcher)
        rendered = render_for_spec(spec, t, profile)
        findings = lint(rendered, spec, profile)
        assert error_count(findings) == 0, (t.id, findings)


# Reference: lint's own port scan, before intent defined the three flags once,
# with only "=", spaces and tabs between a flag and its digits.
_RAW_PORT_RE = re.compile(
    r"(?:--master[-_]port|--main[-_]process[-_]port|MASTER_PORT)[= \t]+(\d+)"
)

_PORT_TOKENS = [
    "--master_port", "--master-port", "--main_process_port", "--main-process_port",
    "--main-process-port", "MASTER_PORT", "master_port", "--master__port", "-genv MASTER_PORT",
    "--MASTER_PORT", "=", " ", "\t", "\n", "29500", "80", "70000", "0", "1" * 30, "x", "'",
    "port", "PORT", "_PORT", "--master_", "--main_process_", "MASTER_", "-", "_",
]
_PORT_SOUPS = st.lists(st.sampled_from(_PORT_TOKENS), max_size=16).map("".join) | st.text()


@given(_PORT_SOUPS)
@example("--master_port=1--master_port=29500")
@example("-genv MASTER_PORT 1 --master_port 29500")
def test_port_flag_pattern_scans_as_lints_own_did(text):
    expected = [(m.group(1), m.span(1)) for m in _RAW_PORT_RE.finditer(text)]
    assert [(m.group(1), m.span(1)) for m in PORT_FLAG_RE.finditer(text)] == expected


# Reference: parse_script's port reading before it shared lint's port reader:
# one pattern per flag, tried in its launcher's order; the first valid port wins.
_REF_TORCH, _REF_MAIN, _REF_GENV = (re.compile(flag + r"[= \t]+(\d+)") for flag in (
    r"--master[-_]port", r"--main[-_]process[-_]port", "MASTER_PORT"))
_REF_PORT_ORDER = {
    Launcher.TORCHRUN: (_REF_TORCH, _REF_GENV),
    Launcher.DEEPSPEED: (_REF_TORCH, _REF_GENV),
    Launcher.ACCELERATE: (_REF_MAIN, _REF_GENV, _REF_TORCH),
    Launcher.MPIEXEC: (_REF_GENV, _REF_TORCH),
    Launcher.SRUN: (_REF_GENV, _REF_TORCH),
}
_LAUNCH_PREFIXES = ["torchrun --nnodes=2 ", "deepspeed --num_nodes=2 ", "accelerate launch ",
                    "mpiexec -n 8 ", "srun -N 2 "]


def _reference_port(text, launcher):
    for pattern in _REF_PORT_ORDER[launcher]:
        m = pattern.search(text)
        try:
            port = valid_port(int(m[1])) if m else None
        except ValueError:  # more digits than int() converts
            port = None
        if port is not None:
            return port
    return None


@given(st.sampled_from(_LAUNCH_PREFIXES), _PORT_SOUPS)
@example("accelerate launch ", "--master_port 29500 MASTER_PORT=80 --main_process_port 29400")
@example("accelerate launch ", "-genv MASTER_PORT 29501 --master_port 29502 --main-process-port 29400")
@example("srun -N 2 ", "MASTER_PORT 80 --master_port=29501 MASTER_PORT 29502")
@example("torchrun --nnodes=2 ", "--master_port=1--master_port=29500 MASTER_PORT 29400")
@example("torchrun --nnodes=2 ", "MASTER_PORT 29400 --master-port 29500")
def test_parse_script_reads_the_first_valid_port_in_its_launchers_flag_order(prefix, soup):
    parsed = parse_script(prefix + soup)
    assert parsed.master_port == _reference_port(prefix + soup, parsed.launcher)


_PORT_DIGITS = "0123456789\u0663\u0669\u0660"  # with Arabic-Indic 3, 9 and 0


@given(st.text(_PORT_DIGITS, min_size=1, max_size=5000)
       | st.integers(1, 5000).map("9".__mul__))
@example("9" * 4400)
@example("0029500")
@example("\u0660" * 4301 + "29500")
def test_lint_flags_exactly_the_port_texts_the_rule_rejects(profiles, digits):
    profile = profiles.resolve("delta")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
    head = "torchrun --nnodes=2 --nproc_per_node=4 --master_port="
    text = f"{head}{digits} train.py"
    flagged = [f for f in lint(_raw_script(text), spec, profile) if f.code == PORT_OUT_OF_RANGE]
    if valid_port(digits) is None:
        assert [f.message for f in flagged] == [f"port {digits} outside [{PORT_MIN}, {PORT_MAX}]"]
    else:
        assert flagged == []
