from launchport.lint import (
    ENV_PROPAGATION_RISK,
    GPU_CAPACITY_EXCEEDED,
    LAUNCH_SCHED_CONFLICT,
    PORT_OUT_OF_RANGE,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    TOPOLOGY_MISMATCH,
    UNRESOLVED_PLACEHOLDER,
    error_count,
    lint,
)
from launchport.synthesis import ParamBinding, RenderedScript, render_for_spec
from launchport.types import Framework, Strategy

from conftest import make_spec


def _raw_script(text):
    # Bypass RenderedScript's own placeholder check for lint-input tests.
    script = RenderedScript.__new__(RenderedScript)
    object.__setattr__(script, "text", text)
    object.__setattr__(script, "template_id", "external")
    object.__setattr__(script, "binding", ParamBinding(values={}, provenance={}))
    return script


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


def test_env_warning_suppressed_by_exports(profiles, templates):
    profile = profiles.resolve("deltaai")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=2)
    rendered = render_for_spec(spec, templates.get("deltaai-ddp"), profile)
    patched = _raw_script("export PYTHONPATH=$PYTHONPATH\n" + rendered.text)
    assert lint(patched, spec, profile) == []


def test_unresolved_placeholder_flagged_with_span(profiles):
    profile = profiles.resolve("delta")
    spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
    script = _raw_script("torchrun --nnodes={nodes} train.py")
    findings = lint(script, spec, profile)
    assert findings[0].code == UNRESOLVED_PLACEHOLDER
    assert findings[0].span is not None
    start, end = findings[0].span
    assert script.text[start:end] == "{nodes}"


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


def test_findings_follow_check_order(profiles):
    profile = profiles.resolve("aurora")
    spec = make_spec(profile, Framework.ACCELERATE, Strategy.DDP)
    script = _raw_script("accelerate launch {nodes} train.py")
    codes = [f.code for f in lint(script, spec, profile)]
    assert codes.index(UNRESOLVED_PLACEHOLDER) < codes.index(LAUNCH_SCHED_CONFLICT)


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
