"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line on success:

1. golden-script reproduction (both reference commands, token-identical)
2. 9x4 matrix reproduction (33 pass, 3 fixed unresolved cells)
3. debug-loop bound and convergence over the fault corpus
4. extraction robustness over the phrasing corpus
5. render/parse round trip over verified templates
6. cross-cluster porting, including the capacity-error suggestions
7. offline completeness (no network touched anywhere)
8. byte-level determinism over ten repetitions

Run with ``pytest -v -s tests/test_acceptance.py`` to see the PASS lines.
"""

import hashlib
import json
import random
import time
from importlib import resources

from launchport.cli import main as cli_main
from launchport.intent import derive, parse_script
from launchport.pipeline import (
    STATUS_SUCCESS,
    STATUS_UNRESOLVED,
    render_report,
    run_loop,
    run_pipeline,
)
from launchport.prose import RuleBasedExtractor
from launchport.synthesis import render_for_spec
from launchport.types import Framework, Strategy

from conftest import (
    FAULT_CORPUS,
    MATRIX_COMBOS,
    PERLMUTTER_COMMAND,
    POLARIS_COMMAND,
    TABLE_DESCRIPTION,
    UNRESOLVABLE_CELLS,
    first_bindable,
    make_spec,
    matrix_specs,
)

# The sha256 of criterion 8's output, as the bundled data produce it.
CRITERION_8_SHA256 = "0ce7c915e61841f0014634ee214f98ac24703b93317df39369e0b2e960d3d013"


def _generate(capsys, cluster_word):
    code = cli_main([
        "generate", TABLE_DESCRIPTION.format(cluster=cluster_word), "--non-interactive",
    ])
    out = capsys.readouterr().out
    return code, out


def _run_matrix(profiles, templates, fault_rules):
    outcomes = {}
    for name, spec, profile in matrix_specs(profiles):
        template = first_bindable(spec, templates)
        outcome = run_loop(spec, template, profile, fault_rules)
        outcomes[name] = outcome
    return outcomes


def test_criterion_1_golden_scripts(capsys):
    start = time.perf_counter()
    code, out = _generate(capsys, "Perlmutter")
    assert code == 0
    assert out.split() == (PERLMUTTER_COMMAND + "\n").split()

    code, out = _generate(capsys, "Polaris")
    assert code == 0
    assert out.split() == (POLARIS_COMMAND + "\n").split()
    # The reference mpiexec invocation appears token for token.
    assert "mpiexec -n 8 -ppn 4 -hostfile hostfiles.txt" in out
    assert "-genv MASTER_PORT 29500 python -u run_image_classification.py ..." in out

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden generation took {elapsed:.3f}s"
    print(f"\nPASS: criterion 1 - golden scripts reproduced token-identically "
          f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_matrix_reproduction(profiles, templates, fault_rules):
    start = time.perf_counter()
    outcomes = _run_matrix(profiles, templates, fault_rules)
    elapsed = time.perf_counter() - start

    succeeded = {name for name, o in outcomes.items() if o.status == STATUS_SUCCESS}
    unresolved = {name for name, o in outcomes.items() if o.status == STATUS_UNRESOLVED}
    expected_unresolved = {f"{c}/{s}" for c, s in UNRESOLVABLE_CELLS}

    assert len(outcomes) == 36
    assert unresolved == expected_unresolved
    assert len(succeeded) == 33
    assert elapsed < 10.0, f"matrix took {elapsed:.3f}s"
    print(f"\nPASS: criterion 2 - 33/36 cells pass, unresolved exactly "
          f"{sorted(unresolved)} ({elapsed * 1000:.0f} ms)")


def test_criterion_3_debug_loop_bound(profiles, templates, fault_rules):
    # Every clearable bundled fault is repaired within five iterations.
    for rule_id, (cluster, framework, strategy, overrides) in FAULT_CORPUS.items():
        profile = profiles.resolve(cluster)
        spec = make_spec(profile, framework, strategy, **overrides)
        template = first_bindable(spec, templates)
        outcome = run_loop(spec, template, profile, fault_rules)
        assert outcome.status == STATUS_SUCCESS, rule_id
        assert 1 <= outcome.iterations_used <= 5, rule_id
        assert any(e.result.fault_fired == rule_id for e in outcome.history), rule_id

    # Unresolvable faults report unresolved with a non-empty history.
    for cluster, combo in sorted(UNRESOLVABLE_CELLS):
        framework, strategy = MATRIX_COMBOS[combo]
        profile = profiles.resolve(cluster)
        spec = make_spec(profile, framework, strategy)
        template = first_bindable(spec, templates)
        outcome = run_loop(spec, template, profile, fault_rules)
        assert outcome.status == STATUS_UNRESOLVED, (cluster, combo)
        assert outcome.iterations_used <= 5
        assert len(outcome.history) >= 1

    clearable = len(FAULT_CORPUS)
    print(f"\nPASS: criterion 3 - {clearable}/{clearable} clearable faults repaired "
          f"within 5 iterations; 3 unresolvable cells report unresolved")


def test_criterion_4_extraction_robustness():
    data = resources.files("launchport.data").joinpath("phrasings.json").read_text("utf-8")
    entries = json.loads(data)
    extractor = RuleBasedExtractor()
    per_field: dict[str, int] = {}
    for entry in entries:
        per_field[entry["field"]] = per_field.get(entry["field"], 0) + 1
        value = getattr(extractor.extract(entry["text"]), entry["field"])
        if hasattr(value, "value"):
            value = value.value
        assert value == entry["expected"], entry
    assert all(count >= 30 for count in per_field.values()), per_field
    assert {"nodes", "gpus_per_node", "total_gpus", "cluster", "framework",
            "strategy", "launcher", "master_port", "entry_script"} <= set(per_field)
    print(f"\nPASS: criterion 4 - {len(entries)} phrasings across "
          f"{len(per_field)} fields extracted with 100% agreement")


def test_criterion_5_round_trip(profiles, templates):
    rng = random.Random(20240811)
    checked = 0
    for template in templates:
        if not template.verified:
            continue
        profile = profiles.resolve(template.cluster)
        for _ in range(100):
            nodes = rng.randint(1, 16)
            gpus = rng.randint(1, profile.gpus_per_node)
            port = rng.randint(1024, 65535)
            entry = rng.choice(["train.py", "run_clm.py", "scripts/finetune.py"])
            spec = make_spec(
                profile, template.framework, template.strategy,
                launcher=template.launcher, nodes=nodes, gpus_per_node=gpus,
                master_port=port, master_port_explicit=True, entry_script=entry,
            )
            rendered = render_for_spec(spec, template, profile)
            recovered = derive(parse_script(rendered.text))
            assert recovered.nodes == spec.nodes, template.id
            assert recovered.gpus_per_node == spec.gpus_per_node, template.id
            assert recovered.master_port == spec.master_port, template.id
            assert recovered.entry_script == spec.entry_script, template.id
            assert spec.world_size == spec.nodes * spec.gpus_per_node
            checked += 1
    assert checked == 33 * 100
    print(f"\nPASS: criterion 5 - round trip exact on {checked} rendered scripts "
          f"over 33 verified templates")


def test_criterion_6_porting(capsys, tmp_path):
    source = tmp_path / "perl.sh"
    source.write_text(PERLMUTTER_COMMAND, "utf-8")

    code = cli_main(["port", str(source), "--to", "polaris", "--non-interactive"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mpiexec" in out
    assert "-n 8 -ppn 4" in out

    code = cli_main(["port", str(source), "--to", "lonestar6", "--non-interactive"])
    err = capsys.readouterr().err
    assert code == 1
    assert "nodes=4 x gpus_per_node=2" in err
    assert "nodes=8 x gpus_per_node=1" in err
    print("\nPASS: criterion 6 - port produces the mpiexec form and the "
          "capacity error suggests world-preserving splits")


def test_criterion_7_offline_completeness(
    capsys, monkeypatch, profiles, templates, fault_rules
):
    def no_network(*args, **kwargs):
        raise AssertionError("network access attempted during offline run")

    monkeypatch.setattr("urllib.request.urlopen", no_network)

    code, out = _generate(capsys, "Perlmutter")
    assert code == 0 and out.split() == (PERLMUTTER_COMMAND + "\n").split()
    outcomes = _run_matrix(profiles, templates, fault_rules)
    assert sum(o.status == STATUS_SUCCESS for o in outcomes.values()) == 33
    print("\nPASS: criterion 7 - full pipeline passes with the model bridge "
          "disabled and the network blocked")


def test_criterion_8_determinism(capsys, profiles, templates, fault_rules):
    def one_run() -> str:
        chunks = []
        _, out = _generate(capsys, "Perlmutter")
        chunks.append(out)
        _, out = _generate(capsys, "Polaris")
        chunks.append(out)
        outcomes = _run_matrix(profiles, templates, fault_rules)
        for name in sorted(outcomes):
            o = outcomes[name]
            chunks.append(f"{name}:{o.status}:{o.iterations_used}\n")
            chunks.append(o.final_script.text + "\n")
            chunks.append(o.final_result.stdout)
            chunks.append(o.final_result.stderr)
        # A failing pipeline report is part of the observable output too.
        profile = profiles.resolve("aurora")
        spec = make_spec(profile, Framework.ACCELERATE, Strategy.DDP)
        result = run_pipeline(spec, profile, templates, fault_rules)
        chunks.append(render_report(result))
        return hashlib.sha256("".join(chunks).encode("utf-8")).hexdigest()

    digests = {one_run() for _ in range(10)}
    assert len(digests) == 1
    # Pinned: any change to the generated bytes shows up here, not only a
    # disagreement between runs.  A change that moves it on purpose says so.
    assert digests == {CRITERION_8_SHA256}
    print(f"\nPASS: criterion 8 - ten repetitions byte-identical "
          f"(sha256 {digests.pop()[:12]}...)")
