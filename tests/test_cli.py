import json

import pytest

from launchport.cli import main
from launchport.intent import parse_script
from launchport.templates import default_templates, dump_repository

from conftest import PERLMUTTER_COMMAND, POLARIS_COMMAND, TABLE_DESCRIPTION


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_reference_description_on_perlmutter(self, capsys):
        code, out, err = run_cli(
            capsys, "generate", TABLE_DESCRIPTION.format(cluster="Perlmutter"),
            "--non-interactive",
        )
        assert code == 0
        assert out == PERLMUTTER_COMMAND + "\n"

    def test_reference_description_on_polaris_profile(self, capsys):
        code, out, err = run_cli(
            capsys, "generate", TABLE_DESCRIPTION.format(cluster="Polaris"),
            "--non-interactive",
        )
        assert code == 0
        assert out == POLARIS_COMMAND + "\n"

    def test_cluster_flag_overrides_description(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", TABLE_DESCRIPTION.format(cluster="Perlmutter"),
            "--cluster", "aurora", "--non-interactive",
        )
        assert code == 0
        assert "mpiexec -n 8 -ppn 4" in out

    def test_flags_only_no_description(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate",
            "--cluster", "delta", "--framework", "pytorch", "--strategy", "ddp",
            "--nodes", "2", "--gpus-per-node", "4", "--entry", "train.py",
            "--non-interactive",
        )
        assert code == 0
        assert "torchrun --nnodes=2 --nproc_per_node=4" in out

    def test_unresolved_cell_exits_two_and_names_conflict(self, capsys):
        code, out, err = run_cli(
            capsys, "generate",
            "train GPT-2 on Aurora with 2 nodes and 6 GPUs per node, "
            "my training file is train_gpt2.py",
            "--strategy", "acc-ddp", "--non-interactive",
        )
        assert code == 2
        assert out == ""
        assert "PBS" in err

    def test_missing_fields_listed_non_interactive(self, capsys):
        code, out, err = run_cli(
            capsys, "generate", "train something on 2 nodes", "--non-interactive",
        )
        assert code == 1
        assert "entry_script" in err
        assert "cluster" in err

    def test_unknown_cluster_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "generate",
            "pytorch ddp on 2 nodes with 4 GPUs per node, training file is train.py",
            "--cluster", "frontier", "--non-interactive",
        )
        assert code == 1
        assert "frontier" in err

    def test_answers_supply_missing_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "use 2 nodes with 4 GPUs per node on Delta",
            "--answers", "framework=pytorch,strategy=ddp,entry_script=train.py",
            "--non-interactive",
        )
        assert code == 0
        assert "train.py" in out

    def test_report_mode_includes_candidates_and_script(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", TABLE_DESCRIPTION.format(cluster="Perlmutter"),
            "--report", "--non-interactive",
        )
        assert code == 0
        assert "candidates:" in out
        assert "perlmutter-ddp: score=1.000 (exact)" in out
        assert out.endswith(PERLMUTTER_COMMAND + "\n")

    def test_deepspeed_job_via_answers(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate",
            "train GPT-2 with deepspeed zero3 on anvil, 2 nodes, 4 GPUs per node, "
            "my training file is train_gpt2.py",
            "--answers", "deepspeed_config=ds_config.json",
            "--non-interactive",
        )
        assert code == 0
        assert "ds_config.json" in out


class TestInputErrors:
    @pytest.mark.parametrize("flags", [
        ("--nodes", "0"),
        ("--port", "80"),
        ("--candidates", "0"),
        ("--answers", "nodes=abc"),
        ("--answers", "strategy=bogus"),
        ("--answers", "bogus=1"),
    ], ids=" ".join)
    def test_bad_value_is_one_error_line(self, capsys, flags):
        code, out, err = run_cli(
            capsys, "generate", TABLE_DESCRIPTION.format(cluster="Perlmutter"),
            *flags, "--non-interactive",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("case", ["bridge-config", "clusters-add", "nodes-abc"])
    def test_malformed_input_is_one_error_line(self, capsys, tmp_path, case):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", "utf-8")
        registry = tmp_path / "clusters.json"
        registry.write_text("[]", "utf-8")
        argv = {
            "bridge-config": ["generate", TABLE_DESCRIPTION.format(cluster="Perlmutter"),
                              "--bridge-config", str(bad), "--non-interactive"],
            "clusters-add": ["clusters", "add", str(bad), "--profiles", str(registry)],
            "nodes-abc": ["generate", "--cluster", "perlmutter", "--nodes", "abc"],
        }[case]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert registry.read_text("utf-8") == "[]"


class TestPort:
    @pytest.fixture()
    def perl_script(self, tmp_path):
        path = tmp_path / "perl.sh"
        path.write_text(PERLMUTTER_COMMAND, "utf-8")
        return path

    def test_port_to_polaris_profile(self, capsys, perl_script):
        code, out, _ = run_cli(
            capsys, "port", str(perl_script), "--to", "polaris", "--non-interactive",
        )
        assert code == 0
        assert "mpiexec" in out
        assert "-n 8 -ppn 4" in out

    def test_port_to_same_cluster_is_topology_fixed_point(self, capsys, perl_script):
        code, out, _ = run_cli(
            capsys, "port", str(perl_script), "--to", "perlmutter", "--non-interactive",
        )
        assert code == 0
        original = parse_script(PERLMUTTER_COMMAND)
        ported = parse_script(out.rstrip("\n"))
        assert ported.nodes == original.nodes
        assert ported.gpus_per_node == original.gpus_per_node
        assert ported.master_port == original.master_port
        assert ported.entry_script == original.entry_script

    def test_port_beyond_capacity_suggests_splits(self, capsys, perl_script):
        code, _, err = run_cli(
            capsys, "port", str(perl_script), "--to", "lonestar6", "--non-interactive",
        )
        assert code == 1
        assert "nodes=4 x gpus_per_node=2" in err
        assert "nodes=8 x gpus_per_node=1" in err


class TestTemplatesCommand:
    def test_list_filters_by_cluster(self, capsys):
        code, out, _ = run_cli(capsys, "templates", "list", "--cluster", "perlmutter")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["id", "framework", "strategy", "launcher", "verified"]
        assert len(lines) == 1 + 4
        assert any("perlmutter-ddp" in line for line in lines)

    def test_validate_good_repository(self, capsys, tmp_path):
        path = tmp_path / "repo.json"
        path.write_text(dump_repository(default_templates()), "utf-8")
        code, out, _ = run_cli(capsys, "templates", "validate", str(path))
        assert code == 0
        assert out.strip() == "ok"

    def test_validate_bad_repository_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{
            "id": "broken", "cluster": "delta", "framework": "pytorch",
            "strategy": "ddp", "launcher": "torchrun",
            "body": "{nodes}", "params": [],
        }]), "utf-8")
        code, _, err = run_cli(capsys, "templates", "validate", str(path))
        assert code == 1
        assert "broken" in err
        assert "nodes" in err

    def test_add_validates_and_writes_back(self, capsys, tmp_path):
        repo = tmp_path / "repo.json"
        repo.write_text(dump_repository(default_templates()), "utf-8")
        new = tmp_path / "new.json"
        new.write_text(json.dumps([{
            "id": "testbox-ddp", "cluster": "testbox", "framework": "pytorch",
            "strategy": "ddp", "launcher": "torchrun",
            "body": "torchrun --nnodes={nodes} {your_script}",
            "params": [
                {"name": "nodes", "kind": "integer"},
                {"name": "your_script", "kind": "path"},
            ],
            "verified": True,
        }]), "utf-8")
        code, out, _ = run_cli(capsys, "templates", "add", str(new), "--templates", str(repo))
        assert code == 0
        from launchport.templates import load_repository
        written = load_repository(repo)
        assert "testbox-ddp" in written
        # Additions always start unverified.
        assert written.get("testbox-ddp").verified is False


class TestClustersCommand:
    def test_list_shows_nine_rows(self, capsys):
        code, out, _ = run_cli(capsys, "clusters", "list")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 9

    def test_validate_rejects_bad_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"id": "x"}]), "utf-8")
        code, _, err = run_cli(capsys, "clusters", "validate", str(path))
        assert code == 1
        assert "field" in err

    def test_add_validates_and_writes_back(self, capsys, tmp_path):
        from importlib import resources

        registry = tmp_path / "clusters.json"
        registry.write_text(
            resources.files("launchport.data").joinpath("clusters.json").read_text("utf-8"),
            "utf-8",
        )
        new = tmp_path / "new.json"
        new.write_text(json.dumps([{
            "id": "testbox", "aliases": [], "scheduler": "slurm",
            "default_launcher": "torchrun", "gpus_per_node": 2,
            "gpu_type": "H100", "env_propagation": True,
            "module_system": "lmod", "python_env": "venv",
            "max_walltime_minutes": 120, "known_faults": [],
        }]), "utf-8")
        code, out, _ = run_cli(capsys, "clusters", "add", str(new), "--profiles", str(registry))
        assert code == 0
        from launchport.clusters import load_profiles
        assert load_profiles(registry).resolve("testbox").gpus_per_node == 2

    def test_add_rejects_conflicting_profile(self, capsys, tmp_path):
        from importlib import resources

        registry = tmp_path / "clusters.json"
        registry.write_text(
            resources.files("launchport.data").joinpath("clusters.json").read_text("utf-8"),
            "utf-8",
        )
        before = registry.read_text("utf-8")
        dup = tmp_path / "dup.json"
        dup.write_text(json.dumps([{
            "id": "perlmutter", "aliases": [], "scheduler": "slurm",
            "default_launcher": "torchrun", "gpus_per_node": 2,
            "gpu_type": "H100", "env_propagation": True,
            "module_system": "lmod", "python_env": "venv",
            "max_walltime_minutes": 120, "known_faults": [],
        }]), "utf-8")
        code, _, err = run_cli(capsys, "clusters", "add", str(dup), "--profiles", str(registry))
        assert code == 1
        assert "perlmutter" in err
        assert registry.read_text("utf-8") == before  # untouched on failure


class TestBridgeFallback:
    def test_generate_falls_back_when_bridge_unreachable(self, capsys, tmp_path):
        config = tmp_path / "bridge.json"
        config.write_text(json.dumps({
            "endpoint": "http://127.0.0.1:9",
            "timeout_ms": 30,
            "retries": 0,
            "capabilities": ["extract"],
        }), "utf-8")
        code, out, _ = run_cli(
            capsys, "generate", TABLE_DESCRIPTION.format(cluster="Perlmutter"),
            "--bridge-config", str(config), "--non-interactive",
        )
        assert code == 0
        assert out == PERLMUTTER_COMMAND + "\n"


    def test_fallback_knows_clusters_of_custom_profiles(self, capsys, tmp_path, monkeypatch):
        from importlib import resources

        def down(url, body, headers, timeout_s):
            raise OSError("endpoint down")

        monkeypatch.setattr("launchport.bridge._default_transport", down)
        records = json.loads(
            resources.files("launchport.data").joinpath("clusters.json").read_text("utf-8")
        )
        for record in records:
            if record["id"] == "perlmutter":
                record["aliases"].append("saul")
        profiles = tmp_path / "clusters.json"
        profiles.write_text(json.dumps(records), "utf-8")
        config = tmp_path / "bridge.json"
        config.write_text(json.dumps({
            "endpoint": "http://bridge.test/v1",
            "timeout_ms": 1,
            "retries": 0,
            "capabilities": ["extract"],
        }), "utf-8")
        code, out, err = run_cli(
            capsys, "generate", TABLE_DESCRIPTION.format(cluster="Saul"),
            "--profiles", str(profiles), "--bridge-config", str(config),
            "--non-interactive",
        )
        assert "rule-based extractor" in err
        assert code == 0
        assert out == PERLMUTTER_COMMAND + "\n"


class TestPrompting:
    def test_interactive_prompts_in_stable_order(self, monkeypatch):
        from launchport.cli import CliSession, _fill_missing
        from launchport.clusters import default_profiles
        from launchport.intent import PartialJobSpec

        session = CliSession(
            interactive=True, report=False, profiles=default_profiles(),
            templates=None, rules=None, fingerprints=None, repair_table=None,
            bridge=None, answers={}, k=3,
        )
        prompts = []
        answers = iter(["delta", "pytorch", "ddp", "2", "4", "train.py"])

        def fake_input(prompt):
            prompts.append(prompt)
            return next(answers)

        monkeypatch.setattr("builtins.input", fake_input)
        filled = _fill_missing(PartialJobSpec(), session)
        assert filled.cluster == "delta"
        assert filled.nodes == 2
        assert len(prompts) == 6
        assert "cluster" in prompts[0].lower()
        assert "script" in prompts[-1].lower()
