import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import launchport
from launchport.cli import JOB_COMMANDS, _parse_answer, main, read_job_args
from launchport.errors import UsageError
from launchport.intent import PartialJobSpec, parse_script
from launchport.documents import bundled
from launchport.registry import build_parser
from launchport.types import Framework, Strategy

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

    @pytest.mark.parametrize("answers", [
        "strategy=acc-ddp", "strategy=acc-ddp,framework=pytorch",
        "framework=deepspeed,strategy=acc-ddp",
    ])
    def test_acc_ddp_answer_reads_as_the_flag_does(self, capsys, answers):
        argv = ["generate", "--cluster", "delta", "--nodes", "2", "--gpus-per-node", "4",
                "--entry", "train.py", "--non-interactive"]
        expected = run_cli(capsys, *argv, "--framework", "pytorch", "--strategy", "acc-ddp")
        assert expected[0] == 0 and "accelerate launch" in expected[1]
        assert run_cli(capsys, *argv, "--answers", answers) == expected

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

    # A command line with more than one mistake reports the first of: the
    # --profiles/--templates/--rules/--bridge-config documents, --candidates,
    # --answers, then for port the script file and --to, then the flag values,
    # and last the description and the prompts.
    @pytest.mark.parametrize("argv, error", [
        ("generate --candidates 0 --answers bogus=1", "--candidates must be >= 1, got 0"),
        ("generate --answers bogus=1 --nodes 0", "unknown answer field 'bogus'; valid: {fields}"),
        ("port {missing} --to nowhere --nodes 0", "{no_such}"),
        ("port {script} --to nowhere --nodes 0", "unknown cluster 'nowhere'; valid ids: anvil, "
         "aurora, bridges2, delta, deltaai, lonestar6, perlmutter, stampede3, vista"),
        ("port {script} --to polaris --nodes 0 --answers bogus=1",
         "unknown answer field 'bogus'; valid: {fields}"),
        ("generate --templates {missing} --candidates 0", "{no_such}"),
        ("generate --bridge-config {missing} --candidates 0", "{no_such}"),
        ("generate --nodes 0 --non-interactive", "nodes must be >= 1, got 0"),
    ])
    def test_the_first_mistake_wins(self, capsys, tmp_path, argv, error):
        script = tmp_path / "job.sh"
        script.write_text("torchrun --nproc_per_node=4 train.py\n", "utf-8")
        missing = tmp_path / "missing"
        names = {
            "script": script, "missing": missing,
            "no_such": f"[Errno 2] No such file or directory: '{missing}'",
            "fields": "cluster, framework, strategy, nodes, gpus_per_node, total_gpus, "
                      "master_port, entry_script, deepspeed_config, train_args",
        }
        code, out, err = run_cli(capsys, *argv.format(**names).split())
        assert (code, out, err) == (1, "", f"error: {error.format(**names)}\n")

    @pytest.mark.parametrize("case", ["prose", "flag", "port"])
    def test_count_too_long_for_int_is_one_error_line(self, capsys, tmp_path, case):
        # A count of more than 4,300 digits is ignored like a count of 0, so the
        # job lacks its node count; int() no longer raises out of extraction.
        many = "9" * 5000
        script = tmp_path / "job.sh"
        script.write_text(f"torchrun --nnodes {many} --nproc_per_node 4 train.py\n", "utf-8")
        argv = {
            "prose": ["generate", f"train with PyTorch DDP on Delta, {many} nodes with "
                      "4 GPUs per node, run train.py"],
            "flag": ["generate", f"train with PyTorch DDP on Delta, --nodes {many}, "
                     "4 GPUs per node, run train.py"],
            "port": ["port", str(script), "--to", "delta"],
        }[case]
        code, out, err = run_cli(capsys, *argv, "--non-interactive")
        assert code == 1
        assert out == ""
        assert err == "error: incomplete job description; missing: nodes\n"

    def test_port_too_long_for_int_is_a_lint_finding(self, capsys):
        many = "9" * 4400
        code, out, err = run_cli(
            capsys, "generate", "--cluster", "perlmutter", "--framework", "pytorch",
            "--strategy", "ddp", "--nodes", "2", "--gpus-per-node", "4", "--entry", "train.py",
            f"--args=--master_port={many}", "--non-interactive", "--report",
        )
        assert code == 0
        assert f"PORT_OUT_OF_RANGE: port {many} outside [1024, 65535]" in out
        assert err == ""

    @pytest.mark.parametrize("case", ["prose", "flag", "answer", "port"])
    def test_node_count_above_the_limit_is_one_error_line(self, capsys, tmp_path, case):
        # 4,300 digits still convert with int(); finalize rejects the count
        # before the mock cluster would build one rank per GPU.
        many = "9" * 4300
        script = tmp_path / "job.sh"
        script.write_text(f"torchrun --nnodes {many} --nproc_per_node 4 train.py\n", "utf-8")
        job = "train with PyTorch DDP on Delta, {} 4 GPUs per node, run train.py"
        argv = {
            "prose": ["generate", job.format(f"{many} nodes with")],
            "flag": ["generate", job.format(f"--nodes {many},")],
            "answer": ["generate", job.format(""), "--answers", f"nodes={many}"],
            "port": ["port", str(script), "--to", "delta"],
        }[case]
        code, out, err = run_cli(capsys, *argv, "--non-interactive")
        assert code == 1
        assert out == ""
        assert err == "error: a job may span at most 16384 nodes; this one asks for more\n"

    @pytest.mark.parametrize("case", ["prose", "flag", "answer", "port"])
    def test_a_quote_or_newline_in_script_text_is_one_error_line(self, capsys, tmp_path, case):
        # Most templates put the training command inside bash -c '...', so a
        # single quote would end it early and a newline would start a second one.
        script = tmp_path / "job.sh"
        script.write_text("torchrun --nnodes 2 --nproc_per_node 4 train.py --run-name 'vit base'\n",
                          "utf-8")
        job = "train ViT with PyTorch DDP on Perlmutter, 2 nodes with 4 GPUs per node, run train.py"
        runs = {
            "prose": [["generate", f"{job} and my training arguments are --run-name 'vit base'"]],
            "flag": [["generate", job, "--args", "--a 1\nrm -rf ~"]],
            "answer": [["generate", job.replace("PyTorch DDP", "DeepSpeed ZeRO-3"),
                        "--answers", "deepspeed_config=it's.json"]],
            # The rule is the same on every cluster.
            "port": [["port", str(script), "--to", cluster]
                     for cluster in launchport.default_profiles().ids()],
        }[case]
        field, value = {
            "prose": ("train_args", "--run-name 'vit base'"),
            "flag": ("train_args", "--a 1\nrm -rf ~"),
            "answer": ("deepspeed_config", "it's.json"),
            "port": ("train_args", "--run-name 'vit base'"),
        }[case]
        for argv in runs:
            code, out, err = run_cli(capsys, *argv, "--non-interactive")
            assert (code, out) == (1, "")
            assert err == (
                f"error: {field} may not hold a single quote or a newline, which would break "
                f"the quoted launch command; use double quotes, on one line (got {value!r})\n"
            )

    @pytest.mark.parametrize("entry", ["my train.py", "train.py ", "runs\tdir/train.py"])
    def test_whitespace_in_the_entry_script_is_one_error_line(self, capsys, entry):
        # "python -u my train.py --lr 1" would run "my", and a port would read "train.py".
        code, out, err = run_cli(
            capsys, "generate", "--cluster", "polaris", "--framework", "pytorch",
            "--strategy", "ddp", "--nodes", "1", "--gpus-per-node", "4", "--entry", entry,
            "--args", "--lr 1", "--non-interactive",
        )
        assert (code, out) == (1, "")
        assert err == ("error: entry_script may not hold whitespace, which would split the "
                       f"launch command in two; rename the file or its folder (got {entry!r})\n")

    @pytest.mark.parametrize("case", ["flag", "prose", "answer"])
    def test_a_total_that_does_not_split_per_node_is_one_error_line(self, capsys, monkeypatch,
                                                                    case):
        # No node count puts 8 GPUs 3 to a node, so an interactive session
        # prompts for none.
        job = "train with PyTorch DDP on Delta, run train.py"
        argv = {
            "flag": [job, "--total-gpus", "8", "--gpus-per-node", "3"],
            "prose": [f"{job}, 8 GPUs in total, 3 GPUs per node"],
            "answer": [job, "--answers", "total_gpus=8,gpus_per_node=3"],
        }[case]
        prompts = []
        monkeypatch.setattr("sys.stdin", type("Terminal", (), {"isatty": lambda self: True})())
        monkeypatch.setattr("builtins.input", lambda prompt: prompts.append(prompt) or "2")
        code, out, err = run_cli(capsys, "generate", *argv)
        assert prompts == []
        assert (code, out, err) == (1, "", "error: 8 total GPUs cannot be split into 3 per node\n")

    def test_a_bare_total_beside_a_per_node_count_is_read(self, capsys):
        # "8 GPUs" sets two nodes of four; "6 GPUs" does not split into fours.
        code, out, err = run_cli(capsys, "generate", "train on 8 GPUs, 4 GPUs per node on "
                                 "delta with PyTorch DDP, run train.py", "--non-interactive")
        assert (code, err) == (0, "")
        assert "torchrun --nnodes=2 --nproc_per_node=4 " in out
        code, out, err = run_cli(capsys, "generate", "train on 6 GPUs, 4 GPUs per node on delta",
                                 "--non-interactive")
        assert (code, out, err) == (1, "", "error: 6 total GPUs cannot be split into 4 per node\n")

    def test_a_port_keeps_double_quoted_arguments_whole(self, capsys, tmp_path):
        script = tmp_path / "job.sh"
        script.write_text(PERLMUTTER_COMMAND.replace(" ...'", ' --run-name "vit base"\''), "utf-8")
        code, out, err = run_cli(capsys, "port", str(script), "--to", "perlmutter",
                                 "--non-interactive")
        assert (code, err) == (0, "")
        assert out.endswith(""" run_image_classification.py --run-name "vit base"'\n""")

    def test_double_quoted_arguments_reach_the_script(self, capsys):
        code, out, err = run_cli(
            capsys, "generate", "train ViT with PyTorch DDP on Perlmutter, 2 nodes with 4 GPUs "
            'per node, run train.py and my training arguments are --run-name "vit base"',
            "--non-interactive",
        )
        assert (code, err) == (0, "")
        assert out.endswith(""" train.py --run-name "vit base"'\n""")

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

    @pytest.mark.parametrize("case", [
        "clearable_by-5", "cluster-5", "cluster-[]", "nodes_gt-a", "params-5", "params-[1]",
    ])
    def test_field_type_mistake_is_one_error_line(self, capsys, tmp_path, case):
        doc = tmp_path / "doc.json"
        if case.startswith("params"):
            record = json.loads(bundled("templates.json"))[0]
            record["params"] = 5 if case == "params-5" else [1]
            doc.write_text(json.dumps([record]), "utf-8")
            argv = ["templates", "validate", str(doc)]
        else:
            rule = {"id": "R", "cluster": "*",
                    "trigger": {"nodes_gt": 1}, "stderr": "boom", "clearable_by": []}
            field, value = {
                "clearable_by-5": ("clearable_by", 5),
                "cluster-5": ("cluster", 5),
                "cluster-[]": ("cluster", []),
                "nodes_gt-a": ("trigger", {"nodes_gt": "a"}),
            }[case]
            rule[field] = value
            doc.write_text(json.dumps([rule]), "utf-8")
            argv = ["generate", TABLE_DESCRIPTION.format(cluster="Perlmutter"),
                    "--rules", str(doc), "--non-interactive"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_a_rule_that_states_a_category_is_one_error_line(self, capsys, tmp_path):
        # Rules name no category; the matching fingerprint classifies a failure.
        doc = tmp_path / "rules.json"
        doc.write_text(json.dumps([{"id": "R", "cluster": "*", "category": "env",
                                    "trigger": {}, "stderr": "boom"}]), "utf-8")
        code, out, err = run_cli(capsys, "generate", TABLE_DESCRIPTION.format(cluster="Perlmutter"),
                                 "--rules", str(doc), "--non-interactive")
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: rule: unknown field 'category' (rule index 0)"]


    @pytest.mark.parametrize("case", [
        "port", "clusters-validate", "generate-templates", "generate-rules",
        "bridge-config", "templates-add",
    ])
    def test_non_utf8_input_is_one_error_line(self, capsys, tmp_path, case):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(("# caf\u00e9\n" + PERLMUTTER_COMMAND).encode("latin-1"))
        registry = tmp_path / "templates.json"
        registry.write_text("[]", "utf-8")
        generate = ["generate", TABLE_DESCRIPTION.format(cluster="Perlmutter"),
                    "--non-interactive"]
        argv = {
            "port": ["port", str(bad), "--to", "polaris", "--non-interactive"],
            "clusters-validate": ["clusters", "validate", str(bad)],
            "generate-templates": generate + ["--templates", str(bad)],
            "generate-rules": generate + ["--rules", str(bad)],
            "bridge-config": generate + ["--bridge-config", str(bad)],
            "templates-add": ["templates", "add", str(bad), "--templates", str(registry)],
        }[case]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.endswith(f"{bad}: not UTF-8 text (byte 5)\n")
        assert err.count("\n") == 1
        assert registry.read_text("utf-8") == "[]"

    def test_overlong_integer_in_a_document_is_one_error_line(self, capsys, tmp_path):
        # json.loads reads an integer literal of more than 4,300 digits as a
        # plain ValueError, not a JSONDecodeError.
        rules = tmp_path / "rules.json"
        rules.write_text('[{"id": "R", "nodes_gt": ' + "9" * 4400 + "}]", "utf-8")
        code, out, err = run_cli(
            capsys, "generate", TABLE_DESCRIPTION.format(cluster="Perlmutter"),
            "--rules", str(rules), "--non-interactive",
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {rules}: invalid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("default", ["abc", True, 80])
    def test_bad_port_default_is_one_error_line(self, capsys, tmp_path, default):
        records = json.loads(bundled("templates.json"))
        for record in records:
            for param in record["params"]:
                if param["name"] == "master_port" and param["default"] is not None:
                    param["default"] = default
        repo = tmp_path / "templates.json"
        repo.write_text(json.dumps(records), "utf-8")
        for argv in (
            ["templates", "validate", str(repo)],
            ["generate", TABLE_DESCRIPTION.format(cluster="Perlmutter"),
             "--templates", str(repo), "--non-interactive"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1
            assert out == ""
            assert err.startswith("error: ") and "master_port" in err
            assert err.count("\n") == 1


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

    def test_a_module_line_naming_a_launcher_is_not_read(self, capsys, tmp_path):
        # Read as deepspeed, this ended in "missing: nodes, gpus_per_node".
        script = tmp_path / "acc.sh"
        script.write_text("module load deepspeed/0.14\naccelerate launch --num_machines=2 "
                          "--num_processes=8 --main_process_port=29400 train.py\n", "utf-8")
        code, out, err = run_cli(capsys, "port", str(script), "--to", "delta",
                                 "--non-interactive")
        assert (code, err) == (0, "")
        assert " accelerate launch --multi_gpu --num_machines=2 --num_processes=8 " in out
        assert out.endswith(" --main_process_port=29400 train.py'\n")

    def test_a_trailing_comment_is_not_read(self, capsys, tmp_path):
        # Its --nnodes and port were read, and train_args took the closing
        # quote and the comment, which ended in an error.
        script = tmp_path / "commented.sh"
        script.write_text("srun -N 2 bash -c 'torchrun --nproc_per_node=4 train.py --lr 1'"
                          "  # was: --nnodes=4 --master_port=99999\n", "utf-8")
        code, out, err = run_cli(capsys, "port", str(script), "--to", "polaris",
                                 "--non-interactive")
        assert (code, err) == (0, "")
        assert " mpiexec -n 8 -ppn 4 " in out
        assert out.endswith(" python -u train.py --lr 1\n")

    def test_a_launcher_name_in_the_entry_script_is_not_read(self, capsys, tmp_path):
        # Read as deepspeed, this ended in "missing: nodes, gpus_per_node".
        script = tmp_path / "bench.sh"
        script.write_text("mpiexec -n 8 -ppn 4 python -u run_deepspeed_bench.py\n", "utf-8")
        code, out, err = run_cli(capsys, "port", str(script), "--to", "perlmutter",
                                 "--non-interactive")
        assert (code, err) == (0, "")
        assert out.startswith("srun -N 2 -n 8 bash -c 'torchrun --nnodes=2 --nproc_per_node=4 ")
        assert out.endswith(" run_deepspeed_bench.py'\n")

    def test_port_beyond_capacity_suggests_splits(self, capsys, perl_script):
        code, _, err = run_cli(
            capsys, "port", str(perl_script), "--to", "lonestar6", "--non-interactive",
        )
        assert code == 1
        assert "nodes=4 x gpus_per_node=2" in err
        assert "nodes=8 x gpus_per_node=1" in err


@pytest.mark.parametrize("case", ["generate", "port-mpiexec"])
def test_capacity_error_is_one_line_with_splits(capsys, tmp_path, case):
    # generate and port report capacity alike, from the derived counts: an
    # mpiexec line without -ppn puts its whole world on one node.
    script = tmp_path / "job.sh"
    script.write_text("mpiexec -n 16 python -u train.py\n", "utf-8")
    argv, expected = {
        "generate": (
            ["generate", "--cluster", "lonestar6", "--framework", "pytorch", "--strategy", "ddp",
             "--nodes", "2", "--gpus-per-node", "4", "--entry", "train.py"],
            "4 GPUs per node does not fit on lonestar6 (limit 3) for world size 8; "
            "try nodes=4 x gpus_per_node=2 or nodes=8 x gpus_per_node=1",
        ),
        "port-mpiexec": (
            ["port", str(script), "--to", "delta"],
            "16 GPUs per node does not fit on delta (limit 4) for world size 16; "
            "try nodes=4 x gpus_per_node=4 or nodes=8 x gpus_per_node=2 "
            "or nodes=16 x gpus_per_node=1",
        ),
    }[case]
    code, out, err = run_cli(capsys, *argv, "--non-interactive")
    assert (code, out, err) == (1, "", f"error: {expected}\n")


_REFERENCE_ANSWER_TYPES = {
    "cluster": str, "framework": Framework, "strategy": Strategy, "nodes": int,
    "gpus_per_node": int, "total_gpus": int, "master_port": int, "entry_script": str,
    "deepspeed_config": str, "train_args": str,
}


def _reference_parse_answer(name, value):
    """Reference reader of one answered field, with its own field table: the
    fields it sets, where the shorthand "acc-ddp" sets the framework too."""
    parse = _REFERENCE_ANSWER_TYPES.get(name)
    if parse is None:
        raise UsageError(
            f"unknown answer field '{name}'; valid: {', '.join(_REFERENCE_ANSWER_TYPES)}")
    if (name, value) == ("strategy", "acc-ddp"):
        return {"strategy": Strategy.DDP, "framework": Framework.ACCELERATE}
    try:
        parsed = parse(value)
        PartialJobSpec(**{name: parsed})
    except ValueError as exc:
        raise UsageError(f"invalid answer {name}={value}: {exc}") from exc
    return {name: parsed}


def _typed_outcome(read, *args):
    try:
        value = read(*args)
        return type(value), value
    except Exception as exc:
        return type(exc), str(exc)


@given(
    st.sampled_from([*_REFERENCE_ANSWER_TYPES, "launcher", "bogus", ""]) | st.text(max_size=4),
    st.sampled_from(["pytorch", "deepspeed", "accelerate", "ddp", "fsdp", "zero3", "acc-ddp",
                     "DDP", "0", "8", "-1", "80", "29500", "65536", "+3", "1_0", "x", ""])
    | st.text(max_size=6),
)
def test_answers_read_as_the_reference_does(name, value):
    assert _typed_outcome(_parse_answer, name, value) == _typed_outcome(
        _reference_parse_answer, name, value)


class TestTemplatesCommand:
    def test_list_filters_by_cluster(self, capsys):
        code, out, _ = run_cli(capsys, "templates", "list", "--cluster", "perlmutter")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["id", "framework", "strategy", "launcher", "verified"]
        assert len(lines) == 1 + 4
        assert any("perlmutter-ddp" in line for line in lines)

    @pytest.mark.parametrize("name", ["pm", "PM", "Perlmutter"])
    def test_list_resolves_a_registry_alias(self, capsys, name):
        _, by_id, _ = run_cli(capsys, "templates", "list", "--cluster", "perlmutter")
        assert run_cli(capsys, "templates", "list", "--cluster", name) == (0, by_id, "")

    def test_list_takes_a_cluster_the_repository_names_as_it_is(self, capsys, tmp_path):
        # polaris is also an alias of aurora in the bundled registry.
        record = {
            "framework": "pytorch", "strategy": "ddp", "launcher": "torchrun",
            "body": "torchrun --nnodes={nodes} {your_script}",
            "params": [{"name": "nodes", "kind": "integer"}, {"name": "your_script"}],
        }
        repo = tmp_path / "repo.json"
        repo.write_text(json.dumps([
            {**record, "id": f"{cluster}-ddp", "cluster": cluster}
            for cluster in ("testbox", "polaris")
        ]), "utf-8")
        for cluster in ("testbox", "polaris"):
            code, out, err = run_cli(
                capsys, "templates", "list", "--templates", str(repo), "--cluster", cluster)
            assert (code, err) == (0, "")
            assert [line.split()[0] for line in out.splitlines()] == ["id", f"{cluster}-ddp"]

    def test_list_of_an_unknown_cluster_is_one_error_line(self, capsys):
        code, out, err = run_cli(capsys, "templates", "list", "--cluster", "nosuch")
        assert (code, out) == (1, "")
        assert err == ("error: unknown cluster 'nosuch'; valid ids: anvil, aurora, bridges2, "
                       "delta, deltaai, lonestar6, perlmutter, stampede3, vista\n")

    def test_validate_good_repository(self, capsys, tmp_path):
        path = tmp_path / "repo.json"
        path.write_text(bundled("templates.json"), "utf-8")
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
        repo.write_text(bundled("templates.json"), "utf-8")
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

    def test_add_leaves_target_untouched_on_failure(self, capsys, tmp_path):
        repo = tmp_path / "repo.json"
        repo.write_text(bundled("templates.json"), "utf-8")
        before = repo.read_bytes()
        clone = json.loads(bundled("templates.json"))[0]  # duplicate id and key
        new = tmp_path / "new.json"
        new.write_text(json.dumps([clone]), "utf-8")
        code, out, err = run_cli(capsys, "templates", "add", str(new), "--templates", str(repo))
        assert code == 1
        assert out == ""
        assert clone["id"] in err
        assert repo.read_bytes() == before


_MAIN_HELP = """\
usage: launchport [-h] [--version] {generate,port,templates,clusters} ...

Generate, verify, and repair distributed DL launch scripts.

positional arguments:
  {generate,port,templates,clusters}
    generate            generate a verified launch script
    port                port an existing launch script to another cluster
    templates           inspect or extend the template repository
    clusters            inspect or extend the cluster registry

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""

_GENERATE_HELP = """\
usage: launchport generate [-h] [--cluster CLUSTER]
                           [--framework {pytorch,deepspeed,accelerate}]
                           [--strategy {ddp,fsdp,zero3,acc-ddp}]
                           [--nodes NODES] [--gpus-per-node GPUS_PER_NODE]
                           [--total-gpus TOTAL_GPUS] [--port MASTER_PORT]
                           [--entry ENTRY_SCRIPT] [--args TRAIN_ARGS]
                           [--answers ANSWERS] [--report]
                           [--profiles PROFILES] [--templates TEMPLATES]
                           [--rules RULES] [--bridge-config BRIDGE_CONFIG]
                           [--candidates K] [--non-interactive]
                           [description]

positional arguments:
  description           job description in plain words

options:
  -h, --help            show this help message and exit
  --cluster CLUSTER
  --framework {pytorch,deepspeed,accelerate}
  --strategy {ddp,fsdp,zero3,acc-ddp}
  --nodes NODES
  --gpus-per-node GPUS_PER_NODE
  --total-gpus TOTAL_GPUS
  --port MASTER_PORT
  --entry ENTRY_SCRIPT
  --args TRAIN_ARGS
  --answers ANSWERS     field=value pairs, comma separated
  --report              print the full verification report
  --profiles PROFILES   cluster profile document
  --templates TEMPLATES
                        template repository document
  --rules RULES         fault rule document
  --bridge-config BRIDGE_CONFIG
  --candidates K        how many ranked templates to try (default 3)
  --non-interactive
"""

_TEMPLATES_HELP = """\
usage: launchport templates [-h] {list,validate,add} ...

positional arguments:
  {list,validate,add}
    list               list templates
    validate           validate a repository document
    add                add templates to a repository document

options:
  -h, --help           show this help message and exit
"""

# (argv, exit code, stdout, stderr) at a fixed terminal width of 80 columns.
HELP_AND_USAGE = {
    "help": (["--help"], 0, _MAIN_HELP, ""),
    "no-command": ([], 1, _MAIN_HELP, ""),
    "generate-help": (["generate", "--help"], 0, _GENERATE_HELP, ""),
    "templates-help": (["templates", "--help"], 0, _TEMPLATES_HELP, ""),
    "unknown-command": (["bogus"], 1, "", (
        "error: argument command: invalid choice: 'bogus' (choose from 'generate', 'port', "
        "'templates', 'clusters') (see 'launchport --help')\n")),
    "bad-flag-value": (["generate", "--nodes", "x"], 1, "",
                       "error: argument --nodes: invalid int value: 'x' "
                       "(see 'launchport generate --help')\n"),
}


@pytest.mark.parametrize("case", HELP_AND_USAGE, ids=list(HELP_AND_USAGE))
def test_help_and_usage_bytes(capsys, monkeypatch, case):
    argv, exit_code, out, err = HELP_AND_USAGE[case]
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["launchport", *argv])
    try:
        code = main()
    except SystemExit as exc:  # argparse exits after printing help
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (exit_code, out, err)


# What a drawn command line is made of: each flag of the job commands with a
# value of its own, values that its type or choices refuse, and the forms
# argparse reads its own way (an abbreviation, "--", a switch given "=", a
# value that starts with "-", help).
_OPTIONS = [(name, kind) for name, _, kind, *_ in JOB_COMMANDS["port"][1] if name.startswith("-")]
_FLAGS = [name for name, kind in _OPTIONS if kind is not bool]
_SWITCHES = [name for name, kind in _OPTIONS if kind is bool]
_VALUES = ["4", " 4", "4_0", "\u0663", "0", "pytorch", "ddp", "acc-ddp", "delta", "", "--lr 1",
           "-5", "-x y", "bogus"]
_NOISE = ["--rep", "--report=1", "--args=--y", "--x=", "-h", "--help", "--", "-",
          "--version", "generate", "port"]
# Abbreviations, "--t" and "--c" ambiguous ones, drawn with a value as a flag is.
_ABBREVIATED = ["--clus", "--c", "--t"]
_PAIRS = st.builds(lambda flag, value: [flag, value], st.sampled_from(_FLAGS + _ABBREVIATED),
                   st.sampled_from(_VALUES))
_JOINED = st.builds("{}={}".format, st.sampled_from(_FLAGS + _ABBREVIATED),
                    st.sampled_from(_VALUES))
# Flags with a value are drawn four times as often as a lone word, and six
# of nine command lines start with generate or a port with its script and
# target, so that about one in eight drawn command lines is read.
_WORDS = st.one_of(_PAIRS, _JOINED, _PAIRS, _JOINED,
                   st.sampled_from(_SWITCHES + _FLAGS + _VALUES + _NOISE))
_COMMANDS = [["generate"], ["port", "job.sh", "--to", "delta"]] * 3 + [
    ["port"], ["templates"], ["bogus"]]


def _flatten(words: list) -> list[str]:
    return [arg for word in words for arg in ([word] if isinstance(word, str) else word)]


@settings(max_examples=500)
@given(command=st.sampled_from(_COMMANDS), words=st.lists(_WORDS, max_size=4).map(_flatten))
def test_a_job_command_line_reads_as_argparse_reads_it(command, words):
    argv = [*command, *words]
    args = read_job_args(argv)
    if args is not None:
        assert vars(args) == vars(build_parser(command[0]).parse_args(argv)), argv


@pytest.mark.parametrize("argv", [
    ["generate"],
    ["generate", "on delta", "--nodes", "4_0", "--report", "--report", "--args=--lr 1"],
    ["generate", "--cluster=", "--framework=pytorch", "--nodes=-5", "--entry", ""],
    ["port", "job.sh", "--to", "polaris", "--strategy", "acc-ddp", "--candidates", " 4"],
    ["port", "--to=polaris", "--to", "delta", "job.sh", "--non-interactive"],
], ids=["bare", "positional-first", "equals-forms", "port", "port-last"])
def test_a_well_formed_job_command_line_is_read_without_argparse(argv):
    args = read_job_args(argv)
    assert args is not None
    assert vars(args) == vars(build_parser(argv[0]).parse_args(argv))


@pytest.mark.parametrize("argv", [
    [], ["templates", "list"], ["generate", "-h"], ["generate", "--clus", "delta"],
    ["generate", "--report=1"], ["generate", "--args", "-x"], ["generate", "--", "x"],
    ["generate", "--nodes", "x"], ["generate", "--strategy", "DDP"], ["generate", "a", "b"],
    ["port", "job.sh"], ["port", "--to", "delta"],
])
def test_the_reader_leaves_the_rest_to_argparse(argv):
    assert read_job_args(argv) is None


def test_no_command_prints_help_and_exits_1(capsys):
    code, out, err = run_cli(capsys)
    assert code == 1
    assert out.startswith("usage: launchport")
    assert err == ""


class TestClustersCommand:
    def test_validate_accepts_the_bundle(self, capsys, tmp_path):
        path = tmp_path / "clusters.json"
        path.write_text(bundled("clusters.json"), "utf-8")
        assert run_cli(capsys, "clusters", "validate", str(path)) == (0, "ok\n", "")

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

    def test_validate_rejects_string_aliases(self, capsys, tmp_path):
        record = json.loads(bundled("clusters.json"))[0]
        record["aliases"] = "zq"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([record]), "utf-8")
        code, out, err = run_cli(capsys, "clusters", "validate", str(path))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: profile record: 'aliases' must be a list of strings"
            " (record 0, field 'aliases')"
        ]

    @pytest.mark.parametrize("field, value", [
        ("module_system", "lmod"), ("python_env", "venv"), ("known_faults", []),
        ("max_walltime_minutes", 2880),
    ])
    def test_validate_refuses_a_deleted_field(self, capsys, tmp_path, field, value):
        # Fields that nothing read; the fault rules alone say which faults a cluster has,
        # and no command writes a batch header that a walltime limit would bound.
        record = {**json.loads(bundled("clusters.json"))[0], field: value}
        path = tmp_path / "old.json"
        path.write_text(json.dumps([record]), "utf-8")
        code, out, err = run_cli(capsys, "clusters", "validate", str(path))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: profile record: unknown field '{field}' (record 0, field '{field}')"
        ]

    def test_add_refuses_a_walltime_and_leaves_the_target_untouched(self, capsys, tmp_path):
        registry = tmp_path / "clusters.json"
        registry.write_text(bundled("clusters.json"), "utf-8")
        new = tmp_path / "new.json"
        new.write_text(json.dumps([{
            "id": "testbox", "aliases": [], "scheduler": "slurm",
            "default_launcher": "torchrun", "gpus_per_node": 2,
            "gpu_type": "H100", "env_propagation": True,
            "max_walltime_minutes": 120,
        }]), "utf-8")
        code, out, err = run_cli(capsys, "clusters", "add", str(new), "--profiles", str(registry))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: profile record: unknown field 'max_walltime_minutes'"
            " (record 9, field 'max_walltime_minutes')"
        ]
        assert registry.read_text("utf-8") == bundled("clusters.json")

    def test_generate_refuses_profiles_that_carry_a_walltime(self, capsys, tmp_path):
        records = json.loads(bundled("clusters.json"))
        records[1]["max_walltime_minutes"] = 1440
        profiles = tmp_path / "clusters.json"
        profiles.write_text(json.dumps(records), "utf-8")
        code, out, err = run_cli(
            capsys, "generate", TABLE_DESCRIPTION.format(cluster="Perlmutter"),
            "--profiles", str(profiles), "--non-interactive",
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: profile record: unknown field 'max_walltime_minutes'"
            " (record 1, field 'max_walltime_minutes')"
        ]

    def test_add_validates_and_writes_back(self, capsys, tmp_path):
        registry = tmp_path / "clusters.json"
        registry.write_text(bundled("clusters.json"), "utf-8")
        new = tmp_path / "new.json"
        new.write_text(json.dumps([{
            "id": "testbox", "aliases": [], "scheduler": "slurm",
            "default_launcher": "torchrun", "gpus_per_node": 2,
            "gpu_type": "H100", "env_propagation": True,
        }]), "utf-8")
        code, out, _ = run_cli(capsys, "clusters", "add", str(new), "--profiles", str(registry))
        assert code == 0
        from launchport.clusters import load_profiles
        assert load_profiles(registry).resolve("testbox").gpus_per_node == 2

    def test_add_rejects_conflicting_profile(self, capsys, tmp_path):
        registry = tmp_path / "clusters.json"
        registry.write_text(bundled("clusters.json"), "utf-8")
        before = registry.read_text("utf-8")
        dup = tmp_path / "dup.json"
        dup.write_text(json.dumps([{
            "id": "perlmutter", "aliases": [], "scheduler": "slurm",
            "default_launcher": "torchrun", "gpus_per_node": 2,
            "gpu_type": "H100", "env_propagation": True,
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


    @pytest.mark.parametrize("count", [b"Infinity", b"9" * 4301, b"2.7", b"true"],
                             ids=["infinity", "4301-digits", "float", "bool"])
    def test_unconvertible_remote_count_falls_back(self, capsys, tmp_path, monkeypatch, count):
        body = b'{"ok": true, "result": {"nodes": ' + count + b"}}"
        monkeypatch.setattr("launchport.bridge._default_transport", lambda *a: body)
        config = tmp_path / "bridge.json"
        config.write_text(json.dumps({
            "endpoint": "http://bridge.test/v1",
            "timeout_ms": 1,
            "retries": 0,
            "capabilities": ["extract"],
        }), "utf-8")
        code, out, err = run_cli(
            capsys, "generate", TABLE_DESCRIPTION.format(cluster="Perlmutter"),
            "--bridge-config", str(config), "--non-interactive",
        )
        assert err.startswith("notice: remote extractor unavailable")
        assert "rule-based extractor" in err
        assert code == 0
        assert out == PERLMUTTER_COMMAND + "\n"

    def test_fallback_knows_clusters_of_custom_profiles(self, capsys, tmp_path, monkeypatch):
        def down(url, body, headers, timeout_s):
            raise OSError("endpoint down")

        monkeypatch.setattr("launchport.bridge._default_transport", down)
        records = json.loads(bundled("clusters.json"))
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

    @pytest.mark.parametrize("capability", ["embed", "repair"])
    def test_enabled_capability_down_leaves_script_unchanged(
        self, capsys, tmp_path, monkeypatch, capability,
    ):
        asked = []

        def down(url, body, headers, timeout_s):
            asked.append(json.loads(body)["capability"])
            raise OSError("endpoint down")

        monkeypatch.setattr("launchport.bridge._default_transport", down)
        config = tmp_path / "bridge.json"
        config.write_text(json.dumps({
            "endpoint": "http://bridge.test/v1",
            "timeout_ms": 1,
            "retries": 0,
            "capabilities": [capability],
        }), "utf-8")
        if capability == "embed":
            # Without an exact template, retrieval asks the embedder, then falls back.
            records = json.loads(bundled("templates.json"))
            repo = tmp_path / "templates.json"
            repo.write_text(json.dumps([r for r in records if r["id"] != "perlmutter-ddp"]))
            argv = ["generate", TABLE_DESCRIPTION.format(cluster="Perlmutter"),
                    "--templates", str(repo)]
        else:
            script = tmp_path / "perl.sh"
            script.write_text(PERLMUTTER_COMMAND, "utf-8")
            argv = ["port", str(script), "--to", "polaris"]
        code, expected, _ = run_cli(capsys, *argv, "--non-interactive")
        assert code == 0
        code, out, _ = run_cli(
            capsys, *argv, "--bridge-config", str(config), "--non-interactive",
        )
        assert code == 0
        assert out == expected
        # A clean port needs no repair, so the repair capability is never asked.
        assert asked == (["embed"] if capability == "embed" else [])

    def test_port_uses_the_repair_bridge(self, capsys, tmp_path, monkeypatch):
        def repair(url, body, headers, timeout_s):
            assert json.loads(body)["capability"] == "repair"
            return json.dumps({"ok": True, "result": {
                "category": "env", "proposals": ["export MYSTERY_HOME"],
            }}).encode()

        monkeypatch.setattr("launchport.bridge._default_transport", repair)
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{
            "id": "MYSTERY", "cluster": "aurora",
            "trigger": {"script_lacks": "MYSTERY_HOME"},
            "stderr": "an error no fingerprint knows", "clearable_by": ["export_env"],
        }]), "utf-8")
        config = tmp_path / "bridge.json"
        config.write_text(json.dumps({
            "endpoint": "http://bridge.test/v1", "retries": 0, "capabilities": ["repair"],
        }), "utf-8")
        script = tmp_path / "perl.sh"
        script.write_text(PERLMUTTER_COMMAND, "utf-8")
        argv = ["port", str(script), "--to", "polaris", "--rules", str(rules), "--non-interactive"]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 2
        code, out, _ = run_cli(capsys, *argv, "--bridge-config", str(config))
        assert code == 0
        assert "export MYSTERY_HOME" in out


    def test_remote_switch_to_a_missing_template_is_unresolved(
        self, capsys, tmp_path, monkeypatch,
    ):
        def repair(url, body, headers, timeout_s):
            return json.dumps({"ok": True, "result": {
                "category": "env", "proposals": ["switch to template nonexistent-id"],
            }}).encode()

        monkeypatch.setattr("launchport.bridge._default_transport", repair)
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{
            "id": "MYSTERY", "cluster": "*", "trigger": {},
            "stderr": "an error no fingerprint knows", "clearable_by": ["switch_template"],
        }]), "utf-8")
        config = tmp_path / "bridge.json"
        config.write_text(json.dumps({
            "endpoint": "http://bridge.test/v1", "retries": 0, "capabilities": ["repair"],
        }), "utf-8")
        code, out, err = run_cli(
            capsys, "generate", "--cluster", "perlmutter", "--framework", "pytorch",
            "--strategy", "ddp", "--nodes", "2", "--gpus-per-node", "4", "--entry", "train.py",
            "--rules", str(rules), "--bridge-config", str(config), "--non-interactive",
        )
        assert code == 2
        assert out == ""
        assert err.endswith("result: unresolved\n")


class TestPrompting:
    def test_interactive_prompts_in_stable_order(self, monkeypatch):
        from launchport.cli import _fill_missing

        monkeypatch.setattr("sys.stdin", type("Terminal", (), {"isatty": lambda self: True})())
        prompts = []
        answers = iter(["delta", "pytorch", "ddp", "2", "4", "train.py"])

        def fake_input(prompt):
            prompts.append(prompt)
            return next(answers)

        monkeypatch.setattr("builtins.input", fake_input)
        filled = _fill_missing(PartialJobSpec(), {}, non_interactive=False)
        assert filled.cluster == "delta"
        assert filled.nodes == 2
        assert len(prompts) == 6
        assert "cluster" in prompts[0].lower()
        assert "script" in prompts[-1].lower()

    def test_prompt_left_blank_is_one_error_line(self, capsys, monkeypatch):
        prompts = []
        monkeypatch.setattr("sys.stdin", type("Terminal", (), {"isatty": lambda self: True})())
        monkeypatch.setattr("builtins.input", lambda prompt: prompts.append(prompt) or " ")
        code, out, err = run_cli(
            capsys, "generate", "--cluster", "delta", "--framework", "pytorch",
            "--strategy", "ddp", "--nodes", "2", "--gpus-per-node", "4",
        )
        assert len(prompts) == 1 and "script" in prompts[0].lower()
        assert (code, out) == (1, "")
        assert err == "error: incomplete job description; missing: entry_script\n"

    @pytest.mark.parametrize("flags", [("--entry", "train.py"), ()])
    def test_a_closed_stdin_reads_as_non_interactive(self, capsys, monkeypatch, flags):
        # A process started with its stdin closed has sys.stdin None; reading
        # its isatty() once ended every job in a traceback.
        argv = ["generate", "--cluster", "delta", "--framework", "pytorch", "--strategy", "ddp",
                "--nodes", "2", "--gpus-per-node", "4", *flags]
        expected = run_cli(capsys, *argv, "--non-interactive")
        assert expected[0] == (0 if flags else 1)
        monkeypatch.setattr("sys.stdin", None)
        assert run_cli(capsys, *argv) == expected

    def test_strategy_prompt_offers_and_takes_the_shorthand(self, monkeypatch):
        from launchport.cli import _fill_missing

        monkeypatch.setattr("sys.stdin", type("Terminal", (), {"isatty": lambda self: True})())
        prompts = []
        answers = iter(["pytorch", "acc-ddp"])

        def fake_input(prompt):
            prompts.append(prompt)
            return next(answers)

        monkeypatch.setattr("builtins.input", fake_input)
        partial = PartialJobSpec(cluster="delta", nodes=2, gpus_per_node=4,
                                 entry_script="train.py")
        filled = _fill_missing(partial, {}, non_interactive=False)
        assert prompts[1] == "Strategy (ddp/fsdp/zero3/acc-ddp): "
        assert (filled.framework, filled.strategy) == (Framework.ACCELERATE, Strategy.DDP)


# Modules a cold command must not load: the first two cost ~13 ms of a cold
# start; bundled documents are read with open(), without importlib.resources
# and what it pulls in.
NOT_AT_COLD_START = ("dataclasses", "inspect", "importlib.resources", "zipfile", "tempfile")
# Modules a cold command loads only when its job reaches them: the extractor
# for a description, the error-correction agent at the first failed
# submission, the bridge for --bridge-config, and argparse with the parser
# module for help, a command line with a mistake and the registry commands.
ON_DEMAND = ("launchport.prose", "launchport.repair", "launchport.bridge",
             "launchport.registry", "argparse", "gettext", "locale")
PARSER = ["argparse", "gettext", "launchport.registry", "locale"]


def test_cold_generate_loads_no_dataclasses_inspect_or_bridge(tmp_path):
    """A fresh interpreter's command adds none of NOT_AT_COLD_START, and of
    ON_DEMAND only what its job reaches, with the site and without it (``-S``).
    A command that builds no parser loads no ``shutil`` either, which
    argparse's help formatter imports.

    Modules are counted against a bare interpreter's, so what the site
    preloads is not charged to launchport; the ``-S`` run sees what a site
    that preloads a module would hide.
    """
    show = "print(' '.join(sorted(sys.modules)))"
    job = ["--framework", "pytorch", "--strategy", "ddp", "--nodes", "2", "--gpus-per-node", "4",
           "--entry", "train.py", "--non-interactive"]
    script = tmp_path / "job.sh"
    script.write_text("mpiexec -n 16 python -u train.py\n", "utf-8")
    cases = [  # (argv, exit code, what of ON_DEMAND it loads)
        (["generate", "--cluster", "delta", *job], 0, []),
        (["port", str(script), "--to", "delta", "--non-interactive"], 1, []),  # capacity error
        (["generate", "train it on Delta", *job], 0, ["launchport.prose"]),
        # ENV_NOT_PROPAGATED fails the first submission; export_env clears it.
        (["generate", "--cluster", "deltaai", *job], 0, ["launchport.repair"]),
        (["templates", "list"], 0, PARSER),
        (["generate", "--help"], 0, PARSER),
        (["port", str(script), "--to", "delta", "--candidates", "x"], 1, PARSER),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(launchport.__file__).resolve().parents[1]))

    def loaded(flags: list[str], code: str) -> set[str]:
        done = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                              text=True, check=True, env=env)
        return set(done.stdout.splitlines()[-1].split())

    for flags in ([], ["-S"]):
        bare = loaded(flags, f"import sys; {show}")
        for argv, exit_code, reached in cases:
            run = (f"import sys, launchport.cli\ntry:\n    code = launchport.cli.main({argv!r})\n"
                   "except SystemExit as exc:  # after --help\n    code = exc.code\n"
                   f"assert code == {exit_code}, code\n{show}")
            cold = loaded(flags, run) - bare
            assert "launchport.pipeline" in cold
            assert sorted(set(NOT_AT_COLD_START) & cold) == [], (flags, argv)
            assert sorted(set(ON_DEMAND) & cold) == reached, (flags, argv)
            if "argparse" not in reached:
                assert "shutil" not in cold, (flags, argv)


def test_the_names_the_bench_tracer_wraps_are_their_homes():
    # perfbench/tracing.py wraps intent.extract, intent.RuleBasedExtractor and
    # repair.run_loop; each module reads the name from where it now lives.
    from launchport import intent, pipeline, prose, repair

    assert intent.extract is prose.extract
    assert intent.RuleBasedExtractor is prose.RuleBasedExtractor
    assert repair.run_loop is pipeline.run_loop
    assert launchport.run_loop is pipeline.run_loop
    for module in (launchport, intent, repair):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            module.no_such_name


# A fresh interpreter with launchport importable, and what a callback registered
# with atexit before anything else reads of the collector: atexit runs its
# callbacks last in, first out, so every hook launchport adds has run by then.
_SRC = str(Path(launchport.__file__).resolve().parents[1])
_FREEZE_AT_EXIT = ("import atexit, gc, sys\n"
                   "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n")


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          stdin=subprocess.DEVNULL, env=dict(os.environ, PYTHONPATH=_SRC))


def test_a_cli_process_freezes_the_collector_at_exit():
    done = _fresh(_FREEZE_AT_EXIT + "import launchport.cli\n")
    assert (done.returncode, done.stdout, done.stderr) == (0, b"True\n", b"")


def test_a_library_caller_keeps_its_shutdown_collections():
    # The exit hook lives in launchport.cli only: importing the package and
    # running the pipeline neither load it nor freeze anything.
    code = _FREEZE_AT_EXIT + (
        "import launchport as lp\n"
        "profile = lp.default_profiles().resolve('delta')\n"
        "spec = lp.finalize(lp.PartialJobSpec(cluster='delta', framework=lp.Framework.PYTORCH,\n"
        "                                     nodes=2, gpus_per_node=4, entry_script='train.py'),\n"
        "                  profile)\n"
        "result = lp.run_pipeline(spec, profile, lp.default_templates(),\n"
        "                         lp.default_fault_rules())\n"
        "assert result.script_text, result\n"
        "assert 'launchport.cli' not in sys.modules\n"
    )
    done = _fresh(code)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"False\n", b"")


def test_a_cli_process_prints_what_main_returns_in_process(tmp_path, capsys):
    # The goldens of criteria 1 and 6, and an unresolved job (exit 2), run as
    # their own processes: the exit hook changes no byte of stdout or stderr
    # and no exit code.
    source = tmp_path / "perl.sh"
    source.write_text(PERLMUTTER_COMMAND, "utf-8")
    golden = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text("utf-8"))
    unresolved = ["generate", "--cluster", "aurora", "--strategy", "acc-ddp", "--nodes", "2",
                  "--gpus-per-node", "4", "--entry", "train.py", "--non-interactive"]
    code, out, err = run_cli(capsys, *unresolved)
    assert code == 2 and out == "" and "result: unresolved" in err
    runs = [(entry["argv"], entry["exit"], "".join(entry["stdout"]), "".join(entry["stderr"]))
            for entry in golden]
    assert sorted(exit_code for _, exit_code, _, _ in runs) == [0, 0, 0, 1]
    for argv, exit_code, out, err in [*runs, (unresolved, code, out, err)]:
        argv = [str(source) if arg == "perl.sh" else arg for arg in argv]
        done = _fresh("import sys\nfrom launchport.cli import main\nsys.exit(main())\n", *argv)
        assert (done.returncode, done.stdout, done.stderr) == (
            exit_code, out.encode("utf-8"), err.encode("utf-8")), argv
