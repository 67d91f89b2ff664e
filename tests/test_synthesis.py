import pytest
from hypothesis import given, strategies as st

from launchport.errors import ContractViolationError, PolicyViolationError, UnboundParameterError
from launchport.intent import extract, finalize
from launchport.synthesis import bind, render, render_for_spec, wrap_batch
from launchport.templates import placeholders
from launchport.types import Framework, Launcher, Strategy

from conftest import TABLE_DESCRIPTION, make_spec

LS6_EXPECTED = (
    "srun -N 2 -n 2 bash -c 'MASTER_ADDR=$(scontrol show hostnames "
    "$SLURM_JOB_NODELIST | head -n 1); torchrun --nnodes=2 --nproc_per_node=3 "
    "--node_rank=$SLURM_PROCID --master_addr=$MASTER_ADDR --master_port=29500 train.py'"
)


class TestBind:
    def test_reference_binding(self, profiles, templates):
        profile = profiles.resolve("perlmutter")
        spec = finalize(extract(TABLE_DESCRIPTION.format(cluster="Perlmutter")), profile)
        binding = bind(spec, templates.get("perlmutter-ddp"), profile)
        assert binding.values["nodes"] == 2
        assert binding.values["each_node_gpus"] == 4
        assert binding.values["world_size"] == 8
        assert binding.values["master_port"] == 29400  # template default, port not stated
        assert binding.values["your_script"] == "run_image_classification.py ..."

    def test_explicit_port_beats_template_default(self, profiles, templates):
        profile = profiles.resolve("perlmutter")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP,
                         master_port=29999, master_port_explicit=True)
        binding = bind(spec, templates.get("perlmutter-ddp"), profile)
        assert binding.values["master_port"] == 29999
        assert binding.provenance["master_port"] == "user"

    def test_minimal_topology(self, profiles, templates):
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=1, gpus_per_node=1)
        binding = bind(spec, templates.get("delta-ddp"), profile)
        assert binding.values["nodes"] == 1
        assert spec.world_size == 1

    def test_missing_deepspeed_config_is_unbound(self, profiles, templates):
        profile = profiles.resolve("deltaai")
        spec = make_spec(profile, Framework.DEEPSPEED, Strategy.ZERO3, deepspeed_config=None)
        with pytest.raises(UnboundParameterError) as exc:
            bind(spec, templates.get("deltaai-deepspeed"), profile)
        assert exc.value.param == "deepspeed_config"

    def test_cross_cluster_binding_rejected(self, profiles, templates):
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        with pytest.raises(ContractViolationError):
            bind(spec, templates.get("ls6-ddp"), profile)

    def test_train_args_appended_with_single_space(self, profiles, templates):
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP,
                         entry_script="t.py", train_args="--lr 1")
        binding = bind(spec, templates.get("delta-ddp"), profile)
        assert binding.values["your_script"] == "t.py --lr 1"


class TestRender:
    def test_ls6_substitution(self, profiles, templates):
        profile = profiles.resolve("lonestar6")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP,
                         nodes=2, gpus_per_node=3, entry_script="train.py")
        rendered = render_for_spec(spec, templates.get("ls6-ddp"), profile)
        assert rendered.text == LS6_EXPECTED

    def test_no_placeholders_survive(self, profiles, templates):
        profile = profiles.resolve("aurora")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        rendered = render_for_spec(spec, templates.get("aurora-ddp"), profile)
        assert placeholders(rendered.text) == []

    def test_rendering_is_idempotent(self, profiles, templates):
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        t = templates.get("delta-ddp")
        rendered = render_for_spec(spec, t, profile)
        again = render(t, rendered.binding)
        assert again.text == rendered.text

    def test_topology_is_the_parsed_text_and_leaves_equality_alone(self, profiles, templates):
        profile = profiles.resolve("lonestar6")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP,
                         nodes=2, gpus_per_node=3, entry_script="train.py")
        t = templates.get("ls6-ddp")
        rendered, fresh = render_for_spec(spec, t, profile), render_for_spec(spec, t, profile)
        assert rendered.topology == (2, 3, None)
        assert rendered.topology is rendered.topology
        assert rendered == fresh and repr(rendered) == repr(fresh)

    def test_template_without_placeholders_is_identity(self):
        from launchport.templates import Template
        t = Template(
            id="static", cluster="delta", framework=Framework.PYTORCH,
            strategy=Strategy.DDP, launcher=Launcher.TORCHRUN,
            body="echo ready", params=(),
        )
        from launchport.synthesis import ParamBinding
        rendered = render(t, ParamBinding(values={}, provenance={}))
        assert rendered.text == "echo ready"

    def test_missing_binding_raises(self, templates):
        t = templates.get("ls6-ddp")
        from launchport.synthesis import ParamBinding
        with pytest.raises(UnboundParameterError):
            render(t, ParamBinding(values={"nodes": 2}, provenance={}))

    @given(nodes=st.integers(1, 8), gpus=st.integers(1, 3), port=st.integers(1024, 65535))
    def test_bytes_outside_placeholders_untouched(self, profiles, templates, nodes, gpus, port):
        profile = profiles.resolve("lonestar6")
        spec = make_spec(
            profile, Framework.PYTORCH, Strategy.DDP,
            nodes=nodes, gpus_per_node=gpus,
            master_port=port, master_port_explicit=True,
            entry_script="train.py",
        )
        t = templates.get("ls6-ddp")
        rendered = render_for_spec(spec, t, profile)
        # Splitting body and output on placeholder spans must leave identical
        # fixed segments.
        import re
        fixed = re.split(r"(?<!\$)\{[a-z][a-z0-9_]*\}", t.body)
        out = rendered.text
        for segment in fixed:
            idx = out.find(segment)
            assert idx >= 0
            out = out[idx + len(segment):]


class TestWrapBatch:
    def test_slurm_header(self, profiles, templates):
        profile = profiles.resolve("perlmutter")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        rendered = render_for_spec(spec, templates.get("perlmutter-ddp"), profile)
        batch = wrap_batch(rendered, profile, 60, "m1234")
        lines = batch.splitlines()
        assert lines[0] == "#!/bin/bash"
        assert "#SBATCH --nodes=2" in lines
        assert "#SBATCH --time=01:00:00" in lines
        assert "#SBATCH --account=m1234" in lines
        assert batch.endswith(rendered.text + "\n")

    def test_pbs_header_derives_nodes_from_world(self, profiles, templates):
        profile = profiles.resolve("aurora")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=2, gpus_per_node=4)
        rendered = render_for_spec(spec, templates.get("aurora-ddp"), profile)
        batch = wrap_batch(rendered, profile, 60, "ALCF-PROJ")
        lines = batch.splitlines()
        assert "#PBS -l select=2" in lines
        assert "#PBS -l walltime=01:00:00" in lines
        assert "#PBS -A ALCF-PROJ" in lines

    def test_walltime_policy_enforced(self, profiles, templates):
        for profile in profiles:
            spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
            template = next(t for t in templates if t.cluster == profile.id
                            and t.framework is Framework.PYTORCH and t.strategy is Strategy.DDP)
            rendered = render_for_spec(spec, template, profile)
            with pytest.raises(PolicyViolationError):
                wrap_batch(rendered, profile, 10**6, "acct")
