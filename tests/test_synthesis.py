import pickle

import pytest
from hypothesis import given, strategies as st

from launchport.errors import ContractViolationError, UnboundParameterError
from launchport.intent import finalize
from launchport.lint import lint
from launchport.prose import extract
from launchport.synthesis import RenderedScript, bind, render, render_for_spec
from launchport.templates import PLACEHOLDER_RE, ParamDecl, Template
from launchport.types import Framework, Launcher, Strategy

from conftest import TABLE_DESCRIPTION, make_spec, placeholders

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
        assert binding["nodes"] == 2
        assert binding["each_node_gpus"] == 4
        assert binding["world_size"] == 8
        assert binding["master_port"] == 29400  # template default, port not stated
        assert binding["your_script"] == "run_image_classification.py ..."

    def test_explicit_port_beats_template_default(self, profiles, templates):
        profile = profiles.resolve("perlmutter")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP,
                         master_port=29999, master_port_explicit=True)
        binding = bind(spec, templates.get("perlmutter-ddp"), profile)
        assert binding["master_port"] == 29999

    def test_minimal_topology(self, profiles, templates):
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, nodes=1, gpus_per_node=1)
        binding = bind(spec, templates.get("delta-ddp"), profile)
        assert binding["nodes"] == 1
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

    def test_foreign_profile_rejected(self, profiles, templates):
        spec = make_spec(profiles.resolve("delta"), Framework.PYTORCH, Strategy.DDP)
        with pytest.raises(ContractViolationError) as exc:
            bind(spec, templates.get("delta-ddp"), profiles.resolve("aurora"))
        assert str(exc.value) == "profile 'aurora' does not match job cluster 'delta'"

    def test_optional_param_without_value_is_left_out(self, profiles, templates):
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        t = templates.get("delta-ddp")
        extended = t.replace(params=t.params + (ParamDecl("extra", "text", required=False),))
        assert bind(spec, extended, profile) == bind(spec, t, profile)

    def test_train_args_appended_with_single_space(self, profiles, templates):
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP,
                         entry_script="t.py", train_args="--lr 1")
        binding = bind(spec, templates.get("delta-ddp"), profile)
        assert binding["your_script"] == "t.py --lr 1"


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
        again = render(t, bind(spec, t, profile))
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
        t = Template(
            id="static", cluster="delta", framework=Framework.PYTORCH,
            strategy=Strategy.DDP, launcher=Launcher.TORCHRUN,
            body="echo ready", params=(),
        )
        rendered = render(t, {})
        assert rendered.text == "echo ready"

    def test_bools_render_as_one_and_zero(self):
        # Loaded templates hold no bool default; a direct caller's binding may.
        t = Template(id="flags", cluster="delta", framework=Framework.PYTORCH,
                     strategy=Strategy.DDP, launcher=Launcher.TORCHRUN,
                     body="on={on} off={off} n={n}", params=())
        assert render(t, {"on": True, "off": False, "n": 7}).text == "on=1 off=0 n=7"

    def test_missing_binding_raises(self, templates):
        t = templates.get("ls6-ddp")
        with pytest.raises(UnboundParameterError):
            render(t, {"nodes": 2})

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


_PLACEHOLDER_TOKENS = [
    "{x}", "{nodes}", "{n1_x}", "${x}", "$", "{", "}", "{A}", "{_x}", "{1x}", "{x y}", "a", " ",
    "\n", "{{x}}", "$$", "{ab}",
]


class TestRenderedScript:
    @given(st.lists(st.sampled_from(_PLACEHOLDER_TOKENS) | st.text(max_size=4)).map("".join))
    def test_refuses_exactly_the_texts_with_placeholders(self, text):
        found = placeholders(text)
        try:
            script = RenderedScript(text, "external")
        except UnboundParameterError as exc:
            assert found
            assert exc.param == found[0]
            assert exc.template_id == "external"
        else:
            assert found == []
            assert script.text == text


def _reference_render(t, b):
    """Rendering as one regex substitution over the body, a callback per placeholder."""

    def substitute(match):
        name = match.group(1)
        if name not in b:
            raise UnboundParameterError(name, t.id)
        value = b[name]
        return ("1" if value else "0") if isinstance(value, bool) else str(value)

    return RenderedScript(PLACEHOLDER_RE.sub(substitute, t.body), t.id)


def _rendered_or_unbound(render_fn, t, b):
    try:
        return render_fn(t, b).text
    except UnboundParameterError as exc:
        return ("unbound", exc.param, exc.template_id)


_BODY_TOKENS = [
    "{a}", "{b}", "{nodes}", "${a}", "${VAR}", "$(hostname)", "$(echo {a})", "$", "{A}",
    "{Upper}", "{", "}", "{{a}}", "}{", "{a}{b}", "{ a}", "{a-b}", "\n", " ", "x",
]
_BOUND_VALUES = (st.integers(-3, 10**6) | st.booleans() | st.text(max_size=4)
                 | st.sampled_from(["{a}", "{x}", "${a}", "{", "}", "{A}", ""]))


class TestRenderPlan:
    @given(
        body=st.lists(st.sampled_from(_BODY_TOKENS) | st.text(max_size=3)).map("".join),
        binding=st.dictionaries(st.sampled_from(["a", "b", "nodes", "unused"]), _BOUND_VALUES),
    )
    def test_plan_render_equals_one_substitution(self, body, binding):
        t = Template("drawn", "delta", Framework.PYTORCH, Strategy.DDP, Launcher.TORCHRUN,
                     body, ())
        # Names at odd indexes, literals at even ones: wrapping the names again
        # gives the body back.
        assert "".join(f"{{{part}}}" if i % 2 else part for i, part in enumerate(t.parts)) == body
        assert list(dict.fromkeys(t.parts[1::2])) == placeholders(body)
        assert _rendered_or_unbound(render, t, binding) == _rendered_or_unbound(
            _reference_render, t, binding)

    def test_first_missing_name_is_reported(self):
        t = Template("two", "delta", Framework.PYTORCH, Strategy.DDP, Launcher.TORCHRUN,
                     "${b} {a} {b} {c}", ())
        with pytest.raises(UnboundParameterError) as exc:
            render(t, {"a": 1})
        assert (exc.value.param, exc.value.template_id) == ("b", "two")

    def test_plan_leaves_equality_hash_and_pickling_alone(self, templates):
        t = templates.get("ls6-ddp")
        fresh = Template(t.id, t.cluster, t.framework, t.strategy, t.launcher, t.body, t.params,
                         t.verified, t.notes)
        assert t.parts is t.parts
        assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
        assert pickle.loads(pickle.dumps(t)) == t


# What a line above a script may say: launchers, counts, ports and exports that
# would change the script's reads and findings if the line ran.
_LINE_WORDS = ["torchrun", "--nnodes=7", "--nproc_per_node=3", "--master_port=99999",
               "MASTER_PORT 99999", "accelerate launch", "--num_machines=5", "deepspeed",
               "--num_gpus=9", "mpiexec -n 5 -ppn 5", "srun -N 9", "export PYTHONPATH=$PYTHONPATH",
               "export LD_LIBRARY_PATH=/x", "gcc/13.2.0", "cuda/12.4", "train.py", "#", "module"]
_LINE_TAILS = st.lists(st.sampled_from(_LINE_WORDS), max_size=3).map(" ".join)
_INDENTS = st.sampled_from(["", " ", "  ", "\t", " \t "])
# A line the script does not run: a comment or a module command, as the
# add_module_load and pin_version repairs prepend them, after any indent.
_UNRUN_LINES = st.tuples(_INDENTS, st.sampled_from(
    ["#", "# ", "#!", "module load ", "module swap ", "module unload ", "module ",
     "module\tload "]),
    _LINE_TAILS).map("".join)
# A line the script runs: blank, an export or a word that only starts like "module".
_RUN_LINES = _INDENTS | st.tuples(_INDENTS, st.sampled_from(
    ["export ", "modules ", "module", "modulefiles ", "echo # "]), _LINE_TAILS).map("".join)


# An export_env name: any ASCII shell name, one that a count, port flag or
# module line starts like, or one that holds a launcher's name in some case.
_LAUNCHER_NAMES = ["torchrun", "deepspeed", "accelerate", "mpiexec", "mpirun", "srun"]
_MIXED_CASE_LAUNCHERS = st.sampled_from(_LAUNCHER_NAMES).flatmap(
    lambda name: st.lists(st.booleans(), min_size=len(name), max_size=len(name)).map(
        lambda upper: "".join(c.upper() if up else c for c, up in zip(name, upper))))
_EXPORT_NAMES = (
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
    | st.sampled_from(["MASTER_PORT", "slots", "module_x", "module", "PYTHONPATH",
                       "LD_LIBRARY_PATH", "nnodes", "N", "n", "ppn", "launch", "bash"])
    | st.tuples(st.sampled_from(["", "_", "X", "my_"]), _MIXED_CASE_LAUNCHERS,
                st.sampled_from(["", "_", "2", "_HOME"])).map("".join))
# Lines above a script that hold the launch command's marker and are not run.
_MARKED_ABOVE = st.sampled_from(
    ["", "# was: srun bash -c 'python old.py'\n", "  # bash -c 'x'\n",
     "module load bash -c 'x'\n", "echo ready # then bash -c 'x'\n"])


class TestCarriedReads:
    @given(lines=st.lists(st.tuples(st.just(True), _UNRUN_LINES)
                          | st.tuples(st.just(False), _RUN_LINES), max_size=4))
    def test_a_carried_read_equals_a_fresh_one(self, profiles, templates, lines):
        for t in templates:
            profile = profiles.resolve(t.cluster)
            spec = make_spec(profile, t.framework, t.strategy, launcher=t.launcher)
            script = render_for_spec(spec, t, profile)
            for unrun, line in lines:
                parent = script
                script = parent.with_line_above(line)
                fresh = RenderedScript(f"{line}\n{parent.text}", t.id)
                assert script == fresh
                assert (script._commands, script.topology) == (fresh._commands, fresh.topology)
                assert lint(script, spec, profile) == lint(fresh, spec, profile)
                # A line the script runs is read afresh, never carried.
                assert (script._commands is parent._commands) == unrun, (t.id, line)
                assert (script._topology is parent._topology) == unrun, (t.id, line)

    @given(names=st.lists(_EXPORT_NAMES, min_size=1, max_size=3), above=_MARKED_ABOVE)
    def test_an_export_carried_read_equals_a_fresh_one(self, profiles, templates, names, above):
        for t in templates:
            profile = profiles.resolve(t.cluster)
            spec = make_spec(profile, t.framework, t.strategy, launcher=t.launcher)
            rendered = render_for_spec(spec, t, profile)
            script = RenderedScript(above + rendered.text, t.id)
            for name in names:
                parent = script
                script = parent.with_export(name)
                # Inside the launch command, after the lines above it that the
                # script does not run, or on a line of its own above the script.
                statement = f"export {name}=${name}"
                if "bash -c '" in rendered.text:
                    at = parent.text.index("bash -c '", len(above)) + len("bash -c '")
                    assert script.text == f"{parent.text[:at]}{statement}; {parent.text[at:]}"
                else:
                    assert script.text == f"{statement}\n{parent.text}"
                fresh = RenderedScript(script.text, t.id)
                assert script == fresh
                assert (script._commands, script.topology) == (fresh._commands, fresh.topology)
                assert lint(script, spec, profile) == lint(fresh, spec, profile)
                # Carried for every name that holds no launcher's name.
                carried = not any(launcher in name.lower() for launcher in _LAUNCHER_NAMES)
                assert (script._topology is parent._topology) == carried, (t.id, name)

    def test_a_line_that_holds_a_newline_or_a_name_that_is_not_a_shell_name_is_read(self):
        parent = RenderedScript("srun -N 2 bash -c 'torchrun --nnodes=2 train.py'", "t")
        for script in (parent.with_line_above("# x\nexport PYTHONPATH=/p --nnodes=9"),
                       parent.with_export("X --nnodes=9")):
            fresh = RenderedScript(script.text, "t")
            assert (script._commands, script.topology) == (fresh._commands, fresh.topology)
            assert script.topology == (9, None, None) != parent.topology

    def test_a_carried_read_survives_a_pickle_round_trip(self):
        parent = RenderedScript("srun -N 2 bash -c 'torchrun --nnodes=2 train.py'", "t")
        for script in (parent.with_line_above("module load cuda/12.4"),
                       parent.with_export("PYTHONPATH")):
            assert script._topology is parent._topology
            loaded, fresh = pickle.loads(pickle.dumps(script)), RenderedScript(script.text, "t")
            assert loaded == script == fresh
            assert (loaded._commands, loaded.topology) == (fresh._commands, fresh.topology)

    def test_a_third_positional_argument_is_refused(self):
        # The record once took (text, template_id, binding); a three-key binding
        # passed there must not be unpacked as a carried read.
        with pytest.raises(TypeError):
            RenderedScript("torchrun --nnodes=2 train.py", "t", {"nodes": 2, "port": 1, "x": 3})

    def test_a_placeholder_on_a_carried_line_is_refused(self):
        parent = RenderedScript("torchrun --nnodes=2 train.py", "t")
        with pytest.raises(UnboundParameterError) as exc:
            parent.with_line_above("module load {cuda}")
        assert (exc.value.param, exc.value.template_id) == ("cuda", "t")
