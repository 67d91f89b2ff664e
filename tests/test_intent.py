import json
import re
from importlib import resources

import pytest
from hypothesis import example, given, strategies as st

from launchport.clusters import default_profiles
from launchport.errors import (
    CapacityError,
    IncompleteSpecError,
    InconsistentTopologyError,
)
from launchport.intent import (
    NUMBER_WORDS,
    JobSpec,
    PartialJobSpec,
    RuleBasedExtractor,
    derive,
    extract,
    finalize,
    missing_fields,
    parse_script,
)
from launchport.types import Framework, Launcher, Strategy

from conftest import PERLMUTTER_COMMAND, POLARIS_COMMAND, TABLE_DESCRIPTION


class TestExtract:
    def test_reference_description(self):
        p = extract(TABLE_DESCRIPTION.format(cluster="Perlmutter"))
        assert p.cluster == "perlmutter"
        assert p.launcher is Launcher.TORCHRUN
        assert p.total_gpus == 8
        assert p.nodes == 2
        assert p.entry_script == "run_image_classification.py"
        assert p.framework is None and p.strategy is None

    def test_node_phrasing_variants(self):
        for text in ("two nodes", "I'll use 2 servers", "--nodes 2"):
            assert extract(text).nodes == 2, text

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            extract("")

    def test_unextractable_text_lands_in_train_args(self):
        p = extract("hello")
        assert p.nodes is None and p.cluster is None
        assert p.train_args == "hello"

    def test_explicit_args_marker_captures_tail(self):
        p = extract("train on 2 nodes, my training arguments is --lr 3e-4 --epochs 2")
        assert p.nodes == 2
        assert p.train_args == "--lr 3e-4 --epochs 2"

    def test_bare_gpu_count_reads_as_total(self):
        p = extract("use 8 GPUs on Perlmutter")
        assert p.total_gpus == 8 and p.gpus_per_node is None

    def test_per_node_gpu_count(self):
        p = extract("4 GPUs per node across 2 nodes")
        assert p.gpus_per_node == 4 and p.nodes == 2

    def test_number_words_beyond_sixty_four_need_digits(self):
        assert extract("one hundred nodes").nodes is None
        assert extract("100 nodes").nodes == 100


class TestNumberWords:
    # (phrasing, field it fills); every number word must read the same in each.
    PHRASINGS = (
        ("train on {} nodes", "nodes"),
        ("{} GPUs per node", "gpus_per_node"),
        ("{} gpus/node", "gpus_per_node"),
        ("{} GPUs in total", "total_gpus"),
    )

    @pytest.mark.parametrize("phrasing, field", PHRASINGS)
    def test_every_word_in_every_case(self, phrasing, field):
        for word, value in NUMBER_WORDS.items():
            for form in (word, word.upper(), word.title()):
                text = phrasing.format(form)
                assert getattr(extract(text), field) == value, text

    def test_only_whole_words_count(self):
        assert extract("sixty-five GPUs").total_gpus == 5
        seventy = extract("seventy GPUs")
        assert seventy.total_gpus is None and seventy.gpus_per_node is None
        assert extract("eighteen GPUs per node").gpus_per_node == 18
        p = extract("someone asked for nodes with eightfold GPUs")
        assert (p.nodes, p.gpus_per_node, p.total_gpus) == (None, None, None)

    def test_flags_take_digits_only(self):
        assert extract("--nodes two").nodes is None
        assert extract("--nodes 3, or two nodes").nodes == 3


def _cluster_by_loop(names, text):
    """Reference: one search per name, earliest start wins, longest name on a tie."""
    earliest = None
    for name, canonical in sorted(names.items(), key=lambda kv: len(kv[0]), reverse=True):
        m = re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", text, re.I)
        if m and (earliest is None or m.start() < earliest[0]):
            earliest = (m.start(), canonical)
    return earliest[1] if earliest else None


class TestClusterSearch:
    def test_earlier_of_two_clusters_wins(self):
        assert extract("move this from Vista to Anvil").cluster == "vista"
        assert extract("move this from Anvil to Vista").cluster == "anvil"

    def test_longer_name_wins_at_the_same_position(self):
        assert extract("train on Delta AI with 2 nodes").cluster == "deltaai"
        assert extract("train on DeltaAI").cluster == "deltaai"
        assert extract("train on Delta with 2 nodes").cluster == "delta"

    @pytest.mark.parametrize("text", [
        "a perlmutter-like machine", "xperlmutter", "perlmutter2", "my-vista box",
        "vista_cluster",
    ])
    def test_names_glued_to_word_characters_or_hyphens_are_ignored(self, text):
        assert extract(text).cluster is None

    def test_non_ascii_case_variant_maps_to_its_id(self):
        # re.I matches "ſ" (long s) for "s" and the Kelvin sign for "k".
        assert extract("run it on lſ6").cluster == "lonestar6"
        assert extract("run it on ſtampede 3").cluster == "stampede3"
        assert RuleBasedExtractor({"kestrel": "kestrel"}).extract(
            "\u212aestrel").cluster == "kestrel"

    def test_empty_registry_names_no_cluster(self):
        assert RuleBasedExtractor({}).extract("train on perlmutter").cluster is None

    _NAMES = default_profiles().names()
    _TOKENS = sorted(_NAMES) + [
        "ſtampede3", "lſ6", "PERLMUTTER", "Delta", "AI", "ai", "-", "x", "2",
        "on", "to", "\u212a", "ſ", "nodes",
    ]

    @given(st.lists(
        st.tuples(st.sampled_from(_TOKENS), st.sampled_from(["", " ", "-", "_", ", ", "\n"]),
                  st.sampled_from([str, str.upper, str.title])),
        min_size=1, max_size=8,
    ))
    @example([("pm", "-", str), ("delta ai", "", str.title), ("vista", "", str)])
    @example([("x", "", str), ("lſ6", " ", str), ("bridges 2", "", str.upper)])
    def test_single_search_equals_per_name_loop(self, parts):
        text = "".join(case(token) + sep for token, sep, case in parts)
        extractor = RuleBasedExtractor(self._NAMES)
        assert extractor.extract(text).cluster == _cluster_by_loop(self._NAMES, text)


class TestPhrasingCorpus:
    def test_corpus_agreement_is_total(self):
        data = resources.files("launchport.data").joinpath("phrasings.json").read_text("utf-8")
        entries = json.loads(data)
        extractor = RuleBasedExtractor()
        by_field: dict[str, int] = {}
        for entry in entries:
            by_field[entry["field"]] = by_field.get(entry["field"], 0) + 1
            spec = extractor.extract(entry["text"])
            value = getattr(spec, entry["field"])
            if hasattr(value, "value"):
                value = value.value
            assert value == entry["expected"], (
                f"{entry['text']!r}: {entry['field']}={value!r}, "
                f"expected {entry['expected']!r}"
            )
        assert all(n >= 30 for n in by_field.values()), by_field


class TestMissingFields:
    def test_reference_description_is_complete(self):
        p = extract(TABLE_DESCRIPTION.format(cluster="Perlmutter"))
        assert missing_fields(p) == []

    def test_empty_spec_lists_all_required_in_order(self):
        assert missing_fields(PartialJobSpec()) == [
            "cluster", "framework", "strategy", "nodes", "gpus_per_node", "entry_script",
        ]

    def test_counts_derivable(self):
        p = PartialJobSpec(nodes=2, total_gpus=8)
        assert missing_fields(p) == ["cluster", "framework", "strategy", "entry_script"]

    def test_strategy_implies_framework(self):
        p = PartialJobSpec(strategy=Strategy.ZERO3)
        assert "framework" not in missing_fields(p)
        assert derive(p).framework is Framework.DEEPSPEED


class TestFinalize:
    def test_total_split_across_nodes(self, profiles):
        p = extract(TABLE_DESCRIPTION.format(cluster="Perlmutter"))
        spec = finalize(p, profiles.resolve("perlmutter"))
        assert spec.gpus_per_node == 4
        assert spec.world_size == 8
        assert spec.framework is Framework.PYTORCH
        assert spec.strategy is Strategy.DDP

    def test_indivisible_total_rejected(self, profiles):
        p = PartialJobSpec(
            cluster="perlmutter", nodes=2, total_gpus=7,
            framework=Framework.PYTORCH, strategy=Strategy.DDP, entry_script="t.py",
        )
        with pytest.raises(InconsistentTopologyError):
            finalize(p, profiles.resolve("perlmutter"))

    def test_capacity_error_names_limit(self, profiles):
        p = PartialJobSpec(
            cluster="lonestar6", nodes=2, gpus_per_node=4,
            framework=Framework.PYTORCH, strategy=Strategy.DDP, entry_script="t.py",
        )
        with pytest.raises(CapacityError) as exc:
            finalize(p, profiles.resolve("lonestar6"))
        assert exc.value.limit == 3
        assert "3" in str(exc.value)

    def test_missing_fields_raise_incomplete(self, profiles):
        with pytest.raises(IncompleteSpecError) as exc:
            finalize(PartialJobSpec(nodes=2), profiles.resolve("delta"))
        assert "cluster" in exc.value.missing

    def test_port_defaults_and_explicit_flag(self, profiles):
        base = dict(
            cluster="delta", nodes=2, gpus_per_node=4,
            framework=Framework.PYTORCH, strategy=Strategy.DDP, entry_script="t.py",
        )
        spec = finalize(PartialJobSpec(**base), profiles.resolve("delta"))
        assert spec.master_port == 29500 and not spec.master_port_explicit
        spec = finalize(PartialJobSpec(**base, master_port=29999), profiles.resolve("delta"))
        assert spec.master_port == 29999 and spec.master_port_explicit

    def test_launcher_follows_cluster_convention(self, profiles):
        base = dict(
            nodes=2, gpus_per_node=4, framework=Framework.PYTORCH,
            strategy=Strategy.DDP, entry_script="t.py",
        )
        aurora = finalize(PartialJobSpec(cluster="aurora", **base), profiles.resolve("aurora"))
        assert aurora.launcher is Launcher.MPIEXEC
        delta = finalize(PartialJobSpec(cluster="delta", **base), profiles.resolve("delta"))
        assert delta.launcher is Launcher.TORCHRUN

    @given(nodes=st.integers(1, 16), gpus=st.integers(1, 8))
    def test_world_size_always_consistent(self, nodes, gpus):
        spec = JobSpec(
            cluster="bridges2", framework=Framework.PYTORCH, strategy=Strategy.DDP,
            launcher=Launcher.TORCHRUN, nodes=nodes, gpus_per_node=gpus,
            entry_script="t.py",
        )
        assert spec.world_size == nodes * gpus

    @given(nodes=st.integers(1, 12), total=st.integers(1, 64))
    def test_finalize_never_violates_world_size(self, profiles, nodes, total):
        p = PartialJobSpec(
            cluster="bridges2", nodes=nodes, total_gpus=total,
            framework=Framework.PYTORCH, strategy=Strategy.DDP, entry_script="t.py",
        )
        profile = profiles.resolve("bridges2")
        try:
            spec = finalize(p, profile)
        except (InconsistentTopologyError, CapacityError):
            assert total % nodes != 0 or total // nodes > profile.gpus_per_node
        else:
            assert spec.world_size == total
            assert spec.nodes * spec.gpus_per_node == total


class TestParseScript:
    def test_reference_slurm_command(self):
        p = parse_script(PERLMUTTER_COMMAND)
        assert p.nodes == 2
        assert p.gpus_per_node == 4
        assert p.launcher is Launcher.TORCHRUN
        assert p.master_port == 29400
        assert p.entry_script == "run_image_classification.py"

    def test_reference_mpiexec_command(self):
        p = parse_script(POLARIS_COMMAND)
        assert p.nodes is None
        assert p.total_gpus == 8
        assert p.gpus_per_node == 4
        assert p.launcher is Launcher.MPIEXEC
        assert p.master_port == 29500
        assert p.entry_script == "run_image_classification.py"
        # The node count falls out when the job description is completed.
        assert derive(p).nodes == 2

    def test_non_launch_script_is_empty(self):
        p = parse_script("echo hello")
        assert p.is_empty()

    def test_deepspeed_command(self):
        p = parse_script(
            "deepspeed --num_nodes=2 --num_gpus=4 --master_port=29501 "
            "--hostfile=hostfile.txt train.py --lr 1e-4 ds_config.json"
        )
        assert p.launcher is Launcher.DEEPSPEED
        assert p.nodes == 2 and p.gpus_per_node == 4
        assert p.master_port == 29501
        assert p.entry_script == "train.py"
        assert p.deepspeed_config == "ds_config.json"
        assert p.train_args == "--lr 1e-4"

    def test_accelerate_command(self):
        p = parse_script(
            "accelerate launch --multi_gpu --num_machines=2 --num_processes=8 "
            "--main_process_port=29400 train.py"
        )
        assert p.launcher is Launcher.ACCELERATE
        assert p.nodes == 2 and p.total_gpus == 8 and p.gpus_per_node == 4
        assert p.master_port == 29400

    def test_trailing_args_recovered(self):
        p = parse_script(PERLMUTTER_COMMAND)
        assert p.train_args == "..."


class TestRoundTripFixedPoint:
    def test_finalize_of_parsed_render_is_identity(self, profiles, templates):
        """Rendering a job and re-reading the script reproduces the job.

        Holds for every verified bundled template on (nodes, gpus_per_node,
        world_size, master_port, entry_script).
        """
        from launchport.synthesis import render_for_spec
        from conftest import make_spec

        for template in templates:
            if not template.verified:
                continue
            profile = profiles.resolve(template.cluster)
            spec = make_spec(
                profile, template.framework, template.strategy,
                launcher=template.launcher, nodes=2,
                gpus_per_node=profile.gpus_per_node,
                master_port=29765, master_port_explicit=True,
                entry_script="train.py",
            )
            rendered = render_for_spec(spec, template, profile)
            recovered = parse_script(rendered.text)
            recovered.cluster = profile.id
            final = finalize(recovered, profile)
            assert final.nodes == spec.nodes, template.id
            assert final.gpus_per_node == spec.gpus_per_node, template.id
            assert final.world_size == spec.world_size, template.id
            assert final.master_port == spec.master_port, template.id
            assert final.entry_script == spec.entry_script, template.id
