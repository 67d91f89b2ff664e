import copy
import gc
import json
import pickle
import weakref
from types import MappingProxyType

import pytest
from hypothesis import given, strategies as st

from launchport import retrieval
from launchport.bridge import BridgeConfig, RemoteBridge
from launchport.clusters import default_profiles
from launchport.errors import BridgeUnavailableError, NoCandidatesError
from launchport.intent import JobSpec
from launchport.pipeline import run_pipeline
from launchport.retrieval import RankedCandidate, candidates, select
from launchport.templates import ParamDecl, Template, TemplateSet, default_templates
from launchport.types import Framework, Launcher, Strategy

from conftest import make_spec, matrix_specs


class TestExactMatch:
    def test_full_key_match_scores_one(self, profiles, templates):
        profile = profiles.resolve("perlmutter")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, launcher=Launcher.TORCHRUN)
        ranked = candidates(spec, templates)
        assert ranked[0].template_id == "perlmutter-ddp"
        assert ranked[0].score == 1.0
        assert ranked[0].exact

    def test_absent_cell_ranks_below_one_and_non_exact(self, profiles, templates):
        profile = profiles.resolve("aurora")
        spec = make_spec(profile, Framework.ACCELERATE, Strategy.DDP)
        ranked = candidates(spec, templates)
        assert ranked[0].score < 1.0
        assert not ranked[0].exact
        # The same-cluster strategy match outranks foreign exact-combo entries.
        assert ranked[0].template_id == "aurora-ddp"

    def test_exact_match_dominates_everything(self, profiles, templates):
        for profile in profiles:
            for t in templates:
                if t.cluster != profile.id:
                    continue
                spec = make_spec(profile, t.framework, t.strategy, launcher=t.launcher)
                ranked = candidates(spec, templates)
                assert ranked[0].template_id == t.id
                assert ranked[0].score == 1.0
                assert all(c.score < 1.0 for c in ranked[1:])


def _mini_template(tid, cluster, framework, strategy, launcher, notes="", body=None):
    body = body or "torchrun --nnodes={nodes} {your_script}"
    return Template(
        id=tid, cluster=cluster, framework=framework, strategy=strategy,
        launcher=launcher, body=body,
        params=(ParamDecl("nodes", "integer"), ParamDecl("your_script", "path")),
        notes=notes,
    )


class TestScoringAndTies:
    def test_tie_breaks_lexicographically(self, profiles):
        profile = profiles.resolve("delta")
        # Both share cluster (0.4) + strategy (0.25) = 0.65 and identical text,
        # so similarity cannot separate them either.
        t1 = _mini_template("a-x", "delta", Framework.PYTORCH, Strategy.DDP, Launcher.TORCHRUN)
        t2 = _mini_template("a-y", "delta", Framework.DEEPSPEED, Strategy.DDP, Launcher.MPIEXEC)
        tset = TemplateSet([t2, t1])
        spec = make_spec(profile, Framework.ACCELERATE, Strategy.DDP)
        ranked = candidates(spec, tset)
        assert [c.template_id for c in ranked] == ["a-x", "a-y"]
        assert ranked[0].score == ranked[1].score

    def test_breakdown_reports_each_criterion(self, profiles, templates):
        profile = profiles.resolve("perlmutter")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, launcher=Launcher.TORCHRUN)
        top = candidates(spec, templates)[0]
        assert top.breakdown["cluster"] == pytest.approx(0.4)
        assert top.breakdown["framework"] == pytest.approx(0.25)
        assert top.breakdown["strategy"] == pytest.approx(0.25)
        assert top.breakdown["launcher"] == pytest.approx(0.1)

    def test_singleton_set_ranks_first(self, profiles):
        profile = profiles.resolve("delta")
        only = _mini_template("solo", "anvil", Framework.DEEPSPEED, Strategy.ZERO3, Launcher.DEEPSPEED)
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        ranked = candidates(spec, TemplateSet([only]))
        assert len(ranked) == 1
        assert ranked[0].template_id == "solo"

    def test_empty_set_is_an_error(self, profiles):
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        with pytest.raises(NoCandidatesError):
            candidates(spec, TemplateSet([]))

    def test_similarity_only_below_gate(self, profiles, templates):
        profile = profiles.resolve("perlmutter")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, launcher=Launcher.TORCHRUN)
        ranked = candidates(spec, templates)
        # An exact match exists, so no similarity is blended anywhere.
        assert all(c.breakdown["similarity"] == 0.0 for c in ranked)

    def test_token_overlap_fallback_without_embedder(self, profiles, templates):
        # No aurora/accelerate cell exists, so nothing reaches the 0.9 gate
        # and the Jaccard fallback contributes to every candidate's score.
        profile = profiles.resolve("aurora")
        spec = make_spec(profile, Framework.ACCELERATE, Strategy.DDP)
        ranked = candidates(spec, templates)
        assert any(c.breakdown["similarity"] > 0.0 for c in ranked)
        assert all(0.0 <= c.score <= 1.0 for c in ranked)


class FakeEmbedder:
    """Deterministic embedder: counts of a few marker words."""

    def embed(self, texts):
        return [
            [float(t.count("deepspeed")), float(t.count("srun")), float(len(t) % 7) + 1.0]
            for t in texts
        ]


class TestEmbedderPath:
    def test_embedder_used_when_no_near_match(self, profiles):
        profile = profiles.resolve("delta")
        t1 = _mini_template("far-1", "anvil", Framework.DEEPSPEED, Strategy.ZERO3,
                            Launcher.DEEPSPEED, notes="deepspeed hostfile launch")
        t2 = _mini_template("far-2", "vista", Framework.DEEPSPEED, Strategy.ZERO3,
                            Launcher.DEEPSPEED, notes="srun wrapper")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        ranked = candidates(spec, TemplateSet([t1, t2]), embedder=FakeEmbedder())
        assert all(0.0 <= c.score <= 1.0 for c in ranked)
        assert any(c.breakdown["similarity"] > 0.0 for c in ranked)

    def test_embedder_never_outweighs_exact_match(self, profiles, templates):
        profile = profiles.resolve("perlmutter")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP, launcher=Launcher.TORCHRUN)
        ranked = candidates(spec, templates, embedder=FakeEmbedder())
        assert ranked[0].template_id == "perlmutter-ddp"
        assert ranked[0].score == 1.0


class _DownEmbedder:
    def embed(self, texts):
        raise BridgeUnavailableError("endpoint unreachable")


class _ShortEmbedder:
    def embed(self, texts):
        return [[1.0, 0.0]]


class _NoVectorEmbedder:
    def embed(self, texts):
        return []


class _ExtraVectorEmbedder(FakeEmbedder):
    def embed(self, texts):
        vectors = super().embed(texts)
        return vectors + vectors[:1]


def _remote_embedder(vector):
    """A remote bridge that embeds the first text as ``[1.0, 0.0]`` and every
    other one as ``vector``."""
    def transport(url, body, headers, timeout):
        count = len(json.loads(body)["payload"]["texts"])
        return json.dumps({"ok": True, "result": [[1.0, 0.0]] + [vector] * (count - 1)}).encode()

    config = BridgeConfig(endpoint="http://bridge.test/v1", capabilities=frozenset({"embed"}))
    return RemoteBridge(config, transport)


# Each way an embedder can fail a ranking: a bridge error, or a vector count
# other than one per text; a remote one also by vectors of two lengths, or NaN.
_FAILING = pytest.mark.parametrize(
    "fail", [_DownEmbedder(), _ShortEmbedder(), _NoVectorEmbedder(), _ExtraVectorEmbedder(),
             _remote_embedder([1.0]), _remote_embedder([float("nan"), 0.0])],
    ids=["raises", "short", "no-vector", "extra-vector", "remote-ragged", "remote-nan"])


class TestEmbedderFallback:
    @_FAILING
    def test_falls_back_to_token_overlap(self, profiles, templates, fail):
        profile = profiles.resolve("aurora")
        spec = make_spec(profile, Framework.ACCELERATE, Strategy.DDP)
        offline = candidates(spec, templates)
        assert any(c.breakdown["similarity"] > 0.0 for c in offline)
        assert candidates(spec, templates, embedder=fail) == offline


class _CountingEmbedder(FakeEmbedder):
    """FakeEmbedder that records how many texts each call sent; the first
    ``failures`` calls fail the way ``fail`` does."""

    def __init__(self, failures=0, fail=None):
        self.sent = []
        self.failures = failures
        self.fail = fail

    def embed(self, texts):
        self.sent.append(len(texts))
        if len(self.sent) <= self.failures:
            return self.fail.embed(texts)
        return super().embed(texts)


class _EmbedBridge(_CountingEmbedder):
    """A stub bridge whose one capability, ``embed``, is on or off."""

    def __init__(self, embed_enabled):
        super().__init__()
        self.embed_enabled = embed_enabled

    def enabled(self, capability):
        return self.embed_enabled and capability == "embed"


class TestPipelineRanking:
    def test_an_embed_bridge_ranks_the_templates(self, profiles, templates, fault_rules):
        profile = profiles.resolve("aurora")
        spec = make_spec(profile, Framework.ACCELERATE, Strategy.DDP)
        bridge = _EmbedBridge(embed_enabled=True)
        result = run_pipeline(spec, profile, TemplateSet(list(templates)), fault_rules,
                              bridge=bridge)
        expected = candidates(spec, TemplateSet(list(templates)), embedder=FakeEmbedder())
        assert bridge.sent == [len(templates) + 1]
        assert list(result.candidates) == expected != candidates(spec, templates)

    def test_without_embed_the_pipeline_ranks_offline(self, profiles, templates, fault_rules):
        profile = profiles.resolve("aurora")
        spec = make_spec(profile, Framework.ACCELERATE, Strategy.DDP)
        bridge = _EmbedBridge(embed_enabled=False)
        result = run_pipeline(spec, profile, TemplateSet(list(templates)), fault_rules,
                              bridge=bridge)
        assert bridge.sent == []
        assert list(result.candidates) == candidates(spec, templates)


class TestEmbedderRankings:
    def test_every_ranking_embeds_the_description_and_every_template(self, profiles, templates):
        profile = profiles.resolve("aurora")
        spec = make_spec(profile, Framework.ACCELERATE, Strategy.DDP)
        tset = TemplateSet(list(templates))
        embedder = _CountingEmbedder()
        ranked = [candidates(spec, tset, embedder) for _ in range(3)]
        assert embedder.sent == [1 + 35] * 3
        expected = _flat(_rank_reference(spec, tset, FakeEmbedder()))
        assert all(_flat(r) == expected for r in ranked)

    @_FAILING
    def test_a_failed_embedding_ranks_offline_that_time_only(self, profiles, templates, fail):
        profile = profiles.resolve("aurora")
        spec = make_spec(profile, Framework.ACCELERATE, Strategy.DDP)
        tset = TemplateSet(list(templates))
        embedder = _CountingEmbedder(failures=1, fail=fail)
        assert candidates(spec, tset, embedder) == candidates(spec, tset)
        ranked = candidates(spec, tset, embedder)
        assert embedder.sent == [1 + 35] * 2
        assert _flat(ranked) == _flat(_rank_reference(spec, tset, FakeEmbedder()))


class TestProperties:
    def test_determinism_over_repetitions(self, profiles, templates):
        profile = profiles.resolve("deltaai")
        spec = make_spec(profile, Framework.ACCELERATE, Strategy.DDP)
        first = [(c.template_id, c.score) for c in candidates(spec, templates)]
        for _ in range(20):
            again = [(c.template_id, c.score) for c in candidates(spec, templates)]
            assert again == first

    def test_adding_unrelated_template_preserves_order(self, profiles, templates):
        profile = profiles.resolve("deltaai")
        spec = make_spec(profile, Framework.ACCELERATE, Strategy.DDP)
        before = [c.template_id for c in candidates(spec, templates)]
        unrelated = _mini_template(
            "zzz-unrelated", "bridges2", Framework.DEEPSPEED, Strategy.FSDP, Launcher.SRUN,
            notes="completely different workload",
        )
        extended = TemplateSet([*templates, unrelated])
        after = [c.template_id for c in candidates(spec, extended)]
        after.remove("zzz-unrelated")
        assert after == before


class TestSelect:
    def test_top_one(self, profiles, templates):
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        ranked = candidates(spec, templates)
        assert select(ranked, 1) == ranked[:1]

    def test_k_larger_than_list(self, profiles):
        profile = profiles.resolve("delta")
        t1 = _mini_template("only-1", "delta", Framework.PYTORCH, Strategy.DDP, Launcher.TORCHRUN)
        t2 = _mini_template("only-2", "delta", Framework.PYTORCH, Strategy.FSDP, Launcher.TORCHRUN)
        spec = make_spec(profile, Framework.PYTORCH, Strategy.DDP)
        ranked = candidates(spec, TemplateSet([t1, t2]))
        assert len(select(ranked, 5)) == 2

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            select([], 0)


def _rank_reference(spec, tset, embedder=None):
    """Reference: the two-pass ranking, sorted by (-score, id) over a re-sorted set."""
    templates = sorted(tset, key=lambda t: t.id)
    metadata = {
        t.id: {
            "cluster": retrieval.WEIGHT_CLUSTER if t.cluster == spec.cluster else 0.0,
            "framework": retrieval.WEIGHT_FRAMEWORK if t.framework is spec.framework else 0.0,
            "strategy": retrieval.WEIGHT_STRATEGY if t.strategy is spec.strategy else 0.0,
            "launcher": retrieval.WEIGHT_LAUNCHER if t.launcher is spec.launcher else 0.0,
        }
        for t in templates
    }
    best_meta = max(sum(m.values()) for m in metadata.values())
    similarities = {}
    if best_meta < retrieval.SIMILARITY_GATE:
        description = spec.description()
        texts = [f"{t.notes} {t.body}" for t in templates]
        vectors = embedder and retrieval._embed(embedder, [description] + texts)
        for i, (t, text) in enumerate(zip(templates, texts), 1):
            if vectors is not None:
                similarities[t.id] = retrieval._cosine(vectors[0], vectors[i])
            else:
                wa, wb = set(description.lower().split()), set(text.lower().split())
                similarities[t.id] = len(wa & wb) / len(wa | wb) if wa and wb else 0.0
    ranked = []
    for t in templates:
        breakdown = dict(metadata[t.id])
        meta = sum(breakdown.values())
        breakdown["similarity"] = similarities.get(t.id, 0.0)
        score = meta
        if similarities:
            weight = retrieval.SIMILARITY_WEIGHT
            score = (meta + weight * breakdown["similarity"]) / (1.0 + weight)
        exact = t.key == (spec.cluster, spec.framework, spec.strategy, spec.launcher)
        ranked.append(RankedCandidate(t.id, score, breakdown, exact))
    ranked.sort(key=lambda c: (-c.score, c.template_id))
    return ranked


def _flat(ranked):
    """Each candidate's fields, the score as its exact bits."""
    return [(c.template_id, c.score.hex(), list(c.breakdown.items()), c.exact) for c in ranked]


_BUNDLED = default_templates()


class _MarkerEmbedder:
    """Counts of two marker words, and a last component that only template
    texts carry: a template naming neither marker is orthogonal to every
    description, so its cosine is exactly 0.0."""

    MARKERS = ("srun", "hostfile")

    def embed(self, texts):
        # The description comes first, alone or before the template texts.
        return [[float(text.lower().split().count(m)) for m in self.MARKERS] + [float(i > 0)]
                for i, text in enumerate(texts)]


# Words of the bundled templates' texts, so a description shares some with a
# template and none with others; and words no template holds.
_TEMPLATE_WORDS = sorted({word for t in _BUNDLED for word in f"{t.notes} {t.body}".split()
                          if "'" not in word})
_WORDS = st.one_of(st.sampled_from(_TEMPLATE_WORDS),
                   st.sampled_from(["srun", "module", "hostfile", "Slurm"]),
                   st.sampled_from(["zebra", "qux42", "train_gpt2.py", "--epochs", "3"]))
# An entry script and train_args; words may repeat, and there may be none.
_DESCRIPTIONS = st.tuples(_WORDS, st.lists(_WORDS, max_size=8).map(" ".join))


class TestOnePassRanking:
    @given(
        cluster=st.sampled_from(default_profiles().ids() + ["nowhere"]),
        framework=st.sampled_from(list(Framework)),
        strategy=st.sampled_from(list(Strategy)),
        launcher=st.sampled_from(list(Launcher)),
        ids=st.lists(st.sampled_from([t.id for t in _BUNDLED]), min_size=1, unique=True),
        embedder=st.sampled_from([None, FakeEmbedder(), _DownEmbedder(), _MarkerEmbedder()]),
        descriptions=st.lists(_DESCRIPTIONS, min_size=1, max_size=3),
    )
    def test_equals_two_pass_reference(self, cluster, framework, strategy, launcher, ids,
                                       embedder, descriptions):
        # Several descriptions on one key and one set: later rankings reuse
        # what the first kept, and must still rank each description afresh.
        tset = TemplateSet([_BUNDLED.get(i) for i in ids])
        for entry_script, train_args in descriptions:
            spec = JobSpec(cluster=cluster, framework=framework, strategy=strategy,
                           launcher=launcher, nodes=2, gpus_per_node=4,
                           entry_script=entry_script, train_args=train_args)
            expected = _rank_reference(spec, tset, embedder)
            assert _flat(candidates(spec, tset, embedder)) == _flat(expected)

    def test_extended_set_ranks_its_new_template(self, profiles, templates):
        profile = profiles.resolve("delta")
        spec = make_spec(profile, Framework.ACCELERATE, Strategy.ZERO3)
        new = _mini_template("000-first", "delta", Framework.ACCELERATE, Strategy.ZERO3,
                             Launcher.ACCELERATE)
        before = candidates(spec, templates)
        extended = TemplateSet([*templates, new])
        ranked = candidates(spec, extended)
        assert len(ranked) == len(before) + 1
        assert ranked[0].template_id == "000-first"
        assert ranked[0].exact and ranked[0].score == 1.0
        assert _flat(ranked) == _flat(_rank_reference(spec, extended))
        # The set it was built from ranks exactly as before, without the new template.
        assert _flat(candidates(spec, templates)) == _flat(before)
        assert "000-first" not in {c.template_id for c in before}


# Sets shared by every example, so the per-set store is warm and partly
# filled: the bundled set, and two extensions whose new template sorts first
# and in the middle of the id order, so the templates after it shift.
_SHARED_SETS = (
    _BUNDLED,
    TemplateSet([*_BUNDLED, _mini_template("000-first", "delta", Framework.ACCELERATE,
                                           Strategy.ZERO3, Launcher.ACCELERATE)]),
    TemplateSet([*_BUNDLED, _mini_template("delta-mid", "nowhere", Framework.PYTORCH,
                                           Strategy.FSDP, Launcher.SRUN, notes="srun fsdp")]),
)

_KEYS = st.tuples(
    st.sampled_from(range(len(_SHARED_SETS))),
    st.sampled_from(default_profiles().ids() + ["nowhere"]),
    st.sampled_from(list(Framework)),
    st.sampled_from(list(Strategy)),
    st.sampled_from(list(Launcher)),
)


def _spec(cluster, framework, strategy, launcher):
    return JobSpec(cluster=cluster, framework=framework, strategy=strategy, launcher=launcher,
                   nodes=2, gpus_per_node=4, entry_script="train_gpt2.py")


class TestCandidateStore:
    @given(keys=st.lists(_KEYS, min_size=1, max_size=12))
    def test_shared_sets_rank_as_the_reference(self, keys):
        # Each key is ranked twice, and the first list is cleared in between:
        # the table must hand out its own list each time.
        for which, *key in keys:
            spec = _spec(*key)
            tset = _SHARED_SETS[which]
            expected = _flat(_rank_reference(spec, tset))
            first = candidates(spec, tset)
            assert _flat(first) == expected
            first.clear()
            assert _flat(candidates(spec, tset)) == expected

    def test_every_key_of_the_bundled_set(self, profiles):
        tset = TemplateSet(list(_BUNDLED))
        clusters = {t.cluster for t in tset}
        assert clusters == set(profiles.ids())
        keys = [(cluster, framework, strategy, launcher)
                for cluster in sorted(clusters) + ["nowhere"] for framework in Framework
                for strategy in Strategy for launcher in Launcher]
        for key in keys:
            spec = _spec(*key)
            assert _flat(candidates(spec, tset)) == _flat(_rank_reference(spec, tset)), key
        table = tset._ranking.table
        assert len(keys) == len(table) == (len(clusters) + 1) * 3 * 3 * 5 == 450

    def test_unknown_clusters_share_one_entry(self):
        tset = TemplateSet(list(_BUNDLED))
        for i in range(200):
            spec = _spec(f"unknown-{i}", Framework.PYTORCH, Strategy.DDP, Launcher.TORCHRUN)
            assert _flat(candidates(spec, tset)) == _flat(_rank_reference(spec, tset))
        assert list(tset._ranking.table) == [
            (None, Framework.PYTORCH, Strategy.DDP, Launcher.TORCHRUN)]

    @pytest.mark.parametrize("cluster", ["perlmutter", "aurora"], ids=["above", "below"])
    def test_breakdown_is_read_only(self, profiles, templates, cluster):
        profile = profiles.resolve(cluster)
        spec = make_spec(profile, Framework.ACCELERATE, Strategy.DDP)
        top = candidates(spec, templates)[0]
        with pytest.raises(TypeError):
            top.breakdown["cluster"] = 1.0
        assert top.breakdown["cluster"] == retrieval.WEIGHT_CLUSTER

    def test_store_lives_as_long_as_its_set(self, profiles):
        tset = TemplateSet([_mini_template("solo", "delta", Framework.PYTORCH, Strategy.DDP,
                                           Launcher.TORCHRUN)])
        assert tset._ranking is None
        candidates(make_spec(profiles.resolve("delta"), Framework.PYTORCH, Strategy.DDP), tset)
        store = weakref.ref(tset._ranking)
        assert len(store().table) == 1
        del tset
        gc.collect()
        # Nothing else holds the store, so its table goes with its set.
        assert store() is None


@pytest.mark.parametrize("duplicate", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_grid_results_round_trip_with_read_only_breakdowns(
        profiles, templates, fault_rules, duplicate):
    for name, spec, profile in matrix_specs(profiles):
        result = run_pipeline(spec, profile, templates, fault_rules)
        back = duplicate(result)
        assert back == result and repr(back) == repr(result), name
        for candidate in back.candidates:
            assert isinstance(candidate.breakdown, MappingProxyType), name
            with pytest.raises(TypeError):
                candidate.breakdown["cluster"] = 1.0
