import pytest

from launchport.errors import BridgeUnavailableError, NoCandidatesError
from launchport.retrieval import candidates, select
from launchport.templates import ParamDecl, Template, TemplateSet, add_template
from launchport.types import Framework, Launcher, Strategy

from conftest import make_spec


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


class TestEmbedderFallback:
    @pytest.mark.parametrize("embedder", [_DownEmbedder(), _ShortEmbedder()],
                             ids=["raises", "short"])
    def test_falls_back_to_token_overlap(self, profiles, templates, embedder):
        profile = profiles.resolve("aurora")
        spec = make_spec(profile, Framework.ACCELERATE, Strategy.DDP)
        offline = candidates(spec, templates)
        assert any(c.breakdown["similarity"] > 0.0 for c in offline)
        assert candidates(spec, templates, embedder=embedder) == offline


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
        extended = add_template(templates, unrelated)
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
