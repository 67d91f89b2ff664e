"""Tests of the benchmark itself (kept out of the repository's test suite).

    python3 perfbench/selftest.py

Checks that the generators are deterministic per seed, that the reference
checker rejects wrong outputs and wrong expectations, that the digest
repeats, that the tracer computes self time and restores what it wraps, and
that the workloads split the layers as the benchmark predicts.
"""

import random
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import launchport as lp  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import Expected, Outcome, check  # noqa: E402


class GeneratorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.session = workloads.Session()

    def test_grid_jobs_repeat_per_seed(self):
        profiles = self.session.profiles
        jobs = workloads.grid_jobs(7, profiles, count=64)
        self.assertEqual(jobs, workloads.grid_jobs(7, profiles, count=64))
        self.assertNotEqual(jobs, workloads.grid_jobs(8, profiles, count=64))

    def test_prose_port_jobs_repeat_per_seed(self):
        s = self.session
        jobs = workloads.prose_port_jobs(7, s.profiles, s.tset, count=48)
        self.assertEqual(jobs, workloads.prose_port_jobs(7, s.profiles, s.tset, count=48))
        self.assertNotEqual(jobs, workloads.prose_port_jobs(8, s.profiles, s.tset, count=48))
        self.assertEqual({j.kind for j in jobs}, {"prose", "port"})

    def test_cli_mix_repeats_per_seed(self):
        jobs = workloads.cli_mix(7, "a.sh", "b.sh")
        self.assertEqual(jobs, workloads.cli_mix(7, "a.sh", "b.sh"))
        self.assertNotEqual(jobs, workloads.cli_mix(8, "a.sh", "b.sh"))
        kinds = {j.expect.kind for j in jobs}
        self.assertEqual(kinds, {"exit0", "exit1", "exit2"})

    def test_every_seed_gets_the_same_mix(self):
        profiles = self.session.profiles

        def nodes(seed):
            return sorted(j.data["spec"].nodes for j in workloads.grid_jobs(seed, profiles,
                                                                            count=720))

        self.assertEqual(nodes(1), nodes(2))
        for seed in (1, 2):
            draw = workloads.Draw(random.Random(seed))
            self.assertEqual(sum(draw.share("inject", 0.3) for _ in range(100)), 30)
            self.assertEqual(sorted(draw.deal("n", range(4)) for _ in range(8)),
                             [0, 0, 1, 1, 2, 2, 3, 3])

    def test_number_words(self):
        self.assertEqual(workloads.number_word(7), "seven")
        self.assertEqual(workloads.number_word(21, " "), "twenty one")
        self.assertEqual(workloads.number_word(64), "sixty-four")


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.session = workloads.Session()
        jobs = workloads.grid_jobs(3, cls.session.profiles, count=256)
        # A multi-node deltaai job: its repair must leave an export behind.
        cls.job = next(j for j in jobs if j.expect.kind == "success"
                       and "ENV_NOT_PROPAGATED" in j.expect.faults)
        spec, result = cls.session.run_grid(cls.job)
        cls.out = workloads.to_outcome(cls.job, spec, result)

    def test_correct_output_passes(self):
        self.assertEqual(check(self.job.expect, self.out), [])

    def test_corrupted_script_is_flagged(self):
        entry = self.job.expect.fields["entry_script"]
        wrong_entry = Outcome(**dict(vars(self.out), script=self.out.script.replace(
            entry, "other.py")))
        self.assertTrue(any("entry_script" in p for p in check(self.job.expect, wrong_entry)))
        unrepaired = Outcome(**dict(vars(self.out), script=self.out.script.replace(
            "export PYTHONPATH=$PYTHONPATH; ", "")))
        self.assertTrue(any("ENV_NOT_PROPAGATED" in p for p in check(self.job.expect, unrepaired)))

    def test_wrong_expected_field_is_flagged(self):
        fields = dict(self.job.expect.fields, nodes=self.job.expect.fields["nodes"] + 1)
        wrong = Expected("success", fields, self.job.expect.faults)
        self.assertTrue(any("nodes" in p for p in check(wrong, self.out)))

    def test_wrong_outcome_kind_is_flagged(self):
        self.assertNotEqual(check(Expected("unresolved"), self.out), [])

    def test_golden_mismatch_is_flagged(self):
        expect = Expected("exit0", reference.GOLDEN_FIELDS["aurora"],
                          golden=reference.POLARIS_COMMAND)
        good = Outcome("exit0", reference.POLARIS_COMMAND)
        self.assertEqual(check(expect, good), [])
        bad = Outcome("exit0", reference.POLARIS_COMMAND.replace("-ppn 4", "-ppn 4 -v"))
        self.assertIn("script differs from the golden command", check(expect, bad))

    def test_digest_repeats(self):
        jobs = workloads.prose_port_jobs(5, self.session.profiles, self.session.tset, count=24)
        first, second = run.Tally(), run.Tally()
        run.first_pass(self.session, jobs, first)
        run.first_pass(self.session, jobs, second)
        self.assertEqual(first.failed, 0, first.failures)
        self.assertEqual(first.digest.hexdigest(), second.digest.hexdigest())


class ScaleTest(unittest.TestCase):
    def test_chunks_are_scaled_by_their_factor(self):
        timings = run.Timings()
        timings.raw.extend([1_000_000, 3_000_000])
        timings.add_chunk(0, 5_000_000, 2.0)
        timings.raw.append(2_000_000)
        timings.add_chunk(2, 2_000_000, 0.5)
        self.assertEqual(list(timings.scaled), [2e6, 6e6, 1e6])
        self.assertEqual(timings.busy_scaled, 11e6)
        self.assertEqual(timings.metrics(1, 2)["jobs_per_s"][0], 3 * 1e9 / 11e6)
        self.assertEqual(timings.metrics(1, 2, scaled=False)["job_p50_ms"][0], 2.0)

    def test_factor_is_reference_over_bracketing_slices(self):
        scale = speed.Scale()
        before = scale._last
        factor = scale.factor()
        self.assertAlmostEqual(factor, 2 * speed.REFERENCE_NS / (before + scale.slices[-1]))


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda: sum(range(20000)))
        outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
        tracer.job = 0
        outer()
        spans = {s[0]: s for s in tracer.spans}
        name, start, end, parent, job, own = spans["outer"]
        children = [s for s in tracer.spans if s[0] == "inner"]
        self.assertEqual(len(children), 3)
        self.assertTrue(all(s[3] == tracer.spans.index(spans["outer"]) for s in children))
        self.assertEqual(own, end - start - sum(s[2] - s[1] for s in children))
        self.assertEqual(job, 0)

    def test_install_wraps_every_lookup_site_and_uninstall_restores(self):
        from launchport import pipeline, repair

        original = repair.run_loop
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(repair.run_loop, original)
            self.assertIs(pipeline.run_loop, repair.run_loop)
            self.assertIs(lp.run_loop, repair.run_loop)
        finally:
            tracer.uninstall()
        self.assertIs(repair.run_loop, original)
        self.assertIs(pipeline.run_loop, original)

    def test_import_times_parse(self):
        text = ("import time: self [us] | cumulative | imported package\n"
                "import time:      4661 |      30443 |     launchport.intent\n"
                "import time:      7219 |     127759 | launchport.cli\n")
        self.assertEqual(tracing.import_times_ms(text),
                         {"launchport.intent": 30.443, "launchport.cli": 127.759})


class LayerSplitTest(unittest.TestCase):
    """grid-repair makes no loader calls; prose-port makes more than one per job."""

    def traced_calls_per_job(self, jobs) -> float:
        session = workloads.Session()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for i, job in enumerate(jobs):
                tracer.job = i
                session.runner[job.kind](job)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer, len(jobs))
        return sum(metrics[f"{name}.calls_per_job"][0] for name in tracing.LOADERS)

    def test_loader_calls(self):
        session = workloads.Session()
        grid = workloads.grid_jobs(1, session.profiles, count=36)
        prose = workloads.prose_port_jobs(1, session.profiles, session.tset, count=36)
        self.assertEqual(self.traced_calls_per_job(grid), 0)
        self.assertGreater(self.traced_calls_per_job(prose), 1)


class KnownDefectTest(unittest.TestCase):
    @unittest.expectedFailure
    def test_entry_flag_with_directory(self):
        # The prose pattern "entry script ..." matches across "--entry scripts/",
        # so the workloads write "--entry" only before bare file names.
        partial = lp.extract("Train ViT with PyTorch DDP on Delta, --entry scripts/finetune.py")
        self.assertEqual(partial.entry_script, "scripts/finetune.py")


if __name__ == "__main__":
    unittest.main()
