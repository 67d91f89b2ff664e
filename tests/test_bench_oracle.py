"""The benchmark's independent oracle holds on drawn benchmark jobs.

``perfbench/reference.py`` derives every job's expected outcome from the
docs alone, and ``perfbench/workloads.py`` builds the seeded jobs; the bench
checks each job it times.  Here a few drawn seeds and job indices run in
process, so tier-1 checks the same expectations without running the bench.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import reference  # noqa: E402
import workloads  # noqa: E402

# Any seed names a job pool; job indices stay small, because every job of a
# seed up to the drawn one is generated.
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.fixture(scope="module")
def session():
    return workloads.Session()


def _check(session, job):
    spec, result = session.runner[job.kind](job)
    assert reference.check(job.expect, workloads.to_outcome(job, spec, result)) == []


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, index=st.integers(min_value=0, max_value=71))
def test_grid_repair_jobs_meet_the_reference(session, seed, index):
    jobs = workloads.grid_jobs(seed, session.profiles, count=index + 1)
    _check(session, jobs[index])


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, index=st.integers(min_value=0, max_value=71))
def test_prose_port_jobs_meet_the_reference(session, seed, index):
    jobs = workloads.prose_port_jobs(seed, session.profiles, session.tset, count=index + 1)
    _check(session, jobs[index])
