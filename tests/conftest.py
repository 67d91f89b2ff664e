import pytest
from hypothesis import find, settings, strategies as st

from launchport.clusters import default_profiles
from launchport.intent import JobSpec
from launchport.errors import LaunchportError
from launchport.repair import default_fingerprints, default_repair_table
from launchport.retrieval import candidates
from launchport.simcluster import default_fault_rules
from launchport.templates import PLACEHOLDER_RE, default_templates
from launchport.types import Framework, Launcher, Strategy

TABLE_DESCRIPTION = (
    "I want to train ViT using torchrun with 8 GPUs across 2 compute nodes on {cluster}, "
    "my training file is run_image_classification.py and my training arguments is ..."
)

PERLMUTTER_COMMAND = (
    "srun -N 2 -n 8 bash -c 'torchrun --nnodes=2 --nproc_per_node=4 "
    "--node_rank=$SLURM_PROCID --master_addr=$MASTER_ADDR --master_port=29400 "
    "run_image_classification.py ...'"
)

POLARIS_COMMAND = (
    "sort -u $PBS_NODEFILE > hostfiles.txt && mpiexec -n 8 -ppn 4 "
    "-hostfile hostfiles.txt -genv MASTER_ADDR $(head -n 1 hostfiles.txt) "
    "-genv MASTER_PORT 29500 python -u run_image_classification.py ..."
)

# The four strategy columns of the cross-platform verification grid.
MATRIX_COMBOS = {
    "ddp": (Framework.PYTORCH, Strategy.DDP),
    "fsdp": (Framework.PYTORCH, Strategy.FSDP),
    "zero3": (Framework.DEEPSPEED, Strategy.ZERO3),
    "acc-ddp": (Framework.ACCELERATE, Strategy.DDP),
}

# Scenario per clearable bundled fault rule (acceptance criterion 3, golden pipeline corpus).
FAULT_CORPUS = {
    "ENV_NOT_PROPAGATED": ("deltaai", Framework.PYTORCH, Strategy.DDP, {}),
    "DRIVER_LIB_MISMATCH": ("stampede3", Framework.PYTORCH, Strategy.DDP, {}),
    "SYCL_COMPILER_CONFLICT": ("aurora", Framework.PYTORCH, Strategy.DDP,
                               {"train_args": "--use-ipex"}),
    "GCC_CUDA_MISMATCH": ("perlmutter", Framework.DEEPSPEED, Strategy.ZERO3, {}),
    "XPU_SCRIPT_UNSUPPORTED": ("stampede3", Framework.PYTORCH, Strategy.DDP,
                               {"nodes": 1, "entry_script": "official_examples/run_clm.py"}),
    "MISSING_DATASET_ARG": ("lonestar6", Framework.PYTORCH, Strategy.DDP,
                            {"entry_script": "run_glue.py"}),
    "HF_AUTH_MISSING": ("anvil", Framework.PYTORCH, Strategy.DDP,
                        {"entry_script": "train_llama.py",
                         "train_args": "--model meta-llama/Llama-3.1-8B"}),
    "BAD_CONFIG_PATH": ("delta", Framework.DEEPSPEED, Strategy.ZERO3,
                        {"deepspeed_config": "/nonexistent/ds_config.json"}),
}


# A long run of every property, chosen with --hypothesis-profile=deep (README
# "Tests"); the default run never loads it.
settings.register_profile("deep", max_examples=20000)


@pytest.hookimpl(trylast=True)  # after hypothesis' plugin ends its initialization phase
def pytest_sessionstart(session):
    # Build hypothesis' Unicode tables before any test runs.  Without a
    # .hypothesis/ cache the first test to draw text pays for the build, and
    # the too_slow health check fails it.
    find(st.text(min_size=1), lambda s: True)


@pytest.fixture(scope="session")
def profiles():
    return default_profiles()


@pytest.fixture(scope="session")
def templates():
    return default_templates()


@pytest.fixture(scope="session")
def fault_rules():
    return default_fault_rules()


@pytest.fixture(scope="session")
def fingerprints():
    return default_fingerprints()


@pytest.fixture(scope="session")
def repair_table():
    return default_repair_table()




def placeholders(body):
    """The placeholder names in ``body``, deduplicated, in first-occurrence order."""
    return list(dict.fromkeys(PLACEHOLDER_RE.split(body)[1::2]))


def make_spec(profile, framework, strategy, launcher=None, **overrides):
    """A profile-legal JobSpec for tests; launcher follows the framework."""
    if launcher is None:
        launcher = {
            Framework.PYTORCH: profile.default_launcher,
            Framework.DEEPSPEED: Launcher.DEEPSPEED,
            Framework.ACCELERATE: Launcher.ACCELERATE,
        }[framework]
    fields = dict(
        cluster=profile.id,
        framework=framework,
        strategy=strategy,
        launcher=launcher,
        nodes=2,
        gpus_per_node=profile.gpus_per_node,
        entry_script="train_gpt2.py",
    )
    if framework is Framework.DEEPSPEED:
        fields["deepspeed_config"] = "ds_config.json"
    fields.update(overrides)
    return JobSpec(**fields)


def first_bindable(spec, tset):
    """The best-ranked template that belongs to the job's cluster.

    Drives the loop directly, without the pipeline's candidate sweep;
    raises :class:`LaunchportError` when no template serves the cluster.
    """
    for candidate in candidates(spec, tset):
        template = tset.get(candidate.template_id)
        if template.cluster == spec.cluster:
            return template
    raise LaunchportError(f"no template can serve cluster '{spec.cluster}'")


def matrix_specs(profiles):
    """All 36 (cell name, spec, profile) entries of the verification grid."""
    cells = []
    for profile in sorted(profiles, key=lambda p: p.id):
        for combo, (framework, strategy) in MATRIX_COMBOS.items():
            cells.append((f"{profile.id}/{combo}", make_spec(profile, framework, strategy), profile))
    return cells


def _unresolvable_cells(profiles, rules):
    """The (cluster, combo) grid cells on which a fault rule that no repair clears
    fires whatever the script says: the cell's cluster admits the rule, the rule
    reads no script text, and the cell's spec meets its strategy, launcher and
    node-count triggers."""
    unclearable = set(rules.unresolvable_ids())
    cells = set()
    for name, spec, profile in matrix_specs(profiles):
        for rule, strategies, launchers, nodes_gt, contains, lacks, _ in rules.checks_for(
                profile.id):
            if (rule.id in unclearable and not contains and not lacks
                    and (strategies is None or spec.strategy in strategies)
                    and (launchers is None or spec.launcher in launchers)
                    and (nodes_gt is None or spec.nodes > nodes_gt)):
                cells.add(tuple(name.split("/")))
    return cells


UNRESOLVABLE_CELLS = _unresolvable_cells(default_profiles(), default_fault_rules())


def pipeline_cases(profiles):
    """(name, spec, profile) per grid cell, then per fault-corpus scenario."""
    cases = matrix_specs(profiles)
    for rule_id, (cluster, framework, strategy, overrides) in FAULT_CORPUS.items():
        profile = profiles.resolve(cluster)
        cases.append((f"fault/{rule_id}", make_spec(profile, framework, strategy, **overrides),
                      profile))
    return cases
