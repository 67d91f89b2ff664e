"""Hand-written expectations for benchmark jobs, and the checker behind `failed`.

Every expected outcome here is derived from launchport's documented
behaviour: the README and ``docs/formats.md``, the acceptance criteria in
``tests/test_acceptance.py`` and the bundled data files as a reader sees
them.  None of it is computed by running launchport.  The only launchport
code the checker calls is ``parse_script`` and ``derive``, to read a
generated script back (the render -> parse round trip the README promises).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from launchport.intent import derive, parse_script

CLUSTERS = (
    "anvil", "aurora", "bridges2", "delta", "deltaai",
    "lonestar6", "perlmutter", "stampede3", "vista",
)

GPUS_PER_NODE = {
    "anvil": 4, "aurora": 6, "bridges2": 8, "delta": 4, "deltaai": 4,
    "lonestar6": 3, "perlmutter": 4, "stampede3": 4, "vista": 1,
}

# Words a user may write for each cluster (ids and registry aliases).
CLUSTER_WORDS = {
    "anvil": ("Anvil", "anvil"),
    "aurora": ("Aurora", "Polaris"),
    "bridges2": ("Bridges-2", "Bridges2", "bridges 2"),
    "delta": ("Delta", "delta"),
    "deltaai": ("DeltaAI", "Delta-AI", "delta ai"),
    "lonestar6": ("Lonestar6", "LS6", "Lonestar-6", "lonestar 6"),
    "perlmutter": ("Perlmutter", "PERLMUTTER", "pm"),
    "stampede3": ("Stampede3", "Stampede-3", "stampede 3"),
    "vista": ("Vista", "vista"),
}

# The four strategy columns of the verification grid: (framework, strategy).
COMBOS = {
    "ddp": ("pytorch", "ddp"),
    "fsdp": ("pytorch", "fsdp"),
    "zero3": ("deepspeed", "zero3"),
    "acc-ddp": ("accelerate", "ddp"),
}

# The three grid cells that no script-level repair can fix (acceptance criterion 2).
UNRESOLVABLE = frozenset({("vista", "zero3"), ("deltaai", "zero3"), ("aurora", "acc-ddp")})

# Candidates tried per job (the pipeline and CLI default); an unresolved job uses all.
CANDIDATES_TRIED = 3

# A ported script keeps only its launcher: the launcher fixes the framework and
# the strategy falls back to the framework's default.
LAUNCHER_COMBO = {
    "torchrun": "ddp", "mpiexec": "ddp", "srun": "ddp",
    "deepspeed": "zero3", "accelerate": "acc-ddp",
}

GOLDEN_DESCRIPTION = (
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
# Fields of the two golden commands: 2 nodes x 4 GPUs, ports 29400 / 29500.
GOLDEN_FIELDS = {
    "perlmutter": dict(nodes=2, gpus_per_node=4, master_port=29400,
                       entry_script="run_image_classification.py"),
    "aurora": dict(nodes=2, gpus_per_node=4, master_port=29500,
                   entry_script="run_image_classification.py"),
}
# Porting the Perlmutter command to lonestar6 (3 GPUs per node) fails the
# capacity check and suggests world-preserving splits (acceptance criterion 6).
CAPACITY_SUGGESTIONS = ("nodes=4 x gpus_per_node=2", "nodes=8 x gpus_per_node=1")

# Inputs that arm a clearable fault rule of fault_rules.json.
HF_ARGS = "--model meta-llama/Llama-3.1-8B"
IPEX_ARGS = "--use-ipex"
XPU_ENTRY = "official_examples/run_clm.py"
GLUE_ENTRY = "run_glue.py"
BAD_DS_CONFIG = "/nonexistent/ds_config.json"

# What a successful repair of each fault leaves in the final script:
# (one of these must be present, this must be absent).
REPAIR_MARKS = {
    "ENV_NOT_PROPAGATED": (("export PYTHONPATH", "export LD_LIBRARY_PATH"), None),
    "DRIVER_LIB_MISMATCH": (("module load",), None),
    "SYCL_COMPILER_CONFLICT": (("module load",), None),
    "GCC_CUDA_MISMATCH": (("module load",), None),
    "XPU_SCRIPT_UNSUPPORTED": (("pytorch/nightly",), None),
    "MISSING_DATASET_ARG": (("--task_name",), None),
    "HF_AUTH_MISSING": (("HF_TOKEN",), None),
    "BAD_CONFIG_PATH": ((), "/nonexistent"),
}


def expected_faults(cluster: str, combo: str, nodes: int, entry: str,
                    train_args: str = "", deepspeed_config: str | None = None) -> tuple[str, ...]:
    """Clearable fault rules a resolvable job on ``cluster`` must hit and repair.

    Read off the triggers in fault_rules.json and the bundled template bodies:
    deltaai and stampede3 templates carry no exports or module loads, so any
    multi-node job there trips the environment or driver rule first.
    """
    faults = []
    if cluster == "deltaai" and nodes > 1:
        faults.append("ENV_NOT_PROPAGATED")
    if cluster == "stampede3" and nodes > 1:
        faults.append("DRIVER_LIB_MISMATCH")
    if cluster == "aurora" and "ipex" in train_args:
        faults.append("SYCL_COMPILER_CONFLICT")
    if cluster == "perlmutter" and combo == "zero3":
        faults.append("GCC_CUDA_MISMATCH")
    if cluster in ("stampede3", "aurora") and "official_examples" in entry:
        faults.append("XPU_SCRIPT_UNSUPPORTED")
    if cluster == "lonestar6" and GLUE_ENTRY in entry and "--task_name" not in train_args:
        faults.append("MISSING_DATASET_ARG")
    if "meta-llama" in train_args:
        faults.append("HF_AUTH_MISSING")
    if combo == "zero3" and deepspeed_config and "/nonexistent" in deepspeed_config:
        faults.append("BAD_CONFIG_PATH")
    return tuple(faults)


@dataclass(frozen=True)
class Expected:
    """What one job must produce.

    ``kind`` is ``success``, ``unresolved`` or ``capacity`` for in-process
    jobs and ``exit0`` / ``exit1`` / ``exit2`` for CLI processes.  ``fields``
    are the job values the input was built from; the finalized spec (when the
    job has one) and the read-back of a successful script must match them.
    """

    kind: str
    fields: dict = field(default_factory=dict)
    faults: tuple[str, ...] = ()
    golden: str | None = None
    stderr_needles: tuple[str, ...] = ()


@dataclass
class Outcome:
    """What one job produced, reduced to what the checker and digest need.

    ``faults`` lists the fault rules that fired in the verify/debug loops; it
    is None for CLI processes, whose loop history is not visible.
    """

    kind: str
    script: str | None = None
    faults: tuple[str, ...] | None = None
    attempts: int = 0
    spec: dict | None = None
    stderr: str = ""

    def digest_line(self, index: int) -> str:
        return f"{index}\t{self.kind}\t{self.script or ''}\n"


ROUND_TRIP_FIELDS = ("nodes", "gpus_per_node", "master_port", "entry_script")


def read_back(script: str) -> dict:
    """Job fields recovered from a launch script by launchport's own parser."""
    parsed = derive(parse_script(script))
    return {name: getattr(parsed, name) for name in ROUND_TRIP_FIELDS}


def check(expect: Expected, out: Outcome) -> list[str]:
    """Every way ``out`` differs from ``expect``; empty when the job is correct."""
    problems = []
    if out.kind != expect.kind:
        return [f"outcome {out.kind!r}, expected {expect.kind!r}"]
    if out.spec is not None:
        for name, value in expect.fields.items():
            if name in out.spec and out.spec[name] != value:
                problems.append(f"spec {name}={out.spec[name]!r}, expected {value!r}")
    if expect.kind == "unresolved" and out.attempts != CANDIDATES_TRIED:
        problems.append(f"unresolved after {out.attempts} attempts, expected {CANDIDATES_TRIED}")
    for needle in expect.stderr_needles:
        if needle not in out.stderr:
            problems.append(f"stderr lacks {needle!r}")
    if expect.kind not in ("success", "exit0"):
        return problems
    if not out.script:
        return problems + ["no script"]
    if expect.golden is not None and out.script.split() != expect.golden.split():
        problems.append("script differs from the golden command")
    recovered = read_back(out.script)
    for name in ROUND_TRIP_FIELDS:
        if name in expect.fields and recovered[name] != expect.fields[name]:
            problems.append(
                f"round trip {name}={recovered[name]!r}, expected {expect.fields[name]!r}"
            )
    for fault in expect.faults:
        if out.faults is not None and fault not in out.faults:
            problems.append(f"fault {fault} never fired")
        present, absent = REPAIR_MARKS[fault]
        if present and not any(mark in out.script for mark in present):
            problems.append(f"repair of {fault} left no {present[0]!r}")
        if absent is not None and absent in out.script:
            problems.append(f"repair of {fault} left {absent!r}")
    return problems
