"""Shared vocabulary used across the package.

These enums are the closed sets of schedulers, launchers, frameworks, and
training strategies the toolkit understands.  They subclass ``str`` so values
serialize naturally to and from the JSON documents (profile bundle, template
repository, fault rules).
"""

from __future__ import annotations

from enum import Enum


class Scheduler(str, Enum):
    """Batch scheduler managing a cluster."""

    SLURM = "slurm"
    PBS = "pbs"


class Launcher(str, Enum):
    """Tool that spawns and coordinates the distributed worker processes."""

    TORCHRUN = "torchrun"
    MPIEXEC = "mpiexec"
    DEEPSPEED = "deepspeed"
    ACCELERATE = "accelerate"
    SRUN = "srun"


class Framework(str, Enum):
    """Deep-learning framework driving the training job."""

    PYTORCH = "pytorch"
    DEEPSPEED = "deepspeed"
    ACCELERATE = "accelerate"


class Strategy(str, Enum):
    """Parallel training strategy."""

    DDP = "ddp"
    FSDP = "fsdp"
    ZERO3 = "zero3"


class ModuleSystem(str, Enum):
    LMOD = "lmod"
    NONE = "none"


class PythonEnv(str, Enum):
    ANACONDA = "anaconda"
    VENV = "venv"
    NATIVE = "native"


# Failure taxonomy: where the cause of a fault lies.  Fault rules,
# fingerprints and remote diagnoses must name one of these.
CATEGORY_ENV = "env"
CATEGORY_FRAMEWORK = "framework"
CATEGORY_USER = "user"
CATEGORIES = (CATEGORY_ENV, CATEGORY_FRAMEWORK, CATEGORY_USER)

PORT_MIN = 1024
PORT_MAX = 65535

# Fallback rendezvous port when neither the user nor the selected template
# names one.  User-provided ports always win over any default.
DEFAULT_MASTER_PORT = 29500
