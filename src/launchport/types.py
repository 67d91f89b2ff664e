"""Shared vocabulary used across the package.

These enums are the closed sets of schedulers, launchers, frameworks, and
training strategies the toolkit understands.  They subclass ``str`` so values
serialize naturally to and from the JSON documents (profile bundle, template
repository, fault rules).

:class:`Record` and :class:`FrozenRecord` are the bases of the package's
value classes: plain slotted classes with a hand-written ``__init__``, so
defining one generates and compiles no code at import.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter

# Sets a field or slot of a FrozenRecord; only the record's own __init__ may
# call it, so a record never changes once built.
set_frozen = object.__setattr__


class Record:
    """A value class whose fields, two or more, are its ``__slots__`` not starting with ``_``.

    ``==`` compares the fields of two records of the same class, ``repr``
    reads ``Name(field=value, ...)`` and :meth:`replace` builds a copy
    through the constructor, so the constructor's checks run again.  The
    subclass's ``__init__`` takes the fields in slot order.  Mutable and
    unhashable; see :class:`FrozenRecord`.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        if fields:
            cls._fields = fields
            cls._values = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    def replace(self, **changes):
        """A copy with ``changes`` applied, built by the constructor."""
        fields = dict(zip(self._fields, self._values(self)))
        fields.update(changes)
        return self.__class__(**fields)


class FrozenRecord(Record):
    """A :class:`Record` whose fields cannot be assigned or deleted; hashable."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values(self))


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


# Failure taxonomy: where the cause of a fault lies.  Fingerprints and
# remote diagnoses must name one of these.
CATEGORY_ENV = "env"
CATEGORY_FRAMEWORK = "framework"
CATEGORY_USER = "user"
CATEGORIES = (CATEGORY_ENV, CATEGORY_FRAMEWORK, CATEGORY_USER)
# A failure that neither a fingerprint nor the remote bridge classified.
CATEGORY_UNKNOWN = "unknown"

# Each repair-action kind and the payload keys its action must carry.
# ``clearable_by`` in a fault rule names these kinds.
REPAIR_PAYLOAD_KEYS = {
    "export_env": ("name",),
    "add_module_load": ("module",),
    "pin_version": ("package", "version"),
    "prepend_line": ("line",),
    "add_arg": ("args",),
    "set_param": ("param", "value"),
    "switch_template": ("template_id",),
}

PORT_MIN = 1024
PORT_MAX = 65535
# Fallback rendezvous port when neither the user nor the selected template
# names one.  User-provided ports always win over any default.
DEFAULT_MASTER_PORT = 29500


def valid_port(value: object) -> int | None:
    """``value`` as a port: an int, or a text of at most five decimal digits, in
    [PORT_MIN, PORT_MAX]; else ``None``.  A longer text is never converted."""
    if value.__class__ is str:
        value = int(value) if len(value) <= 5 and value.isdecimal() else None
    return value if value.__class__ is int and PORT_MIN <= value <= PORT_MAX else None
