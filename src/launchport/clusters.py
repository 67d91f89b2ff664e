"""Cluster profile registry.

A :class:`ClusterProfile` captures the per-machine facts that make launch
scripts non-portable: which scheduler runs the cluster, which launcher its
users reach for, how many GPUs a node carries, and whether the scheduler
exports the submitting shell's environment to all allocated nodes.

Profiles are data, not code.  The default bundle (``data/clusters.json``)
ships nine production machines; new clusters are added by editing the JSON
document, never by touching this module.  A loaded :class:`ProfileSet` is
immutable and safe to share between threads, so the default set is parsed
once per process and shared.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Iterator

from .documents import BOOL, INT, OPTIONAL, REQUIRED, STRINGS, TEXT, bundled, check_record
from .documents import load_json
from .errors import ProfileParseError, RegistryConflictError, UnknownClusterError
from .types import FrozenRecord, Launcher, Scheduler, set_frozen

# Above every real node (the bundled maximum is 8); it keeps the capacity
# suggestions of ``intent.finalize``, linear in this limit, cheap.
MAX_GPUS_PER_NODE = 1024


class ClusterProfile(FrozenRecord):
    """Immutable description of one cluster."""

    __slots__ = ("id", "aliases", "scheduler", "default_launcher", "gpus_per_node", "gpu_type",
                 "env_propagation")

    def __init__(
        self,
        id: str,
        aliases: tuple[str, ...],
        scheduler: Scheduler,
        default_launcher: Launcher,
        gpus_per_node: int,
        gpu_type: str,
        env_propagation: bool,
    ) -> None:
        if gpus_per_node < 1:
            raise ProfileParseError(
                f"gpus_per_node must be >= 1, got {gpus_per_node}", field="gpus_per_node"
            )
        if gpus_per_node > MAX_GPUS_PER_NODE:
            raise ProfileParseError(
                f"gpus_per_node must be <= {MAX_GPUS_PER_NODE}, got {gpus_per_node}",
                field="gpus_per_node",
            )
        set_frozen(self, "id", id)
        set_frozen(self, "aliases", aliases)
        set_frozen(self, "scheduler", scheduler)
        set_frozen(self, "default_launcher", default_launcher)
        set_frozen(self, "gpus_per_node", gpus_per_node)
        set_frozen(self, "gpu_type", gpu_type)
        set_frozen(self, "env_propagation", env_propagation)


class ProfileSet:
    """Read-only collection of profiles keyed by id, resolvable by alias."""

    def __init__(self, profiles: list[ClusterProfile]):
        by_id: dict[str, ClusterProfile] = {}
        by_name: dict[str, ClusterProfile] = {}
        for profile in profiles:
            for name in (profile.id, *profile.aliases):
                key = name.lower()
                if key in by_name:
                    raise RegistryConflictError(name, by_name[key].id, profile.id)
                by_name[key] = profile
            by_id[profile.id] = profile
        self._by_id = by_id
        self._by_name = by_name

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[ClusterProfile]:
        return iter(self._by_id.values())

    def __contains__(self, cluster_id: str) -> bool:
        return cluster_id in self._by_id

    def ids(self) -> list[str]:
        return list(self._by_id)

    def names(self) -> dict[str, str]:
        """Every id and alias, lowercased, mapped to its profile's id."""
        return {name: profile.id for name, profile in self._by_name.items()}

    def resolve(self, name: str) -> ClusterProfile:
        """Return the profile whose id or alias matches ``name``.

        Matching is case-insensitive and exact; prefixes are not completed.
        Raises :class:`UnknownClusterError` listing the valid ids otherwise.
        """
        profile = self._by_name.get(name.strip().lower())
        if profile is None:
            raise UnknownClusterError(name, self.ids())
        return profile


# The parameters of ClusterProfile, so a checked record builds one.
_PROFILE_FIELDS = {
    "id": (TEXT, REQUIRED), "aliases": (STRINGS, OPTIONAL),
    "scheduler": (tuple(Scheduler), REQUIRED), "default_launcher": (tuple(Launcher), REQUIRED),
    "gpus_per_node": (INT, REQUIRED), "gpu_type": (TEXT, REQUIRED),
    "env_propagation": (BOOL, REQUIRED),
}


def _parse_record(record: object, index: int) -> ClusterProfile:
    check_record(record, _PROFILE_FIELDS, "profile record",
                 functools.partial(ProfileParseError, record=index))
    return ClusterProfile(**{
        **record,
        "id": record["id"].lower(),
        "aliases": tuple(a.lower() for a in record.get("aliases", ())),
        "scheduler": Scheduler(record["scheduler"]),
        "default_launcher": Launcher(record["default_launcher"]),
    })


def load_profiles(source: Path | str) -> ProfileSet:
    """Load a profile document (JSON array of profile records).

    ``source`` is a path or the JSON text itself; see :mod:`launchport.documents`.
    """
    records = load_json(source, list, "profile document", ProfileParseError)
    return ProfileSet([_parse_record(rec, i) for i, rec in enumerate(records)])


@functools.cache
def default_profiles() -> ProfileSet:
    """The bundled nine-cluster profile set, parsed once per process."""
    return load_profiles(bundled("clusters.json"))
