"""Exception hierarchy for the package.

Every error raised by this package derives from :class:`LaunchportError` so
callers (notably the CLI) can map failures onto exit codes in one place.
"""

from __future__ import annotations


class LaunchportError(Exception):
    """Base class for all package errors."""


class ProfileParseError(LaunchportError):
    """A cluster profile document is malformed.

    Carries the offending record index and field where known.
    """

    def __init__(self, message: str, *, record: int | None = None, field: str | None = None):
        self.record = record
        self.field = field
        where = []
        if record is not None:
            where.append(f"record {record}")
        if field is not None:
            where.append(f"field '{field}'")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{message}{suffix}")


class RegistryConflictError(LaunchportError):
    """Two profiles claim the same id or alias."""

    def __init__(self, name: str, first: str, second: str):
        self.name = name
        self.first = first
        self.second = second
        super().__init__(
            f"registry conflict: '{name}' is claimed by both '{first}' and '{second}'"
        )


class UnknownClusterError(LaunchportError):
    """A cluster name did not resolve against the registry."""

    def __init__(self, name: str, valid_ids: list[str]):
        self.name = name
        self.valid_ids = list(valid_ids)
        super().__init__(
            f"unknown cluster '{name}'; valid ids: {', '.join(sorted(valid_ids))}"
        )


class IncompleteSpecError(LaunchportError):
    """Required job fields are missing and cannot be derived."""

    def __init__(self, missing: list[str]):
        self.missing = list(missing)
        super().__init__(f"incomplete job description; missing: {', '.join(missing)}")


class InconsistentTopologyError(LaunchportError):
    """Counts in the job description contradict each other or exceed the node limit."""


class CapacityError(LaunchportError):
    """Requested per-node GPU count exceeds what the cluster offers.

    ``suggestions`` holds alternative (nodes, gpus_per_node) splits that
    preserve the requested world size, nearest split first; one GPU per node
    always fits, so there is at least one.
    """

    def __init__(self, message: str, *, limit: int, suggestions: list[tuple[int, int]]):
        self.limit = limit
        self.suggestions = suggestions
        rendered = " or ".join(f"nodes={n} x gpus_per_node={g}" for n, g in suggestions)
        super().__init__(f"{message}; try {rendered}")


class TemplateInvalidError(LaunchportError):
    """A template violates the repository invariants."""

    def __init__(self, template_id: str, message: str, *, field: str | None = None):
        self.template_id = template_id
        self.field = field
        super().__init__(f"template '{template_id}': {message}")


class TemplateConflictError(LaunchportError):
    """Two templates share the same (cluster, framework, strategy, launcher) key."""

    def __init__(self, key: tuple, first: str, second: str):
        self.key = key
        super().__init__(
            f"template key conflict on {key}: '{first}' vs '{second}'"
        )


class UnboundParameterError(LaunchportError):
    """A required template parameter has no value."""

    def __init__(self, param: str, template_id: str | None = None):
        self.param = param
        self.template_id = template_id
        where = f" in template '{template_id}'" if template_id else ""
        super().__init__(f"parameter '{param}'{where} cannot be bound")


class NoCandidatesError(LaunchportError):
    """Retrieval was asked to rank an empty template set."""


class RuleParseError(LaunchportError):
    """A fault rule, fingerprint or repair table document is malformed."""

    def __init__(self, message: str, *, index: int | None = None, field: str | None = None):
        self.index = index
        self.field = field
        suffix = f" (rule index {index})" if index is not None else ""
        super().__init__(f"{message}{suffix}")


class NoRepairAvailableError(LaunchportError):
    """A repair action cannot be applied to this job: it names a template the
    set lacks, a field ``set_param`` does not set (only ``deepspeed_config``
    and ``master_port``), or a ``master_port`` that breaks the port rule."""


class UsageError(LaunchportError):
    """A command-line flag, an answer or a job field has an invalid value."""


class ContractViolationError(LaunchportError):
    """An operation was called outside its contract (caller bug)."""


class BridgeError(LaunchportError):
    """Base for remote-bridge failures."""


class BridgeDisabledError(BridgeError):
    """The requested capability is not enabled in the bridge config."""


class BridgeUnavailableError(BridgeError):
    """The remote endpoint could not be reached; callers should fall back."""


class BridgeProtocolError(BridgeError):
    """The remote endpoint answered with an unusable response."""
