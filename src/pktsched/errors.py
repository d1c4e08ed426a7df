"""Exception types shared across the queue and scheduler modules."""


class PktschedError(Exception):
    pass


class RankRangeError(PktschedError):
    """Rank falls outside the fixed range a queue was built for."""


class QueueStateError(PktschedError):
    """An operation would corrupt internal queue state (e.g. double-mark)."""


class InvalidHandleError(QueueStateError):
    """A removal handle was already consumed or never belonged to this queue."""


class ConfigError(PktschedError):
    """Invalid policy-tree, workload, or benchmark configuration."""
