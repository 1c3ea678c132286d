"""Exception hierarchy for the repro library.

Every error raised intentionally by this package derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid parameter or parameter combination was supplied."""


class ExhaustedError(ReproError):
    """A sampling source ran out of elements and cannot produce more."""


class IndexError_(ReproError):
    """The cluster index is malformed or inconsistent.

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`IndexError`.
    """


class SerializationError(ReproError):
    """A structure could not be serialized or deserialized."""


class NotFittedError(ReproError):
    """A model was used before :meth:`fit` was called."""


class QueryCancelledError(ReproError):
    """A running query was cancelled by its client or service.

    Raised inside the engines by the budget gate
    (:class:`repro.service.budget.QueryGrant`) at the next grant
    quantum after :meth:`~repro.service.budget.QueryGrant.cancel`, so a
    cancelled query unwinds through the normal error path — executors
    close their engines, shared-memory segments are unlinked, and the
    scheduler reclaims the query's unconsumed budget.
    """


class ReplayDivergenceError(ReproError):
    """A recorded arrival trace does not match the replayed execution.

    Raised by :mod:`repro.replay` when the coordinator's decisions during
    replay (submissions, caps, floors) or the shard outcomes diverge from
    what the trace recorded — almost always a sign that the dataset,
    scorer, seed, or engine configuration differs from the recorded run.
    """
