"""Small argument-validation helpers.

These raise :class:`repro.errors.ConfigurationError` with uniform messages so
misconfiguration is caught at construction time rather than deep inside a
query loop.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError


def check_positive(value: float, name: str) -> float:
    """Require ``value > 0``; return it."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Require ``value >= 0``; return it."""
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value!r}")
    return value


def check_positive_int(value: Any, name: str) -> int:
    """Require an integral value > 0; return it as ``int``."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return int(value)


def check_fraction(value: float, name: str, *, inclusive_low: bool = True,
                   inclusive_high: bool = True) -> float:
    """Require ``value`` in [0, 1] (bounds optionally exclusive); return it."""
    low_ok = value >= 0 if inclusive_low else value > 0
    high_ok = value <= 1 if inclusive_high else value < 1
    if not (low_ok and high_ok):
        raise ConfigurationError(f"{name} must lie in the unit interval, got {value!r}")
    return value


def check_scores(scores: Iterable[float]) -> None:
    """Require every opaque-UDF score to be a finite non-negative float.

    A NaN that enters the top-k buffer before it fills is never evicted and
    ``+inf`` builds NaN histogram edges.  Takes Python floats (the callers
    already hold them): two comparisons per score and no numpy call.
    """
    for score in scores:
        if not 0.0 <= score < math.inf:
            raise ConfigurationError(
                "opaque scores must be finite and non-negative, "
                f"got {score!r}")


def check_finite_features(features: np.ndarray, ids: Sequence[Any]) -> None:
    """Require every feature of every row to be finite.

    One NaN or inf turns the k-means++ sampling weights into NaN: the
    index build — or, on a live table, the next churn rebuild — dies far
    from the write that let the row in.  Names the first offending id.
    """
    finite = np.isfinite(features)
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise ConfigurationError(
            f"features must be finite, element {ids[row]!r} has "
            f"{features[row].tolist()}")
