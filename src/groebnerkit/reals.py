"""Real-number inputs of the applications, and the rule they must meet.

Link lengths, targets and oscillator parameters arrive as ints,
Fractions or floats. Floats must be finite: an infinite or NaN value
has no exact rational counterpart and no meaningful sample.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Real = Union[int, float, Fraction]


def all_finite(*values: Real) -> bool:
    """No value is an infinite or NaN float. Only floats are tested:
    math.isfinite overflows on a Fraction too large for a float."""
    return all(math.isfinite(v) for v in values if isinstance(v, float))
