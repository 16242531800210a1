"""Built-in function corpus.

sup hints are exact bounds on [0,1]: the cubic attains its largest magnitude
1/8 at x = 0.
"""

from __future__ import annotations

import numpy as np

from .engine import Function

__all__ = ["ONE", "IDENTITY", "SQUARE", "PAPER_CUBIC", "ABS_HALF", "builtin"]


def _cubic(t):
    return (t - 1.0 / 3.0) * (t - 0.5) * (t - 0.75)


ONE = Function(lambda t: 1.0, "one", 1.0, lambda ts: np.ones_like(ts))
IDENTITY = Function(lambda t: t, "identity", 1.0, lambda ts: ts)
SQUARE = Function(lambda t: t * t, "square", 1.0, lambda ts: ts * ts)
PAPER_CUBIC = Function(_cubic, "paper_cubic", 0.125, _cubic)
ABS_HALF = Function(
    lambda t: abs(t - 0.5), "abs_half", 0.5, lambda ts: np.abs(ts - 0.5)
)

_BY_NAME = {
    f.label: f for f in (ONE, IDENTITY, SQUARE, PAPER_CUBIC, ABS_HALF)
}


def builtin(name: str) -> Function | None:
    return _BY_NAME.get(name)
