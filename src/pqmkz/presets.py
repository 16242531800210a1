"""Built-in function corpus.

sup hints are exact bounds on [0,1]: the cubic attains its largest magnitude
1/8 at x = 0.
"""

from __future__ import annotations

import numpy as np

from .engine import Function

__all__ = ["ONE", "IDENTITY", "SQUARE", "PAPER_CUBIC", "ABS_HALF", "builtin"]


def _cubic(ts):
    return (ts - 1.0 / 3.0) * (ts - 0.5) * (ts - 0.75)


ONE = Function(np.ones_like, "one", 1.0)
IDENTITY = Function(lambda ts: ts, "identity", 1.0)
SQUARE = Function(lambda ts: ts * ts, "square", 1.0)
PAPER_CUBIC = Function(_cubic, "paper_cubic", 0.125)
ABS_HALF = Function(lambda ts: np.abs(ts - 0.5), "abs_half", 0.5)

_BY_NAME = {
    f.label: f for f in (ONE, IDENTITY, SQUARE, PAPER_CUBIC, ABS_HALF)
}


def builtin(name: str) -> Function | None:
    return _BY_NAME.get(name)
