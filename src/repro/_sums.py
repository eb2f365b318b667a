"""Left-to-right float summation, the same bytes on every interpreter.

Python 3.12 changed the built-in :func:`sum` over floats to compensated
(Neumaier) summation, so ``sum(values)`` gives different bytes on 3.12 than
on 3.10 and 3.11 for most lists of non-representable floats.  The committed
engine digests, the service golden responses and the campaign cache all pin
the bytes of sums, so every sum that reaches an output goes through
:func:`left_sum`: ``((0.0 + x1) + x2) + ...``, the exact order and rounding
of 3.11's ``sum`` of floats.  Loops that accumulate with ``+=`` in record
order (:func:`repro.core.metrics.evaluate`) compute the same fold inline.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["left_sum"]


def left_sum(values: Iterable[float]) -> float:
    """``((0.0 + x1) + x2) + ...``: plain IEEE additions in iteration order."""
    total = 0.0
    for value in values:
        total += value
    return total
