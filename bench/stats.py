"""Small statistics shared by the workloads and the result line."""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def kish_ess(n: float, mean: float, stderr: float) -> float:
    """Kish effective sample size of a weighted-mean estimate.

    For ``n`` weights with mean ``mean`` and standard error ``stderr`` of the
    mean, the population second moment is ``mean**2 + n * stderr**2``, so
    ``(sum w)**2 / sum w**2 = n * mean**2 / (mean**2 + n * stderr**2)``.  A
    zero-variance estimate has ESS ``n``; an all-zero one has ESS 0.
    """
    second = mean * mean + n * stderr * stderr
    if second == 0.0:
        return 0.0
    return n * mean * mean / second


def geomean(values: Iterable[float]) -> float:
    vals = [float(v) for v in values]
    if not vals or any(v <= 0 for v in vals):
        return 0.0
    return math.exp(math.fsum(math.log(v) for v in vals) / len(vals))


def median(values: Sequence[float]) -> float:
    vals = sorted(values)
    k = len(vals)
    if k == 0:
        raise ValueError("median of nothing")
    mid = k // 2
    return vals[mid] if k % 2 else 0.5 * (vals[mid - 1] + vals[mid])
