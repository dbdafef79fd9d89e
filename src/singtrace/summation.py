"""Compensated (Neumaier) summation primitives.

Every partial sum in the library is accumulated through these helpers in
a fixed ascending index order, which makes repeated evaluations bitwise
reproducible regardless of caching or thread count.
"""

from __future__ import annotations


class NeumaierSum:
    """Running Neumaier-compensated sum.

    The pair (partial, carry) is the full accumulator state: a sum can be
    checkpointed and resumed later without changing any subsequent result.
    """

    __slots__ = ("partial", "carry")

    def __init__(self, partial: float = 0.0, carry: float = 0.0):
        self.partial = partial
        self.carry = carry

    def add(self, x: float) -> None:
        s = self.partial
        t = s + x
        if abs(s) >= abs(x):
            self.carry += (s - t) + x
        else:
            self.carry += (x - t) + s
        self.partial = t

    @property
    def value(self) -> float:
        return self.partial + self.carry


def neumaier_sum(values) -> float:
    acc = NeumaierSum()
    for v in values:
        acc.add(v)
    return acc.value


def neumaier_mean(values) -> float:
    acc = NeumaierSum()
    count = 0
    for v in values:
        acc.add(v)
        count += 1
    if count == 0:
        raise ValueError("mean of an empty sample")
    return acc.value / count


def running_means(values) -> list:
    """Prefix means c_j = (x_1 + ... + x_j) / j of an iterable."""
    acc = NeumaierSum()
    out = []
    for j, v in enumerate(values, start=1):
        acc.add(v)
        out.append(acc.value / j)
    return out


def oscillation_of_tail(series, window: int) -> float:
    """max - min of the final quarter of ``series`` (at least one point)."""
    if not series:
        return 0.0
    q = max(1, window // 4)
    tail = series[-q:]
    return max(tail) - min(tail)
