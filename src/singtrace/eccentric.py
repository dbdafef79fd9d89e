"""Eccentricity classification through the doubling-ratio trajectory.

A sequence is flagged "eccentric-within-horizon" when the ratio S_2n/S_n
comes within epsilon of 1 at some probed index n <= horizon.  A
"no-witness-found" verdict is horizon-qualified by construction: finitely
many terms can never disprove that 1 is a limit point of the trajectory,
so reports always carry the horizon, the tolerance and the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eigs import eig_sym_small
from .errors import DegenerateRatioError, IndexRangeError, ParameterError
from .seqcore import S_walk, SpectralSequence
from .summation import neumaier_sum

_REFINE_STEPS = (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75)
_WITNESS_K_CAP = 6


@dataclass(frozen=True)
class PkWitness:
    """Index p_k with |1 - S_2p/S_p| <= 1/k**2, plus the derived k-step bound."""

    k: int
    p: int
    deviation_2: float          # |1 - S_{2p}/S_p|
    deviation_k: float | None   # |1 - S_{kp}/S_p|; None past finite data
    derived_bound: float        # (k-1)/k**2
    bound_ok: bool | None


@dataclass
class EccentricityReport:
    horizon: int
    epsilon: float
    verdict: str                # "eccentric-within-horizon" | "no-witness-found"
    best_deviation: float
    best_n: int
    trajectory: list = field(default_factory=list)   # sorted (n, S_2n/S_n)
    witnesses: list = field(default_factory=list)    # PkWitness from probed points
    degenerate_points: list = field(default_factory=list)  # n where S_n == 0


@dataclass
class DominationReport:
    r: int
    horizon: int
    K_estimate: float
    bounded: bool


def _ratio_or_none(seq, n):
    # a probe point is unusable when S_n is exactly zero (underflowed
    # summable tail) or when 2n leaves the sequence's evaluable domain
    # (finite explicit data); both are data, not failures
    try:
        sn = seq.S(n)
        if sn == 0.0:
            return None
        return seq.S(2 * n) / sn
    except IndexRangeError:
        return None


def analyze_eccentricity(
    seq: SpectralSequence, horizon: int = 1 << 20, epsilon: float = 0.05
) -> EccentricityReport:
    """Probe S_2n/S_n on the dyadic grid up to ``horizon``.

    The dyadic pass is refined geometrically around the best index.  Probe
    points where S_n is exactly zero (possible for summable families whose
    integral sequence underflows) are recorded and skipped; the run only
    fails if every point degenerates.
    """
    if horizon < 8:
        raise ParameterError(f"horizon must be >= 8, got {horizon}")
    if not epsilon > 0.0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    seq.summability()  # raises UndeterminedSummabilityError early

    probes = [1 << j for j in range(horizon.bit_length()) if 1 << j <= horizon]
    seen: dict[int, float | None] = {}
    degenerate: list[int] = []

    def probe(n):
        if n not in seen:
            ratio = _ratio_or_none(seq, n)
            seen[n] = ratio
            if ratio is None:
                degenerate.append(n)
        return seen[n]

    for n in probes:
        probe(n)

    valid = [(n, r) for n, r in seen.items() if r is not None]
    if not valid:
        raise DegenerateRatioError(
            f"S_n = 0 at every probed index up to {horizon}; first at n = {degenerate[0]}"
        )
    best_n = min(valid, key=lambda item: abs(1.0 - item[1]))[0]
    for step in _REFINE_STEPS:
        cand = int(round(best_n * 2.0**step))
        if 1 <= cand <= horizon:
            probe(cand)

    valid = sorted((n, r) for n, r in seen.items() if r is not None)
    best_n, best_ratio = min(valid, key=lambda item: abs(1.0 - item[1]))
    best_dev = abs(1.0 - best_ratio)
    verdict = "eccentric-within-horizon" if best_dev <= epsilon else "no-witness-found"

    witnesses = []
    for k in range(2, _WITNESS_K_CAP + 1):
        threshold = 1.0 / (k * k)
        hits = [n for n, r in valid if abs(1.0 - r) <= threshold]
        if not hits:
            continue
        p = min(hits)
        witnesses.append(_make_witness(seq, k, p, abs(1.0 - seen[p])))

    return EccentricityReport(
        horizon=horizon,
        epsilon=epsilon,
        verdict=verdict,
        best_deviation=best_dev,
        best_n=best_n,
        trajectory=valid,
        witnesses=witnesses,
        degenerate_points=sorted(degenerate),
    )


def _make_witness(seq, k, p, dev2) -> PkWitness:
    """The witness p for k; S_p and S_2p define it, so when S_kp lies past
    the end of finite data the k-step check is None (unverifiable)."""
    sp, bound = seq.S(p), (k - 1) / (k * k)
    try:
        devk = abs(1.0 - seq.S(k * p) / sp)
    except IndexRangeError:
        devk = bound_ok = None
    else:
        bound_ok = devk <= bound + 1e-12
    return PkWitness(
        k=k, p=p, deviation_2=dev2, deviation_k=devk,
        derived_bound=bound, bound_ok=bound_ok,
    )


def extract_pk(seq, k_max: int, horizon: int) -> list:
    """Smallest p <= horizon with |1 - S_2p/S_p| <= 1/k**2, for k = 2..k_max.

    Returns one :class:`PkWitness` per k that has a witness; absent entries
    are data, not errors.  Each witness also carries the derived bound
    |1 - S_kp/S_p| <= (k-1)/k**2, re-checked independently (None where
    k*p lies past the end of finite data).  S_p and S_2p come from two
    ascending :func:`~singtrace.seqcore.S_walk` passes, so a direct-sum
    family is scanned in one pass over its terms with O(1) memory.
    ``seq`` only needs an ``S(n)`` method, so structural test doubles are
    accepted.
    """
    if k_max < 2:
        raise ParameterError(f"k_max must be >= 2, got {k_max}")
    if horizon < 8:
        raise ParameterError(f"horizon must be >= 8, got {horizon}")
    found: dict[int, tuple[int, float]] = {}
    k = 2  # the smallest k without a witness yet
    s_p, s_2p = S_walk(seq, 1), S_walk(seq, 2, 2)
    for p in range(1, horizon + 1):
        if k > k_max:
            break
        try:
            sp, s2p = next(s_p), next(s_2p)
        except IndexRangeError:
            break  # indices only grow; the evaluable domain is exhausted
        if sp == 0.0:
            continue
        dev = abs(1.0 - s2p / sp)
        # 1/k**2 falls with k, so the k that one p meets are k, k+1, ... in turn
        while k <= k_max and dev <= 1.0 / (k * k):
            found[k] = (p, dev)
            k += 1
    return [_make_witness(seq, k, p, dev) for k, (p, dev) in found.items()]


def concavity_interpolation_check(
    seq, n: int, k: int
) -> tuple[bool, float]:
    """Check ((k-2) S_n + S_kn) / (k-1) <= S_2n and return the slack.

    The residual S_2n - ((k-2) S_n + S_kn)/(k-1) is non-negative for any
    non-increasing positive sequence; the check allows a float slack of
    1e-12 * max(1, |S_kn|).
    """
    if k < 2:
        raise ParameterError(f"interpolation parameter k must be >= 2, got {k}")
    if n < 1:
        raise ParameterError(f"index n must be >= 1, got {n}")
    s_n = seq.S(n)
    s_2n = seq.S(2 * n)
    s_kn = seq.S(k * n)
    residual = s_2n - ((k - 2) * s_n + s_kn) / (k - 1)
    holds = residual >= -1e-12 * max(1.0, abs(s_kn))
    return holds, residual


def domination_test(
    a_seq: SpectralSequence, t_seq: SpectralSequence, r: int, horizon: int
) -> DominationReport:
    """Estimate K = max_n mu_{r(n-1)+1}(A) / mu_n(T) over n <= horizon.

    The ``bounded`` flag is set when the running maximum grew by less than
    1% over the last decade of the horizon.
    """
    if r < 1:
        raise ParameterError(f"layer parameter r must be >= 1, got {r}")
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    running = 0.0
    at_tenth = None
    tenth = max(1, horizon // 10)
    for n in range(1, horizon + 1):
        denom = t_seq.mu(n)
        if denom == 0.0:
            raise DegenerateRatioError(f"mu_{n}(T) underflowed to zero")
        try:
            num = a_seq.mu(r * (n - 1) + 1)
        except IndexRangeError:
            num = 0.0  # numerator below the float floor dominates trivially
        running = max(running, num / denom)
        if n == tenth:
            at_tenth = running
    bounded = at_tenth is not None and running <= at_tenth * 1.01
    return DominationReport(r=r, horizon=horizon, K_estimate=running, bounded=bounded)


def _sigma_prefix(values, n) -> float:
    return neumaier_sum(values[:n])


def doubling_inequality_check(a, b, n: int, mode: str = "commuting") -> tuple[bool, bool]:
    """sigma_n(A+B) <= sigma_n(A) + sigma_n(B) <= sigma_2n(A+B).

    ``commuting`` mode takes two non-increasing eigenvalue lists of operators
    that are diagonal in the same basis, so the spectrum of the sum is the
    sorted list of termwise sums.  ``matrix`` mode takes two PSD symmetric
    matrices (dim <= 64) and reads all three spectra off ``eig_sym_small``.
    Both inequalities are checked with slack 1e-10 * sigma_2n(A+B).
    """
    if n < 1:
        raise ParameterError(f"index n must be >= 1, got {n}")
    if mode == "commuting":
        va = [float(x) for x in a]
        vb = [float(x) for x in b]
        if len(va) != len(vb):
            raise ParameterError(
                f"commuting lists must have equal length, got {len(va)} and {len(vb)}"
            )
        for name, vals in (("a", va), ("b", vb)):
            if any(y > x * (1.0 + 1e-12) + 1e-300 for x, y in zip(vals, vals[1:])):
                raise ParameterError(f"list {name!r} is not non-increasing")
        if 2 * n > len(va):
            raise ParameterError(f"2n = {2 * n} exceeds spectrum length {len(va)}")
        spec_sum = sorted((x + y for x, y in zip(va, vb)), reverse=True)
        sa, sb = _sigma_prefix(va, n), _sigma_prefix(vb, n)
        s_sum_n = _sigma_prefix(spec_sum, n)
        s_sum_2n = _sigma_prefix(spec_sum, 2 * n)
    elif mode == "matrix":
        ma = np.asarray(a, dtype=float)
        mb = np.asarray(b, dtype=float)
        if ma.shape != mb.shape:
            raise ParameterError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
        ev_a = eig_sym_small(ma)
        ev_b = eig_sym_small(mb)
        ev_sum = eig_sym_small(ma + mb)
        floor = -1e-10 * max(1.0, float(np.abs(ev_a).max()), float(np.abs(ev_b).max()))
        if ev_a.min() < floor or ev_b.min() < floor:
            raise ParameterError("matrix mode requires positive semidefinite inputs")
        if 2 * n > ma.shape[0]:
            raise ParameterError(f"2n = {2 * n} exceeds matrix dimension {ma.shape[0]}")
        sa = float(np.sum(ev_a[:n]))
        sb = float(np.sum(ev_b[:n]))
        s_sum_n = float(np.sum(ev_sum[:n]))
        s_sum_2n = float(np.sum(ev_sum[: 2 * n]))
    else:
        raise ParameterError(f"mode must be 'commuting' or 'matrix', got {mode!r}")

    slack = 1e-10 * abs(s_sum_2n)
    left = s_sum_n <= sa + sb + slack
    right = sa + sb <= s_sum_2n + slack
    return left, right
