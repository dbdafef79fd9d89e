"""Cesaro trace values of the block-constant aq operator, two ways.

For the sequence with value (n_{k+1} - n_k)/(2^n_{k+1} - 2^n_k) on the
dyadic block (2^n_k, 2^n_{k+1}], n_k = 2^(kq), the partial sums at powers
of two have the closed form

    sigma(2^m) = n_k + (2^m - 2^n_k)/(2^n_{k+1} - 2^n_k) (n_{k+1} - n_k) - 1

for n_k < m <= n_{k+1}, and the Cesaro average
(1/(p log 2)) sum_{m<=p} sigma(2^m)/m converges, for p = 2^(sq+r) with
1 <= r <= q, to the benchmark value 2^(-r) (q/(2^q - 1) + r); for general
p the limit is t (q/(2^q - 1) - log2 t) with t the dyadic position
2^(sq)/p.  The two evaluation paths below must agree wherever both run:
term by term (:func:`cesaro_direct`, O(p) at about 0.2 us per term, p up
to DIRECT_GUARD = 2^23), and block closed forms (:func:`cesaro_block`,
whose cost is independent of p) for larger p.  Both stream one dyadic
block at a time.

All dyadic ratios are evaluated with non-positive exponents only, so no
2^(n_k) is ever materialised as a float.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError
from .seqcore import LOG2, AqParams, harmonic_number
from .summation import NeumaierSum

DIRECT_GUARD = 1 << 23     # iteration guard for the term-by-term path: about 2 s
_SHIFT_FLOOR = -1100       # 2**e underflows to zero below roughly -1074
_FLOAT_INT_LIMIT = (1 << 1024) - (1 << 970)  # float(int) overflows from here


@dataclass
class Example4Report:
    q: int
    s: int
    r: int
    p: int
    method: str               # "direct" | "block"
    estimate: float
    t: float                  # dyadic position 2^(sq)/p
    reference: float
    error: float
    runtime_ms: float


def aq_sigma_pow2(params: AqParams, m: int) -> float:
    """sigma(2^m) in floats; sigma(2^1) is taken as 0 (empty sum).

    The dyadic ratio is evaluated as
    2^(m - n_{k+1}) (1 - 2^(n_k - m)) / (1 - 2^(n_k - n_{k+1})),
    every exponent <= 0.
    """
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if m == 1:
        return 0.0
    k = params.block_of(m)
    a, b = params.exponent(k), params.exponent(k + 1)
    if b - a >= _FLOAT_INT_LIMIT:  # n_k <= n_{k+1} - n_k is converted too
        raise ParameterError(
            f"aq:q={params.q}: block {k} has n_{k + 1} - n_{k} beyond the float range"
        )
    ratio = (
        math.ldexp(1.0, max(m - b, _SHIFT_FLOOR))
        * (1.0 - math.ldexp(1.0, max(a - m, _SHIFT_FLOOR)))
        / (1.0 - math.ldexp(1.0, max(a - b, _SHIFT_FLOOR)))
    )
    value = a + ratio * (b - a) - 1.0
    if not math.isfinite(value):
        raise ParameterError(f"aq:q={params.q}: sigma(2^m) in block {k} exceeds the float range")
    return value


def aq_sigma_pow2_exact(params: AqParams, m: int) -> Fraction:
    """sigma(2^m) as an exact rational (small m only)."""
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if m == 1:
        return Fraction(0)
    k = params.block_of(m)
    a, b = params.exponent(k), params.exponent(k + 1)
    return a - 1 + Fraction(2**m - 2**a, 2**b - 2**a) * (b - a)


def cesaro_direct(params: AqParams, p: int) -> float:
    """(1/(p log 2)) sum_{m=1}^{p} sigma(2^m)/m, term by term.

    Walks the dyadic blocks n_k < m <= n_{k+1} once, with the Neumaier add
    inlined; each term is the float expression of :func:`aq_sigma_pow2`,
    bit for bit.  O(p) at about 0.2 us per term, so p is capped at
    DIRECT_GUARD; :func:`cesaro_block` covers larger p.
    """
    _check_direct(params, p)  # sigma(2^m) and n_{k+1} - n_k only grow with m
    ldexp = math.ldexp
    s = c = 0.0  # the m = 1 term is 0.0
    k, a = 0, 1
    while a < p:
        b = params.exponent(k + 1)
        fa, fba = float(a), float(b - a)
        den = 1.0 - ldexp(1.0, max(a - b, _SHIFT_FLOOR))
        # below the cut, 2^(m - b) rounds to 0.0 and sigma(2^m) is fa - 1.0
        cut, head = b - 1075, fa - 1.0
        for m in range(a + 1, min(p, b) + 1):
            if m > cut:
                ratio = ldexp(1.0, m - b) * (1.0 - ldexp(1.0, max(a - m, _SHIFT_FLOOR))) / den
                x = (fa + ratio * fba - 1.0) / m
            else:
                x = head / m
            t = s + x
            if abs(s) >= abs(x):
                c += (s - t) + x
            else:
                c += (x - t) + s
            s = t
        k, a = k + 1, b
    return (s + c) / (p * LOG2)


def _check_direct(params: AqParams, p: int) -> None:
    if p < 2:
        raise ParameterError(f"p must be >= 2, got {p}")
    if p > DIRECT_GUARD:
        raise ParameterError(
            f"p = {p} exceeds the direct-path guard {DIRECT_GUARD}; use the block path"
        )
    aq_sigma_pow2(params, p)  # raises if the last block the sum reaches leaves floats


def _block_partial(params: AqParams, k: int, top: int) -> float:
    """sum_{m = n_k + 1}^{top} sigma(2^m)/m via the closed decomposition.

    Valid for n_k < top <= n_{k+1}.  Uses harmonic-number differences for
    sum 1/m and the shifted geometric sum for sum 2^m/m, truncated where
    2^(m - n_{k+1}) underflows.
    """
    a, b = params.exponent(k), params.exponent(k + 1)
    shift_ab = math.ldexp(1.0, max(a - b, _SHIFT_FLOOR))
    bracket = (a - 1.0) - (b - a) * shift_ab / (1.0 - shift_ab)
    h_part = bracket * (harmonic_number(top) - harmonic_number(a))

    ldexp = math.ldexp
    s = c = 0.0
    # m = b + e; terms with e < _SHIFT_FLOOR underflow and are left out
    for e in range(max(a + 1 - b, _SHIFT_FLOOR), top - b + 1):
        x = ldexp(1.0, e) / (b + e)
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
    coeff = (b - a) / (1.0 - shift_ab)
    return h_part + coeff * (s + c)


def _check_block(params: AqParams, s: int, r: int) -> None:
    """Reject requests whose integers _block_partial converts leave floats.

    The largest one is n_{s+1} - n_s, or n_{s+1} itself when r = q: the
    shifted sum of the trailing block then runs up to m = p = n_{s+1}.
    """
    q = params.q
    if not 1 <= r <= q:
        raise ParameterError(f"need 1 <= r <= q, got r = {r}, q = {q}")
    if s < 1:
        raise ParameterError(f"s must be >= 1, got {s}")
    top_exp = (s + 1) * q
    fits = top_exp <= 1024  # else n_{s+1} - n_s >= n_{s+1} / 2 >= 2^1024
    if fits:
        top = 1 << top_exp
        fits = (top if r == q else top - params.exponent(s)) < _FLOAT_INT_LIMIT
    if not fits:
        raise ParameterError(
            f"p = 2^{s * q + r} is beyond the float range of the block path"
        )


def cesaro_block(params: AqParams, s: int, r: int) -> float:
    """Block-accelerated Cesaro value at p = 2^(sq + r), 1 <= r <= q.

    Full blocks k < s use the closed decomposition; the trailing partial
    block n_s < m <= p uses the same decomposition with its upper limit at
    p.  Cost is O(s) harmonic evaluations plus O(s) short shifted sums,
    independent of p.
    """
    _check_block(params, s, r)
    exp_p = s * params.q + r
    p = 1 << exp_p

    acc = NeumaierSum()
    for k in range(s):
        acc.add(_block_partial(params, k, params.exponent(k + 1)))
    if p > params.exponent(s):
        acc.add(_block_partial(params, s, p))
    # value = total / (p log 2), with p folded in as an exponent shift
    return math.ldexp(acc.value, -exp_p) / LOG2


def reference_dyadic(params: AqParams, r: int) -> float:
    """Benchmark value 2^(-r) (q/(2^q - 1) + r) at p = 2^(sq + r)."""
    q = params.q
    if not 1 <= r <= q:
        raise ParameterError(f"need 1 <= r <= q, got r = {r}, q = {q}")
    return 2.0**-r * (q / (2.0**q - 1.0) + r)


def reference_curve(params: AqParams, t: float) -> float:
    """General benchmark t (q/(2^q - 1) - log2 t) for t in [2^-q, 1]."""
    q = params.q
    if not 2.0**-q <= t <= 1.0:
        raise ParameterError(f"t = {t} outside [2^-{q}, 1]")
    return t * (q / (2.0**q - 1.0) - math.log2(t))


def check_request(params: AqParams, s: int, r: int, method: str) -> int:
    """Every check :func:`reproduce` makes before it computes; returns
    p = 2^(sq + r).  Cheap, so a sweep can validate all its jobs first."""
    q = params.q
    if not 1 <= r <= q:
        raise ParameterError(f"need 1 <= r <= q, got r = {r}, q = {q}")
    if s < 0:
        raise ParameterError(f"s must be >= 0, got {s}")
    p = 1 << (s * q + r)
    if method == "direct":
        _check_direct(params, p)
    elif method == "block":
        _check_block(params, s, r)
    else:
        raise ParameterError(f"method must be 'direct' or 'block', got {method!r}")
    return p


def reproduce(params: AqParams, s: int, r: int, method: str = "direct") -> Example4Report:
    """Run one Cesaro evaluation and compare with the benchmark value."""
    q = params.q
    p = check_request(params, s, r, method)
    start = time.perf_counter()
    if method == "direct":
        estimate = cesaro_direct(params, p)
    else:
        estimate = cesaro_block(params, s, r)
    runtime_ms = (time.perf_counter() - start) * 1e3
    reference = reference_dyadic(params, r)
    return Example4Report(
        q=q,
        s=s,
        r=r,
        p=p,
        method=method,
        estimate=estimate,
        t=2.0**-r,
        reference=reference,
        error=abs(estimate - reference),
        runtime_ms=runtime_ms,
    )


def derive_s_r(params: AqParams, p: int) -> tuple[int, int | None, float]:
    """Split a raw cutoff p into (s, r, t) with n_s < p <= n_{s+1}.

    r is the dyadic offset when p = 2^(sq + r) exactly (else None), and
    t = 2^(sq)/p is the position of p inside its block.
    """
    if p < 2:
        raise ParameterError(f"p must be >= 2, got {p}")
    s = params.block_of(p)
    r = None
    if p & (p - 1) == 0:
        offset = p.bit_length() - 1 - s * params.q
        if 1 <= offset <= params.q:
            r = offset
    t = math.ldexp(1.0, s * params.q - p.bit_length() + 1) * (
        (1 << (p.bit_length() - 1)) / p
    )
    return s, r, t


def reproduce_from_p(params: AqParams, p: int, method: str = "direct") -> Example4Report:
    """Like :func:`reproduce` for a raw cutoff p, using the curve reference
    when p is not of the dyadic 2^(sq+r) form."""
    s, r, t = derive_s_r(params, p)
    if r is not None:
        return reproduce(params, s, r, method)
    if method != "direct":
        raise ParameterError("the block path needs p = 2^(sq + r); use method='direct'")
    start = time.perf_counter()
    estimate = cesaro_direct(params, p)
    runtime_ms = (time.perf_counter() - start) * 1e3
    reference = reference_curve(params, t)
    return Example4Report(
        q=params.q,
        s=s,
        r=0,
        p=p,
        method=method,
        estimate=estimate,
        t=t,
        reference=reference,
        error=abs(estimate - reference),
        runtime_ms=runtime_ms,
    )
