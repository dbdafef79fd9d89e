"""Closed-form partial sums and the two Cesaro paths for the aq family.

Oracle: term-by-term enumeration of the block-constant values in exact
rational arithmetic.
"""

import math
from fractions import Fraction

import pytest

import singtrace
from singtrace import example4 as ex
from singtrace import seqcore
from singtrace.errors import ParameterError

LOG2 = math.log(2.0)


def enumerate_sigma_exact(q: int, m: int) -> Fraction:
    """sum of the block values over indices 3..2^m, straight from the
    block definition, in exact rationals."""
    if m < 2:
        return Fraction(0)
    exps = [2 ** (k * q) for k in range(0, m + 2)]
    total = Fraction(0)
    for j in range(3, 2**m + 1):
        k = 0
        while not (2 ** exps[k] < j <= 2 ** exps[k + 1]):
            k += 1
        total += Fraction(exps[k + 1] - exps[k], 2 ** exps[k + 1] - 2 ** exps[k])
    return total


# ---------------------------------------------------------------------------
# sigma at powers of two
# ---------------------------------------------------------------------------


def test_sigma_pow2_examples():
    p1 = ex.AqParams(1)
    assert ex.aq_sigma_pow2(p1, 2) == 1.0
    assert ex.aq_sigma_pow2(p1, 3) == pytest.approx(5 / 3, rel=1e-15)
    assert ex.aq_sigma_pow2(p1, 4) == 3.0
    assert ex.aq_sigma_pow2(p1, 1) == 0.0  # empty sum by convention


def test_sigma_pow2_exact_equals_enumeration():
    for q in (1, 2, 3):
        params = ex.AqParams(q)
        for m in range(2, 13):
            assert ex.aq_sigma_pow2_exact(params, m) == enumerate_sigma_exact(q, m), (q, m)


def test_sigma_pow2_float_matches_exact():
    for q in (1, 2, 3):
        params = ex.AqParams(q)
        for m in range(1, 40):
            exact = float(ex.aq_sigma_pow2_exact(params, m)) if m >= 2 else 0.0
            assert ex.aq_sigma_pow2(params, m) == pytest.approx(exact, rel=1e-13)


def test_sigma_pow2_monotone_and_block_mass():
    for q in (1, 2, 3):
        params = ex.AqParams(q)
        values = [ex.aq_sigma_pow2(params, m) for m in range(1, 200)]
        assert all(y >= x for x, y in zip(values, values[1:]))
        # each full block contributes exactly its exponent difference
        for k in range(1, 4):
            lo, hi = params.exponent(k), params.exponent(k + 1)
            if hi < 200:
                assert ex.aq_sigma_pow2(params, hi) - ex.aq_sigma_pow2(params, lo) == (
                    pytest.approx(hi - lo, rel=1e-12)
                )


def test_sigma_pow2_deep_indices_stay_finite():
    params = ex.AqParams(1)
    v = ex.aq_sigma_pow2(params, 10_000)
    assert 8191 <= v <= 16384  # n_k - 1 + partial with n_k = 8192


# float(int) overflows from 2^1024 - 2^970 on; aq_sigma_pow2 converts
# n_{k+1} - n_k = 2^(kq) (2^q - 1) and the smaller n_k
@pytest.mark.parametrize(
    "q, m",
    [
        (1023, 2),           # n_1 - n_0 = 2^1023 - 1
        (32, 2**992 + 1),    # block 31: 2^1024 - 2^992
        (1, 2**1023 + 1),    # block 1023: 2^1023
        (2, 2**1022 + 1),    # block 511: 3 * 2^1022, while n_512 = 2^1024
        # sigma(2^m) itself: 3 * 2^1022 - 1 and 5 * 2^1021 - 1 at the last finite m
        pytest.param(1, 2**1024 - 1, id="1-2^1024-1"),
        pytest.param(2, 2**1024 - 1, id="2-2^1024-1"),
    ],
)
def test_sigma_pow2_last_float_blocks(q, m):
    assert math.isfinite(ex.aq_sigma_pow2(ex.AqParams(q), m))


@pytest.mark.parametrize(
    "q, m",
    [
        (1024, 2),           # n_1 - n_0 = 2^1024 - 1
        (64, 2**960 + 1),    # block 15: 2^1024 - 2^960 rounds up to 2^1024
        (1, 2**1024 + 1),    # block 1024: 2^1024
        (2000, 2),
        # sigma(2^m) = 2^1024 - 1 rounds to inf
        pytest.param(1, 2**1024, id="1-2^1024"),
        pytest.param(2, 2**1024, id="2-2^1024"),
    ],
)
def test_sigma_pow2_beyond_float_range_is_domain_error(q, m):
    with pytest.raises(ParameterError):
        ex.aq_sigma_pow2(ex.AqParams(q), m)


def test_direct_path_float_boundary_in_q():
    # s = 0, r = 1: p = 2, and sigma(2^2) sits in block 0, n_1 = 2^q
    assert math.isfinite(ex.reproduce(ex.AqParams(1023), 0, 1, "direct").estimate)
    with pytest.raises(ParameterError):
        ex.reproduce(ex.AqParams(1024), 0, 1, "direct")
    with pytest.raises(ParameterError):
        ex.check_request(ex.AqParams(1024), 0, 1, "direct")


# ---------------------------------------------------------------------------
# cesaro_direct
# ---------------------------------------------------------------------------


def test_cesaro_direct_small_p_formula():
    p1 = ex.AqParams(1)
    expected4 = (0.0 + 1.0 / 2 + (5 / 3) / 3 + 3.0 / 4) / (4 * LOG2)
    assert ex.cesaro_direct(p1, 4) == pytest.approx(expected4, rel=1e-14)
    expected2 = (0.0 + 1.0 / 2) / (2 * LOG2)
    assert ex.cesaro_direct(p1, 2) == pytest.approx(expected2, rel=1e-14)
    assert expected4 == pytest.approx(0.65122, abs=5e-5)
    assert expected2 == pytest.approx(0.360674, abs=1e-6)


def test_cesaro_direct_approaches_benchmark():
    value = ex.cesaro_direct(ex.AqParams(1), 1 << 15)
    assert abs(value - 1.0) <= 0.05


def test_cesaro_direct_guard():
    with pytest.raises(ParameterError):
        ex.cesaro_direct(ex.AqParams(1), (1 << 26) + 1)
    with pytest.raises(ParameterError):
        ex.cesaro_direct(ex.AqParams(1), 1)


# ---------------------------------------------------------------------------
# cesaro_block vs cesaro_direct
# ---------------------------------------------------------------------------


def test_block_path_agrees_with_direct():
    for q in (1, 2, 3):
        params = ex.AqParams(q)
        for s in range(1, 13):
            for r in range(1, q + 1):
                if s * q + r > 12:
                    continue
                direct = ex.cesaro_direct(params, 1 << (s * q + r))
                block = ex.cesaro_block(params, s, r)
                assert block == pytest.approx(direct, rel=1e-9), (q, s, r)


def test_block_path_specific_cross_checks():
    assert ex.cesaro_block(ex.AqParams(1), 8, 1) == pytest.approx(
        ex.cesaro_direct(ex.AqParams(1), 1 << 9), rel=1e-9
    )
    assert ex.cesaro_block(ex.AqParams(2), 5, 2) == pytest.approx(
        ex.cesaro_direct(ex.AqParams(2), 1 << 12), rel=1e-9
    )


def test_block_path_far_beyond_direct_guard():
    # p = 2^101: unreachable term-by-term, milliseconds with block sums
    value = ex.cesaro_block(ex.AqParams(1), 100, 1)
    assert value == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize(
    "q, s, r",
    [
        (3, 340, 1),   # n_{s+1} - n_s = 7 * 2^1020
        (1, 1022, 1),  # r = q: index p = n_{s+1} = 2^1023 is converted too
        (2, 511, 1),   # n_{s+1} - n_s = 3 * 2^1022, while n_{s+1} = 2^1024
        (32, 31, 1),   # n_{s+1} - n_s = 2^1024 - 2^992 is still a float
    ],
)
def test_block_path_last_float_blocks(q, s, r):
    assert math.isfinite(ex.cesaro_block(ex.AqParams(q), s, r))


@pytest.mark.parametrize(
    "q, s, r",
    [
        (3, 341, 1),   # n_{s+1} - n_s = 7 * 2^1023
        (1, 1023, 1),  # index p = n_{s+1} = 2^1024
        (2, 511, 2),   # index p = n_{s+1} = 2^1024
        (64, 15, 1),   # 2^1024 - 2^960 rounds up to 2^1024
        (3, 2000, 2),
    ],
)
def test_block_path_beyond_float_range_is_domain_error(q, s, r):
    with pytest.raises(ParameterError):
        ex.cesaro_block(ex.AqParams(q), s, r)


# ---------------------------------------------------------------------------
# reproduce and references
# ---------------------------------------------------------------------------


def test_reference_values():
    assert ex.reference_dyadic(ex.AqParams(1), 1) == 1.0
    assert ex.reference_dyadic(ex.AqParams(2), 2) == pytest.approx(2 / 3, rel=1e-15)
    assert ex.reference_dyadic(ex.AqParams(2), 1) == pytest.approx(5 / 6, rel=1e-15)
    # t = 1 collapses the curve to q/(2^q - 1)
    assert ex.reference_curve(ex.AqParams(1), 1.0) == 1.0
    assert ex.reference_curve(ex.AqParams(3), 1.0) == pytest.approx(3 / 7, rel=1e-15)
    # dyadic points lie on the curve
    for q in (1, 2, 3):
        params = ex.AqParams(q)
        for r in range(1, q + 1):
            assert ex.reference_dyadic(params, r) == pytest.approx(
                ex.reference_curve(params, 2.0**-r), rel=1e-14
            )


def test_reproduce_report_fields():
    rep = ex.reproduce(ex.AqParams(1), 10, 1, "direct")
    assert rep.p == 1 << 11
    assert rep.t == 0.5
    assert rep.reference == 1.0
    assert rep.error == abs(rep.estimate - rep.reference)
    assert rep.runtime_ms >= 0.0
    rep_b = ex.reproduce(ex.AqParams(1), 10, 1, "block")
    assert rep_b.estimate == pytest.approx(rep.estimate, rel=1e-9)


def test_reproduce_from_raw_p():
    rep = ex.reproduce_from_p(ex.AqParams(1), 1 << 9, "direct")
    assert (rep.s, rep.r) == (8, 1)
    rep2 = ex.reproduce_from_p(ex.AqParams(1), 48, "direct")
    assert rep2.t == pytest.approx(32 / 48, rel=1e-15)
    assert rep2.reference == pytest.approx(
        ex.reference_curve(ex.AqParams(1), 32 / 48), rel=1e-14
    )


def test_error_non_increasing_in_s():
    errors = [ex.reproduce(ex.AqParams(1), s, 1, "direct").error for s in (8, 11, 14)]
    assert errors[0] >= errors[1] >= errors[2]


def test_check_request_matches_reproduce():
    params = ex.AqParams(3)
    assert ex.check_request(params, 8, 1, "direct") == 1 << 25
    assert ex.check_request(params, 340, 1, "block") == 1 << 1021
    for s, r, method in [
        (9, 1, "direct"),     # p = 2^28 over the direct guard
        (341, 1, "block"),    # beyond the block path's float range
        (0, 1, "block"),      # the block path needs s >= 1
        (-1, 1, "direct"),
        (5, 4, "direct"),     # r > q
        (5, 1, "other"),
    ]:
        with pytest.raises(ParameterError):
            ex.check_request(params, s, r, method)
        with pytest.raises(ParameterError):
            ex.reproduce(params, s, r, method)


def test_aq_params_shared_with_the_sequence():
    assert singtrace.AqParams is ex.AqParams is seqcore.AqParams
    for q in (1, 2, 3):
        seq = seqcore.AqSequence(q)
        assert seq.params == ex.AqParams(q)
        exps = [2 ** (k * q) for k in range(5)]
        edges = [2 ** e + d for e in exps[1:3] for d in (-1, 0, 1)]
        for n in list(range(3, 300)) + edges:
            k = next(k for k in range(4) if 2 ** exps[k] < n <= 2 ** exps[k + 1])
            a, b = exps[k], exps[k + 1]
            assert seq.mu(n) == (b - a) / (2**b - 2**a), (q, n)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        ex.AqParams(0)
    with pytest.raises(ParameterError):
        ex.reproduce(ex.AqParams(2), 5, 3)  # r > q
    with pytest.raises(ParameterError):
        ex.cesaro_block(ex.AqParams(1), 0, 1)
    with pytest.raises(ParameterError):
        ex.reference_curve(ex.AqParams(1), 0.25)  # t below 2^-q
