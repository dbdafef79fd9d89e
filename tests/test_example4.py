"""Closed-form partial sums and the two Cesaro paths for the aq family.

Oracle: term-by-term enumeration of the block-constant values in exact
rational arithmetic.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import singtrace
from singtrace import example4 as ex
from singtrace import seqcore
from singtrace.errors import ParameterError
from singtrace.summation import NeumaierSum

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


def test_direct_guard_is_checked_before_the_sum(monkeypatch):
    def never(*_):
        raise AssertionError("check_request ran the sum")

    monkeypatch.setattr(ex, "cesaro_direct", never)
    top = ex.DIRECT_GUARD.bit_length() - 1
    for q in (1, 2, 3):
        s, r = divmod(top - 1, q)
        assert ex.check_request(ex.AqParams(q), s, r + 1, "direct") == ex.DIRECT_GUARD
        s, r = divmod(top, q)
        with pytest.raises(ParameterError, match="direct-path guard"):
            ex.check_request(ex.AqParams(q), s, r + 1, "direct")


def _cesaro_direct_per_term(params, p):
    acc = NeumaierSum()
    for m in range(1, p + 1):
        acc.add(ex.aq_sigma_pow2(params, m) / m)
    return acc.value / (p * LOG2)


@hs.composite
def _direct_cutoffs(draw):
    # block ends n_{k+1} up to 2^15; the kernel's ldexp cut is at n_{k+1} - 1075
    q = draw(hs.integers(1, 10))
    params = ex.AqParams(q)
    ends = [params.exponent(k) for k in range(1, 16) if params.exponent(k) <= 1 << 15]
    p = draw(
        hs.one_of(
            hs.integers(2, 1 << 14),
            hs.builds(lambda n, d: n + d, hs.sampled_from(ends), hs.integers(-1, 1)),
            hs.builds(
                lambda n, d: n - d,
                hs.sampled_from(ends),
                hs.one_of(hs.integers(1070, 1080), hs.integers(0, 1100)),
            ),
        )
    )
    return q, max(p, 2)


@given(case=_direct_cutoffs())
@example(case=(1, 2))
@example(case=(1, 3))
@example(case=(1, 4096 - 1075))
@example(case=(2, (1 << 14) - 1074))
@example(case=(3, (1 << 15) - 1076))
@example(case=(1023, 2))  # s = 0, r = 1: block 0 ends at n_1 = 2^1023
@settings(max_examples=80, deadline=None, derandomize=True)
def test_cesaro_direct_matches_per_term_sum_bitwise(case):
    q, p = case
    params = ex.AqParams(q)
    assert ex.cesaro_direct(params, p).hex() == _cesaro_direct_per_term(params, p).hex(), case


def test_cesaro_direct_block_lookups_per_block(monkeypatch):
    # one exponent lookup per dyadic block, not a block search per term
    calls = []
    exponent = ex.AqParams.exponent

    def counting(self, k):
        calls.append(k)
        return exponent(self, k)

    monkeypatch.setattr(ex.AqParams, "exponent", counting)
    ex.cesaro_direct(ex.AqParams(1), 1 << 14)  # 14 blocks
    assert len(calls) <= 2 * 15, len(calls)


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


def _block_partial_per_term(params, k, top):
    a, b = params.exponent(k), params.exponent(k + 1)
    shift_ab = math.ldexp(1.0, max(a - b, ex._SHIFT_FLOOR))
    bracket = (a - 1.0) - (b - a) * shift_ab / (1.0 - shift_ab)
    h_part = bracket * (seqcore.harmonic_number(top) - seqcore.harmonic_number(a))
    lo = max(a + 1, top + ex._SHIFT_FLOOR)
    geo = NeumaierSum()
    for m in range(lo, top + 1):
        e = m - b
        if e < ex._SHIFT_FLOOR:
            continue
        geo.add(math.ldexp(1.0, e) / m)
    coeff = (b - a) / (1.0 - shift_ab)
    return h_part + coeff * geo.value


def test_cesaro_block_shifted_sum_stays_short(monkeypatch):
    # at most 1 - _SHIFT_FLOOR geometric terms per block, whatever its width
    budget = 41 * 1110
    calls = []
    ldexp = math.ldexp

    def counting(x, e):
        calls.append(e)
        if len(calls) > budget:
            raise AssertionError("cesaro_block computed too many powers of two")
        return ldexp(x, e)

    monkeypatch.setattr(math, "ldexp", counting)
    ex.cesaro_block(ex.AqParams(1), 40, 1)  # block 39 is 2^39 wide
    assert calls


@hs.composite
def _block_requests(draw):
    q = draw(hs.integers(1, 5))
    s_max = 1024 // q - 1  # (s + 1) q <= 1024; _check_block refines r = q
    s = draw(hs.one_of(hs.integers(1, 40), hs.integers(1, s_max)))
    r = draw(hs.integers(1, q))
    return q, s, r


@given(request=_block_requests())
@example(request=(1, 1022, 1))
@example(request=(2, 511, 1))
@example(request=(3, 340, 1))
@example(request=(5, 3, 5))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_cesaro_block_matches_per_term_partials_bitwise(request):
    q, s, r = request
    params = ex.AqParams(q)
    try:
        expected = ex.cesaro_block(params, s, r).hex()
    except ParameterError:  # r = q at the float limit
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "_block_partial", _block_partial_per_term)
        assert ex.cesaro_block(params, s, r).hex() == expected, request


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
    assert ex.check_request(params, 7, 1, "direct") == 1 << 22
    assert ex.check_request(params, 340, 1, "block") == 1 << 1021
    for s, r, method in [
        (9, 1, "direct"),     # p = 2^28 over the direct guard
        (8, 1, "direct"),     # p = 2^25 over the direct guard
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


def _block_of_loop(params, m):
    k = 0
    while params.exponent(k + 1) < m:
        k += 1
    return k


def test_block_of_matches_linear_search():
    for q in range(1, 13):
        params = ex.AqParams(q)
        for m in range(2, (1 << 12) + 1):
            assert params.block_of(m) == _block_of_loop(params, m), (q, m)
        # big-int block edges up to 2^4096, against the definition
        for k in range(1, 4096 // q + 1):
            n = params.exponent(k)
            for m in (n - 1, n, n + 1):
                if m >= 2:
                    j = params.block_of(m)
                    assert params.exponent(j) < m <= params.exponent(j + 1), (q, m)
    with pytest.raises(ParameterError):
        ex.AqParams(1).block_of(1)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        ex.AqParams(0)
    with pytest.raises(ParameterError):
        ex.reproduce(ex.AqParams(2), 5, 3)  # r > q
    with pytest.raises(ParameterError):
        ex.cesaro_block(ex.AqParams(1), 0, 1)
    with pytest.raises(ParameterError):
        ex.reference_curve(ex.AqParams(1), 0.25)  # t below 2^-q
