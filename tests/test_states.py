"""Window states, structured sets, the eta bijection and split identities."""

import pickle
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from singtrace import states as st
from singtrace.errors import ParameterError, PartitionError, SequenceSpecError
from singtrace.summation import NeumaierSum, neumaier_sum, oscillation_of_tail, running_means


def hash_accessor(seed):
    """Deterministic bounded accessor safe for arbitrarily large indices."""

    def a(i):
        return ((i * 2654435761 + seed) % 4294967296) / 4294967296

    return a


# ---------------------------------------------------------------------------
# eta bijection
# ---------------------------------------------------------------------------


def test_eta_examples():
    assert st.eta(1, 1) == 1
    assert st.eta(3, 2) == 10  # (2*3 - 1) * 2
    assert st.eta_inv(12) == (2, 3)  # 12 = 3 * 4


def test_eta_roundtrip_and_injectivity():
    seen = set()
    for m in range(1, 80):
        for n in range(1, 20):
            j = st.eta(m, n)
            assert st.eta_inv(j) == (m, n)
            assert j not in seen
            seen.add(j)
    # the image covers an initial segment completely
    assert set(range(1, 1000)) <= {st.eta(*st.eta_inv(j)) for j in range(1, 1000)}


def test_eta_overflow():
    with pytest.raises(ParameterError):
        st.eta(1, 80)
    with pytest.raises(ParameterError):
        st.eta(1, 2**27)  # refused by bit length, without building 2^(2^27)
    with pytest.raises(ParameterError):
        st.eta(2, 63)  # 3 * 2^62
    assert st.eta(1, 63) == 1 << 62


# ---------------------------------------------------------------------------
# structured sets
# ---------------------------------------------------------------------------


def test_squares_membership_examples():
    C = st.structured_set("squares")
    assert C(25) == 1 and C(24) == 0
    assert C(16) == 1 and C(1) == 1 and C(5) == 0


def test_squares_membership_brute_force():
    # oracle: explicit union of blocks [(2i-1)^2, (2i)^2]
    blocks = [((2 * i - 1) ** 2, (2 * i) ** 2) for i in range(1, 40)]

    def oracle(x):
        return any(lo <= x <= hi for lo, hi in blocks)

    C = st.structured_set("squares")
    for x in range(1, 5000):
        assert bool(C(x)) == oracle(x), x


def test_dyadicblocks_membership_examples():
    A = st.structured_set("dyadicblocks")
    assert A(3) == 1 and A(5) == 0
    assert A(4) == 1 and A(2) == 0 and A(1) == 0
    assert A(16) == 1 and A(17) == 0


def test_dyadicblocks_brute_force():
    blocks = [(2 ** (2 * q - 1), 2 ** (2 * q)) for q in range(1, 10)]

    def oracle(x):
        return any(lo < x <= hi for lo, hi in blocks)

    A = st.structured_set("dyadicblocks")
    for x in range(1, 4000):
        assert bool(A(x)) == oracle(x), x


def test_intervals_set(tmp_path):
    spec = st.SetSpec("intervals", ((10, 20),))
    acc = st.IndicatorAccessor(spec)
    assert acc(10) == 1 and acc(20) == 1 and acc(21) == 0 and acc(9) == 0
    path = tmp_path / "iv.txt"
    path.write_text("1,5\n10,12\n")
    acc2 = st.structured_set(f"intervals:file={path}")
    assert acc2(5) == 1 and acc2(6) == 0 and acc2(11) == 1
    with pytest.raises(SequenceSpecError):
        st.SetSpec("intervals", ((5, 4),))
    with pytest.raises(SequenceSpecError):
        st.SetSpec("intervals", ((1, 5), (5, 9)))
    # a set keeps its membership through a pickle round trip
    acc3 = st.IndicatorAccessor(pickle.loads(pickle.dumps(acc2.spec)))
    assert acc3.spec == acc2.spec and acc3(5) == 1 and acc3(6) == 0


def test_interval_file_bad_line_names_it(tmp_path):
    path = tmp_path / "iv.txt"
    for text, line in (("1,5\nx,9\n", 2), ("1,5\n\n7\n", 3), ("# note\n1,5\n7,8,9\n", 3)):
        path.write_text(text)
        with pytest.raises(SequenceSpecError, match=f"line {line}:"):
            st.structured_set(f"intervals:file={path}")


# ---------------------------------------------------------------------------
# window_mean
# ---------------------------------------------------------------------------


def test_window_mean_constant():
    est = st.window_mean(lambda i: 1.0, st.WindowState("translation", k=3, n=100))
    assert est.mean == 1.0


def test_window_mean_alternating_cancels():
    est = st.window_mean(
        lambda i: (-1.0) ** i, st.WindowState("translation", k=0, n=2000)
    )
    assert est.mean == 0.0


def test_window_mean_squares_example():
    C = st.structured_set("squares")
    est = st.window_mean(C, st.WindowState("translation", k=16, n=384))
    assert est.hits == 208
    assert est.mean == pytest.approx(13 / 24, rel=0, abs=0)


def test_point_evaluation_degeneracy():
    a = hash_accessor(3)
    w = st.WindowState("translation", k=9, n=1)
    assert st.window_mean(a, w).mean == a(10)


def test_dyadic_window_addresses_orbit():
    hits = []

    def spy(i):
        hits.append(i)
        return 0.0

    st.window_mean(spy, st.WindowState("dyadic", k=2, n=3, m=3))
    # indices (2m-1) 2^(i-1) for i = 3, 4, 5
    assert hits == [5 * 4, 5 * 8, 5 * 16]


_SETS = {
    "squares": st.structured_set("squares"),
    "dyadicblocks": st.structured_set("dyadicblocks"),
    "intervals": st.structured_set(
        st.SetSpec("intervals", ((3, 5), (9, 9), (20, 64), (100, 1000)))
    ),
}
# i with chi(i) != chi(i + 1): the last index of a block or of a gap
_EDGES = {
    name: [i for i in range(1, 5000) if chi(i) != chi(i + 1)]
    for name, chi in _SETS.items()
}


# the same sets as explicit block lists
_BLOCKS = {
    "squares": [((2 * j - 1) ** 2, (2 * j) ** 2) for j in range(1, 40)],
    "dyadicblocks": [(2 ** (2 * q - 1) + 1, 2 ** (2 * q)) for q in range(1, 10)],
    "intervals": _SETS["intervals"].spec.intervals,
}


def test_membership_at_block_edges_and_below_one():
    # oracle: the block lists; both sides of each block end, and i <= 0,
    # through contains and __call__
    for name, blocks in _BLOCKS.items():
        chi = _SETS[name]
        points = set(range(-5, 2))
        for lo, hi in blocks:
            points |= {lo - 1, lo, hi, hi + 1}
        for i in sorted(points):
            want = any(lo <= i <= hi for lo, hi in blocks)
            assert chi.contains(i) is want and chi(i) == int(want), (name, i)


def _brute_window(name, n, data):
    """An accessor and a translation window of length n that starts or ends
    on a block boundary, or anywhere."""
    a = hash_accessor(7) if name == "float" else _SETS[name]
    edge = data.draw(hs.sampled_from(_EDGES["squares" if name == "float" else name]))
    offset = data.draw(hs.sampled_from([-1, 0, -n, 1 - n]))
    k = data.draw(hs.one_of(hs.just(max(0, edge + offset)), hs.integers(0, 10**6)))
    return a, k


@given(
    name=hs.sampled_from(sorted(_SETS) + ["float"]),
    n=hs.one_of(hs.integers(1, 8), hs.integers(9, 400)),
    data=hs.data(),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_window_mean_matches_brute_force(name, n, data):
    # oracle: every value of the window in a list, every prefix mean
    # formed, and the oscillation over the last quarter of them
    if data.draw(hs.booleans()):
        a = hash_accessor(7) if name == "float" else _SETS[name]
        k = data.draw(hs.integers(0, 20))
        w = st.WindowState("dyadic", k=k, n=min(n, 30), m=data.draw(hs.integers(1, 40)))
    else:
        a, k = _brute_window(name, n, data)
        w = st.WindowState("translation", k=k, n=n)
    values = [a(i) for i in w.indices()]
    if name == "float":
        prefix = running_means(values)
    else:
        prefix = [c / j for j, c in enumerate(accumulate(values), start=1)]
    est = st.window_mean(a, w)
    assert est.count == w.n
    assert est.hits == (None if name == "float" else sum(values))
    assert est.mean == prefix[-1]
    assert est.oscillation == oscillation_of_tail(prefix, w.n)


@given(
    name=hs.sampled_from(sorted(_SETS) + ["float"]),
    n=hs.one_of(hs.integers(1, 8), hs.integers(9, 400)),
    data=hs.data(),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_equivalence_and_split_match_brute_force(name, n, data):
    # oracle: every value of the windows in a list, Neumaier-summed in
    # index order, and sup|a| over the list
    a, k = _brute_window(name, n, data)
    l = max(0, k + data.draw(hs.integers(-3, 3)))
    p = max(1, n + data.draw(hs.integers(-3, 3)))
    vals1 = [float(a(i)) for i in range(k + 1, k + n + 1)]
    vals2 = [float(a(i)) for i in range(l + 1, l + p + 1)]
    defect = abs(neumaier_sum(vals1) / n - neumaier_sum(vals2) / p)
    sup = max(max(abs(v) for v in vals1), max(abs(v) for v in vals2))
    bound = sup * (2 * abs(k - l) + 2 * abs(p - n)) / min(n, p)
    w1, w2 = st.WindowState("translation", k=k, n=n), st.WindowState("translation", k=l, n=p)
    if defect > bound + 1e-12:
        with pytest.raises(ParameterError):
            st.window_equivalence_defect(w1, w2, a)
    else:
        got = st.window_equivalence_defect(w1, w2, a)
        assert (got[0].hex(), got[1].hex()) == (defect.hex(), bound.hex())

    # split of [k+1, k+n] at two cuts; an empty part is None
    lo, hi = k + 1, k + n
    cut1 = data.draw(hs.integers(lo, hi + 1))
    cut2 = data.draw(hs.integers(cut1 - 1, hi))
    parts = (
        (lo, cut1 - 1) if cut1 > lo else None,
        (cut1, cut2) if cut2 >= cut1 else None,
        (cut2 + 1, hi) if cut2 < hi else None,
    )
    weighted = NeumaierSum()
    for part in parts:
        if part is not None:
            size = part[1] - part[0] + 1
            weighted.add((size / n) * (neumaier_sum(vals1[part[0] - lo : part[1] - lo + 1]) / size))
    residual = neumaier_sum(vals1) / n - weighted.value
    if abs(residual) > 1e-12 * max(max(abs(v) for v in vals1), 1e-300):
        with pytest.raises(PartitionError):
            st.interval_split_check((lo, hi), parts, a)
    else:
        assert st.interval_split_check((lo, hi), parts, a).hex() == residual.hex()


def test_window_validation():
    with pytest.raises(ParameterError):
        st.WindowState("translation", k=-1, n=5)
    with pytest.raises(ParameterError):
        st.WindowState("translation", k=0, n=0)
    with pytest.raises(ParameterError):
        st.WindowState("dyadic", k=0, n=70, m=1)  # beyond 64-bit
    with pytest.raises(ParameterError):
        st.WindowState("dyadic", k=10**12, n=1, m=1)  # refused by bit length
    with pytest.raises(ParameterError):
        st.WindowState("dyadic", k=0, n=63, m=2)  # 3 * 2^62
    assert st.WindowState("dyadic", k=0, n=63, m=1).n == 63  # 2^62
    with pytest.raises(ParameterError):
        st.WindowState("sideways", k=0, n=1)


# ---------------------------------------------------------------------------
# eta transport: dyadic mean == translation mean of the pulled-back row
# ---------------------------------------------------------------------------


def test_eta_transport_identity_seeded():
    rng = random.Random(99)
    for _ in range(100):
        seed = rng.randrange(1 << 30)
        a = hash_accessor(seed)
        m = rng.randrange(1, 200)
        k = rng.randrange(0, 20)
        n = rng.randrange(1, 30)
        w_dyadic = st.WindowState("dyadic", k=k, n=n, m=m)
        w_trans = st.WindowState("translation", k=k, n=n)
        lhs = st.window_mean(a, w_dyadic).mean
        rhs = st.window_mean(st.eta_pullback(a, m), w_trans).mean
        assert abs(lhs - rhs) <= 1e-12
        assert lhs == rhs  # identical summation order, bitwise equal
        # an indicator's row is an indicator: counted, with the dyadic hits
        chi = _SETS[("squares", "dyadicblocks", "intervals")[seed % 3]]
        dyadic = st.window_mean(chi, w_dyadic)
        pulled = st.window_mean(st.eta_pullback(chi, m), w_trans)
        assert pulled.hits == dyadic.hits is not None
        assert (pulled.mean, pulled.oscillation) == (dyadic.mean, dyadic.oscillation)


# ---------------------------------------------------------------------------
# ergodicity probe
# ---------------------------------------------------------------------------


@given(name=hs.sampled_from(sorted(_SETS)), n=hs.integers(1, 400), data=hs.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_translation_defect_matches_brute_force(name, n, data):
    # oracle: the set's values over the window and one index past it in a
    # list, counted for the window and for the window shifted by one
    chi = _SETS[name]
    if data.draw(hs.booleans()):
        m = data.draw(hs.integers(1, 40))
        w = st.WindowState("dyadic", k=data.draw(hs.integers(0, 20)), n=min(n, 30), m=m)
        values = [(chi(i), chi(i + 1)) for i in w.indices()]
        hits, shifted = sum(v for v, _ in values), sum(v for _, v in values)
    else:
        _, k = _brute_window(name, n, data)
        w = st.WindowState("translation", k=k, n=n)
        values = [chi(i) for i in range(k + 1, k + n + 2)]
        hits, shifted = sum(values[:-1]), sum(values[1:])
    (rec,) = st.ergodicity_probe(chi, [w])
    assert rec.estimate.hits == hits
    assert rec.translation_defect.hex() == abs(hits / w.n - shifted / w.n).hex()


def test_square_windows_closed_form_exact():
    windows = [
        st.WindowState("translation", k=(2 * r) ** 2, n=(2 * s) ** 2 - (2 * r) ** 2)
        for r, s in [(2, 10), (2, 51), (5, 100)]
    ]
    records = st.ergodicity_probe("squares", windows)
    for rec, (r, s) in zip(records, [(2, 10), (2, 51), (5, 100)]):
        cf = Fraction(s + r + 1, 2 * (s + r))
        assert rec.closed_form_exact
        assert rec.estimate.hits * cf.denominator == cf.numerator * rec.window.n
        assert rec.closed_form == pytest.approx(float(cf), rel=0)
    # limits approach 1/2 like 1/(2(s+r))
    assert abs(records[1].estimate.mean - 0.5) <= 0.01
    assert abs(records[2].estimate.mean - 0.5) <= 0.01


def test_translation_defect_bound():
    C = st.structured_set("squares")
    for k, n in [(0, 1000), (16, 384), (100, 5000)]:
        rec = st.ergodicity_probe("squares", [st.WindowState("translation", k=k, n=n)])[0]
        assert rec.translation_defect <= 2.0 / n + 1e-15


def test_translation_defect_bound_general_accessors():
    # |mean(a shifted) - mean(a)| <= 2 sup|a| / n for any bounded a
    rng = random.Random(31337)
    for _ in range(50):
        a = hash_accessor(rng.randrange(1 << 30))
        k = rng.randrange(0, 100)
        n = rng.randrange(10, 3000)
        w = st.WindowState("translation", k=k, n=n)
        base = st.window_mean(a, w).mean
        shifted = st.window_mean(lambda i: a(i + 1), w).mean
        sup = max(abs(a(i)) for i in range(k + 1, k + n + 2))
        assert abs(shifted - base) <= 2.0 * sup / n + 1e-15


def test_dyadicblocks_window_inside_single_block():
    # window (4^p - n, 4^p] with n < 2^(2p-1) sits inside one block: the
    # measured mean is 1.0 and the record flags the single-block geometry
    p, n = 10, 1 << 18
    w = st.WindowState("translation", k=4**p - n, n=n)
    rec = st.ergodicity_probe("dyadicblocks", [w])[0]
    assert rec.estimate.mean == 1.0
    assert rec.single_block


def test_dyadicblocks_window_across_blocks():
    w = st.WindowState("translation", k=2, n=30)
    rec = st.ergodicity_probe("dyadicblocks", [w])[0]
    assert rec.single_block is False
    assert 0.0 < rec.estimate.mean < 1.0


# ---------------------------------------------------------------------------
# window equivalence
# ---------------------------------------------------------------------------


def test_window_equivalence_identical():
    a = hash_accessor(1)
    w = st.WindowState("translation", k=5, n=100)
    defect, bound = st.window_equivalence_defect(w, w, a)
    assert defect == 0.0 and bound == 0.0


def test_window_equivalence_offset_by_one():
    C = st.structured_set("squares")
    w1 = st.WindowState("translation", k=0, n=10**6)
    w2 = st.WindowState("translation", k=1, n=10**6)
    defect, bound = st.window_equivalence_defect(w1, w2, C)
    assert defect <= 4e-6
    assert defect <= bound + 1e-12


def test_window_equivalence_longer_window():
    w1 = st.WindowState("translation", k=0, n=10**6)
    w2 = st.WindowState("translation", k=0, n=10**6 + 10**3)
    defect, bound = st.window_equivalence_defect(w1, w2, lambda i: 1.0)
    assert defect == 0.0
    assert defect <= bound


def test_window_equivalence_mode_mismatch():
    with pytest.raises(ParameterError):
        st.window_equivalence_defect(
            st.WindowState("translation", k=0, n=4),
            st.WindowState("dyadic", k=0, n=4, m=1),
            lambda i: 1.0,
        )


def test_window_equivalence_seeded_bound_holds():
    rng = random.Random(4242)
    for _ in range(60):
        a = hash_accessor(rng.randrange(1 << 30))
        k = rng.randrange(0, 50)
        dl = rng.randrange(0, 10)
        n = rng.randrange(200, 2000)
        dn = rng.randrange(0, 50)
        w1 = st.WindowState("translation", k=k, n=n)
        w2 = st.WindowState("translation", k=k + dl, n=n + dn)
        defect, bound = st.window_equivalence_defect(w1, w2, a)
        assert defect <= bound + 1e-12


# ---------------------------------------------------------------------------
# interval split
# ---------------------------------------------------------------------------


def test_interval_split_exact_identity():
    C = st.structured_set("squares")
    residual = st.interval_split_check((1, 1000), ((1, 300), (301, 700), (701, 1000)), C)
    assert abs(residual) <= 1e-12


def test_interval_split_empty_middle():
    a = hash_accessor(8)
    residual = st.interval_split_check((5, 104), ((5, 44), None, (45, 104)), a)
    assert abs(residual) <= 1e-12


def test_interval_split_seeded():
    rng = random.Random(777)
    for _ in range(100):
        a = hash_accessor(rng.randrange(1 << 30))
        lo = rng.randrange(1, 1000)
        length = rng.randrange(3, 400)
        hi = lo + length
        cut1 = rng.randrange(lo, hi - 1)
        cut2 = rng.randrange(cut1 + 1, hi)
        parts = ((lo, cut1), (cut1 + 1, cut2), (cut2 + 1, hi))
        residual = st.interval_split_check((lo, hi), parts, a)
        assert abs(residual) <= 1e-12


def test_interval_split_rejects_bad_partition():
    a = hash_accessor(0)
    with pytest.raises(PartitionError):
        st.interval_split_check((1, 10), ((1, 3), (5, 7), (8, 10)), a)  # gap at 4
    with pytest.raises(PartitionError):
        st.interval_split_check((1, 10), ((1, 3), (3, 7), (8, 10)), a)  # overlap
    with pytest.raises(PartitionError):
        st.interval_split_check((1, 10), ((1, 3), (4, 7), (8, 9)), a)  # short
