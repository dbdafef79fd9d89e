"""Symmetric eigenvalues against closed forms and an mpmath oracle."""

import mpmath
import numpy as np
import pytest

from singtrace.eigs import eig_sym_small
from singtrace.errors import ParameterError


def test_identity():
    assert list(eig_sym_small([[1.0, 0.0], [0.0, 1.0]])) == [1.0, 1.0]


def test_two_by_two_closed_form():
    # characteristic polynomial x^2 - 4x + 3 has roots 3 and 1
    vals = eig_sym_small([[2.0, 1.0], [1.0, 2.0]])
    assert vals == pytest.approx([3.0, 1.0], abs=1e-12)


def test_similarity_invariance():
    theta = np.pi / 4
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    m = rot @ np.diag([3.0, 1.0]) @ rot.T
    assert eig_sym_small(m) == pytest.approx([3.0, 1.0], abs=1e-12)


def _mpmath_spectrum(m):
    """Eigenvalues at 30 significant digits, sorted non-increasing."""
    with mpmath.workdps(30):
        vals = mpmath.eigsy(mpmath.matrix(m.tolist()), eigvals_only=True)
        return sorted((float(v) for v in vals), reverse=True)


def test_against_mpmath_oracle_random():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n = int(rng.integers(1, 33))
        m = rng.normal(size=(n, n))
        m = m + m.T
        ours = eig_sym_small(m)
        oracle = np.array(_mpmath_spectrum(m))
        assert np.max(np.abs(ours - oracle)) <= 1e-10 * max(1.0, np.abs(oracle).max())


def test_output_sorted_and_trace_preserved():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 33))
        m = rng.normal(size=(n, n))
        m = m @ m.T
        vals = eig_sym_small(m)
        assert all(x >= y for x, y in zip(vals, vals[1:]))
        trace = float(np.trace(m))
        assert abs(float(np.sum(vals)) - trace) <= 1e-10 * max(1.0, abs(trace))


def test_rejects_non_symmetric():
    with pytest.raises(ParameterError):
        eig_sym_small([[1.0, 2.0], [0.0, 1.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite(bad):
    m = np.eye(3)
    m[1, 1] = bad
    with pytest.raises(ParameterError):
        eig_sym_small(m)


def test_rejects_large_dimension():
    with pytest.raises(ParameterError):
        eig_sym_small(np.eye(65))


def test_zero_matrix():
    assert list(eig_sym_small(np.zeros((3, 3)))) == [0.0, 0.0, 0.0]
