"""Tests for the coefficient family and its closed-form identities.

Expected decimals were frozen from direct evaluation of the defining
exponentials.  The integral values are checked against the adaptive
quadrature oracle by the invariant registry (``coeffs.integral_vs_quadrature_rel``).
"""

import math

import numpy as np
import pytest

from ergodiclab.coeffs import b, b_row, family, integral_b, integral_b_row, partial_sum_b, tail_sum_b


def test_b_frozen_values():
    assert b(1, 1.0) == pytest.approx(0.36787944117144233, abs=1e-16)
    assert b(2, 1.0) == pytest.approx(0.2386512185411911, abs=1e-15)
    assert b(5, 0.0) == 0.0


def test_b_domain_errors():
    with pytest.raises(ValueError):
        b(0, 1.0)
    with pytest.raises(ValueError):
        b(1, -0.1)
    # a NaN time or upper limit is refused, not turned into a NaN value or certificate
    for call in (lambda: b(1, math.nan), lambda: tail_sum_b(5, math.nan), lambda: b_row(math.nan, 4)):
        with pytest.raises(ValueError, match="time t must be >= 0, got nan"):
            call()
    for call in (lambda: integral_b(2, math.nan), lambda: integral_b_row(math.nan, 4)):
        with pytest.raises(ValueError, match="upper limit r must be >= 0, got nan"):
            call()


def test_b_matches_naive_difference():
    # the expm1 evaluation must agree with the textbook difference of exponentials
    for n in range(2, 60):
        for t in (0.01, 0.5, 3.0, 77.0):
            naive = math.exp(-t / n) - math.exp(-t / (n - 1))
            assert b(n, t) == pytest.approx(naive, abs=5e-16)


def test_b_positivity_even_for_huge_n():
    for n in (2, 10, 10**3, 10**6):
        for t in (1e-8, 1.0, 1e4):
            assert b(n, t) >= 0.0


def test_partial_sum_frozen_values():
    assert partial_sum_b(0, 3, 1.0) == pytest.approx(0.7165313105737893, abs=1e-16)
    assert partial_sum_b(2, 4, 2.0) == pytest.approx(0.2386512185411911, abs=1e-15)
    assert partial_sum_b(1, 2, 0.0) == 0.0


def test_partial_sum_domain_errors():
    with pytest.raises(ValueError):
        partial_sum_b(3, 3, 1.0)
    with pytest.raises(ValueError):
        partial_sum_b(4, 3, 1.0)
    with pytest.raises(ValueError, match="time t must be >= 0, got nan"):
        partial_sum_b(1, 3, math.nan)


def test_partial_sum_matches_direct_summation():
    for t in (0.0, 0.1, 1.0, 10.0, 100.0):
        for m, n in ((0, 1), (0, 7), (1, 2), (3, 19), (50, 400)):
            direct = sum(b(h, t) for h in range(m + 1, n + 1))
            if m == 0 and t == 0.0:
                # limit convention: the closed form reads e^{-0/0} as 1,
                # while the literal sum keeps the unit mass of b(1, 0)
                assert partial_sum_b(m, n, t) == 0.0
                assert direct == 1.0
                continue
            assert partial_sum_b(m, n, t) == pytest.approx(direct, abs=1e-13 * n)


def test_tail_sum_frozen_values():
    # 1 - e^{-1} rounds to 0.6321205588285577, below the exact value; the tail is raised by 2.5 eps of itself
    assert tail_sum_b(1, 1.0) == pytest.approx(0.632120558828558, abs=1e-16)
    assert tail_sum_b(10, 0.0) == 0.0
    assert tail_sum_b(100, 1.0) == pytest.approx(0.009950166250831893, abs=1e-16)


def test_tail_sum_bounded_by_t_over_m():
    for m in (1, 5, 100, 10**4):
        for t in (0.0, 0.3, 2.0, 50.0):
            assert 0.0 <= tail_sum_b(m, t) <= t / m + 1e-16


def test_tail_sum_never_understates():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(8)
    with mpmath.workdps(50):
        for m in (1, 2, 3, 7, 100, 1000, 65536, 2**22):
            for t in 10.0 ** rng.uniform(-8.0, 4.0, 375):
                exact = -mpmath.expm1(-mpmath.mpf(float(t)) / m)
                assert exact <= tail_sum_b(m, float(t)) <= exact * (1 + 9e-16), (m, t)  # within 4 eps
    assert tail_sum_b(3, 5e-324) > 0.0  # t/m rounds to 0


def test_tail_consistency():
    for t in (0.0, 0.1, 1.0, 10.0, 100.0):
        for m, n in ((1, 2), (1, 10), (4, 5), (17, 1000)):
            lhs = partial_sum_b(m, n, t) + tail_sum_b(n, t)
            assert lhs == pytest.approx(tail_sum_b(m, t), abs=1e-14)


def test_integral_frozen_values():
    assert integral_b(1, 1.0) == pytest.approx(0.6321205588285577, abs=1e-16)
    assert integral_b(2, 1.0) == pytest.approx(0.15481812174617549, abs=1e-15)
    assert integral_b(3, 0.0) == 0.0


def test_integral_derivative_matches_b():
    step = 1e-5
    for h in (1, 2, 3, 11, 64):
        for r in (0.2, 1.0, 5.0, 30.0):
            fd = (integral_b(h, r + step) - integral_b(h, r - step)) / (2 * step)
            assert fd == pytest.approx(b(h, r), abs=1e-8)


def test_vectorized_rows_match_scalars():
    # scalar math.expm1 and vectorized np.expm1 may differ by an ulp, which
    # the (h-1)/h cancellation amplifies to ~1e-15 absolute
    for t in (0.0, 0.4, 9.0):
        row = b_row(t, 50)
        irow = integral_b_row(t + 0.5, 50)
        for h in range(1, 51):
            assert row[h - 1] == pytest.approx(b(h, t), abs=1e-15)
            assert irow[h - 1] == pytest.approx(integral_b(h, t + 0.5), abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 257, 65536])
def test_row_kernels_keep_the_bits_of_the_direct_forms(n):
    # integral_b(h, r) = (h-1)E_{h-1} - hE_h from one expm1 pass, and b(n, t)
    # from a shared exp(-t/n), round exactly as the two-pass forms do, on 1..n and on any pair [h - 1, h]
    h = np.arange(2, n + 1, dtype=float)
    for r in (0.5, 1.0, 37.25, 4096.0, 60000.0):
        direct = (h - 1) * np.expm1(-r / (h - 1)) - h * np.expm1(-r / h)
        assert np.array_equal(integral_b_row(r, n)[1:], direct)
        # and as the family forms the mean rows, from the expm1 pass their diagonal shares
        shared = np.arange(1, n + 1, dtype=float)
        assert np.array_equal(family(np.array([[r]]), shared, True, True)[1][0], direct)
        assert np.array_equal(b_row(r, n)[1:], np.exp(-r / h) * -np.expm1(-r / (h * (h - 1))))
        for pair in (shared[:2], shared[-2:]):
            assert np.array_equal(family(np.array([[r]]), pair, True, True)[1][0], direct[int(pair[0]) - 1 :][:1])
            assert np.array_equal(family(np.array([[r]]), pair, True, False)[1][0], b_row(r, int(pair[1]))[-1:])
