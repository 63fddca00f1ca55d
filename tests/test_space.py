"""Tests for the truncated sequence-space layer."""

import numpy as np
import pytest

from ergodiclab.space import (
    TruncatedVector,
    basis_vector,
    norm_l1,
    pair,
    project_P,
    project_Q,
)
from rows import same_bits, signed_with_gaps


def test_basis_vector_examples():
    assert list(basis_vector(1, 3).coords) == [1.0, 0.0, 0.0]
    assert list(basis_vector(3, 3).coords) == [0.0, 0.0, 1.0]
    with pytest.raises(IndexError):
        basis_vector(4, 3)
    with pytest.raises(IndexError):
        basis_vector(0, 3)


def test_project_Q_examples():
    assert list(project_Q(TruncatedVector([2, 5, 7]), 2).coords) == [0.0, 5.0, 0.0]
    assert list(project_Q(TruncatedVector([0, 0, 0]), 1).coords) == [0.0, 0.0, 0.0]
    assert list(project_Q(TruncatedVector([1, -1, 4]), 3).coords) == [0.0, 0.0, 4.0]
    with pytest.raises(IndexError):
        project_Q(TruncatedVector([1.0, 2.0]), 3)


def test_project_P_examples():
    assert list(project_P(TruncatedVector([2, 5, 7]), 2).coords) == [2.0, 5.0, 0.0]
    assert list(project_P(TruncatedVector([2, 5, 7]), 3).coords) == [2.0, 5.0, 7.0]
    x = TruncatedVector([3, -4, 0])
    assert norm_l1(project_P(x, 1)) == 3.0
    assert norm_l1(x) == 7.0


def test_norm_l1_examples():
    assert norm_l1(TruncatedVector([1, -2, 3])) == 6.0
    assert norm_l1(TruncatedVector(np.zeros(5))) == 0.0
    for k in range(1, 6):
        assert norm_l1(basis_vector(k, 5)) == 1.0


def test_pair_examples():
    for k in range(1, 4):
        assert pair(np.ones(3), basis_vector(k, 3)) == 1.0
    assert pair(np.ones(3), TruncatedVector([2, -1, 3])) == 4.0
    assert pair(np.ones(4), TruncatedVector(np.zeros(4))) == 0.0
    # the all-ones f pairs to the coordinate sum bit for bit: 1.0 x_k is exact, -0.0 included
    for x in (signed_with_gaps(1), signed_with_gaps(4), signed_with_gaps(257), TruncatedVector([-0.0, -0.0])):
        assert same_bits(pair(np.ones(x.dim), x), float(x.coords.sum()))


def test_pair_sequence_functional():
    f = np.array([1.0, -2.0, 0.5])
    assert pair(f, TruncatedVector([2, 1, 4])) == pytest.approx(2 - 2 + 2, abs=1e-15)
    assert pair(f, TruncatedVector([2, 1])) == 0.0  # f reads only its first x.dim coefficients
    with pytest.raises(ValueError):
        pair(np.array([1.0]), TruncatedVector([1, 2]))


def test_vector_invariants():
    with pytest.raises(ValueError):
        TruncatedVector([1.0, float("nan")])
    with pytest.raises(ValueError):
        TruncatedVector([float("inf")])
    with pytest.raises(ValueError):
        TruncatedVector([])
    x = TruncatedVector([1.0, 2.0])
    with pytest.raises(ValueError):
        x.coords[0] = 5.0  # frozen storage


def test_holder_inequality_randomized():
    rng = np.random.default_rng(421)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        x = TruncatedVector(rng.uniform(-5, 5, n))
        f = rng.uniform(-3, 3, n)
        assert abs(pair(f, x)) <= np.abs(f).max() * norm_l1(x) + 1e-12


def test_partial_sum_is_sum_of_blocks():
    rng = np.random.default_rng(7)
    x = TruncatedVector(rng.standard_normal(23))
    for h in range(1, 24):
        total = np.zeros(23)
        for j in range(1, h + 1):
            total += project_Q(x, j).coords
        assert np.array_equal(project_P(x, h).coords, total)


def test_projections_idempotent_and_contractive():
    rng = np.random.default_rng(11)
    x = TruncatedVector(rng.standard_normal(17))
    for h in range(1, 18):
        for proj in (project_P, project_Q):
            once = proj(x, h)
            assert np.array_equal(proj(once, h).coords, once.coords)
            assert norm_l1(once) <= norm_l1(x)


def test_zero_iff_all_partial_projections_vanish():
    z = TruncatedVector(np.zeros(9))
    assert all(norm_l1(project_P(z, h)) == 0.0 for h in range(1, 10))
    rng = np.random.default_rng(3)
    x = TruncatedVector(rng.standard_normal(9))
    assert any(norm_l1(project_P(x, h)) != 0.0 for h in range(1, 10))


def test_vector_arithmetic():
    x = TruncatedVector([1.0, 2.0])
    y = TruncatedVector([0.5, -1.0])
    assert list((x + y).coords) == [1.5, 1.0]
    assert list((x - y).coords) == [0.5, 3.0]
    assert list((2.0 * x).coords) == [2.0, 4.0]
    with pytest.raises(ValueError):
        x + TruncatedVector([1.0])
