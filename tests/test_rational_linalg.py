"""Fraction-free rank and kernel vectors against a floating oracle."""

import math

import numpy as np

import pytest

from bellift.rational_linalg import integer_kernel_vector, integer_rank


def test_rank_simple_cases():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 0], [0, 1]]) == 2


def test_rank_matches_float_oracle_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rows = rng.integers(1, 9)
        cols = rng.integers(1, 9)
        m = rng.integers(-5, 6, size=(rows, cols))
        if rng.random() < 0.5:  # force some rank deficiency
            m[rng.integers(rows)] = m[rng.integers(rows)] * int(rng.integers(-2, 3))
        assert integer_rank(m.tolist()) == np.linalg.matrix_rank(m.astype(float))


def test_rank_survives_big_integers():
    big = 10**30
    m = [[big, 0], [0, big], [big, big]]
    assert integer_rank(m) == 2


def test_kernel_vector_is_primitive_and_annihilates():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        m = rng.integers(-4, 5, size=(n - 1, n))
        if np.linalg.matrix_rank(m.astype(float)) < n - 1:
            continue
        x = integer_kernel_vector(m.tolist())
        assert all(v == 0 for v in m @ np.array(x, dtype=object))
        assert math.gcd(*x) == 1


def test_kernel_vector_needs_corank_one():
    with pytest.raises(ValueError):
        integer_kernel_vector([[1, 2, 3], [2, 4, 6]])  # rank 1, kernel is a plane
