"""Fraction-free rank and exact unit solves against a floating oracle."""

from fractions import Fraction

import numpy as np

from bellift.rational_linalg import integer_rank, solve_unit_rhs


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


def test_solve_unit_rhs_exact():
    rng = np.random.default_rng(11)
    solved = 0
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = rng.integers(-4, 5, size=(n, n))
        rows = [[Fraction(int(x)) for x in row] for row in m]
        x = solve_unit_rhs(rows)
        if round(float(np.linalg.det(m.astype(float)))) == 0:
            assert x is None
            continue
        solved += 1
        for row in rows:
            assert sum(c * xi for c, xi in zip(row, x)) == 1
    assert solved > 10  # the random ensemble is mostly nonsingular


def test_solve_unit_rhs_singular_returns_none():
    assert solve_unit_rhs([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) is None
