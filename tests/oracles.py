"""Brute-force oracles that the tests check the library against."""

import itertools

from bellift import DeterministicStrategy, Scenario


def enumerate_strategies(scenario: Scenario):
    """Yield every deterministic strategy in bit order: lexicographic in the
    concatenated outcome bits, party-major, with outcome +1 first."""
    ends = list(itertools.accumulate(scenario.settings))
    for bits in itertools.product((1, -1), repeat=ends[-1]):
        yield DeterministicStrategy(tuple(bits[a:b] for a, b in zip([0] + ends, ends)))
