"""Shared fixtures: four reference carpets and cached level data.

Carpet A is the workhorse (three maps, uniform weights, theta < 1).
Carpet B puts both maps in one column, so the column marginal is
trivial (q = 1) and several bounds degenerate.  Carpet C is square
(n = m), the theta = 1 edge where words are all pairs.  Carpet D has
skewed weights on a height-2 grid, giving wide stopping windows and
many replacement stages; it triggers the small-grid warning by design.
"""

import warnings

import numpy as np
import pytest

from carpetq import CarpetSpec, derive_params
from carpetq.coding import build_antichain
from carpetq.partition import PartitionLambdaK, enumerate_lambda_k
from carpetq.words import encode_word


def _derive(n, m, table):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return derive_params(CarpetSpec.of(n, m, table))


@pytest.fixture(scope="session")
def carpet_a():
    return _derive(4, 3, {(0, 0): "1/3", (0, 2): "1/3", (2, 2): "1/3"})


@pytest.fixture(scope="session")
def carpet_b():
    return _derive(4, 3, {(0, 0): "1/2", (2, 0): "1/2"})


@pytest.fixture(scope="session")
def carpet_c():
    return _derive(3, 3, {(0, 0): "1/2", (2, 2): "1/2"})


@pytest.fixture(scope="session")
def carpet_d():
    return _derive(4, 2, {(0, 0): "3/4", (2, 1): "1/4"})


class LevelCache:
    """Memoized partitions and antichains for one carpet."""

    def __init__(self, params):
        self.params = params
        self._parts = {}
        self._chains = {}

    def partition(self, k):
        if k not in self._parts:
            self._parts[k] = enumerate_lambda_k(self.params, k)
        return self._parts[k]

    def antichain(self, k):
        if k not in self._chains:
            self._chains[k] = build_antichain(self.partition(k))
        return self._chains[k]


@pytest.fixture(scope="session")
def cache_a(carpet_a):
    return LevelCache(carpet_a)


@pytest.fixture(scope="session")
def cache_b(carpet_b):
    return LevelCache(carpet_b)


@pytest.fixture(scope="session")
def cache_c(carpet_c):
    return LevelCache(carpet_c)


@pytest.fixture(scope="session")
def cache_d(carpet_d):
    return LevelCache(carpet_d)


def _tamper(part, drop=(), add=()):
    """``part`` without the words at indices ``drop``, and with each
    (word, mass) of ``add`` appended to the block of its length."""
    L = part.params.denom_lcm
    drop = set(drop)
    blocks = {}
    for h, (rows, nus) in part.blocks.items():
        keep = [pos for pos in range(len(nus))
                if part.offsets[h] + pos not in drop]
        blocks[h] = (rows[keep], [nus[pos] for pos in keep])
    for word, mass in add:
        h = len(word)
        nu = mass * L ** h
        assert nu.denominator == 1
        row = np.frombuffer(encode_word(word), dtype=np.uint8)[None, :]
        rows, nus = blocks.get(h, (row[:0], []))
        blocks[h] = (np.concatenate([rows, row]), nus + [int(nu)])
    return PartitionLambdaK(part.params, part.k, blocks,
                            entropy_sum=part.entropy_sum)


@pytest.fixture(scope="session")
def tamper():
    return _tamper
