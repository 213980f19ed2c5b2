"""Shared fixtures: the reference carpets and cached level data.

Carpet A is the workhorse (three maps, uniform weights, theta < 1).
Carpet B puts both maps in one column, so the column marginal is
trivial (q = 1) and several bounds degenerate.  Carpet C is square
(n = m), the theta = 1 edge where words are all pairs.  Carpet D has
skewed weights on a height-2 grid, giving wide stopping windows and
many replacement stages; it triggers the small-grid warning by design.
Carpet E (5x3, four maps of three different weights) pins the
partition's per-length entropy grouping: at k = 2 one correctly rounded
total over all lengths differs in the last bit from math.fsum over the
rounded per-length sums.  The skewed carpet puts D's cells at 99/100 and
1/100, so its k = 1 words run from length 3 to 917.  The 20-map carpet
fills every other cell of a 9 x 7 grid.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import carpetq
from carpetq import CarpetSpec, derive_params
from carpetq.coding import build_antichain
from carpetq.partition import PartitionLambdaK, enumerate_lambda_k
from oracles import keys_of


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


@pytest.fixture(scope="session")
def carpet_skewed():
    # Carpet D's cells with weights 99/100 and 1/100: at k = 1 the
    # heavy branch runs 917 digits deep before it stops.
    return _derive(4, 2, {(0, 0): "99/100", (2, 1): "1/100"})


@pytest.fixture(scope="session")
def carpet_many():
    # Twenty maps on a 9 x 7 grid, weighted 1/210 to 20/210: a move
    # index a * 20 + b of the walk runs to 399, past a uint8.
    cells = [(i, j) for i in range(0, 9, 2) for j in range(0, 7, 2)]
    return _derive(9, 7, {c: f"{w}/210" for w, c in enumerate(cells, 1)})


@pytest.fixture(scope="session")
def carpet_e():
    return _derive(5, 3, {(0, 0): "1/6", (2, 0): "1/3", (1, 2): "1/4",
                          (4, 2): "1/4"})


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


@pytest.fixture(scope="session")
def cache_e(carpet_e):
    return LevelCache(carpet_e)


def _tamper(part, drop=(), add=()):
    """``part`` without the words at indices ``drop``, and with each
    (word, mass) of ``add`` appended to the block of its length."""
    L = part.params.denom_lcm
    drop = set(drop)
    blocks = {}
    for h, (keys, ids, nus) in part.blocks.items():
        keep = [pos for pos in range(len(ids))
                if part.offsets[h] + pos not in drop]
        blocks[h] = (keys[keep], ids[keep], nus)
    for word, mass in add:
        h = len(word)
        nu = mass * L ** h
        assert nu.denominator == 1
        key = keys_of(part.params, h, [word])
        keys, ids, nus = blocks.get(h, (key[:0], np.empty(0, np.uint8), []))
        nus = nus + [int(nu)]
        ids = np.append(ids, len(nus) - 1).astype(np.min_scalar_type(len(nus)))
        blocks[h] = (np.concatenate([keys, key]), ids, nus)
    return PartitionLambdaK(part.params, part.k, blocks)


@pytest.fixture(scope="session")
def tamper():
    return _tamper


def run_commands(cfg, out, commands, hash_seed):
    """Run ``python -m carpetq <command> --config cfg --out out`` for each
    of ``commands`` in its own interpreter with ``PYTHONHASHSEED`` set to
    ``hash_seed``; return each command's stdout and then every file
    under ``out``, by name, as bytes."""
    src = Path(carpetq.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    got = {}
    for command in commands:
        done = subprocess.run(
            [sys.executable, "-m", "carpetq", command, "--config", str(cfg),
             "--out", str(out)],
            cwd=src, env=env, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        got[f"{command} stdout"] = done.stdout
    for path in sorted(Path(out).iterdir()):
        got[path.name] = path.read_bytes()
    return got
