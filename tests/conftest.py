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
fills every other cell of a 9 x 7 grid, and the 400-map carpet every
other cell of a 40 x 40 grid in both directions, past a uint8 digit.
"""

import json
import os
import subprocess
import sys
import tempfile
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

import carpetq
from carpetq import CarpetSpec, derive_params
from carpetq.coding import build_antichain
from carpetq.partition import PartitionLambdaK, enumerate_lambda_k
from carpetq.words import KeySet
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
def carpet_wide():
    # 400 maps of weight 1/400 on a 40 x 40 grid: map indices run to 399.
    return _derive(40, 40, {(i, j): "1/400" for i in range(0, 40, 2)
                            for j in range(0, 40, 2)})


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


# The walk each function that makes a ``KeySet`` runs: the repair's
# covered keys are made by ``build_antichain`` at a stage that swaps
# families and by ``_covered`` elsewhere.
_WALKS = {"ancestors": "ancestors", "_clashes": "clashes",
          "build_antichain": "covered", "_covered": "covered"}


@pytest.fixture
def key_sets(monkeypatch):
    """Every ``KeySet`` made while the test runs, as (walk, length,
    whether it is a table), in the order they were made."""
    made = []
    init = KeySet.__init__

    def spy(self, params, h, size):
        init(self, params, h, size)
        made.append((_WALKS[sys._getframe(1).f_code.co_name], h, self.dense))

    monkeypatch.setattr(KeySet, "__init__", spy)
    return made


# Starts the command argv[2:], kills it after 300 s, reaps it with os.wait4
# and writes its exit code, CPU seconds, peak RSS in MB and minor page
# faults to the file argv[1].  A child's ru_maxrss starts at its parent's
# peak RSS, so the command is started from this small interpreter: started
# from the test process, it would report that process's peak.
_WAIT4 = """
import json, os, signal, subprocess, sys
child = subprocess.Popen(sys.argv[2:])
signal.signal(signal.SIGALRM, lambda *_: child.kill())
signal.alarm(300)
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
with open(sys.argv[1], "w") as f:
    # ru_maxrss is in kB on Linux.
    json.dump([child.returncode, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024, usage.ru_minflt], f)
"""

CarpetqRun = namedtuple("CarpetqRun",
                        "returncode stdout stderr cpu_s peak_mb minflt")


def run_carpetq(*args, env=None):
    """Run ``python -m carpetq *args`` in its own interpreter from the
    package's source directory; return its exit code, stdout, stderr,
    CPU seconds, peak RSS in MB and minor page faults, read from one
    ``os.wait4``."""
    src = Path(carpetq.__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        usage = Path(tmp, "usage.json")
        done = subprocess.run(
            [sys.executable, "-c", _WAIT4, str(usage),
             sys.executable, "-m", "carpetq", *args],
            cwd=src, env=env, capture_output=True)
        assert done.returncode == 0, done.stderr.decode()
        returncode, cpu_s, peak_mb, minflt = json.loads(usage.read_text())
    return CarpetqRun(returncode, done.stdout, done.stderr, cpu_s, peak_mb,
                      minflt)


def run_commands(cfg, out, commands, hash_seed):
    """Run ``python -m carpetq <command> --config cfg --out out`` for each
    of ``commands`` in its own interpreter with ``PYTHONHASHSEED`` set to
    ``hash_seed``; return each command's stdout and then every file
    under ``out``, by name, as bytes."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    got = {}
    for command in commands:
        done = run_carpetq(command, "--config", str(cfg), "--out", str(out),
                           env=env)
        assert done.returncode == 0, done.stderr.decode()
        got[f"{command} stdout"] = done.stdout
    for path in sorted(Path(out).iterdir()):
        got[path.name] = path.read_bytes()
    return got
