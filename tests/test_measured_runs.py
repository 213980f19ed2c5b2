"""``carpetq`` runs at sizes no other test reaches, each command in its
own interpreter.  Each prints its commands' peak RSS and CPU time; only
the skewed certificates bound CPU, which varies too much between
machines to bound the others."""

import hashlib
import json

import pytest

from conftest import run_carpetq

_A = {"n": 4, "m": 3, "maps": [{"i": 0, "j": 0, "p": "1/3"},
                               {"i": 0, "j": 2, "p": "1/3"},
                               {"i": 2, "j": 2, "p": "1/3"}]}
_D = {"n": 4, "m": 2, "maps": [{"i": 0, "j": 0, "p": "3/4"},
                               {"i": 2, "j": 1, "p": "1/4"}]}
_SKEWED = {"n": 4, "m": 2, "maps": [{"i": 0, "j": 0, "p": "99/100"},
                                    {"i": 2, "j": 1, "p": "1/100"}]}

# sha256 of the tables the aggregate program writes for carpet D at
# k = 2..60, levels no other test pins: k = 60 has about 3.2 * 10^72 words.
_D60_DIGESTS = {
    "partition.csv":
        "bb3645a9d23342739a90295a9b5aef46bb4832839f1fd195a58e21fc88b1e121",
    "sequences.csv":
        "2addfdd3b9f2a3813c222cc18fb64e9e74537be279e872ebb292242eba51309e",
}

# Run id, config, commands, extra flags, checks: "peak_mb" bounds each
# command's peak RSS, "cpu_s" the CPU time of all commands together,
# "levels" the k of quantize.json's levels (none floored), and "sha256"
# the tables written.
RUNS = [
    # 8,857,350 words: above the default --cap-words, so raise it, or the
    # commands fall back to aggregates and skip the exact checks.
    ("a7", {**_A, "k_min": 7, "k_max": 7}, ("partition", "antichain"),
     ("--cap-words", "9000000"), {"peak_mb": 1000}),
    # 106,489 words over lengths 3-917, most of them with object keys:
    # disjointness, the antichain repair and verify must each walk all
    # words down together, one step per length.
    ("skewed", {**_SKEWED, "k_min": 1, "k_max": 1},
     ("partition", "antichain"), (), {"cpu_s": 10}),
    ("a-quantize", {**_A, "k_min": 2, "k_max": 5, "cloud_size": 1000000},
     ("quantize",), (), {"peak_mb": 60}),
    # Words down to length 116; k = 12 has 514,594,486,691,789 words over
    # lengths 25-116.  quantize enumerates no level and, like every
    # quantize run, holds no array per sample.
    ("d-quantize", {**_D, "k_min": 2, "k_max": 12, "cloud_size": 1000000,
                    "outputs": ["json"]},
     ("quantize",), (), {"peak_mb": 80, "levels": list(range(2, 13))}),
    # Cells 2^-916 by 2^-917, whose squared sides underflow; each
    # sample's log distance is formed with the wider side factored out.
    # The peak is set by one chunk of 937 digits a sample.
    ("skewed-quantize", {**_SKEWED, "k_min": 1, "k_max": 1,
                         "cloud_size": 100000, "outputs": ["json"]},
     ("quantize",), (), {"peak_mb": 130, "levels": [1]}),
    ("d60", {**_D, "k_min": 2, "k_max": 60, "outputs": ["csv", "json"]},
     ("partition", "sequences"), (), {"sha256": _D60_DIGESTS}),
]


@pytest.mark.parametrize("config, commands, flags, checks",
                         [pytest.param(*run[1:], id=run[0]) for run in RUNS])
def test_measured_run(tmp_path, config, commands, flags, checks):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    cpu_s = 0.0
    for command in commands:
        done = run_carpetq(command, "--config", str(cfg), "--out", str(out),
                           *flags)
        cpu_s += done.cpu_s
        print(f"{command}: peak RSS {done.peak_mb:.0f} MB, "
              f"CPU {done.cpu_s:.2f} s")
        assert done.returncode == 0, done.stderr.decode()
        assert done.peak_mb <= checks.get("peak_mb", float("inf"))
    assert cpu_s <= checks.get("cpu_s", float("inf"))
    if "levels" in checks:
        levels = json.loads((out / "quantize.json").read_text())["levels"]
        assert [level["k"] for level in levels] == checks["levels"]
        assert not any(level["floored"] for level in levels)
    digests = checks.get("sha256", {})
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in digests} == digests
