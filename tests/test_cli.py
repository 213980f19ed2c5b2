"""Command surface: outputs, determinism, exit codes, config handling."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import carpetq
import carpetq.cli as cli
import carpetq.partition as partition
from carpetq import quantizer
from carpetq.cli import ConfigError, load_config, main
from carpetq.coding import AntichainCollisionError, AntichainInvariantError
from carpetq.partition import DisjointnessReport
from carpetq.report import read_csv
from conftest import run_carpetq, run_commands
from oracles import word_at_threshold


_CARPET_D = dict(n=4, m=2, maps=[
    {"i": 0, "j": 0, "p": "3/4"}, {"i": 2, "j": 1, "p": "1/4"}])


def _config(tmp_path, **overrides):
    """A config file: carpet A, with ``overrides``; an override of ``...``
    drops its key."""
    cfg = {
        "n": 4, "m": 3,
        "maps": [
            {"i": 0, "j": 0, "p": "1/3"},
            {"i": 0, "j": 2, "p": "1/3"},
            {"i": 2, "j": 2, "p": "1/3"},
        ],
        "k_min": 2, "k_max": 3,
        "cloud_size": 20_000, "seed": 24301,
        "outputs": ["csv", "json"],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value for key, value in cfg.items()
                                if value is not ...}))
    return str(path)


def test_load_config_defaults(tmp_path):
    path = tmp_path / "min.json"
    path.write_text(json.dumps({
        "n": 4, "m": 3,
        "maps": [{"i": 0, "j": 0, "p": "1/2"}, {"i": 2, "j": 2, "p": "1/2"}],
    }))
    cfg = load_config(path)
    assert cfg.k_min == 2 and cfg.k_max == 4
    assert cfg.cloud_size == 1_000_000
    assert cfg.seed == 0x5EED
    assert cfg.outputs == ("csv",)


@pytest.mark.parametrize("broken,needle", [
    ({"n": None}, "n"),
    ({"maps": []}, "maps"),
    ({"maps": [{"i": 0, "j": 0}]}, "map"),
    ({"k_min": 0}, "k_min"),
    ({"k_max": 1}, "k_max"),
    ({"outputs": ["pdf"]}, "outputs"),
    ({"cloud_size": 0}, "cloud_size"),
    ({"bogus": 1}, "bogus"),
    ({"seed": -1}, "seed"),
    ({"n": ...}, "missing required key 'n'"),
    ({"maps": [{"i": 0, "j": 0, "p": "one third"},
               {"i": 2, "j": 2, "p": "2/3"}]},
     "cannot parse weight 'one third'"),
])
def test_load_config_rejects(tmp_path, capsys, broken, needle):
    path = _config(tmp_path, **broken)
    with pytest.raises(ConfigError, match=needle):
        load_config(path)
    assert main(["validate", "--config", path, "--out",
                 str(tmp_path / "o")]) == 2
    assert needle in json.loads(capsys.readouterr().err)["error"]


def test_load_config_duplicate_cell(tmp_path):
    path = _config(tmp_path, maps=[
        {"i": 0, "j": 0, "p": "1/2"}, {"i": 0, "j": 0, "p": "1/2"}])
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path)


@pytest.mark.parametrize("maps", [
    [{"i": False, "j": 0, "p": "1/2"}, {"i": 2, "j": 2, "p": "1/2"}],
    [{"i": 0, "j": 0, "p": "1/2"}, {"i": 2, "j": True, "p": "1/2"}],
])
def test_validate_rejects_boolean_map_digits(tmp_path, capsys, maps):
    # As ints, false and true would be the valid cells (0, 0) and (2, 1).
    cfg = _config(tmp_path, maps=maps)
    assert main(["validate", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    assert "each map must be" in capsys.readouterr().err


def test_validate_command(tmp_path, capsys):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "s0 = 0.912713497619" in text
    data = json.loads((out / "validate.json").read_text())
    assert data["s0"] == pytest.approx(0.9127134976190284, abs=1e-15)


def test_validate_command_fails_bad_carpet(tmp_path, capsys):
    cfg = _config(tmp_path, maps=[
        {"i": 0, "j": 0, "p": "1/2"}, {"i": 1, "j": 0, "p": "1/2"}])
    assert main(["validate", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "separation" in err


@pytest.mark.parametrize("command", ["validate", "partition"])
def test_grid_note_on_stdout(tmp_path, command):
    # Carpet D's grid factor 2 draws validate_spec's warning, from the
    # spec's check and again from derive_params; the command prints it
    # once on stdout as a note and leaves stderr empty.
    cfg = _config(tmp_path, k_max=2, **_CARPET_D)
    done = run_carpetq(command, "--config", cfg, "--out",
                       str(tmp_path / "out"))
    assert done.returncode == 0
    assert done.stderr == b""
    notes = [line for line in done.stdout.decode().splitlines()
             if line.startswith("note: ")]
    assert len(notes) == 1 and "grid factor min(n, m) = 2 < 3" in notes[0]


@pytest.mark.parametrize("command", ["partition", "antichain", "sequences",
                                     "quantize", "report"])
def test_invalid_carpet_other_commands_exit_2(tmp_path, capsys, command):
    # The output directory already holds valid tables, so report has
    # something to chart and must refuse the carpet itself.
    out = str(tmp_path / "o")
    for table in ("sequences", "quantize"):
        assert main([table, "--config", _config(tmp_path, k_max=2),
                     "--out", out]) == 0
    cfg = _config(tmp_path, maps=[
        {"i": 0, "j": 0, "p": "1/2"}, {"i": 1, "j": 0, "p": "1/2"}])
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", out]) == 2
    assert "invalid carpet" in capsys.readouterr().err


def test_partition_command(tmp_path):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    assert main(["partition", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "partition.csv")
    assert header[:4] == ["k", "phi_k", "xi_min", "xi_max"]
    assert [r[0] for r in rows] == ["2", "3"]
    assert [r[1] for r in rows] == ["189", "1701"]
    assert all(r[-1] == "true" for r in rows)


def test_antichain_command(tmp_path, capsys):
    cfg = _config(tmp_path, k_min=4, k_max=4)
    out = tmp_path / "out"
    assert main(["antichain", "--config", cfg, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "maximal: true, mass: 1 (exact), delta_k <= C1: true" in text
    header, rows = read_csv(out / "antichain.csv")
    assert rows[0][header.index("size")] == "10935"
    assert rows[0][header.index("pass")] == "true"


def test_sequences_command_exact_columns(tmp_path):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    assert main(["sequences", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "sequences.csv")
    assert header == ["k", "phi_k", "xi_min", "xi_max", "d_k", "t_k", "s_k",
                      "s0", "bound_dk", "bound_sk", "pass"]
    assert len(rows) == 2
    for row in rows:
        assert float(row[7]) == pytest.approx(0.9127134976190284, abs=1e-15)
        assert row[10] == "true"


def test_sequences_constant_on_square_grid(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "n": 3, "m": 3,
        "maps": [{"i": 0, "j": 0, "p": "1/2"}, {"i": 2, "j": 2, "p": "1/2"}],
        "k_min": 2, "k_max": 5,
    }))
    out = tmp_path / "out"
    assert main(["sequences", "--config", str(path), "--out", str(out)]) == 0
    header, rows = read_csv(out / "sequences.csv")
    s0 = math.log(2) / math.log(3)
    for row in rows:
        assert float(row[header.index("s_k")]) == pytest.approx(s0,
                                                                abs=1e-12)


def test_quantize_command_exact_columns(tmp_path):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    assert main(["quantize", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "quantize.csv")
    assert header == ["k", "phi_k", "lower_anchor", "upper_anchor",
                      "e_hat_est", "stderr", "R_k"]
    for row in rows:
        lower, upper = float(row[2]), float(row[3])
        est, stderr = float(row[4]), float(row[5])
        assert lower < upper
        assert est <= upper + 3 * stderr
    ball = json.loads((out / "quantize.json").read_text())["ball"]
    assert ball["skipped"] is False and ball["failures"] == 0


def test_quantize_ball_skip_reported(tmp_path, capsys):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({
        "n": 4, "m": 3,
        "maps": [{"i": 0, "j": 0, "p": "1/2"}, {"i": 2, "j": 0, "p": "1/2"}],
        "k_min": 2, "k_max": 2, "cloud_size": 5000,
        "outputs": ["json"],
    }))
    out = tmp_path / "out"
    assert main(["quantize", "--config", str(path), "--out", str(out)]) == 0
    assert "skipped" in capsys.readouterr().out
    ball = json.loads((out / "quantize.json").read_text())["ball"]
    assert ball["skipped"] is True and "column" in ball["reason"]


def test_report_command(tmp_path):
    # Levels 2..3, and level 3 alone, whose charts have a single k.
    for k_min in (2, 3):
        cfg = _config(tmp_path, k_min=k_min)
        out = tmp_path / f"out{k_min}"
        for command in ("sequences", "quantize", "report"):
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
        seq_svg = (out / "sequences.svg").read_text()
        assert seq_svg.startswith("<svg")
        assert "s_k" in seq_svg and "s0" in seq_svg
        assert (out / "quantize.svg").read_text().startswith("<svg")


def test_report_nothing_to_report(tmp_path, capsys):
    cfg = _config(tmp_path)
    out = tmp_path / "empty"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 2
    assert "nothing to report" in capsys.readouterr().err


def test_report_rowless_table_exits_2(tmp_path, capsys):
    # A header-only quantize table, as a run over no level would write.
    cfg = _config(tmp_path, k_min=3, k_max=3)
    out = tmp_path / "out"
    out.mkdir()
    (out / "quantize.csv").write_text(
        "k,phi_k,lower_anchor,upper_anchor,e_hat_est,stderr,R_k\n")
    assert main(["report", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "nothing to report" in json.loads(err)["error"]
    assert not (out / "quantize.svg").exists()


@pytest.mark.parametrize("table,needle", [
    ("k,t_k,s_k,s0\n2,,0.9,0.91\n", "sequences.csv has no 'd_k' column"),
    ("", "cannot read sequences.csv"),
    ("k,d_k,t_k,s_k,s0\n2,0.5,,0.9\n", "cannot read sequences.csv"),
    ("k,d_k,t_k,s_k,s0\n2,oops,,0.9,0.91\n", "column 'd_k'"),
    ("k,d_k,t_k,s_k,s0\n2,nan,,0.9,0.91\n", "column 'd_k': non-finite"),
    ("k,d_k,t_k,s_k,s0\n2,0.5,-inf,0.9,0.91\n", "column 't_k': non-finite"),
], ids=["missing-column", "empty", "ragged", "non-numeric", "nan",
        "infinite"])
def test_report_malformed_table_exits_2(tmp_path, capsys, table, needle):
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "sequences.csv").write_text(table)
    assert main(["report", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert needle in json.loads(err)["error"]
    assert not (out / "sequences.svg").exists()


def test_runs_byte_identical(tmp_path):
    # Two interpreters with different string-hash seeds write the same
    # bytes, so no output depends on set or dict hashing order.
    cfg = _config(tmp_path)
    runs = [run_commands(cfg, tmp_path / f"h{seed}",
                         ("partition", "sequences", "quantize"), seed)
            for seed in (0, 12345)]
    assert {"partition.csv", "sequences.json", "quantize.csv"} <= set(runs[0])
    assert runs[0] == runs[1]


def test_csv_values_round_trip_library(tmp_path, carpet_a):
    from carpetq.sequences import compute_d_k
    cfg = _config(tmp_path)
    out = tmp_path / "out"
    assert main(["sequences", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "sequences.csv")
    for row in rows:
        k = int(row[0])
        assert float(row[header.index("d_k")]) == compute_d_k(carpet_a, k)


_CAP_NOTE = "level k=3: 1701 words exceed --cap-words 200, aggregates only"

# stdout of each level command on carpet A at k = 2..3 with --cap-words
# 200: k = 2 (189 words) is collected and k = 3 (1,701) is aggregates only.
# quantize collects no level, so the cap leaves it whole.
_OVER_CAP_STDOUT = {
    "partition": [
        "partition k=2: phi=189 xi=[5,6] pass",
        _CAP_NOTE,
        "partition k=3: phi=1701 xi=[7,8] pass",
    ],
    "antichain": [
        "antichain k=2: maximal: true, mass: 1 (exact), delta_k <= C1: true",
        _CAP_NOTE,
    ],
    "sequences": [
        "sequences k=2: d_k=0.789690082 t_k=0.845486591 s_k=0.862654748 "
        "s0=0.912713498 pass",
        _CAP_NOTE,
        "sequences k=3: d_k=0.859793388 s_k=0.899553472 s0=0.912713498 pass",
    ],
    "quantize": [
        "quantize k=2: e_hat=-6.000984 anchors [-5.981334, -4.730543] "
        "R_k=-0.257947",
        "quantize k=3: e_hat=-8.565904 anchors [-8.178558, -7.419404] "
        "R_k=-0.415513",
        "quantize ball bound: pass (max ratio 0.0275)",
    ],
}


@pytest.mark.parametrize("command", sorted(_OVER_CAP_STDOUT))
def test_cap_words_streams_large_levels(tmp_path, capsys, command):
    cfg = _config(tmp_path, cloud_size=5000)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out),
                 "--cap-words", "200"]) == 0
    assert capsys.readouterr().out.splitlines() == _OVER_CAP_STDOUT[command]
    header, rows = read_csv(out / f"{command}.csv")
    cells = {row[0]: dict(zip(header, row)) for row in rows}
    if command == "antichain":
        assert list(cells) == ["2"]
    elif command == "partition":
        assert [cells[k]["disjoint"] for k in ("2", "3")] == ["true",
                                                             "skipped"]
    else:
        assert list(cells) == ["2", "3"]
    if command == "sequences":
        assert cells["2"]["t_k"] != "" and cells["3"]["t_k"] == ""


def test_partition_disjointness_failure_exits_1(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setattr(cli, "check_square_disjointness",
                        lambda part: DisjointnessReport(
                            checked=part.phi_k, violations=((0, 1),)))
    cfg = _config(tmp_path, k_min=2, k_max=2)
    out = tmp_path / "out"
    assert main(["partition", "--config", cfg, "--out", str(out)]) == 1
    failures = json.loads(capsys.readouterr().err)["failures"]
    assert [f["check"] for f in failures] == ["disjointness"]
    assert failures[0]["detail"] == "1 overlapping interiors"
    header, rows = read_csv(out / "partition.csv")
    assert rows[0][header.index("disjoint")] == "false"
    assert rows[0][header.index("pass")] == "false"


def test_antichain_maximality_failure_exits_1(tmp_path, capsys,
                                              monkeypatch):
    real = cli.verify_maximal_antichain
    monkeypatch.setattr(cli, "verify_maximal_antichain",
                        lambda chain: dataclasses.replace(
                            real(chain), comparable_pairs=((0, 1), (2, 3))))
    cfg = _config(tmp_path, k_min=2, k_max=2)
    out = tmp_path / "out"
    assert main(["antichain", "--config", cfg, "--out", str(out)]) == 1
    failures = json.loads(capsys.readouterr().err)["failures"]
    assert [f["check"] for f in failures] == ["maximality"]
    header, rows = read_csv(out / "antichain.csv")
    assert rows[0][header.index("comparable_pairs")] == "(0:1 2:3)"
    assert rows[0][header.index("pass")] == "false"


def test_antichain_word_at_threshold_exits_1(tmp_path, capsys,
                                             monkeypatch):
    # A store with one word raised to eta^k and the total mass kept at
    # exactly 1 is maximal, but not the level's antichain.
    real = cli.build_antichain
    monkeypatch.setattr(cli, "build_antichain",
                        lambda part: word_at_threshold(part, real(part)))
    cfg = _config(tmp_path, k_min=2, k_max=2)
    out = tmp_path / "out"
    assert main(["antichain", "--config", cfg, "--out", str(out)]) == 1
    failures = json.loads(capsys.readouterr().err)["failures"]
    assert failures[0] == {"command": "antichain", "k": 2,
                           "check": "threshold",
                           "detail": "a word's mass is at or above eta^2"}
    header, rows = read_csv(out / "antichain.csv")
    assert rows[0][header.index("mass_exact")] == "true"
    assert rows[0][header.index("comparable_pairs")] == "()"
    assert rows[0][header.index("pass")] == "false"


def test_t_k_outside_its_bound_fails_sequences(tmp_path, capsys,
                                               monkeypatch):
    # t_k is gated like d_k and s_k: at 100 it lies far outside t_bound at
    # the antichain's shortest length, so the level fails its bounds.
    monkeypatch.setattr(cli, "sequence_point",
                        _replacing(t_k=100.0)(cli.sequence_point))
    cfg = _config(tmp_path, k_min=2, k_max=2)
    out = tmp_path / "out"
    assert main(["sequences", "--config", cfg, "--out", str(out)]) == 1
    failures = json.loads(capsys.readouterr().err)["failures"]
    assert [f["check"] for f in failures] == ["bounds"]
    assert "t_k=100.0" in failures[0]["detail"]
    header, rows = read_csv(out / "sequences.csv")
    assert rows[0][header.index("pass")] == "false"


@pytest.mark.parametrize("command", ["antichain", "sequences"])
@pytest.mark.parametrize("error", [
    AntichainInvariantError("family over column 2 is missing siblings"),
    AntichainCollisionError("replacement collision at length 6"),
], ids=["invariant", "collision"])
def test_antichain_invariant_failure_exits_1(tmp_path, capsys, monkeypatch,
                                             command, error):
    real = cli.build_antichain

    def failing(part):
        if part.k == 3:
            raise error
        return real(part)

    monkeypatch.setattr(cli, "build_antichain", failing)
    cfg = _config(tmp_path, k_min=2, k_max=3)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["failures"] == [
        {"command": command, "k": 3, "check": "antichain-invariant",
         "detail": str(error)}]
    header, rows = read_csv(out / f"{command}.csv")
    assert [row[0] for row in rows] == (
        ["2"] if command == "antichain" else ["2", "3"])


def _replacing(**fields):
    # Wraps a layer call so that some fields of its result are overwritten.
    return lambda real: lambda *args, **kwargs: dataclasses.replace(
        real(*args, **kwargs), **fields)


def _shift_first_length(real):
    # Moves the mass of the level's shortest words to the next length,
    # so the samples that stop there outnumber the mass they should
    # carry.
    def shifted(params, k):
        stats = real(params, k)
        sums = dict(stats.length_nu_sums)
        h = min(sums)
        sums[h + 1] += sums.pop(h) * params.denom_lcm
        return dataclasses.replace(stats, length_nu_sums=sums)
    return shifted


# (command, cli attribute, wrapper for it, check that must fail)
_FAULTS = [
    ("partition", "partition_stats", _replacing(mass_exact=False), "mass"),
    ("partition", "partition_stats", _replacing(phi_window_ok=False),
     "phi-window"),
    ("partition", "partition_stats", _replacing(xi_window_ok=False),
     "xi-window"),
    ("partition", "partition_stats", _replacing(ratio_bounds_ok=False),
     "ratio-bounds"),
    ("antichain", "delta_k", lambda real: lambda chain: 1e6, "delta-bound"),
    ("sequences", "sequence_point", _replacing(s_k=100.0), "bounds"),
    ("quantize", "r_k_diagnostic", _replacing(e_hat_est=10.0),
     "upper-anchor"),
    ("quantize", "r_k_diagnostic", _replacing(lower_anchor=0.0),
     "anchor-gap"),
    ("quantize", "stopped_statistics", _shift_first_length,
     "length-shares"),
    ("quantize", "ball_bound_check",
     _replacing(failures=((2, Fraction(2), 0.5),)), "ball-bound"),
]


@pytest.mark.parametrize("command,attr,wrap,check", _FAULTS,
                         ids=[fault[3] for fault in _FAULTS])
def test_check_failure_exits_1(tmp_path, capsys, monkeypatch, command, attr,
                               wrap, check):
    monkeypatch.setattr(cli, attr, wrap(getattr(cli, attr)))
    cfg = _config(tmp_path, k_min=2, k_max=2, cloud_size=5000)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    failures = json.loads(err)["failures"]
    assert [f["check"] for f in failures] == [check]
    header, rows = read_csv(out / f"{command}.csv")
    assert [row[0] for row in rows] == ["2"]
    if "pass" in header:
        assert rows[0][header.index("pass")] == "false"


def test_length_shares_band(carpet_a):
    # Carpet A at k = 2 puts mass 5/9 on length 5 and 4/9 on length 6.
    # Of 9,000 samples, 5,000 are expected at length 5, with a binomial
    # sd of 47.1, so the band is 5,000 +- 297.8; a length the level lacks
    # is allowed 15 samples.
    stats = partition.stopped_statistics(carpet_a, 2)
    assert [float(Fraction(s, 3 ** h)) * 9 for h, s in
            stats.length_nu_sums.items()] == pytest.approx([5, 4])

    def counts(at5, at6, at7=0):
        # Samples per length, from length 0.
        return np.array([0] * 5 + [at5, at6, at7], np.int64)

    assert cli._stray_lengths(stats, counts(5297, 3703)) == []
    assert [h for h, _, _ in cli._stray_lengths(
        stats, counts(5298, 3702))] == [5, 6]
    assert cli._stray_lengths(stats, counts(5000, 3985, 15)) == []
    assert cli._stray_lengths(stats, counts(5000, 3984, 16)) == [
        (7, 16, 0.0)]


# sha256 of every table the exact commands write for carpet A at
# k = 2..4.  The entropy cells hold the bits of four float sums: the
# aggregate program's (stopped_statistics), which partition.csv's
# entropy_sum and sequences.csv's s_k show on every level, collected or
# not; the collected partition's per-length sums added with math.fsum,
# which reach only antichain.csv's delta_k; the antichain's correctly
# rounded total; and the stage logs' sums.
_FROZEN_DIGESTS = {
    "partition.csv":
        "398885844aa507418acbb6b8e851d25dc403b2d6fc7900dd0878bd76deeea436",
    "partition.json":
        "60f2e148d684e95a7134e7bd2bdff9f894b23a805cc0869f313ba90b3de1c7bf",
    "antichain.csv":
        "17cfe5c8525f68778fc40e3e703648449cecb83ab4682b25195bd5252ba296e1",
    "antichain.json":
        "e5f42039cf511e3a58e6f0e8a074166f954eccb3f291c0d38674c81f5fc07011",
    "sequences.csv":
        "b77be58aa28746e91dbb3f03fd2faa9b84b1c2c01ec3736fac5b030d1b56559b",
    "sequences.json":
        "d626c5274b626e3e27f8b2ba319bc17280c1987953b9efa66f26b8be7ca66b9e",
}


def test_exact_outputs_frozen(tmp_path):
    cfg = _config(tmp_path, k_min=2, k_max=4)
    out = tmp_path / "out"
    for command in ("partition", "antichain", "sequences"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in _FROZEN_DIGESTS}
    assert got == _FROZEN_DIGESTS


# sha256 of the antichain tables for carpet D at k = 2..4.  Each level
# runs 8 to 15 replacement stages, so these pin the family order and the
# stage logs' max_family_gap and removed mass, which carpet A's
# single-stage levels leave untested.  The tables carry no stage entropy
# sums; test_coding.STAGE_LOG_DIGESTS pins those.
_FROZEN_DIGESTS_D = {
    "antichain.csv":
        "fbbba71592bd56ac9962b599474c727b2d65183921bc23a133785e88ddcc7f1d",
    "antichain.json":
        "3d9752ae4988c5723fc7f14ff582b56c52ed5aca4e048f2436d4d4395e8c8790",
}


def test_exact_outputs_frozen_carpet_d(tmp_path):
    cfg = _config(tmp_path, k_min=2, k_max=4, **_CARPET_D)
    out = tmp_path / "out"
    assert main(["antichain", "--config", cfg, "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in _FROZEN_DIGESTS_D}
    assert got == _FROZEN_DIGESTS_D


# sha256 of quantize.csv and quantize.json for carpets A, D and E at
# k = 2..4 from a 50,000-point cloud at seed 24301, each sample drawn 20
# digits past the deepest level's longest words (30, 59 and 31 digits).
# They pin the sampled cloud, every sample's located cell and own-cell log
# distance (through the mean and the stderr) and the ball certificate's
# worst ratio.
_FROZEN_QUANTIZE = {
    "A": ("cec088ff5538a160e989f964e4d32173a74bd3c14a88e601e8a27488acf7ad2a",
          "bea162a7b5f2be767b2ab1af97971afbfec34b1e063aa2a48a154327d72661f9"),
    "D": ("e83c56ccd733cc3a77914632e8c7002761677f33fa4f177441d67f7f9e4934af",
          "2092a556b50248998c249f64ec7b87d866a01dd55eb405a709babe1ef5a0e02b"),
    "E": ("c35a254b21b6d90c13141219e2814ee99454b13b749d970ec3b1847769be20c4",
          "133c1e761cd0b984ace5c81e914efdd979bfbe697f76b2cb654032370c2e1f15"),
}
_CARPET_E = dict(n=5, m=3, maps=[
    {"i": 0, "j": 0, "p": "1/6"}, {"i": 2, "j": 0, "p": "1/3"},
    {"i": 1, "j": 2, "p": "1/4"}, {"i": 4, "j": 2, "p": "1/4"}])


@pytest.mark.parametrize("carpet", sorted(_FROZEN_QUANTIZE))
def test_quantize_outputs_frozen(tmp_path, carpet):
    extra = {"D": _CARPET_D, "E": _CARPET_E}.get(carpet, {})
    cfg = _config(tmp_path, k_min=2, k_max=4, cloud_size=50_000, **extra)
    # quantize collects no level, so --cap-words 1 changes no byte.
    for cap in ([], ["--cap-words", "1"]):
        out = tmp_path / f"out{len(cap)}"
        assert main(["quantize", "--config", cfg, "--out", str(out),
                     *cap]) == 0
        got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("quantize.csv", "quantize.json"))
        assert got == _FROZEN_QUANTIZE[carpet]


def test_import_leaves_scipy_unloaded(tmp_path):
    # scipy is a test dependency only: neither the import nor a quantize
    # run loads it.
    src = Path(carpetq.__file__).resolve().parents[1]
    cfg = _config(tmp_path, cloud_size=2000)
    code = ("import sys, carpetq, carpetq.cli; "
            f"code = carpetq.cli.main(['quantize', '--config', {cfg!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]); "
            "print(code, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "0 []"


def test_shallow_cloud_guard_exits_2(tmp_path, capsys, monkeypatch):
    # The skewed carpet's k = 2 words reach length 1,833, and each sample
    # is drawn 20 digits past the longest: 1,853, more than the 1,074 a
    # sample holds.  The guard trips before any chunk is drawn or any
    # level is quantized.
    chunks = []

    def counted(cloud, depth):
        chunks.append(depth)
        return iter(())

    monkeypatch.setattr(quantizer.SampleCloud, "chunks", counted)
    cfg = _config(tmp_path, n=4, m=2, maps=[
        {"i": 0, "j": 0, "p": "99/100"}, {"i": 2, "j": 1, "p": "1/100"}],
        k_min=1, k_max=2, cloud_size=2000)
    out = tmp_path / "out"
    assert main(["quantize", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.err) == {
        "error": "level k=2: words of length 1833 need 1853 digits a "
                 "sample, more than 1074"}
    assert chunks == []
    assert "quantize k=" not in captured.out


def test_ignored_depth_key_notes_once(tmp_path, capsys):
    # A config may still set the cloud depth; it has no effect, so the
    # run writes what it writes without the key, and says so once.
    runs = []
    for extra in ({}, {"depth": 40}):
        cfg = _config(tmp_path, cloud_size=5000, **extra)
        out = tmp_path / f"out{len(extra)}"
        assert main(["quantize", "--config", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        notes = [line for line in captured.out.splitlines()
                 if line.startswith("note: ")]
        runs.append((notes, (out / "quantize.csv").read_bytes()))
    assert runs[0][0] == []
    assert runs[1][0] == ["note: config key 'depth' is ignored: the cloud "
                          "is drawn as deep as the levels need"]
    assert runs[0][1] == runs[1][1]


def test_tiny_cells_quantize(tmp_path):
    # Carpet D's cells at 99/100 and 1/100 have k = 1 words of length
    # 917, cells 2^-916 across, whose squared sides underflow; their log
    # distances do not, so quantize measures the level.
    cfg = _config(tmp_path, n=4, m=2, maps=[
        {"i": 0, "j": 0, "p": "99/100"}, {"i": 2, "j": 1, "p": "1/100"}],
        k_min=1, k_max=1, cloud_size=2000)
    out = tmp_path / "out"
    assert main(["quantize", "--config", cfg, "--out", str(out)]) == 0
    levels = json.loads((out / "quantize.json").read_text())["levels"]
    assert [level["k"] for level in levels] == [1]
    _, rows = read_csv(out / "quantize.csv")
    assert float(rows[0][4]) < -100


def test_deep_cloud_quantizes_carpet_d_unfloored(tmp_path):
    # Carpet D's words reach length 39 at k = 4; the cloud is drawn as
    # deep as they need, with no key for it in the config.
    cfg = _config(tmp_path, k_min=2, k_max=4, cloud_size=20_000,
                  **_CARPET_D)
    out = tmp_path / "out"
    assert main(["quantize", "--config", cfg, "--out", str(out)]) == 0
    levels = json.loads((out / "quantize.json").read_text())["levels"]
    assert [(level["k"], level["floored"]) for level in levels] == [
        (2, 0), (3, 0), (4, 0)]


@pytest.mark.parametrize("command,attr", [
    ("partition", "enumerate_lambda_k"), ("quantize", "draw_cloud"),
    ("quantize", "r_k_diagnostic"),
])
def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, command, attr):
    # The first level runs out, or the cloud before any level.
    where = {"enumerate_lambda_k": "partition k=2", "draw_cloud": "quantize",
             "r_k_diagnostic": "quantize k=2"}[attr]

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, attr, exhausted)
    cfg = _config(tmp_path, cloud_size=2000)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err) == {"error": f"{where}: out of memory"}


def test_quantize_collects_no_level(tmp_path, monkeypatch):
    # quantize reads each level's profile and each sample's digits; it
    # never enumerates a level's words.
    def refused(*args, **kwargs):
        raise AssertionError("quantize enumerated a level")

    monkeypatch.setattr(cli, "enumerate_lambda_k", refused)
    cfg = _config(tmp_path, cloud_size=2000)
    out = tmp_path / "out"
    assert main(["quantize", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "quantize.csv")
    assert [row[0] for row in rows] == ["2", "3"]


def test_out_of_memory_names_the_level(tmp_path, capsys, monkeypatch):
    build = cli.build_antichain

    def exhausted_at_3(part):
        if part.k == 3:
            raise MemoryError
        return build(part)

    monkeypatch.setattr(cli, "build_antichain", exhausted_at_3)
    cfg = _config(tmp_path, k_max=4)
    out = tmp_path / "out"
    assert main(["antichain", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert json.loads(captured.err) == {
        "error": "antichain k=3: out of memory"}
    assert "antichain k=2: maximal: true" in captured.out


def test_dp_state_guard_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(partition, "MAX_DP_STATES", 2)
    cfg = _config(tmp_path, k_min=2, k_max=4, **_CARPET_D)
    out = tmp_path / "out"
    assert main(["partition", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err) == {
        "error": "stopped_statistics exceeded 2 states"}


def _perfbench_worker():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_benchmark_contract_names_resolve():
    # The traced benchmark pass wraps these cli attributes by name.
    missing = [attr for attr in _perfbench_worker().CLI_LAYER_CALLS
               if not hasattr(cli, attr)]
    assert missing == []
    for name in carpetq.__all__:
        getattr(carpetq, name)


def test_benchmark_contract_names_are_called(tmp_path, monkeypatch):
    # The six commands reach every wrapped layer call through its cli
    # attribute, so the traced pass sees each one.
    worker = _perfbench_worker()
    calls = dict.fromkeys(worker.CLI_LAYER_CALLS, 0)

    def counting(attr, real):
        def call(*args, **kwargs):
            calls[attr] += 1
            return real(*args, **kwargs)
        return call

    for attr in calls:
        monkeypatch.setattr(cli, attr, counting(attr, getattr(cli, attr)))
    cfg = _config(tmp_path, cloud_size=5000)
    out = tmp_path / "out"
    for command in worker.CLI_COMMANDS:
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert [attr for attr, count in calls.items() if count == 0] == []


def test_malformed_json_exits_2(tmp_path, capsys):
    # Text that is not JSON, and JSON whose root is not an object.
    path = tmp_path / "broken.json"
    for text, needle in [("{not json", "is not valid JSON"),
                         ('[{"n": 4}]', "config root must be a JSON object")]:
        path.write_text(text)
        assert main(["partition", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert needle in json.loads(capsys.readouterr().err)["error"]


def test_missing_config_exits_2(tmp_path):
    assert main(["partition", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_bad_flag_values_exit_2(tmp_path, capsys):
    # A value out of range is a config error, a flag the parser does not
    # know a usage error; both exit 2 without a traceback.
    cfg = _config(tmp_path)
    out = str(tmp_path / "o")
    assert main(["partition", "--config", cfg, "--cap-words", "0",
                 "--out", out]) == 2
    err = capsys.readouterr().err
    assert json.loads(err) == {"error": "--cap-words must be >= 1"}
    assert main(["quantize", "--config", cfg, "--threads", "2",
                 "--out", out]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "unrecognized arguments: --threads 2" in err


@pytest.mark.parametrize("out", ["somefile", "somefile/sub"])
def test_out_not_a_directory_exits_2(tmp_path, capsys, out):
    # --out names a regular file, or a directory under one.
    cfg = _config(tmp_path)
    (tmp_path / "somefile").write_text("x")
    assert main(["validate", "--config", cfg,
                 "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not a usable directory" in json.loads(captured.err)["error"]


def test_usage_error_exit_code():
    assert main(["frobnicate", "--config", "x"]) == 2
    assert main([]) == 2
