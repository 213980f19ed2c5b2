"""Command-line front end.

Subcommands mirror the library layers: validate a carpet description,
tabulate partition levels, certify antichain construction, emit the
entropy-ratio sequences, run the quantization diagnostics, and render
charts from previously written tables.  Exit code 0 means every
asserted invariant held; 1 means at least one failed (the failures are
printed to stderr as JSON); 2 means the invocation or config was
unusable, a table to report on is malformed, or a work guard tripped.

For a fixed config and seed every output byte is the same in every
run, and carpetq makes no BLAS call, so none depends on OpenBLAS's
thread count.  ``quantize`` enumerates no level: each sample is
measured against its own stopping cell, found from its digits by one
pass for all levels that draws the cloud a chunk at a time and folds
each chunk into per-level tallies, so it holds no per-sample array.
The log distances and their squares are summed exactly, so the mean
is rounded once, as ``math.fsum`` rounds it, and so is the sample
variance.  The small-ball bound is certified from the carpet's exact
weights.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from .coding import (
    AntichainInvariantError, build_antichain, verify_maximal_antichain,
)
from .measure import (
    CarpetSpec, DerivedParams, InvalidSpecError, derive_params, validate_spec,
)
from .partition import (
    EnumerationCapError, check_square_disjointness, enumerate_lambda_k,
    partition_stats, stopped_statistics,
)
from .quantizer import ball_bound_check, draw_cloud, r_k_diagnostic, tally
from .report import read_csv, render_line_chart, write_csv, write_json, write_text
from .sequences import delta_k, sequence_point

__all__ = ["main", "load_config", "ConfigError", "RunConfig"]


DEFAULT_CLOUD = 1_000_000
DEFAULT_SEED = 0x5EED
DEFAULT_CAP = 2_000_000

_CONFIG_KEYS = {
    "n", "m", "maps", "k_min", "k_max", "cloud_size", "depth", "seed",
    "outputs",
}


class ConfigError(ValueError):
    """The config file cannot be used as given."""


@dataclass(frozen=True)
class RunConfig:
    spec: CarpetSpec
    k_min: int
    k_max: int
    cloud_size: int
    seed: int
    outputs: tuple[str, ...]

    def want(self, kind: str) -> bool:
        return kind in self.outputs


def _is_int(value) -> bool:
    # JSON true and false load as bools, which Python counts as ints.
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(raw: dict, key: str, default: Optional[int],
                 minimum: int) -> int:
    if key not in raw:
        if default is None:
            raise ConfigError(f"config is missing required key {key!r}")
        return default
    value = raw[key]
    if not _is_int(value):
        raise ConfigError(f"config key {key!r} must be an integer, "
                          f"got {value!r}")
    if value < minimum:
        raise ConfigError(f"config key {key!r} must be >= {minimum}, "
                          f"got {value}")
    return value


def load_config(path) -> RunConfig:
    """Parse and sanity-check a config file; raises ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    n = _require_int(raw, "n", None, 2)
    m = _require_int(raw, "m", None, 2)
    maps = raw.get("maps")
    if not isinstance(maps, list) or not maps:
        raise ConfigError("config key 'maps' must be a nonempty list")
    weighted: dict[tuple[int, int], str] = {}
    for entry in maps:
        if (not isinstance(entry, dict)
                or set(entry) != {"i", "j", "p"}
                or not _is_int(entry["i"])
                or not _is_int(entry["j"])
                or not isinstance(entry["p"], str)):
            raise ConfigError(
                "each map must be {\"i\": int, \"j\": int, \"p\": \"num/den\"},"
                f" got {entry!r}")
        cell = (entry["i"], entry["j"])
        if cell in weighted:
            raise ConfigError(f"duplicate map cell {cell}")
        weighted[cell] = entry["p"]
    try:
        spec = CarpetSpec.of(n, m, weighted)
    except Exception as exc:
        raise ConfigError(f"bad map table: {exc}") from exc
    k_min = _require_int(raw, "k_min", 2, 1)
    k_max = _require_int(raw, "k_max", max(k_min, 4), k_min)
    cloud_size = _require_int(raw, "cloud_size", DEFAULT_CLOUD, 1)
    if "depth" in raw:
        warnings.warn("config key 'depth' is ignored: the cloud is drawn "
                      "as deep as the levels need")
    seed = _require_int(raw, "seed", DEFAULT_SEED, 0)
    outputs = raw.get("outputs", ["csv"])
    if (not isinstance(outputs, list)
            or not all(isinstance(o, str) for o in outputs)
            or not set(outputs) <= {"csv", "json", "svg"}):
        raise ConfigError(
            f"config key 'outputs' must be a sublist of "
            f"[\"csv\", \"json\", \"svg\"], got {outputs!r}")
    return RunConfig(spec=spec, k_min=k_min, k_max=k_max,
                     cloud_size=cloud_size, seed=seed,
                     outputs=tuple(outputs))


@dataclass
class _Ctx:
    cfg: RunConfig
    out: Path
    cap_words: int
    failures: list
    level: Optional[int] = None     # the k being processed, if any

    def fail(self, **fields) -> None:
        self.failures.append(fields)

    def table(self, name: str, header: list, rows: list, doc: dict) -> None:
        """``<name>.csv`` and its JSON mirror, as the outputs ask."""
        if self.cfg.want("csv"):
            write_csv(self.out / f"{name}.csv", header, rows)
        if self.cfg.want("json"):
            write_json(self.out / f"{name}.json", doc)


def _levels(ctx: _Ctx, params: DerivedParams):
    """``(k, stats, part)`` for each configured level: the aggregates, and
    the collected partition when the level fits --cap-words, else None."""
    for k in range(ctx.cfg.k_min, ctx.cfg.k_max + 1):
        ctx.level = k
        stats = stopped_statistics(params, k)
        if stats.phi_k <= ctx.cap_words:
            yield k, stats, enumerate_lambda_k(params, k, cap=ctx.cap_words)
        else:
            print(f"level k={k}: {stats.phi_k} words exceed --cap-words "
                  f"{ctx.cap_words}, aggregates only")
            yield k, stats, None
    ctx.level = None


def _antichain(ctx: _Ctx, command: str, k: int, part):
    """The level's antichain; None for an uncollected level, or once its
    failed invariant is recorded."""
    if part is None:
        return None
    try:
        return build_antichain(part)
    except AntichainInvariantError as exc:
        ctx.fail(command=command, k=k, check="antichain-invariant",
                 detail=str(exc))
        return None


def _pairs_cell(pairs) -> str:
    """Index pairs as one comma-free CSV cell: ``(a:b c:d)``, or ``()``."""
    return "(" + " ".join(f"{a}:{b}" for a, b in pairs) + ")"


def cmd_validate(ctx: _Ctx) -> None:
    """check a carpet description and print derived constants"""
    report = validate_spec(ctx.cfg.spec)
    for check in report.checks:
        mark = "ok" if check.ok else "FAIL"
        detail = f"  ({check.detail})" if (check.detail and not check.ok) else ""
        print(f"validate {check.name}: {mark}{detail}")
        if not check.ok:
            ctx.fail(command="validate", check=check.name,
                     detail=check.detail)
    doc = {"checks": [
        {"name": c.name, "ok": c.ok} if report.ok
        else {"name": c.name, "ok": c.ok, "detail": c.detail}
        for c in report.checks
    ]}
    if report.ok:
        params = derive_params(ctx.cfg.spec)
        print(f"validate s0 = {params.s0:.12f}  theta = {params.theta:.12f}")
        doc.update(s0=params.s0, theta=params.theta, eta=str(params.eta),
                   k0=params.k0)
    if ctx.cfg.want("json"):
        write_json(ctx.out / "validate.json", doc)


def cmd_partition(ctx: _Ctx) -> None:
    """tabulate stopping partitions with exact invariants"""
    params = derive_params(ctx.cfg.spec)
    header = ["k", "phi_k", "xi_min", "xi_max", "entropy_sum", "mass_len",
              "mass_exact", "phi_window", "xi_window", "ratio_bounds",
              "disjoint", "pass"]
    rows = []
    detail = []
    for k, stats, part in _levels(ctx, params):
        checks = partition_stats(part if part is not None else stats)
        if part is not None:
            dis = check_square_disjointness(part)
            disjoint = "true" if dis.ok else "false"
            if not dis.ok:
                ctx.fail(command="partition", k=k, check="disjointness",
                         detail=f"{len(dis.violations)} overlapping interiors")
        else:
            disjoint = "skipped"
        ok = checks.ok and disjoint != "false"
        for name, flag in [
            ("mass", checks.mass_exact),
            ("phi-window", checks.phi_window_ok),
            ("xi-window", checks.xi_window_ok),
            ("ratio-bounds", checks.ratio_bounds_ok),
        ]:
            if not flag:
                ctx.fail(command="partition", k=k, check=name)
        rows.append([
            k, checks.phi_k, checks.xi_min, checks.xi_max,
            float(stats.entropy_sum), float(stats.mass_len_total),
            checks.mass_exact, checks.phi_window_ok, checks.xi_window_ok,
            checks.ratio_bounds_ok, disjoint, ok,
        ])
        detail.append({
            "k": k, "phi_k": checks.phi_k, "xi_min": checks.xi_min,
            "xi_max": checks.xi_max, "mass_total": str(stats.mass_total),
            "disjoint": disjoint, "pass": ok,
        })
        print(f"partition k={k}: phi={checks.phi_k} "
              f"xi=[{checks.xi_min},{checks.xi_max}] "
              f"{'pass' if ok else 'FAIL'}")
    ctx.table("partition", header, rows, {"levels": detail})


def cmd_antichain(ctx: _Ctx) -> None:
    """build and certify maximal antichains"""
    params = derive_params(ctx.cfg.spec)
    header = ["k", "size", "base_size", "stages", "removed_mass", "delta_k",
              "c1", "comparable_pairs", "mass_exact", "delta_le_c1", "pass"]
    rows = []
    detail = []
    for k, _, part in _levels(ctx, params):
        chain = _antichain(ctx, "antichain", k, part)
        if chain is None:
            continue
        report = verify_maximal_antichain(chain)
        dlt = delta_k(chain)
        delta_ok = dlt <= params.c1 + 1e-12
        removed = sum((log.removed_mass for log in chain.stage_logs),
                      start=Fraction(0))
        ok = report.ok and delta_ok
        if not report.maximal:
            ctx.fail(command="antichain", k=k, check="maximality",
                     detail=f"comparable_pairs={report.comparable_pairs} "
                            f"mass_exact={report.mass_exact}")
        if not report.below_threshold:
            ctx.fail(command="antichain", k=k, check="threshold",
                     detail=f"a word's mass is at or above eta^{k}")
        if not delta_ok:
            ctx.fail(command="antichain", k=k, check="delta-bound",
                     detail=f"delta={dlt} > C1={params.c1}")
        rows.append([
            k, chain.size, chain.base_size, len(chain.stage_logs),
            float(removed), dlt, params.c1,
            _pairs_cell(report.comparable_pairs),
            report.mass_exact, delta_ok, ok,
        ])
        detail.append({
            "k": k, "size": chain.size, "base_size": chain.base_size,
            "xi_stages": list(chain.xi_stages),
            "removed_mass": str(removed),
            "delta_k": dlt,
            "maximal": report.maximal,
            "mass": "1 (exact)" if report.mass_exact else "INEXACT",
            "stages": [
                {
                    "stage": log.stage,
                    "target_length": log.target_length,
                    "families": log.family_count,
                    "removed": log.removed_count,
                    "inserted": log.inserted_count,
                    "max_family_gap": log.max_family_gap,
                }
                for log in chain.stage_logs
            ],
        })
        print(f"antichain k={k}: maximal: "
              f"{'true' if report.maximal else 'FALSE'}, mass: "
              f"{'1 (exact)' if report.mass_exact else 'INEXACT'}, "
              f"delta_k <= C1: {'true' if delta_ok else 'FALSE'}")
    ctx.table("antichain", header, rows, {"levels": detail})


def cmd_sequences(ctx: _Ctx) -> None:
    """emit d_k / t_k / s_k tables with error bounds"""
    params = derive_params(ctx.cfg.spec)
    header = ["k", "phi_k", "xi_min", "xi_max", "d_k", "t_k", "s_k", "s0",
              "bound_dk", "bound_sk", "pass"]
    rows = []
    for k, stats, part in _levels(ctx, params):
        chain = _antichain(ctx, "sequences", k, part)
        point = sequence_point(params, k, stats=stats, antichain=chain)
        ok = point.within_bounds
        if not ok:
            ctx.fail(command="sequences", k=k, check="bounds",
                     detail=f"d_k={point.d_k} t_k={point.t_k} "
                            f"s_k={point.s_k} s0={point.s0}")
        rows.append([
            point.k, point.phi_k, point.xi_min, point.xi_max, point.d_k,
            point.t_k, point.s_k, point.s0, point.bound_dk, point.bound_sk,
            ok,
        ])
        t_txt = "" if point.t_k is None else f" t_k={point.t_k:.9f}"
        print(f"sequences k={k}: d_k={point.d_k:.9f}{t_txt} "
              f"s_k={point.s_k:.9f} s0={point.s0:.9f} "
              f"{'pass' if ok else 'FAIL'}")
    ctx.table("sequences", header, rows,
              {"levels": [dict(zip(header, row)) for row in rows]})


def _stray_lengths(stats, counts: np.ndarray) -> list:
    """(h, samples, expected) for each length h whose count of samples,
    ``counts[h]``, strays from N times its exact mass by over 6 binomial
    standard deviations plus 15, N the sum of ``counts``.  By the
    Chernoff bound, a Binomial(N, mass_h) count strays that far with
    probability below 2 exp(-18), 3.1e-8, whatever N and mass_h (the 15
    covers small counts' skewed tails): T (level, length) tests fail
    falsely with probability below T x 3.1e-8, under 1e-6 up to T = 32
    (carpet A at k = 2..5 makes 8)."""
    L = stats.params.denom_lcm
    size = int(counts.sum())
    stray = []
    for h in sorted(set(stats.length_nu_sums)
                    | set(np.flatnonzero(counts).tolist())):
        share = float(Fraction(stats.length_nu_sums.get(h, 0), L ** h))
        want = size * share
        if abs(counts[h] - want) > 6 * math.sqrt(want * (1 - share)) + 15:
            stray.append((h, int(counts[h]), want))
    return stray


def cmd_quantize(ctx: _Ctx) -> None:
    """Monte Carlo quantization diagnostics"""
    params = derive_params(ctx.cfg.spec)
    known = {k: stopped_statistics(params, k)
             for k in range(ctx.cfg.k_min, ctx.cfg.k_max + 1)}
    cloud = draw_cloud(params, ctx.cfg.cloud_size, seed=ctx.cfg.seed)
    tallies = tally(list(known.values()), cloud)
    header = ["k", "phi_k", "lower_anchor", "upper_anchor", "e_hat_est",
              "stderr", "R_k"]
    rows = []
    detail = []
    gap_cap = math.log(math.sqrt(params.spec.n ** 2 + 1))
    for (k, stats), level_tally in zip(known.items(), tallies):
        ctx.level = k
        diag = r_k_diagnostic(stats, cloud, level_tally)
        if stray := _stray_lengths(stats, level_tally.counts):
            ctx.fail(command="quantize", k=k, check="length-shares",
                     detail="; ".join(
                         f"length {h}: {got} samples, expected {want:.1f}"
                         for h, got, want in stray))
        if diag.e_hat_est > diag.upper_anchor + 3 * diag.stderr:
            ctx.fail(command="quantize", k=k, check="upper-anchor",
                     detail=f"estimate {diag.e_hat_est} above "
                            f"{diag.upper_anchor} + 3 stderr")
        if not (diag.lower_anchor <= diag.upper_anchor
                <= diag.lower_anchor + gap_cap + 1e-12):
            ctx.fail(command="quantize", k=k, check="anchor-gap",
                     detail=f"gap {diag.anchor_gap} outside [0, {gap_cap}]")
        rows.append([
            diag.k, diag.phi_k, diag.lower_anchor, diag.upper_anchor,
            diag.e_hat_est, diag.stderr, diag.r_k,
        ])
        detail.append({
            "k": diag.k, "phi_k": diag.phi_k, "R_k": diag.r_k,
            "floored": diag.floored, "cloud_size": diag.cloud_size,
            "seed": diag.seed,
        })
        print(f"quantize k={k}: e_hat={diag.e_hat_est:.6f} anchors "
              f"[{diag.lower_anchor:.6f}, {diag.upper_anchor:.6f}] "
              f"R_k={diag.r_k:.6f}")
    ctx.level = None
    ball = ball_bound_check(params)
    if ball.skipped:
        print(f"quantize ball bound: skipped ({ball.reason})")
    else:
        print(f"quantize ball bound: {'pass' if ball.ok else 'FAIL'} "
              f"(max ratio {ball.max_ratio:.4f})")
        if not ball.ok:
            bands = ", ".join(str(h) for h, _, _ in ball.failures)
            ctx.fail(command="quantize", check="ball-bound",
                     detail=f"bands h = {bands} exceed the mass bound")
    ctx.table("quantize", header, rows, {
        "levels": detail,
        "ball": {
            "skipped": ball.skipped,
            "reason": ball.reason,
            "exponent": ball.exponent,
            "coefficient": ball.coefficient,
            "max_ratio": ball.max_ratio,
            "failures": len(ball.failures),
        },
    })


def _read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a table written earlier; none when it is missing."""
    if not path.exists():
        return [], []
    try:
        return read_csv(path)
    except ValueError as exc:
        raise ConfigError(f"cannot read {path.name}: {exc}") from exc


def _numbers(path: Path, table, name: str, blank_ok: bool = False) -> list:
    """Column ``name`` of a table as floats; a blank cell is None where
    ``blank_ok``.  A missing column or any other cell that is not a
    finite number is a ConfigError."""
    header, rows = table
    if name not in header:
        raise ConfigError(f"{path.name} has no {name!r} column")
    col = header.index(name)
    try:
        values = [None if blank_ok and not row[col] else float(row[col])
                  for row in rows]
    except ValueError as exc:
        raise ConfigError(f"{path.name} column {name!r}: {exc}") from exc
    if not all(v is None or math.isfinite(v) for v in values):
        raise ConfigError(f"{path.name} column {name!r}: non-finite value")
    return values


def cmd_report(ctx: _Ctx) -> None:
    """render SVG charts from previously written tables"""
    # The tables are charted only for a valid carpet, as every command is.
    derive_params(ctx.cfg.spec)
    seq_path = ctx.out / "sequences.csv"
    qnt_path = ctx.out / "quantize.csv"
    # A table without rows has nothing to plot, like a missing one.
    seq, qnt = _read_table(seq_path), _read_table(qnt_path)
    if not seq[1] and not qnt[1]:
        raise ConfigError(
            f"nothing to report: no rows in sequences.csv or quantize.csv "
            f"under {ctx.out}; run the sequences or quantize command first")
    made = []
    if seq[1]:
        ks, d_k, t_k, s_k, s0 = (
            _numbers(seq_path, seq, name, blank_ok=name == "t_k")
            for name in ("k", "d_k", "t_k", "s_k", "s0"))
        series = {}
        series["d_k"] = list(zip(ks, d_k))
        t_pts = [(x, t) for x, t in zip(ks, t_k) if t is not None]
        if t_pts:
            series["t_k"] = t_pts
        series["s_k"] = list(zip(ks, s_k))
        svg = render_line_chart(
            series, title="Entropy ratio sequences", x_label="k",
            y_label="ratio", hline=("s0", s0[0]))
        write_text(ctx.out / "sequences.svg", svg)
        made.append("sequences.svg")
    if qnt[1]:
        pts = list(zip(_numbers(qnt_path, qnt, "k"),
                       _numbers(qnt_path, qnt, "R_k")))
        svg = render_line_chart(
            {"R_k": pts}, title="Normalized quantization error",
            x_label="k", y_label="R_k")
        write_text(ctx.out / "quantize.svg", svg)
        made.append("quantize.svg")
    print(f"report: wrote {', '.join(made)} under {ctx.out}")


# Subcommand name -> its function, whose docstring is the help text.
_COMMANDS = {fn.__name__.removeprefix("cmd_"): fn for fn in (
    cmd_validate, cmd_partition, cmd_antichain, cmd_sequences, cmd_quantize,
    cmd_report)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carpetq",
        description="partition, antichain, entropy, and quantization "
                    "diagnostics for grid self-affine measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", required=True,
                       help="path to the JSON run config")
        p.add_argument("--out", default="carpetq-out",
                       help="output directory (created if missing)")
        p.add_argument("--cap-words", type=int, default=DEFAULT_CAP,
                       help="skip word-materializing steps above this count")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    ctx = doc = None
    # A warning the command raises becomes a note on stdout, once per
    # message, so stderr carries only the JSON below.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cfg = load_config(args.config)
            if args.cap_words < 1:
                raise ConfigError("--cap-words must be >= 1")
            out = Path(args.out)
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"--out {args.out} is not a usable "
                                  f"directory: {exc}") from exc
            ctx = _Ctx(cfg=cfg, out=out, cap_words=args.cap_words,
                       failures=[])
            _COMMANDS[args.command](ctx)
            if ctx.failures:
                doc = {"failures": ctx.failures}
        except (ConfigError, EnumerationCapError) as exc:
            doc = {"error": str(exc)}
        except MemoryError:
            where = args.command
            if ctx is not None and ctx.level is not None:
                where += f" k={ctx.level}"
            doc = {"error": f"{where}: out of memory"}
        except InvalidSpecError as exc:
            doc = {"error": f"invalid carpet: {exc}"}
    for note in dict.fromkeys(str(w.message) for w in caught):
        print(f"note: {note}")
    if doc is None:
        return 0
    print(json.dumps(doc), file=sys.stderr)
    return 1 if "failures" in doc else 2


if __name__ == "__main__":
    sys.exit(main())
