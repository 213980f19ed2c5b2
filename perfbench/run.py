"""carpetq benchmark: three fixed workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload certify-A6 --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``certify-A6``: carpet A at k = 6, the full certify chain on 1,062,882 words.
* ``ladder-D``: carpet D, ``stopped_statistics`` at k = 4 and 5, then the
  certify chain at k = 4 (15 replacement stages).
* ``cli-A``: the six ``carpetq`` commands on carpet A, k = 2..5, a 1M-point
  cloud seeded from ``--seed``, each command its own process.

Each pass runs in a fresh interpreter (``worker.py``, or one ``worker.py
cli`` process per command for cli-A), one at a time.  Passes repeat until
``--seconds`` of wall time have passed; timings are medians over passes,
and set-up time is the median over several fresh launches that only import
carpetq and derive the workload's carpet.  Times are CPU seconds (user +
system) of the processes doing the work, scaled to the reference host by
each process's speed probe (``worker.SpeedProbe``): on a shared virtual
machine, wall time also counts the time the host runs other guests, and
CPU time grows while they load it.  Every output is checked; the
exact workloads' work counts are frozen, and in a traced run the traced
passes must count what the untraced ones did.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: self time and
work counts of each layer, taken from spans the benchmark records around
every public call, plus the tracing overhead.  The spans are written to
``perfbench/_work/trace-<workload>-<seed>.json``.  The last stdout line is
the JSON result; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

from worker import CLI_COMMANDS, WORKLOAD_CARPETS  # noqa: E402

DEADLINE_S = 170.0
SETUP_LAUNCHES = 5

# sha256 of the seed-independent cli-A outputs as the reference code
# writes them; any change to these bytes is a correctness failure.
CLI_DIGESTS = {
    "validate.json":
        "ef8402f858d7640d71ed3adb83762d784bb7c5511ce4d5a450cc957438aab3ea",
    "partition.csv":
        "10232590928e6ca3e1606078b5e3351e6e6255a9e0e0244139f10b8e9535587b",
    "partition.json":
        "0fea48f5e83ec032af1fb6c4d8fd41441f103cf687d2502097eaba97da102ef2",
    "antichain.csv":
        "81e71dcf1b1f6f10015e2f6d7c6d6a8b764afb0da63cceb19f63078adb4ee551",
    "antichain.json":
        "60dd04b54b5cd226448ae67b4fafdd6c040cfbb1bc14bfc4595546560065020a",
    "sequences.csv":
        "a68e8e5833b325e25bc7b5468ee9e5f6ae5b34b5778e2a3dbeb7b6756d10395b",
    "sequences.json":
        "795ff556e31a73ad67806ebe6591ae26d2d62c7b0a287f422c7ab5b6f4762a20",
    "sequences.svg":
        "d0b50e3e36f671ff5c2bafc56a2b02f2f086d8e3e469612a89c53947c1cd7b04",
}

CLI_CONFIG = {
    "n": 4,
    "m": 3,
    "maps": [
        {"i": 0, "j": 0, "p": "1/3"},
        {"i": 0, "j": 2, "p": "1/3"},
        {"i": 2, "j": 2, "p": "1/3"},
    ],
    "k_min": 2,
    "k_max": 5,
    "cloud_size": 1_000_000,
    "depth": 40,
    "outputs": ["csv", "json", "svg"],
}

# Layers whose per-layer metrics come from spans; a layer the workload
# does not call reports 0.
LAYER_TIMES = (
    "partition.enumerate_lambda_k", "partition.check_square_disjointness",
    "partition.stopped_statistics", "coding.build_antichain",
    "coding.verify_maximal_antichain", "quantizer.draw_cloud",
    "quantizer.r_k_diagnostic", "quantizer.ball_bound_check", "report.write",
)
LAYER_RATES = {
    "partition.enumerate_lambda_k.words_per_s": "partition.enumerate_lambda_k.words",
    "partition.check_square_disjointness.words_per_s":
        "partition.check_square_disjointness.words",
    "coding.build_antichain.words_per_s": "coding.build_antichain.words",
    "coding.verify_maximal_antichain.words_per_s":
        "coding.verify_maximal_antichain.words",
    "quantizer.draw_cloud.points_per_s": "quantizer.draw_cloud.points",
    "quantizer.r_k_diagnostic.queries_per_s": "quantizer.r_k_diagnostic.queries",
}
LAYER_COUNTS = (
    "partition.enumerate_lambda_k.calls", "partition.enumerate_lambda_k.words",
    "partition.stopped_statistics.calls", "coding.build_antichain.stages",
    "coding.build_antichain.families", "coding.build_antichain.swapped_words",
    "quantizer.r_k_diagnostic.floored", "report.write.bytes",
)
LAYER_RSS = ("partition.enumerate_lambda_k", "coding.build_antichain")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


class Child:
    """Outcome of one child process: exit code, CPU and wall time, peak RSS,
    output."""

    def __init__(self, code: int, cpu_s: float, wall_s: float, rss_mb: float,
                 text: str):
        self.code = code
        self.cpu_s = cpu_s
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.text = text

    def report(self) -> dict:
        lines = self.text.strip().splitlines()
        if self.code != 0 or not lines:
            raise BenchError(f"worker exited {self.code}:\n{self.text[-2000:]}")
        return json.loads(lines[-1])


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]]
                                   if self.env.get("PYTHONPATH") else []))
        self.log = WORK / f"child-{workload}.log"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference_counts: dict[str, int] = {}

    # -- children ---------------------------------------------------------

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def run_child(self, argv: list[str]) -> Child:
        """Run one process to completion; wait4 gives its own CPU time and
        peak RSS."""
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("out of time before starting a process")
        with open(self.log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = self.log.read_text(errors="replace")
        if proc.returncode < 0:
            raise BenchError(f"{argv} killed after {wall:.1f} s:\n{text[-2000:]}")
        return Child(proc.returncode, usage.ru_utime + usage.ru_stime, wall,
                     usage.ru_maxrss / 1024.0, text)

    def worker(self, *args: str) -> list[str]:
        return [sys.executable, str(HERE / "worker.py"), *args,
                "--workload", self.workload]

    # -- bookkeeping ------------------------------------------------------

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def absorb(self, report: dict, label: str) -> None:
        """Count a pass's operations and hold its work counts to the earlier
        passes of the run.  In a traced run this holds each traced pass to
        the untraced pass before it, so tracing cannot change a count."""
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        self.failures += [f"{label}: {name}" for name, ok in report["checks"]
                          if not ok]
        if report["failed"] > sum(not ok for _, ok in report["checks"]):
            self.failures.append(f"{label}: a library call raised")
        for key, value in sorted(report["counts"].items()):
            if key not in self.reference_counts:
                self.reference_counts[key] = value
                continue
            expected = self.reference_counts[key]
            self.check(f"{label}: {key} = {value}, first pass had {expected}",
                       value == expected)

    # -- set-up -----------------------------------------------------------

    def setup(self) -> dict:
        keys = ("setup_s", "cpu_s", "wall_s", "scale", "import_s",
                "derive_params_s")
        samples: dict[str, list[float]] = {key: [] for key in keys}
        for _ in range(SETUP_LAUNCHES):
            child = self.run_child(self.worker("setup"))
            report = child.report()
            report.update(setup_s=child.cpu_s * report["scale"],
                          cpu_s=child.cpu_s, wall_s=child.wall_s)
            for key in keys:
                samples[key].append(report[key])
        return samples

    # -- passes -----------------------------------------------------------

    def one_pass(self, traced: bool, index: int) -> dict:
        """One pass in a fresh worker, except the untraced-mode cli-A pass,
        which runs the six commands as a user does.  In a traced run the
        untraced half of each pair runs in the worker too, so that the
        difference between the halves is the tracing overhead alone."""
        argv = self.worker("pass", "--trace", str(int(traced)),
                           "--run-id", f"{self.workload}-{self.seed}-{index}")
        if self.workload != "cli-A":
            return self.run_child(argv).report()
        config, out = self.cli_paths()
        if self.trace:
            report = self.run_child(
                argv + ["--config", str(config), "--out", str(out)]).report()
        else:
            report = self.cli_processes(config, out)
        self.check_cli_outputs(report, out)
        return report

    def cli_paths(self) -> tuple[Path, Path]:
        base = WORK / "cli-A"
        base.mkdir(parents=True, exist_ok=True)
        config = base / "carpet.json"
        config.write_text(json.dumps(dict(CLI_CONFIG, seed=self.seed)))
        out = base / "out"
        shutil.rmtree(out, ignore_errors=True)
        return config, out

    def cli_processes(self, config: Path, out: Path) -> dict:
        """The six commands as a user runs them: one process each."""
        report = {"stages": {}, "counts": {}, "checks": [], "attempted": 0,
                  "failed": 0, "spans": []}
        rss = []
        report["total_s"] = report["cpu_s"] = report["wall_s"] = 0.0
        for command in CLI_COMMANDS:
            child = self.run_child(self.worker(
                "cli", "--command", command, "--config", str(config),
                "--out", str(out)))
            result = child.report()
            seconds = child.cpu_s * result["scale"]
            report["stages"][f"{command}_s"] = seconds
            report["total_s"] += seconds
            report["cpu_s"] += child.cpu_s
            report["wall_s"] += child.wall_s
            rss.append(child.rss_mb)
            add_check(report, f"carpetq {command} exits 0", result["code"] == 0)
        report["scale"] = report["total_s"] / report["cpu_s"]
        report["peak_rss_mb"] = max(rss)
        return report

    def check_cli_outputs(self, report: dict, out: Path) -> None:
        """Digest the seed-independent files.  When the pass ran in-process,
        hold the bytes and floored samples it counted to the files."""
        for name, digest in CLI_DIGESTS.items():
            path = out / name
            got = (hashlib.sha256(path.read_bytes()).hexdigest()
                   if path.exists() else "missing")
            add_check(report, f"{name} matches reference", got == digest)
        quantize = out / "quantize.json"
        levels = (json.loads(quantize.read_text())["levels"]
                  if quantize.exists() else [])
        add_check(report, "quantize covers k = 2..5",
                  [level["k"] for level in levels] == [2, 3, 4, 5])
        if not report["counts"]:
            return  # six separate processes: nothing counted to compare
        on_disk = {
            "report.write.bytes": (sum(p.stat().st_size for p in out.iterdir())
                                   if out.is_dir() else 0),
            "quantizer.r_k_diagnostic.floored": sum(level["floored"]
                                                    for level in levels),
        }
        for key, value in on_disk.items():
            add_check(report, f"{key} matches the output files",
                      report["counts"].get(key) == value)

    def passes(self) -> tuple[list[dict], list[dict]]:
        """Untraced and traced pass reports, run until --seconds of wall
        time have passed."""
        plain, traced = [], []
        start = time.perf_counter()
        index = 0
        while True:
            round_start = time.perf_counter()
            for is_traced in ((False, True) if self.trace else (False,)):
                report = self.one_pass(is_traced, index)
                self.absorb(report, f"pass {index}{' traced' if is_traced else ''}")
                (traced if is_traced else plain).append(report)
                index += 1
            now = time.perf_counter()
            if (now - start >= self.seconds
                    or self.remaining() < 1.5 * (now - round_start) + 2.0):
                return plain, traced


def add_check(report: dict, name: str, ok: bool) -> None:
    report["checks"].append((name, ok))
    report["attempted"] += 1
    report["failed"] += not ok


def median(values) -> float:
    return float(statistics.median(values))


def self_times(spans: list[dict]) -> list[tuple[dict, float]]:
    """Each span with its duration minus the time its children cover."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])
    return [(span, span["end"] - span["start"] - child_time.get(span["id"], 0.0))
            for span in spans]


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer values of one traced pass, times scaled like the pass's."""
    spans = report["spans"]
    counts = report["counts"]
    scale = report["scale"]
    by_id = {span["id"]: span for span in spans}
    selfs = [(span, t * scale) for span, t in self_times(spans)]
    values: dict[str, float] = {}
    for layer in LAYER_TIMES:
        values[f"{layer}.s"] = sum((t for span, t in selfs if span["name"] == layer),
                                   0.0)
    for name, count_key in LAYER_RATES.items():
        seconds = values[name.rsplit(".", 1)[0] + ".s"]
        values[name] = counts.get(count_key, 0) / seconds if seconds > 0 else 0.0
    for key in LAYER_COUNTS:
        values[key] = counts.get(key, 0)
    for layer in LAYER_RSS:
        values[f"{layer}.rss_mb"] = max(
            (span["rss_mb"] for span in spans if span["name"] == layer),
            default=0.0)
    for command in CLI_COMMANDS:
        values[f"cli.{command}.s"] = scale * sum(
            (span["end"] - span["start"] for span in spans
             if span["name"] == f"cli.{command}"), 0.0)
    values["cli.self_s"] = sum(
        (t for span, t in selfs if span["name"].startswith("cli.")), 0.0)

    def under_cli(span) -> bool:
        parent = by_id.get(span["parent"])
        return parent is not None and parent["name"].startswith("cli.")

    values["cli.enumerations"] = sum(
        1 for span in spans
        if span["name"] == "partition.enumerate_lambda_k" and under_cli(span))
    values["cli.aggregations"] = sum(
        1 for span in spans
        if span["name"] == "partition.stopped_statistics" and under_cli(span))
    return values


def result_metrics(kind: str, values: dict[str, float]) -> dict:
    """The metrics BENCHMARK.json declares under ``kind``, with its units."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def write_trace(bench: Bench, traced: list[dict]) -> Path:
    path = WORK / f"trace-{bench.workload}-{bench.seed}.json"
    spans = []
    for report in traced:
        for span, own in self_times(report["spans"]):
            spans.append(dict(span, self_s=own, scale=report["scale"]))
    path.write_text(json.dumps({"workload": bench.workload, "seed": bench.seed,
                                "spans": spans}, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="carpetq benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOAD_CARPETS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "carpetq" / "__init__.py").is_file():
        print(f"no carpetq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        setup = bench.setup()
        plain, traced = bench.passes()
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    totals = [r["total_s"] for r in plain]
    print(f"{bench.workload} seed={bench.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {SETUP_LAUNCHES} set-up launches; "
          f"scaled CPU seconds unless marked cpu (as read) or wall")
    samples = {"setup_s": setup["setup_s"], "setup cpu_s": setup["cpu_s"],
               "setup wall_s": setup["wall_s"], "setup scale": setup["scale"],
               "total_s": totals, "total cpu_s": [r["cpu_s"] for r in plain],
               "total wall_s": [r["wall_s"] for r in plain],
               "total scale": [r["scale"] for r in plain]}
    samples.update({name: [r["stages"][name] for r in plain]
                    for name in plain[0]["stages"]})
    for name, values in samples.items():
        print(f"  {name:<13} median {median(values):.4f}  "
              f"({' '.join(f'{v:.3f}' for v in values)})")
    print(f"  error_rate {bench.failed}/{bench.attempted}")
    for failure in bench.failures:
        print(f"  FAILED {failure}")

    if bench.trace:
        layers = [layer_metrics(r) for r in traced]
        # Counts repeat exactly across passes (checked above); times are
        # medians over the traced passes.
        values = {name: (first if isinstance(first, int)
                         else median([v[name] for v in layers]))
                  for name, first in layers[0].items()}
        values["measure.import.s"] = median(setup["import_s"])
        values["measure.derive_params.s"] = median(setup["derive_params_s"])
        values["trace.overhead_s"] = (median([r["total_s"] for r in traced])
                                      - median(totals))
        metrics = result_metrics("per_layer", values)
        print(f"  spans written to {write_trace(bench, traced).relative_to(ROOT)}")
    else:
        metrics = result_metrics("end_to_end", {
            "setup_s": median(setup["setup_s"]),
            "total_s": median(totals),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        })
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
