"""One measured pass of a carpetq benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per pass so that ``lru_cache`` and
allocator state never carry over from one pass to the next.  It prints a
single JSON report on its last stdout line.

    python3 perfbench/worker.py setup --workload certify-A6
    python3 perfbench/worker.py pass --workload ladder-D --trace 1 --run-id r0
    python3 perfbench/worker.py pass --workload cli-A --trace 1 --run-id r0 \
        --config perfbench/_work/cli-A/carpet.json --out perfbench/_work/cli-A/out
    python3 perfbench/worker.py cli --workload cli-A --command quantize \
        --config perfbench/_work/cli-A/carpet.json --out perfbench/_work/cli-A/out

``setup`` times ``import carpetq`` and ``derive_params`` and stops.
``pass`` runs one full pass of an exact workload (certify-A6, ladder-D) or,
for cli-A, the six commands in-process through ``carpetq.cli.main``.
``cli`` runs one command as ``python -m carpetq`` does; the untraced cli-A
pass in ``run.py`` starts one such process per command.
Every public call and every output check counts as one operation.  With
``--trace 1`` each call also records a span (name, start, end, parent,
run id, counts) that is kept in memory and returned with the report.
Times are read from the process CPU clock, which leaves out the time a
busy host takes the CPU away from this process, and are scaled by the
``SpeedProbe`` of the process, which takes out how fast the host runs the
time it does give.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
import warnings
from contextlib import contextmanager, nullcontext

CARPETS = {
    "A": (4, 3, {(0, 0): "1/3", (0, 2): "1/3", (2, 2): "1/3"}),
    "D": (4, 2, {(0, 0): "3/4", (2, 1): "1/4"}),
}
WORKLOAD_CARPETS = {"certify-A6": ("A",), "ladder-D": ("D",), "cli-A": ("A",)}
CLI_COMMANDS = ("validate", "partition", "antichain", "sequences", "quantize",
                "report")

# The functions carpetq.cli imports from the layers, with the span name
# each gets when the traced cli-A pass wraps it.
CLI_LAYER_CALLS = {
    "derive_params": "measure.derive_params",
    "validate_spec": "measure.validate_spec",
    "stopped_statistics": "partition.stopped_statistics",
    "enumerate_lambda_k": "partition.enumerate_lambda_k",
    "partition_stats": "partition.partition_stats",
    "check_square_disjointness": "partition.check_square_disjointness",
    "build_antichain": "coding.build_antichain",
    "verify_maximal_antichain": "coding.verify_maximal_antichain",
    "sequence_point": "sequences.sequence_point",
    "delta_k": "sequences.delta_k",
    "draw_cloud": "quantizer.draw_cloud",
    "r_k_diagnostic": "quantizer.r_k_diagnostic",
    "ball_bound_check": "quantizer.ball_bound_check",
    "write_csv": "report.write",
    "write_json": "report.write",
    "write_text": "report.write",
}


# How often the speed probe samples, and how long one sample takes on the
# reference host: the 2-vCPU Intel Xeon virtual machine the benchmark was
# tuned on, at its fastest.
PROBE_INTERVAL_S = 0.05
PROBE_REFERENCE_S = 150e-6


class SpeedProbe:
    """Samples how fast the host runs this process while the process works.

    Every PROBE_INTERVAL_S of wall time a SIGALRM handler times a fixed
    piece of pure-Python work on the thread CPU clock.  On a shared virtual
    machine the same instructions take up to 1.7 times as long while other
    guests load the host, for seconds to minutes at a time, and the
    workload slows alike.  ``scale()`` is PROBE_REFERENCE_S over the mean
    sample, so CPU seconds times ``scale()`` read as CPU seconds on the
    reference host.  The probe's code and data are the benchmark's own, so
    a change to carpetq moves them only through the caches they share.
    The samples cost about 0.3% of the CPU time they scale.  The timer runs
    on wall time because a CPU-time timer makes Linux read the process CPU
    clock at tick granularity, which would blur the spans.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.thread_time()
        table = {}
        for i in range(3000):
            table[i & 255] = i
        self.samples.append(time.thread_time() - start)

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, since: int = 0) -> float:
        """Reference over measured sample time, from sample ``since`` on."""
        return PROBE_REFERENCE_S / statistics.fmean(self.samples[since:])


def peak_rss_mb() -> float:
    """High-water resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _antichain_counts(chain, args) -> dict:
    logs = chain.stage_logs
    return {
        "words": args[0].phi_k,
        "stages": len(logs),
        "families": sum(log.family_count for log in logs),
        "swapped_words": sum(log.removed_count for log in logs),
    }


def _written_bytes(result, args) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# Deterministic work counts per layer call, read from the call's result
# and arguments, so traced and untraced passes count the same things.
COUNTERS = {
    "partition.enumerate_lambda_k": lambda r, a: {"words": r.phi_k},
    "partition.stopped_statistics": lambda r, a: {"words": r.phi_k},
    "partition.check_square_disjointness": lambda r, a: {"words": r.checked},
    "coding.build_antichain": _antichain_counts,
    "coding.verify_maximal_antichain": lambda r, a: {"words": r.size},
    "quantizer.draw_cloud": lambda r, a: {"points": r.size},
    "quantizer.r_k_diagnostic": lambda r, a: {"queries": r.cloud_size,
                                              "floored": r.floored},
    "report.write": _written_bytes,
}


# Work counts of the exact workloads, frozen at the values the reference
# code gives.  Each is the count of a single call the workload makes with
# fixed inputs, and each is part of what the CLI writes (partition and
# antichain tables), so code that keeps the outputs keeps these counts; a
# single pass checks them.  cli-A's counts are sums over the calls the
# commands make; every table command re-enumerates every level today, and
# a change that stops that must not fail the gate, so they are not frozen.
# cli-A's outputs are held to sha256 digests in run.py instead.
EXPECTED_COUNTS = {
    "certify-A6": {
        "partition.enumerate_lambda_k.words": 1_062_882,
        "partition.check_square_disjointness.words": 1_062_882,
        "coding.build_antichain.words": 1_062_882,
        "coding.build_antichain.stages": 1,
        "coding.build_antichain.families": 118_098,
        "coding.build_antichain.swapped_words": 236_196,
        "coding.verify_maximal_antichain.words": 944_784,
    },
    "ladder-D": {
        "partition.stopped_statistics.words": 118_805 + 1_936_048,
        "partition.enumerate_lambda_k.words": 118_805,
        "partition.check_square_disjointness.words": 118_805,
        "coding.build_antichain.words": 118_805,
        "coding.build_antichain.stages": 15,
        "coding.build_antichain.families": 34_217,
        "coding.build_antichain.swapped_words": 34_217,
        "coding.verify_maximal_antichain.words": 118_805,
    },
}


class Recorder:
    """Calls layer functions, counts their work and checks their outputs.

    With tracing on, every call also records a span.  Spans nest through
    a stack, so a call made while another span is open becomes its child.
    """

    def __init__(self, run_id: str, trace: bool):
        self.run_id = run_id
        self.trace = trace
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.checks: list[tuple[str, bool]] = []
        self.attempted = 0
        self.failed = 0
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.process_time()
        try:
            yield rec
        finally:
            rec["end"] = time.process_time()
            rec["rss_mb"] = peak_rss_mb()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            if self.trace:
                with self.span(name) as rec:
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        except BaseException:
            self.failed += 1
            raise
        counts = {"calls": 1}
        counter = COUNTERS.get(name)
        if counter is not None:
            counts.update(counter(result, args))
        for key, value in counts.items():
            full = f"{name}.{key}"
            self.counts[full] = self.counts.get(full, 0) + value
        if self.trace:
            rec["counts"] = counts
        return result

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.checks.append((name, bool(ok)))
        if not ok:
            self.failed += 1


class Stopwatch:
    """Named CPU-time accumulators for the stages of one pass."""

    def __init__(self):
        self.totals: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        start = time.process_time()
        try:
            yield
        finally:
            self.totals[name] = (self.totals.get(name, 0.0)
                                 + time.process_time() - start)


def derive_carpets(carpetq, names):
    with warnings.catch_warnings():
        # Carpet D trips the small-grid warning by design.
        warnings.simplefilter("ignore", UserWarning)
        return {name: carpetq.derive_params(carpetq.CarpetSpec.of(*CARPETS[name]))
                for name in names}


def certify_chain(rec: Recorder, carpetq, params, k: int):
    """enumerate -> stats -> disjointness -> antichain -> verify -> sequences."""
    part = rec.call("partition.enumerate_lambda_k", carpetq.enumerate_lambda_k,
                    params, k)
    stats = rec.call("partition.partition_stats", carpetq.partition_stats, part)
    disjoint = rec.call("partition.check_square_disjointness",
                        carpetq.check_square_disjointness, part)
    chain = rec.call("coding.build_antichain", carpetq.build_antichain, part)
    report = rec.call("coding.verify_maximal_antichain",
                      carpetq.verify_maximal_antichain, chain)
    point = rec.call("sequences.sequence_point", carpetq.sequence_point,
                     params, k, stats=part, antichain=chain)
    return part, stats, disjoint, chain, report, point


def check_certified(rec, part, stats, disjoint, report, point) -> None:
    rec.check("partition mass exactly 1", part.mass_total == 1)
    rec.check("partition_stats ok", stats.ok)
    rec.check("disjointness ok", disjoint.ok)
    rec.check("antichain mass exactly 1", report.mass_exact)
    rec.check("antichain maximal", not report.comparable_pairs)
    rec.check("sequence point within bounds", point.within_bounds)


def pass_certify_a6(rec, watch, carpetq, carpets) -> None:
    with watch.stage("certify_s"):
        part, stats, disjoint, chain, report, point = certify_chain(
            rec, carpetq, carpets["A"], 6)
    rec.check("xi window == [13, 14]", (part.xi_min, part.xi_max) == (13, 14))
    check_certified(rec, part, stats, disjoint, report, point)


def pass_ladder_d(rec, watch, carpetq, carpets) -> None:
    params = carpets["D"]
    with watch.stage("aggregate_s"):
        dp4 = rec.call("partition.stopped_statistics",
                       carpetq.stopped_statistics, params, 4)
        dp5 = rec.call("partition.stopped_statistics",
                       carpetq.stopped_statistics, params, 5)
    with watch.stage("certify_s"):
        part, stats, disjoint, chain, report, point = certify_chain(
            rec, carpetq, params, 4)
    rec.check("DP phi_4 == enumerated", dp4.phi_k == part.phi_k)
    rec.check("DP xi window == enumerated",
              (dp4.xi_min, dp4.xi_max) == (part.xi_min, part.xi_max))
    rec.check("DP mass == enumerated", dp4.mass_total == part.mass_total)
    rec.check("DP mass-weighted length == enumerated",
              dp4.mass_len_total == part.mass_len_total)
    rec.check("DP phi_5 == 1936048", dp5.phi_k == 1_936_048)
    rec.check("DP mass_5 exactly 1", dp5.mass_total == 1)
    check_certified(rec, part, stats, disjoint, report, point)


def pass_cli_a(rec, config: str, out: str) -> None:
    """The six commands in-process, with every layer call cli.py makes
    routed through the recorder."""
    import carpetq.cli as cli

    originals = {attr: getattr(cli, attr) for attr in CLI_LAYER_CALLS}

    def wrapped(name, fn):
        return lambda *args, **kwargs: rec.call(name, fn, *args, **kwargs)

    try:
        for attr, name in CLI_LAYER_CALLS.items():
            setattr(cli, attr, wrapped(name, originals[attr]))
        for command in CLI_COMMANDS:
            code = rec.call(f"cli.{command}", cli.main,
                            [command, "--config", config, "--out", out])
            rec.check(f"carpetq {command} exits 0", code == 0)
    finally:
        for attr, fn in originals.items():
            setattr(cli, attr, fn)


def run_setup(workload: str, probe: SpeedProbe) -> dict:
    start = time.process_time()
    import carpetq
    imported = time.process_time()
    derive_carpets(carpetq, WORKLOAD_CARPETS[workload])
    scale = probe.scale()
    return {"import_s": (imported - start) * scale,
            "derive_params_s": (time.process_time() - imported) * scale,
            "scale": scale}


def run_cli_command(args, probe: SpeedProbe) -> dict:
    """One carpetq command, run as ``python -m carpetq`` runs it."""
    from carpetq.cli import main as cli_main
    try:
        code = cli_main([args.command, "--config", args.config,
                         "--out", args.out])
    except Exception:
        traceback.print_exc()
        code = 1
    return {"code": code, "scale": probe.scale()}


def run_pass(args, probe: SpeedProbe) -> dict:
    import carpetq
    carpets = derive_carpets(carpetq, WORKLOAD_CARPETS[args.workload])
    rec = Recorder(args.run_id, bool(args.trace))
    watch = Stopwatch()
    first_sample = len(probe.samples)
    wall_start = time.perf_counter()
    start = time.process_time()
    completed = False
    try:
        with (rec.span("pass") if rec.trace else nullcontext()):
            if args.workload == "certify-A6":
                pass_certify_a6(rec, watch, carpetq, carpets)
            elif args.workload == "ladder-D":
                pass_ladder_d(rec, watch, carpetq, carpets)
            else:
                pass_cli_a(rec, args.config, args.out)
        completed = True
    except Exception:
        # Whatever raised (a library call, a work counter or a check),
        # the steps after it are skipped, so the pass counts as failed.
        traceback.print_exc()
    cpu = time.process_time() - start
    scale = probe.scale(first_sample)
    rec.check("pass ran to its last check", completed)
    for key, value in EXPECTED_COUNTS.get(args.workload, {}).items():
        rec.check(f"{key} == {value}", rec.counts.get(key) == value)
    return {
        "total_s": cpu * scale,
        "cpu_s": cpu,
        "scale": scale,
        "wall_s": time.perf_counter() - wall_start,
        "stages": {name: t * scale for name, t in watch.totals.items()},
        "peak_rss_mb": peak_rss_mb(),
        "counts": rec.counts,
        "checks": rec.checks,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "spans": rec.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass", "cli"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_CARPETS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--command", choices=CLI_COMMANDS)
    parser.add_argument("--config")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    probe = SpeedProbe().start()
    if args.mode == "setup":
        report = run_setup(args.workload, probe)
    elif args.mode == "cli":
        report = run_cli_command(args, probe)
    else:
        report = run_pass(args, probe)
    probe.stop()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
