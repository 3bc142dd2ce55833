"""Benchmark of the affa engine: one workload, one seed, one run.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the run repeats whole rounds of the workload's
operations until `--seconds` have passed, checks every output, and prints
the end-to-end metrics, scaled by the machine's speed measured meanwhile.
With `--trace 1` it runs a round with per-module tracing between two
plain ones, and prints the per-layer metrics and the tracing overhead;
the spans go to perfbench/traces/.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-up is timed in this many fresh processes; setup_s is their median.
# Around each, the reference kernel below runs SETUP_REF_SAMPLES times.
SETUP_PROBES = 3
SETUP_REF_SAMPLES = 4

# On a shared machine the same work runs up to a third slower from one
# minute to the next.  A fixed kernel of standard-library work, run every
# REF_EVERY seconds between operations, measures that speed, and every
# time a run reports is scaled to a machine on which the kernel takes
# REF_SECONDS: its median on the machine of the reference figures in
# README.md.
REF_SECONDS = 0.0294
REF_EVERY = 0.25


def reference_kernel():
    """Interpreter work of the kinds affa does -- small-tuple hashing,
    dict updates, Fraction arithmetic, sorting -- and no call into affa,
    so that no change to affa changes its time."""
    counts: dict = {}
    x = Fraction(1)
    for i in range(3000):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
        x = (x * Fraction(i % 5 + 1, i % 3 + 1)) % 97
        order = sorted([i % 17, (i * 7) % 17, (i * 3) % 17, key[0]])
    return len(counts), x, order


class Speed:
    """Mean time of the reference kernel over a run, as a factor of
    REF_SECONDS: above 1 the machine is running slower than that one."""

    def __init__(self):
        self.total = 0.0
        self.samples = 0
        self.last = -float("inf")

    def sample(self) -> None:
        # with the cyclic collector off, the kernel's time does not depend
        # on how many objects affa keeps alive in the same heap
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_kernel()
            self.last = time.perf_counter()
        finally:
            gc.enable()
        self.total += self.last - t0
        self.samples += 1

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.last >= REF_EVERY:
            self.sample()

    def factor(self, since: tuple[float, int] = (0.0, 0)) -> float:
        """The factor over the whole run, or over the samples taken since
        the mark() given (the whole run's if there were none)."""
        total, samples = self.total - since[0], self.samples - since[1]
        if not samples:
            total, samples = self.total, self.samples
        return total / samples / REF_SECONDS

    def mark(self) -> tuple[float, int]:
        return self.total, self.samples


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs and exit (used to "
                        "time set-up in a fresh process)")
    return p.parse_args(argv)


def _workdir(args) -> str:
    return os.path.join(HERE, "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")


def _setup_seconds(args) -> float:
    """Median over fresh processes that import the package and build the
    workload's inputs of their wall time from spawn to exit, each scaled
    by the machine's speed measured just before and just after it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]

    def factor():
        speed = Speed()
        for _ in range(SETUP_REF_SAMPLES):
            speed.sample()
        return speed.factor()
    before = factor()
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
        after = factor()
        times.append(dt / ((before + after) / 2))
        before = after
    return statistics.median(times)


@dataclass
class Round:
    factor: float        # the machine's speed factor during the round
    busy: float          # seconds spent in the operations
    times: list[float]   # seconds per item, sorted


class Tally:
    """Rounds of a workload's operations: the verdicts of every item, and
    for each round the time spent in each item and the machine's speed."""

    def __init__(self, ops, speed: Speed):
        self.ops = ops
        self.speed = speed
        self.rounds: list[Round] = []
        self.items = self.failed = self.wrong = 0

    def run_round(self, tracer=None) -> float:
        """One round; returns the seconds spent in the operations."""
        from checks import FAILED, WRONG
        clock, speed = time.perf_counter, self.speed
        busy = 0.0
        mark = speed.mark()
        item_times: list[float] = []
        for op in self.ops:
            speed.sample_if_due()
            # inside a call the kernel would count as the layers' self time
            op.pause = speed.sample_if_due if tracer is None else None
            if tracer is not None:
                tracer.op_id += 1
            ref0 = speed.total
            t0 = clock()
            out = op.run()
            # less the reference kernel run by op.pause() inside the call
            dt = clock() - t0 - (speed.total - ref0)
            busy += dt
            times = op.item_times() if op.item_times else [dt / op.items] \
                * op.items
            if len(times) != op.items:
                raise RuntimeError(f"{len(times)} item times for "
                                   f"{op.items} items")
            item_times += times
            verdicts = op.check(out)
            self.items += op.items
            self.failed += verdicts.count(FAILED)
            self.wrong += verdicts.count(WRONG)
        self.rounds.append(Round(speed.factor(mark), busy, sorted(item_times)))
        return busy


def _end_to_end(args, wl) -> dict:
    tally = Tally(wl.ops, Speed())
    start = time.perf_counter()
    while not tally.rounds or time.perf_counter() - start < args.seconds:
        tally.run_round()

    def median_round(fn) -> float:
        return statistics.median(fn(r) for r in tally.rounds)
    metrics = {
        "setup_s": (_setup_seconds(args), "s"),
        "ops_per_s": (median_round(lambda r: len(r.times) * r.factor
                                   / r.busy), "ops/s"),
        "op_p50_ms": (median_round(lambda r: statistics.median(r.times)
                                   / r.factor) * 1e3, "ms"),
        "op_p99_ms": (median_round(lambda r: statistics.quantiles(
            r.times, n=100)[98] / r.factor) * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024, "MiB"),
    }
    print(f"{args.workload} seed {args.seed}: {len(tally.rounds)} rounds "
          f"of {len(wl.ops)} calls, {tally.items} items, {tally.failed} "
          f"failed, {tally.wrong} wrong; machine speed factor "
          f"{tally.speed.factor():.3f}")
    return _result(tally, {k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})


def _traced(args, wl) -> dict:
    from tracer import Tracer
    speed = Speed()
    tally = Tally(wl.ops, speed)
    plain_s = tally.run_round()
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = tally.run_round(tracer)
    finally:
        tracer.uninstall()
    # a plain round on each side of the traced one: the first round of a
    # process runs slower, and the machine's speed drifts
    plain_s = (plain_s + tally.run_round()) / 2
    metrics = tracer.metrics()
    for name in metrics:
        if name.endswith(".self_s"):
            metrics[name] /= speed.factor()
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    units = {"self_s": "s", "overhead_ratio": "ratio",
             "terms_per_call": "terms/call"}
    out = {k: {"value": v, "unit": units.get(k.rsplit(".", 1)[1], "count")}
           for k, v in sorted(metrics.items())}
    os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
    tracer.write(os.path.join(HERE, "traces",
                              f"{args.workload}-seed{args.seed}.json"),
                 {"workload": args.workload, "seed": args.seed,
                  "plain_s": plain_s, "traced_s": traced_s,
                  "speed_factor": speed.factor()})
    print(f"{args.workload} seed {args.seed}: rounds of {len(wl.ops)} "
          f"calls, {traced_s:.2f} s traced, {plain_s:.2f} s plain (mean)")
    return _result(tally, out)


def _result(tally: Tally, metrics: dict) -> dict:
    return {"correct": tally.wrong == 0, "attempted": tally.items,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "affa", "__init__.py")):
        print(f"error: no affa package under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = _workdir(args)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            return 0
        result = _traced(args, wl) if args.trace else _end_to_end(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
