"""Run the benchmark over several seeds and report the run-to-run spread.

    python3 perfbench/sweep.py --label base --seeds 1-10
    python3 perfbench/sweep.py --label base --seeds 1-5 --workloads gram
    python3 perfbench/sweep.py --label change --seeds 1-10 --parent ../parent

Each run is an untraced `perfbench/run.py` for the run length in
BENCHMARK.json; its standard output is kept in
perfbench/results/<label>/<workload>/seed<N>.json.  At the end, for every
workload and end-to-end metric, this prints the median, the quartile
spread as a share of the median against the metric's bound, and the share
of failed operations.

With --parent DIR, a checkout of the parent commit, every seed is run in
both checkouts back to back, the parent first on every other seed, so
that drift in the machine's speed tilts neither side; the parent's runs
go to perfbench/results/<label>-parent/ of this checkout, and the
comparison of compare.py is printed as well.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv: list[str]) -> int:
    bench = compare.load_benchmark()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--parent", metavar="DIR",
                   help="a checkout of the parent commit to run alongside")
    args = p.parse_args(argv)
    out_root = os.path.join(HERE, "results", args.label)
    sides = [(ROOT, out_root)]
    if args.parent:
        sides.insert(0, (os.path.abspath(args.parent), out_root + "-parent"))
    for workload in args.workloads.split(","):
        for k, seed in enumerate(_seeds(args.seeds)):
            for cwd, root in (sides if k % 2 == 0 else sides[::-1]):
                if not _run(bench, cwd, root, workload, seed):
                    return 1
    for _, root in sides:
        print(f"-- {os.path.relpath(root, HERE)}")
        print("\n".join(summary(root, bench)))
    if args.parent:
        print("\n".join(compare.compare(sides[0][1], out_root, bench)))
    return 0


def _run(bench: dict, cwd: str, root: str, workload: str, seed: int
         ) -> bool:
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
           "--trace", "0"]
    run = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        print(f"{cwd}: {workload} seed {seed}: exit {run.returncode}",
              file=sys.stderr)
        return False
    os.makedirs(os.path.join(root, workload), exist_ok=True)
    with open(os.path.join(root, workload, f"seed{seed}.json"), "w") as fh:
        fh.write(run.stdout)
    print(run.stdout.splitlines()[-2], flush=True)
    return True


def summary(root: str, bench: dict) -> list[str]:
    lines = []
    for workload, runs in compare.load_set(root).items():
        for spec in bench["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"]
                      for r in runs.values()]
            _, med, _ = compare.quartiles(values)
            spread = compare.relative_spread(values)
            lines.append(f"{workload:<12} {spec['name']:<13} median "
                         f"{med:<10.5g} spread {spread:6.2%} of median "
                         f"(bound {spec['bound']:.0%})")
        lines.append(f"{workload:<12} failed {compare.failed_share(runs)}")
    return lines


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
