"""Compare two sets of benchmark results: a parent commit and a change.

    python3 perfbench/compare.py perfbench/results/parent \
        perfbench/results/change

A result set is a directory with one subdirectory per workload, holding
one file per run whose last line is that run's JSON result (sweep.py
writes them so, named seed<N>.json).  For every end-to-end metric of
BENCHMARK.json on every workload present in both sets, this prints each
side's median and quartiles, the share of seed-matched pairs the change
wins (ties count for neither), and a verdict:

  better        the change wins at least 9 of 10 pairs and the medians
                differ by more than the parent's quartile spread;
  unresolved    a side's quartile spread, as a share of its median, is
                wider than the metric's bound, and not every change run
                beats every parent run;
  worse         the change's median is worse than the parent's by more
                than the bound;
  within bound  otherwise.

It also prints each side's share of failed operations per workload.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_benchmark(path: str = BENCHMARK) -> dict:
    with open(path) as fh:
        return json.load(fh)


def last_json_line(path: str) -> dict:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: no result line")
    return json.loads(lines[-1])


def load_set(root: str) -> dict[str, dict[str, dict]]:
    """{workload: {run file name: result}}."""
    out: dict[str, dict[str, dict]] = {}
    for workload in sorted(os.listdir(root)):
        wdir = os.path.join(root, workload)
        if not os.path.isdir(wdir):
            continue
        runs = {name: last_json_line(os.path.join(wdir, name))
                for name in sorted(os.listdir(wdir))
                if name.endswith(".json")}
        if runs:
            out[workload] = runs
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as the benchmark's
    acceptance reads them: statistics.quantiles(values, n=4)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def relative_spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(parent: list[float], change: list[float],
            wins: float, higher_is_better: bool, bound: float) -> str:
    sign = 1 if higher_is_better else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    if wins >= 0.9 and sign * (c_med - p_med) > p_q3 - p_q1:
        return "better"
    spread = max(relative_spread(parent), relative_spread(change))
    if spread > bound:
        everyone = all(sign * (c - p) > 0 for c in change for p in parent)
        return "within bound" if everyone else "unresolved"
    if sign * (c_med - p_med) < -bound * p_med:
        return "worse"
    return "within bound"


def _values(runs: dict[str, dict], metric: str) -> dict[str, float]:
    return {name: r["metrics"][metric]["value"] for name, r in runs.items()
            if metric in r["metrics"]}


def failed_share(runs: dict[str, dict]) -> str:
    failed = sum(r["failed"] for r in runs.values())
    attempted = sum(r["attempted"] for r in runs.values())
    wrong = sum(1 for r in runs.values() if not r["correct"])
    text = f"{failed}/{attempted}"
    return text + (f" ({wrong} runs not correct)" if wrong else "")


def compare(parent_dir: str, change_dir: str, bench: dict) -> list[str]:
    parent, change = load_set(parent_dir), load_set(change_dir)
    lines = [f"{'workload':<12} {'metric':<13} {'parent median [q1, q3]':<34}"
             f" {'change median [q1, q3]':<34} {'won':>5}  verdict"]
    for workload in sorted(set(parent) & set(change)):
        for spec in bench["end_to_end"]:
            name = spec["name"]
            pv, cv = _values(parent[workload], name), \
                _values(change[workload], name)
            if not pv or not cv:
                continue
            higher = spec["better"] == "higher"
            pairs = sorted(set(pv) & set(cv))
            won = sum(1 for k in pairs
                      if (cv[k] > pv[k]) == higher and cv[k] != pv[k])
            wins = won / len(pairs) if pairs else 0.0
            p, c = list(pv.values()), list(cv.values())
            lines.append(
                f"{workload:<12} {name:<13} {_fmt(p):<34} {_fmt(c):<34} "
                f"{won:>2}/{len(pairs):<2}  "
                f"{verdict(p, c, wins, higher, spec['bound'])}")
        lines.append(f"{workload:<12} failed share: parent "
                     f"{failed_share(parent[workload])}, change "
                     f"{failed_share(change[workload])}")
    return lines


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print("\n".join(compare(argv[0], argv[1], load_benchmark())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
