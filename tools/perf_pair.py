#!/usr/bin/env python3
"""Paired end-to-end perf check of two checkouts of hmcsim.

    python3 tools/perf_pair.py BASE_DIR HEAD_DIR

For each of perfbench's campaign and warm-backends workloads, runs
python3 perfbench/run.py --workload W --seconds 10 in BASE_DIR and
HEAD_DIR for six pairs, alternating which checkout goes first (an even
count, so each goes first equally often: the second run of a pair tends
to read higher on a shared host), and fails (exit 1) unless, for both
workloads:

  - every run reads correct: true;
  - no head run has more failed outputs than the base run it is paired
    with;
  - head's median items_per_s is below base's by no more than the
    items_per_s bound in HEAD_DIR's BENCHMARK.json.

It also prints base and head medians of every other end_to_end metric
HEAD_DIR's BENCHMARK.json declares (setup_s, wall_s, peak_rss_mb,
req_p50_us, req_p99_us), with the direction that is better. Those are
reported, not judged: on a shared host their run-to-run spread is
wider than their bounds (docs/performance.md). Every median line also
says in how many pairs head was ahead.

Each checkout builds its own perfbench binary under .bench_build/ on
its first run. The campaign covers every layer of the platform: event
core, GUPS issue, controller, link, HMC vault dispatch and latency stats.
warm-backends is the only workload through Ac510Module::fork and the
DDR4 and NVM storage engines.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("campaign", "warm-backends")
SECONDS = "10"
PAIRS = 6
METRIC = "items_per_s"


def run(checkout, workload):
    """The result line of one perfbench @p workload run in @p checkout."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", SECONDS],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"perf_pair: perfbench exited with {done.returncode} "
                 f"in {checkout}")
    return json.loads(done.stdout.splitlines()[-1])


def end_to_end(checkout):
    """BENCHMARK.json's end_to_end metric entries in @p checkout."""
    return json.loads((checkout / "BENCHMARK.json").read_text())[
        "end_to_end"]


def summary(values):
    """The median of @p values and their "[min..max]" range."""
    return (statistics.median(values),
            f"[{min(values):.4g}..{max(values):.4g}]")


def head_ahead(base, head, name, better):
    """In how many pairs head's @p name beat base's, as "k/n"."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (h["metrics"][name]["value"] -
                       b["metrics"][name]["value"]) > 0
               for b, h in zip(base, head))
    return f"{wins}/{len(base)}"


def report(workload, base, head, declared):
    """Print base and head medians of each declared metric both have."""
    for metric in declared:
        name = metric["name"]
        if name == METRIC or not all(name in r["metrics"]
                                     for r in base + head):
            continue
        (base_median, base_span), (head_median, head_span) = (
            summary([r["metrics"][name]["value"] for r in runs])
            for runs in (base, head))
        change = (f"{head_median / base_median - 1.0:+.1%}"
                  if base_median else "n/a")
        ahead = head_ahead(base, head, name, metric["better"])
        print(f"{workload} median {name}: base {base_median:.4g} "
              f"{base_span}, head {head_median:.4g} {head_span} ({change}; "
              f"{metric['better']} is better; head ahead in {ahead} pairs; "
              f"reported, not judged)")


def judge(workload, base_dir, head_dir, allowed, declared):
    """Run @p workload for PAIRS alternating pairs; list its problems."""
    base, head = [], []
    for i in range(PAIRS):
        order = ((base_dir, base), (head_dir, head))
        for checkout, runs in order if i % 2 == 0 else reversed(order):
            runs.append(run(checkout, workload))
        print(f"{workload} pair {i + 1}: "
              f"base {base[-1]['metrics'][METRIC]['value']:.4g} "
              f"head {head[-1]['metrics'][METRIC]['value']:.4g} {METRIC}",
              flush=True)

    problems = []
    for i, (b, h) in enumerate(zip(base, head), 1):
        for side, r in (("base", b), ("head", h)):
            if r["correct"] is not True:
                problems.append(f"{workload} pair {i}: {side} run is not "
                                f"correct")
        if h["failed"] > b["failed"]:
            problems.append(f"{workload} pair {i}: head failed "
                            f"{h['failed']} > base failed {b['failed']}")
    base_median = statistics.median(r["metrics"][METRIC]["value"]
                                    for r in base)
    head_median = statistics.median(r["metrics"][METRIC]["value"]
                                    for r in head)
    change = head_median / base_median - 1.0
    ahead = head_ahead(base, head, METRIC, "higher")
    print(f"{workload} median {METRIC}: base {base_median:.4g}, "
          f"head {head_median:.4g} ({change:+.1%}; head ahead in {ahead} "
          f"pairs; bound -{allowed:.0%})")
    if change < -allowed:
        problems.append(f"{workload} head median {METRIC} is "
                        f"{-change:.1%} below base (bound {allowed:.0%})")
    report(workload, base, head, declared)
    return problems


def main():
    if len(sys.argv) != 3:
        print("usage: python3 tools/perf_pair.py BASE_DIR HEAD_DIR",
              file=sys.stderr)
        return 2
    base_dir, head_dir = (Path(arg).resolve() for arg in sys.argv[1:])
    declared = end_to_end(head_dir)
    allowed = next(m["bound"] for m in declared if m["name"] == METRIC)

    problems = []
    for workload in WORKLOADS:
        problems += judge(workload, base_dir, head_dir, allowed, declared)
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
