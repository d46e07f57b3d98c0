#!/usr/bin/env python3
"""Benchmark entry point for hmcsim.

Builds perfbench/hmcbench from the checkout's sources (first run only),
runs one workload in that single process, checks its outputs and prints
the metrics as the last line of standard output:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of the traced pass plus a trace report (self time per layer,
the unattributed remainder, tracing overhead) written under
.bench_build/perfbench-out/. --record stores the run's outputs as the
expected values for its seed in perfbench/expected.json.

Run from the root of the checkout. Everything it writes goes under
.bench_build/. The metric names, units and directions come from
BENCHMARK.json; layers.json adds what each per-layer metric should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
WORKLOADS = ("campaign", "warm-backends", "fleet", "store-replay")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH_DIR / "layers.json").read_text())
EXPECTED_PATH = BENCH_DIR / "expected.json"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def declared(kind):
    """{name: unit} of BENCHMARK.json's end_to_end or per_layer list."""
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def check_declarations():
    """layers.json must map exactly the per-layer metrics BENCHMARK.json
    declares, and every model count must be one of them."""
    names = set(declared("per_layer"))
    stray = (names ^ set(LAYERS["per_layer"])) | (
        set(LAYERS["model_counts"]) - names)
    if stray:
        log("perfbench: layers.json and BENCHMARK.json per_layer differ: "
            f"{sorted(stray)}")
        sys.exit(2)


def with_units(values, kind):
    """{name: (value, unit)} for the computed @p values, which must be
    exactly the metrics BENCHMARK.json declares under @p kind."""
    units = declared(kind)
    if set(values) != set(units):
        log(f"perfbench: computed {kind} metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}")
        sys.exit(2)
    return {name: (values[name], units[name]) for name in units}


def build():
    """Configure and build hmcbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no hmcsim sources under {ROOT / 'src'}")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "hmcbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            sys.exit(1)
    return BUILD_DIR / "hmcbench"


def cpu_ticks():
    """(steal, total) jiffies summed over all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    # guest time is already counted in user/nice.
    return steal, sum(fields[:8])


def quantile(values, p):
    """Nearest-rank quantile, the simulator's own rule (sim/stats.hh)."""
    ordered = sorted(values)
    return ordered[min(int(p * len(ordered)), len(ordered) - 1)]


# ---------------------------------------------------------------------------
# Output checks


def check(raw, workload, seed):
    """(attempted, failed) over every output of the run.

    At a seed with recorded values every iteration, traced or not, and
    the set-up outputs must equal the record. At any other seed the
    first untraced iteration is the reference (a determinism check).
    Store-replay also counts its per-request line comparisons.
    """
    record = (json.loads(EXPECTED_PATH.read_text())
              .get(workload, {}).get(str(seed)))
    iterations = raw["iterations"]
    if record:
        reference = record["outputs"]
        pairs = [(raw["setup_outputs"], record["setup"])]
    else:
        reference = next(it["outputs"] for it in iterations
                         if not it["traced"])
        pairs = []
    pairs += [(it["outputs"], reference) for it in iterations]

    attempted = failed = 0
    for got, want in pairs:
        attempted += max(len(got), len(want))
        failed += sum(1 for a, b in zip(got, want) if a != b)
        failed += abs(len(got) - len(want))
    attempted += 1
    failed += 0 if raw["setup_consistent"] else 1
    for it in iterations:
        attempted += it["checked"]
        failed += it["failed"]
    return attempted, failed


def record_expected(raw, workload, seed):
    expected = json.loads(EXPECTED_PATH.read_text())
    first = next(it for it in raw["iterations"] if not it["traced"])
    expected.setdefault(workload, {})[str(seed)] = {
        "setup": raw["setup_outputs"],
        "outputs": first["outputs"],
    }
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1,
                                        sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# End-to-end metrics


# Times are read at the lower decile of their samples. On a shared host
# the program's own cost is the floor of its times; other tenants only
# add to it, in bursts from milliseconds to minutes. The decile keeps a
# run's figure on that floor while at least a tenth of the run is quiet,
# where a median moves with the share of busy time. On a shared 4-vCPU
# VM, medians of store-replay's iteration times spread 22% (IQR/median)
# over six 10-second runs and the lower decile 8%.
LOW = 0.1


def end_to_end(raw):
    """Lower-decile times over the run's untraced iterations (set-ups
    for setup_s); peak_rss_mb is the median of the iterations' peaks.

    Every iteration serves the same items in the same order, so item k
    is the same sweep point, fleet call or request in each of them.
    req_p50_us and req_p99_us are quantiles over the items of each
    item's lower-decile host latency across iterations: the spread of
    what the items cost, without the bursts of machine noise that land
    on single instances of an item.
    """
    untraced = [it for it in raw["iterations"] if not it["traced"]]
    per_item = sorted(quantile(ns, LOW) for ns in
                      zip(*(it["item_ns"] for it in untraced)))
    return with_units({
        "setup_s": quantile(raw["setup_s"], LOW),
        "wall_s": quantile([it["wall_s"] for it in untraced], LOW),
        "items_per_s": quantile([it["items"] / it["wall_s"]
                                 for it in untraced], 1 - LOW),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"]
                                         for it in untraced),
        "req_p50_us": quantile(per_item, 0.5) / 1e3,
        "req_p99_us": quantile(per_item, 0.99) / 1e3,
    }, "end_to_end")


# ---------------------------------------------------------------------------
# Trace analysis


def union_length(intervals, lo, hi):
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def analyse_iteration(root, spans, children):
    """Self time and wall share per layer for one traced iteration.

    Self time is a span's duration minus the part its children cover
    (thread time). Wall share splits every instant of the iteration
    equally between the innermost running spans of each thread; the
    instants where only the root runs are the unattributed remainder,
    so the shares plus the remainder add up to the iteration's wall
    time exactly.
    """
    self_ns, share_ns = {}, {}
    for s in spans:
        kids = [(c["start_ns"], c["end_ns"]) for c in children.get(s["id"], [])]
        own = (s["end_ns"] - s["start_ns"]
               - union_length(kids, s["start_ns"], s["end_ns"]))
        self_ns[s["name"]] = self_ns.get(s["name"], 0) + own

    events = []
    for s in spans + [root]:
        events.append((s["start_ns"], 1, s))
        events.append((s["end_ns"], 0, s))
    events.sort(key=lambda e: (e[0], e[1]))
    active, running_kids = {}, {}
    unattributed, last = 0.0, root["start_ns"]
    for time, starting, s in events:
        if time > last and active:
            leaves = [a for a in active.values()
                      if running_kids.get(a["id"], 0) == 0]
            dt = (time - last) / len(leaves)
            for leaf in leaves:
                if leaf is root:
                    unattributed += dt
                else:
                    share_ns[leaf["name"]] = share_ns.get(leaf["name"], 0) + dt
        last = time
        if starting:
            active[s["id"]] = s
            running_kids[s["parent"]] = running_kids.get(s["parent"], 0) + 1
        else:
            active.pop(s["id"], None)
            running_kids[s["parent"]] -= 1
    wall = root["end_ns"] - root["start_ns"]
    return {"wall_ns": wall, "self_ns": self_ns, "share_ns": share_ns,
            "unattributed_ns": unattributed}


def per_layer(raw, spans_path, jobs):
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def root_of(s):
        while s["parent"] in by_id:
            s = by_id[s["parent"]]
        return s

    members = {}
    for s in spans:
        if s["name"] != "bench.iteration":
            members.setdefault(root_of(s)["id"], []).append(s)
    roots = [s for s in spans if s["name"] == "bench.iteration"]
    iters = [analyse_iteration(r, members.get(r["id"], []), children)
             for r in roots]

    def durations(name, tag=None):
        return [s["end_ns"] - s["start_ns"] for s in spans
                if s["name"] == name and (tag is None or s["tag"] == tag)]

    def median_or_zero(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    def per_iteration(fn):
        """Median over traced iterations of fn(spans of the iteration)."""
        return median_or_zero(fn(members.get(r["id"], [])) for r in roots)

    def total_ms(name):
        return per_iteration(lambda ss: sum(
            s["end_ns"] - s["start_ns"] for s in ss if s["name"] == name) / 1e6)

    def ns_per_event(tag=None):
        def fn(ss):
            sim = [s for s in ss if s["name"] in ("sim.warmup", "sim.measure")
                   and (tag is None or s["tag"] == tag)]
            events = sum(s["count"] for s in sim)
            return (sum(s["end_ns"] - s["start_ns"] for s in sim) / events
                    if events else 0.0)
        return per_iteration(fn)

    builds = []
    for s in spans:
        if s["name"] == "host.build":
            builds.append(s["end_ns"] - s["start_ns"] + sum(
                c["end_ns"] - c["start_ns"] for c in children.get(s["parent"], [])
                if c["name"] == "host.register_stats"))

    def busy_share(ss):
        pools = [s for s in ss if s["name"] == "runner.pool"]
        busy = sum(c["end_ns"] - c["start_ns"] for p in pools
                   for c in children.get(p["id"], []))
        span = sum(p["end_ns"] - p["start_ns"] for p in pools)
        return busy / (span * jobs) if span else 0.0

    def node_imbalance(ss):
        nodes = [s["end_ns"] - s["start_ns"] for s in ss
                 if s["name"] == "service.node"]
        return max(nodes) / statistics.median(nodes) if nodes else 0.0

    traced = [it for it in raw["iterations"] if it["traced"]]
    untraced = [it for it in raw["iterations"] if not it["traced"]]

    def count(name):
        return median_or_zero(it["counts"].get(name, 0.0) for it in traced)

    memory = len(durations("runner.cache_lookup", "memory"))
    lookups = memory + len(durations("runner.cache_lookup", "store"))
    trace_wall = median_or_zero(i["wall_ns"] for i in iters) / 1e9
    untraced_wall = statistics.median(it["wall_s"] for it in untraced)
    values = {
        "host.build_us.p50": quantile(builds, 0.5) / 1e3 if builds else 0.0,
        "host.build_us.p99": quantile(builds, 0.99) / 1e3 if builds else 0.0,
        "sim.warmup_ms": total_ms("sim.warmup"),
        "sim.measure_ms": total_ms("sim.measure"),
        "sim.events": per_iteration(lambda ss: sum(
            s["count"] for s in ss
            if s["name"] in ("sim.warmup", "sim.measure"))),
        "sim.ns_per_event": ns_per_event(),
        "mem.hmc.ns_per_event": ns_per_event("hmc"),
        "mem.ddr4.ns_per_event": ns_per_event("ddr4"),
        "mem.nvm.ns_per_event": ns_per_event("nvm"),
        "sim.digest_us": median_or_zero(durations("sim.digest")) / 1e3,
        "host.stream_us": median_or_zero(durations("host.stream")) / 1e3,
        "power.solve_us": median_or_zero(durations("power.solve")) / 1e3,
        "runner.pool_busy_share": per_iteration(busy_share),
        "sim.fork_us": median_or_zero(durations("sim.fork")) / 1e3,
        "sim.warmups": per_iteration(lambda ss: sum(
            1 for s in ss if s["name"] == "runner.warm_group")),
        "sim.forks": per_iteration(lambda ss: sum(
            1 for s in ss if s["name"] == "sim.fork")),
        "service.generate_ms": total_ms("service.generate"),
        "service.node_ms": total_ms("service.node"),
        "service.node_imbalance": per_iteration(node_imbalance),
        "service.merge_ms": total_ms("service.merge"),
        "dist.wire_roundtrip_us":
            median_or_zero(durations("dist.wire_roundtrip")) / 1e3,
        "runner.config_digest_ns":
            median_or_zero(durations("runner.config_digest")),
        "runner.cache_lookup_us":
            median_or_zero(durations("runner.cache_lookup", "memory")) / 1e3,
        "dist.store_load_us":
            median_or_zero(durations("runner.cache_lookup", "store")) / 1e3,
        "runner.sink_write_us":
            median_or_zero(durations("runner.sink_write")) / 1e3,
        "runner.mem_hit_ratio": memory / lookups if lookups else 0.0,
        "dist.store_hits": count("dist.store_hits"),
        "dist.store_corrupt": count("dist.store_corrupt"),
        "trace.wall_s": trace_wall,
        "trace.overhead_s": trace_wall - untraced_wall,
        "trace.unattributed_ms": median_or_zero(
            i["unattributed_ns"] for i in iters) / 1e6,
    }
    for name in LAYERS["model_counts"]:
        values[name] = count(name)
    metrics = with_units(values, "per_layer")

    layers = sorted({n for i in iters for n in i["self_ns"]})
    report = {
        "traced_iterations": len(iters),
        "wall_ms": trace_wall * 1e3,
        "untraced_wall_ms": untraced_wall * 1e3,
        "unattributed_ms": metrics["trace.unattributed_ms"][0],
        "layers": {n: {
            "self_ms": median_or_zero(i["self_ns"].get(n, 0) for i in iters) / 1e6,
            "wall_share_ms": median_or_zero(
                i["share_ns"].get(n, 0) for i in iters) / 1e6,
        } for n in layers},
        # Shares plus remainder minus wall, per iteration: 0 up to rounding.
        "accounting_error_ns": max(
            (abs(sum(i["share_ns"].values()) + i["unattributed_ns"] - i["wall_ns"])
             for i in iters), default=0.0),
    }
    return metrics, report


def print_trace_report(workload, metrics, report):
    print(f"# trace report ({workload}, {report['traced_iterations']} traced "
          f"iterations, medians per iteration)")
    print(f"#   wall {report['wall_ms']:.3f} ms traced vs "
          f"{report['untraced_wall_ms']:.3f} ms untraced; unattributed "
          f"{report['unattributed_ms']:.3f} ms; accounting error "
          f"{report['accounting_error_ns']:.1f} ns")
    print(f"#   {'layer':28s} {'self_ms':>10s} {'wall_share_ms':>14s}")
    for name, row in report["layers"].items():
        print(f"#   {name:28s} {row['self_ms']:10.3f} {row['wall_share_ms']:14.3f}")
    print(f"#   {'per-layer metric':28s} {'value':>14s}  should move")
    for name, (value, unit) in metrics.items():
        moves = "; ".join(f"{m['metric']} on {m['workload']} ({m['prediction']})"
                          for m in LAYERS["per_layer"][name]["moves"])
        print(f"#   {name:28s} {value:14.6g} {unit:5s} {moves}")


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=LAYERS["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's outputs as the expected values")
    args = parser.parse_args()

    check_declarations()
    binary = build()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    scratch = OUT_DIR / f"{stem}.{os.getpid()}.tmp"
    spans_path = OUT_DIR / f"{stem}.spans.jsonl"

    load = os.getloadavg()
    steal0, total0 = cpu_ticks()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch), "--spans", str(spans_path)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 150)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    steal1, total1 = cpu_ticks()
    if done.returncode != 0:
        log(f"perfbench: hmcbench exited with {done.returncode}")
        sys.exit(1)
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    raw = lines[-1]
    raw["iterations"] = [line["iteration"] for line in lines[:-1]]

    steal = steal1 - steal0
    print(f"# machine: nproc={os.cpu_count()} "
          f"loadavg_at_start={load[0]:.2f},{load[1]:.2f},{load[2]:.2f} "
          f"steal_delta={steal} jiffies "
          f"({100.0 * steal / max(total1 - total0, 1):.2f}% of cpu time)")
    items = len(raw["iterations"][0]["item_ns"])
    beyond = items - 1 - min(int(0.99 * items), items - 1)
    print(f"# {args.workload} seed={args.seed}: "
          f"{len(raw['iterations'])} iterations in {raw['measured_s']:.2f} s, "
          f"req: {items} items per iteration ({beyond} beyond p99), each "
          f"the lower decile of its untraced iterations; "
          f"peak_rss_reset={raw['peak_rss_reset']}")

    if args.record:
        record_expected(raw, args.workload, args.seed)
    attempted, failed = check(raw, args.workload, args.seed)

    if args.trace:
        metrics, report = per_layer(raw, spans_path, raw["jobs"])
        report.update(workload=args.workload, seed=args.seed,
                      spans=str(spans_path.relative_to(ROOT)))
        (OUT_DIR / f"{stem}.report.json").write_text(
            json.dumps(report, indent=1) + "\n")
        print_trace_report(args.workload, metrics, report)
    else:
        metrics = end_to_end(raw)
        untraced = [it for it in raw["iterations"] if not it["traced"]]
        print(f"# medians for comparison: "
              f"setup_s {statistics.median(raw['setup_s']):.6g} s, "
              f"wall_s {statistics.median(it['wall_s'] for it in untraced):.6g} s")
        for name, (value, unit) in metrics.items():
            print(f"# {name:12s} {value:.6g} {unit}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
