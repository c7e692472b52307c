#!/usr/bin/env python3
"""The repo benchmark: three long, steady workloads of the BCP simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the simulator library plus the bcp_perfbench worker,
Release + LTO) into $CARGO_TARGET_DIR/perfbench (default .bench_build/),
then runs one workload, each run in its own worker process:

  * set-up: construction-only run_scenario calls, repeated, median;
  * full runs, back to back until --seconds is spent (at least
    MIN_FULL_RUNS), medians;
  * with --trace 1, one more process that times each layer's public
    entry points from outside and writes its spans to
    <build>/perfbench/spans/<workload>-seed<n>.json.

Every full run is one attempted operation; it fails when its outputs fail
a check (see check_run). The last stdout line is the JSON result; the
line before it stamps the host, build and source. See README.md.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 1
MIN_FULL_RUNS = 3

# Set-up repetitions per workload: (worker processes, constructions per
# process). Millisecond constructions repeat inside one process; the 100k
# construction is timed cold, one per process, as a user's run pays it.
# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "paper_36": (1, 101),
    "grid_100k_sharded": (7, 1),
    "churn_lossy_2500": (1, 41),
}

CELLS_36 = ["sh_sensor", "sh_wifi", "sh_dual",
            "mh_sensor", "mh_wifi", "mh_dual"]

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "run_events_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "net.topology_build_s": "s",
    "net.graph_build_s": "s",
    "net.routing_build_s": "s",
    "net.graph_edges": "count",
    "net.route_rebuilds": "count",
    "net.churn_overhead_s": "s",
    "app.assembly_s": "s",
    "app.rss_bytes_per_node": "B",
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "sim.shard_imbalance": "ratio",
    "sim.boundary_frames": "count",
    "sim.inline_run_s": "s",
    "sim.parallel_speedup": "ratio",
    "phy.frames": "count",
    "phy.hearers_per_frame": "ratio",
    "mac.tx_attempts": "count",
    "mac.fail_ratio": "ratio",
    "bcp.wakeups": "count",
    "bcp.sender_sessions": "count",
    "bcp.handshake_fail_ratio": "ratio",
    "energy.normalized_j_per_kbit": "J/kbit",
    "energy.wifi_on_s": "s",
    "app.delivered": "count",
    "app.goodput": "ratio",
    **{f"cell.{c}.run_s": "s" for c in CELLS_36},
    "trace.overhead_ratio": "ratio",
}

# Digest of each workload's deterministic RunMetrics counts at
# DEFAULT_SEED (see counts_digest). A change that alters simulated
# behaviour must update these on purpose; a performance change must not.
PINNED_DIGESTS = {
    "paper_36": "d4e47eaf3bcf721d",
    "grid_100k_sharded": "5ead9f7c935bc96e",
    "churn_lossy_2500": "63084a33a210f5d1",
}

class BenchError(Exception):
    pass


def seed_arg(text):
    if not re.fullmatch(r"[0-9]+", text) or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(
            f"--seed must be a non-negative integer below 2^64, got {text!r}")
    return int(text)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=seed_arg)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measurement time per run (default 30)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error(f"--seconds must be positive, got {args.seconds}")
    return args


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# ---- build ---------------------------------------------------------------

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    if not (ROOT / "src" / "app" / "scenario.hpp").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        run_tool(["cmake", "-S", str(HERE), "-B", str(out),
                  "-DCMAKE_BUILD_TYPE=Release"])
    run_tool(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
    return out / "bcp_perfbench"


def run_tool(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def worker(binary, *args):
    """Runs one worker process and returns its JSON output."""
    proc = subprocess.run([str(binary), *map(str, args)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(map(str, args))} exited "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout)
    except ValueError as e:
        raise BenchError(f"worker {' '.join(map(str, args))} printed "
                         f"malformed JSON: {e}") from e


# ---- output checks -------------------------------------------------------

def check_cells(cells):
    """Seed-independent output checks; returns a list of failures."""
    failures = []
    for c in cells:
        k = c["counts"]
        if k["delivered"] <= 0:
            failures.append(f"{c['name']}: nothing delivered")
        if k["delivered"] > k["generated"]:
            failures.append(f"{c['name']}: delivered {k['delivered']} > "
                            f"generated {k['generated']}")
        if k["chan_rx_starts"] != k["chan_rx_ends"] + k["chan_rx_live_at_end"]:
            failures.append(f"{c['name']}: channel conservation broken")
        if k["shard_events"] and sum(k["shard_events"]) != k["events_processed"]:
            failures.append(f"{c['name']}: shard events do not sum to total")
    return failures


def counts_digest(cells):
    """Digest of every cell's deterministic counts, in cell order."""
    canon = json.dumps([[c["name"], c["counts"]] for c in cells],
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def check_run(workload, seed, cells, reference):
    """All checks of one full run: seed-independent checks, the same
    counts as `reference` (the first run's digest, None for the first
    run), and the pinned digest at DEFAULT_SEED."""
    failures = check_cells(cells)
    digest = counts_digest(cells)
    if reference is not None and digest != reference:
        failures.append(f"counts digest {digest} differs from the first "
                        f"run's {reference}")
    pinned = PINNED_DIGESTS[workload]
    if seed == DEFAULT_SEED and digest != pinned:
        failures.append(f"counts digest {digest} != pinned {pinned}")
    return digest, failures


# ---- measurement ---------------------------------------------------------

def measure(binary, workload, seed, seconds):
    """Set-up reps then full runs until `seconds` are spent."""
    t0 = time.monotonic()
    procs, reps = WORKLOADS[workload]
    setup_by_cell = {}
    for _ in range(procs):
        for c in worker(binary, "setup", workload, seed, reps)["cells"]:
            setup_by_cell.setdefault(c["name"], []).append(c["setup_s"])
    # Per-rep totals over cells (rep r of every cell ran in one process).
    per_cell = {n: [x for p in v for x in p] for n, v in setup_by_cell.items()}
    setup_totals = [sum(vals) for vals in zip(*per_cell.values())]

    runs, failures = [], []
    reference = None
    attempted = 0
    last = 0.0
    # Start another run only while it should end within `seconds`.
    while attempted < MIN_FULL_RUNS or \
            time.monotonic() - t0 + last <= seconds:
        attempted += 1
        start = time.monotonic()
        try:
            out = worker(binary, "run", workload, seed)
        except BenchError as e:
            failures.append(f"run {attempted}: {e}")
            continue
        last = time.monotonic() - start
        digest, bad = check_run(workload, seed, out["cells"], reference)
        reference = reference or digest
        failures += [f"run {attempted}: {f}" for f in bad]
        runs.append(out)
    if not runs:
        raise BenchError("; ".join(failures))
    return {
        "setup_cells": {n: statistics.median(v) for n, v in per_cell.items()},
        "setup_s": statistics.median(setup_totals),
        "runs": runs,
        "attempted": attempted,
        "failures": failures,
        "digest": reference,
    }


def median_of(runs, fn):
    return statistics.median(fn(r) for r in runs)


def end_to_end(m):
    runs = m["runs"]
    wall = median_of(runs, lambda r: sum(c["wall_s"] for c in r["cells"]))
    events = sum(c["counts"]["events_processed"] for c in runs[0]["cells"])
    return {
        "wall_s": wall,
        "setup_s": m["setup_s"],
        "run_events_per_s": events / (wall - m["setup_s"]),
        "peak_rss_mib": median_of(runs, lambda r: r["peak_rss_mib"]),
    }


def per_layer(m, e2e, traced):
    """Per-layer metrics from the untraced medians and the traced run."""
    cells = traced["cells"]
    total = {}
    for c in cells:
        for k, v in c["counts"].items():
            if k != "shard_events":
                total[k] = total.get(k, 0) + v
    run_s = e2e["wall_s"] - e2e["setup_s"]
    net_s = sum(c["topology_build_s"] + c["graph_build_s"] +
                c["routing_build_s"] for c in cells)
    nodes = max(c["nodes"] for c in cells)
    rss_delta = median_of(m["runs"],
                          lambda r: r["peak_rss_mib"] - r["base_rss_mib"])

    def twin_run_s(name):
        t = [c["twins"][name] for c in cells if name in c["twins"]]
        return sum(x["wall_s"] - x["setup_s"] for x in t) if t else None

    traced_run_s = sum(c["wall_s"] - c["setup_s"] for c in cells)
    fault_free = twin_run_s("fault_free")
    single = twin_run_s("single_queue")
    inline = twin_run_s("inline")
    shards = [s for c in cells for s in c["counts"]["shard_events"]]
    cell_wall = {c["name"]: median_of(m["runs"],
                                      lambda r, i=i: r["cells"][i]["wall_s"])
                 for i, c in enumerate(cells)}

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "net.topology_build_s": sum(c["topology_build_s"] for c in cells),
        "net.graph_build_s": sum(c["graph_build_s"] for c in cells),
        "net.routing_build_s": sum(c["routing_build_s"] for c in cells),
        "net.graph_edges": sum(c["graph_edges"] for c in cells),
        "net.route_rebuilds": total["route_rebuilds"],
        "net.churn_overhead_s":
            traced_run_s - fault_free if fault_free is not None else 0.0,
        "app.assembly_s": e2e["setup_s"] - net_s,
        "app.rss_bytes_per_node": rss_delta * 2**20 / nodes,
        "sim.events": total["events_processed"],
        "sim.host_ns_per_event": run_s * 1e9 / total["events_processed"],
        "sim.shard_imbalance":
            max(shards) / statistics.mean(shards) if shards else 1.0,
        "sim.boundary_frames": total["boundary_frames"],
        # The single queue always runs inline and is its own twin.
        "sim.inline_run_s": inline if inline is not None else run_s,
        "sim.parallel_speedup":
            ratio(single, traced_run_s) if single is not None else 1.0,
        "phy.frames": total["chan_frames"],
        "phy.hearers_per_frame":
            ratio(total["chan_rx_starts"], total["chan_frames"]),
        "mac.tx_attempts": total["mac_tx_attempts"],
        "mac.fail_ratio":
            ratio(total["mac_tx_failed"], total["mac_tx_attempts"]),
        "bcp.wakeups": total["bcp_wakeups"],
        "bcp.sender_sessions": total["bcp_sender_sessions"],
        "bcp.handshake_fail_ratio":
            ratio(total["bcp_handshakes_failed"], total["bcp_wakeups"]),
        "energy.normalized_j_per_kbit": statistics.mean(
            c["results"]["normalized_energy"] for c in cells),
        "energy.wifi_on_s": sum(c["results"]["wifi_on_seconds"] for c in cells),
        "app.delivered": total["delivered"],
        "app.goodput": statistics.mean(c["results"]["goodput"] for c in cells),
        "trace.overhead_ratio": sum(c["wall_s"] for c in cells) / e2e["wall_s"],
    }
    for name in CELLS_36:
        out[f"cell.{name}.run_s"] = (
            cell_wall[name] - m["setup_cells"][name] if name in cell_wall
            else 0.0)
    return out


def traced_run(binary, workload, seed, m):
    """One traced worker; fails the run when tracing changed any count."""
    spans = build_dir() / "spans" / f"{workload}-seed{seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    traced = worker(binary, "trace", workload, seed, spans)
    log(f"{traced['spans']} spans written to {spans}")
    failures = check_cells(traced["cells"])
    if counts_digest(traced["cells"]) != m["digest"]:
        failures.append("traced counts differ from the untraced runs")
    return traced, failures


# ---- stamp and result ----------------------------------------------------

def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")) + sorted(HERE.glob("*.cpp")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def stamp(binary):
    info = worker(binary, "info")
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "build_type": info["build_type"], "lto": info["lto"],
            "git_commit": git_commit(), "source_sha256": source_digest()}


def result_line(attempted, failed, metrics, units):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    })


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
        info = stamp(binary)
        m = measure(binary, args.workload, args.seed, args.seconds)
        e2e = end_to_end(m)
        attempted, failures = m["attempted"], list(m["failures"])
        if args.trace:
            traced, bad = traced_run(binary, args.workload, args.seed, m)
            attempted += 1
            failures += [f"traced run: {f}" for f in bad]
            metrics, units = per_layer(m, e2e, traced), PER_LAYER
        else:
            metrics, units = e2e, END_TO_END
    except BenchError as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 1
    for f in failures:
        log(f"FAILED {f}")
    # Failed runs count once each, however many checks they broke.
    failed = len({f.split(":", 1)[0] for f in failures})
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "full_runs": len(m["runs"]), "digest": m["digest"],
                      "stamp": info}))
    print(result_line(attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
