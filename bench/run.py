"""heisgeo benchmark: run one workload and report its metrics.

    python3 bench/run.py --workload lattice-exact --seed 1 --seconds 24 --trace 0

Starts one workload process at a time (bench/worker.py), each a fresh
interpreter that imports heisgeo from this checkout's `src/`:

* two set-up-only processes, whose set-up times join those of the passes;
* then passes of the workload until --seconds have been spent, at least
  one.  With --trace 1 the passes alternate untraced and traced, at least
  one of each.

With --trace 0 the last line is the JSON result with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics, read from the
traced passes, plus the tracing overhead.  End-to-end metrics come only
from untraced passes.  Lines before it list every metric by name and unit,
the failed checks, and the machine record.  README.md documents it all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lattice-exact", "sphere-band", "geometric-search", "cli-cold")
SETUP_SAMPLES = 2
PASS_TIMEOUT = 150
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, pass_idx: int, trace: int, out_dir: str, setup_only=False) -> dict:
    out = os.path.join(out_dir, f"pass-{pass_idx}{'-setup' if setup_only else ''}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--pass", str(pass_idx), "--trace", str(trace), "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    spawn = time.monotonic()
    proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True,
                          timeout=PASS_TIMEOUT)
    end = time.monotonic()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    with open(out) as fh:
        doc = json.load(fh)
    doc["setup_s"] = (doc["ready"] - spawn) / doc["setup_factor"]
    doc["process_s"] = end - spawn
    doc["traced"] = bool(trace)
    return doc


def tail(latencies: list) -> tuple[float, float, int]:
    """(percentile, value, beyond) at the highest ladder percentile with ten beyond."""
    xs = sorted(latencies)
    for p in LADDER:
        rank = -(-len(xs) * p // 100)  # nearest-rank: ceil(p/100 * N)
        rank = max(1, int(rank))
        if len(xs) - rank >= 10:
            return p, xs[rank - 1], len(xs) - rank
    return 100.0, xs[-1], 0


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: worker_env()[var] for var in THREAD_VARS},
        "worker_processes_at_once": 1,
    }


def end_to_end(passes: list, setups: list) -> tuple[dict, list, str]:
    untraced = [p for p in passes if not p["traced"]]
    latencies = [row[3] for p in untraced for row in p["tasks"]]
    tails = [tail([row[3] for row in p["tasks"]]) for p in untraced]
    pct, n_beyond = tails[0][0], tails[0][2]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in untraced), "s"),
        "task_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "task_tail_ms": (1e3 * statistics.median(t[1] for t in tails), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced), "MiB"),
    }
    attempted = sum(len(p["tasks"]) for p in untraced)
    failed = sum(1 for p in untraced for row in p["tasks"] if not row[2])
    # fail_frac counts the known-defect probes too; `correct` does not
    defects = [d for p in passes for d in p["defects"]]
    attempted += len(defects)
    failed += sum(1 for d in defects if not d["ok"])
    extra = [("fail_frac", failed / attempted, "ratio"),
             ("raw_wall_s", statistics.median(p["raw_wall_s"] for p in untraced), "s"),
             ("speed_factor", statistics.median(p["raw_wall_s"] / p["wall_s"] for p in untraced), "ratio")]
    band_s = sum(p["band_s"] for p in untraced)
    if band_s:
        extra.append(("band_points_per_s", sum(p["band_points"] for p in untraced) / band_s, "1/s"))
    chain_s = sum(p["chain_s"] for p in untraced)
    if chain_s:
        extra.append(("chain_trials_per_s", sum(p["chain_trials"] for p in untraced) / chain_s, "1/s"))
    note = (f"task_tail_ms is p{pct:g} of {len(untraced[0]['tasks'])} tasks per pass "
            f"({n_beyond} beyond), median over {len(untraced)} passes; "
            f"task_p50_ms pools {len(latencies)} tasks")
    return metrics, extra, note


def _merge(summaries: list) -> dict:
    total = {"names": {}, "counts": {}, "core_calls": 0, "core_s": 0.0,
             "min_margin": None, "band_self_s": 0.0, "spans": 0}
    for s in summaries:
        for name, row in s["names"].items():
            acc = total["names"].setdefault(name, {"calls": 0, "self_s": 0.0, "outer_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for key, val in s["counts"].items():
            total["counts"][key] = total["counts"].get(key, 0) + val
        for key in ("core_calls", "core_s", "band_self_s", "spans"):
            total[key] += s[key]
        if s["min_margin"] is not None:
            seen = [m for m in (total["min_margin"], s["min_margin"]) if m is not None]
            total["min_margin"] = min(seen)
    return total


def per_layer(passes: list) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    k = len(traced)
    probes = [pr for p in traced for pr in p["probes"]]
    merged = _merge([p["trace"] for p in traced] + [pr["trace"] for pr in probes])
    names, counts = merged["names"], merged["counts"]

    def outer(*fns):
        return sum(names.get(fn, {}).get("outer_s", 0.0) for fn in fns) / k

    def calls(*fns):
        return sum(names.get(fn, {}).get("calls", 0) for fn in fns) / k

    def busy(layer):
        return sum(row["self_s"] for n, row in names.items() if n.startswith(layer + ".")) / k

    def ratio(num, den):
        return num / den if den else 0.0

    routes = {r: counts.get(f"balls.route.{r}", 0) / k
              for r in ("exact-out", "exact-in", "minimizer-in", "minimizer-out")}
    rows_sent = counts.get("spherequad.batched_rows", 0)
    # the pool numbers come from untraced passes: traced pool workers inherit the tracer
    serial = [p for p in untraced if p["search_serial_s"]]
    label_calls = calls("ergodic.ball_label_counts")
    m = {
        "core.calls": (merged["core_calls"] / k, "count"),
        "core.busy_s": (merged["core_s"] / k, "s"),
        "balls.busy_s": (busy("balls"), "s"),
        "balls.enumerate_s": (outer("balls.enumerate_ball"), "s"),
        "balls.product_s": (outer("balls.product_ball_cardinality", "balls.product_set"), "s"),
        "balls.rows_out": (counts.get("balls.rows_out", 0) / k, "count"),
        "balls.band_self_s": (merged["band_self_s"] / k, "s"),
        **{f"balls.route.{r}": (v, "count") for r, v in routes.items()},
        "balls.minimizer_frac": (ratio(routes["minimizer-in"] + routes["minimizer-out"],
                                       sum(routes.values())), "ratio"),
        "spherequad.batched_calls": (calls("spherequad.gauge_min_batched"), "count"),
        "spherequad.batched_rows": (rows_sent / k, "count"),
        "spherequad.batched_s": (outer("spherequad.gauge_min_batched"), "s"),
        "spherequad.accept_frac": (ratio(counts.get("spherequad.batched_accepted", 0), rows_sent), "ratio"),
        "spherequad.min_margin": (merged["min_margin"] or 0.0, "1"),
        "spherequad.scalar_calls": (calls("spherequad.gauge_min"), "count"),
        "spherequad.scalar_s": (outer("spherequad.gauge_min"), "s"),
        "spherequad.distance_calls": (calls("spherequad.sphere_distance"), "count"),
        "spherequad.distance_s": (outer("spherequad.sphere_distance"), "s"),
        "covering.busy_s": (busy("covering"), "s"),
        "covering.select_s": (outer("covering.besicovitch_select", "covering.selection_multiplicity",
                                    "covering.colour_partition", "covering.is_well_separated"), "s"),
        "covering.boundgen_s": (outer("covering.boundgen_select"), "s"),
        "covering.net_s": (outer("covering.covering_net"), "s"),
        "covering.net_centers": (counts.get("covering.net_centers", 0) / k, "count"),
        "covering.pair_distance_s": (outer("covering.sphere_pair_distance"), "s"),
        "separation.busy_s": (busy("separation"), "s"),
        "separation.search_s": (outer("separation.intersection_search"), "s"),
        "separation.child_cpu_s": (sum(p["child_cpu_s"] for p in untraced) / len(untraced), "s"),
        # both raw times: the serial rerun in the check is not speed-normalized
        "separation.pool_speedup": (ratio(sum(p["search_serial_s"] for p in serial),
                                          sum(p["chain_raw_s"] for p in serial)), "ratio"),
        "separation.chain_yield": (ratio(counts.get("separation.longest_trials", 0),
                                         counts.get("separation.trials", 0)), "ratio"),
        "separation.certify_s": (sum(p["certify_s"] for p in traced) / k, "s"),
        "ergodic.busy_s": (busy("ergodic"), "s"),
        "ergodic.label_count_calls": (label_calls, "count"),
        "ergodic.label_count_s": (outer("ergodic.ball_label_counts"), "s"),
        "ergodic.label_count_repeat_frac": (ratio(counts.get("ergodic.label_count_repeats", 0) / k,
                                                  label_calls), "ratio"),
        "ergodic.maximal_s": (outer("ergodic.discrete_maximal_check",
                                    "ergodic.maximal_inequality_experiment"), "s"),
    }
    if probes:
        main_s = [pr["main_s"] for pr in probes]
        cli_tasks = [row[1] for p in traced for row in p["tasks"]]
        m.update({
            "cli.import_s": (statistics.median(pr["import_s"] for pr in probes), "s"),
            "cli.scipy_at_import": (float(any(pr["scipy_at_import"] for pr in probes)), "flag"),
            "cli.main_s": (statistics.median(main_s), "s"),
            "cli.start_s": (statistics.median(w - s for w, s in zip(cli_tasks, main_s)), "s"),
        })
    else:
        m.update({
            "cli.import_s": (statistics.median(p["import_s"] for p in passes), "s"),
            "cli.scipy_at_import": (float(any(p["scipy_at_import"] for p in passes)), "flag"),
            "cli.main_s": (0.0, "s"),
            "cli.start_s": (0.0, "s"),
        })
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.spans"] = (merged["spans"] / k, "count")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "heisgeo", "__init__.py")):
        sys.stderr.write(f"no heisgeo sources under {ROOT}/src; run from a heisgeo checkout\n")
        return 2

    out_dir = os.path.join(HERE, ".out", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    setups = [run_worker(args, i, 0, out_dir, setup_only=True)["setup_s"]
              for i in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while True:
        trace = args.trace if len(passes) % 2 else 0
        passes.append(run_worker(args, len(passes), trace, out_dir))
        setups.append(passes[-1]["setup_s"])
        spent = time.monotonic() - start
        need_traced = args.trace and not any(p["traced"] for p in passes)
        if not need_traced and spent + passes[-1]["process_s"] > args.seconds:
            break
    shutil.rmtree(os.path.join(out_dir, "cli"), ignore_errors=True)

    attempted = sum(len(p["tasks"]) for p in passes)
    failed = sum(1 for p in passes for row in p["tasks"] if not row[2])
    metrics, extra, note = end_to_end(passes, setups)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"traced {sum(p['traced'] for p in passes)}  measured {time.monotonic() - start:.1f} s")
    print("machine " + json.dumps(machine_record(), sort_keys=True))
    for name, (val, unit) in metrics.items():
        print(f"  {name:<28} {val:>14.6g} {unit}")
    for name, val, unit in extra:
        print(f"  {name:<28} {val:>14.6g} {unit}")
    print("  " + note)
    failures = {}
    for p in passes:
        for f in p["failures"]:
            failures.setdefault(f["task"], []).append(f["detail"])
    for task, details in sorted(failures.items()):
        print(f"  FAILED {task} x{len(details)}: {details[0]}")
    defects = [d for p in passes for d in p["defects"]]
    if defects:
        wrong = [d for d in defects if not d["ok"]]
        print(f"  known-defect probes: {len(wrong)} of {len(defects)} wrong "
              f"(not in correct/attempted/failed)")
        for d in wrong:
            print(f"  KNOWN DEFECT {d['task']}: {d['detail']}")
    report = metrics
    if args.trace:
        report = per_layer(passes)
        for name, (val, unit) in report.items():
            print(f"  {name:<36} {val:>14.6g} {unit}")
    with open(os.path.join(out_dir, "passes.json"), "w") as fh:
        json.dump(passes, fh)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit} for name, (val, unit) in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
