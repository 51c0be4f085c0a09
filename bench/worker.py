"""One pass of one workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --pass I --trace 0|1 --out PATH
    python3 bench/worker.py --workload NAME --seed N --pass I --setup-only --out PATH

Imports heisgeo from the checkout's `src/`, builds the workload's fixtures,
then runs every task once: the call is timed, the output is checked
untimed.  Writes one JSON document to --out; run.py aggregates passes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_IDS = {"lattice-exact": 1, "sphere-band": 2, "geometric-search": 3, "cli-cold": 4}


def import_heisgeo():
    """Import heisgeo from this checkout only; (seconds, scipy.optimize loaded)."""
    if not os.path.isfile(os.path.join(SRC, "heisgeo", "__init__.py")):
        raise SystemExit(f"no heisgeo package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import heisgeo
    import_s = time.perf_counter() - t0
    if not os.path.abspath(heisgeo.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"heisgeo imported from {heisgeo.__file__}, not {SRC}")
    return import_s, "scipy.optimize" in sys.modules


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_IDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_idx", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import_s, scipy_loaded = import_heisgeo()
    import numpy as np

    import workloads
    from speed import SpeedGauge, process_gauge
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.active = False
    scratch = os.path.join(os.path.dirname(os.path.abspath(args.out)), "cli")
    os.makedirs(scratch, exist_ok=True)
    probe = os.path.join(HERE, "cli_probe.py") if args.trace else None
    probe_out = os.path.join(scratch, "probe.json")
    env = dict(os.environ, HEISBENCH_PROBE_OUT=probe_out,
               PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probes = []
    child_gauge = process_gauge(env)

    def run_cli(argv, out):
        res = workloads.run_cli(argv, out, env, probe)
        if probe is not None and os.path.exists(probe_out):
            with open(probe_out) as fh:
                probes.append(json.load(fh))
            os.remove(probe_out)
        return res

    ctx = {"scratch": scratch, "run_cli": run_cli, "pass": args.pass_idx}
    rng = np.random.default_rng([args.seed, args.pass_idx, WORKLOAD_IDS[args.workload]])
    tasks = workloads.WORKLOADS[args.workload](rng, ctx)
    doc = {"ready": time.monotonic(), "import_s": import_s, "scipy_at_import": scipy_loaded}
    gauge = SpeedGauge()
    for _ in range(3):
        gauge.sample()
    doc["setup_factor"] = gauge.factor(gauge.samples[1][0])
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump(doc, fh)
        return 0

    rows, failures, own = [], [], []
    band_points = child_cpu = 0.0
    band_rows, chain_rows = [], []
    for task in tasks:
        gauge.maybe_sample()
        if tracer:
            tracer.active = True
        cpu0 = _children_cpu()
        t0 = time.perf_counter()
        error = None
        try:
            out = task.call()
        except task.refusals as exc:
            out, error = exc, "refused"
        except Exception as exc:  # a raising task is a failed task, not a crash
            out, error = exc, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        if task.meta.get("own_process"):
            child_gauge.sample()  # after the timed call, so the gauge process is not in it
        if error == "refused":
            ok = True
        elif error is None:
            try:
                ok = bool(task.check(out))
            except Exception as exc:
                ok, error = False, f"check raised {type(exc).__name__}: {exc}"
        else:
            ok = False
        if not ok:
            failures.append({"task": task.name, "detail": error or _short(out)})
        rows.append([task.name, latency, ok, t0])
        own.append(task.meta.get("own_process", False))
        if task.meta.get("band") and error is None:
            band_points += out if isinstance(out, int) else out.shape[0]
            band_rows.append(rows[-1])
        if task.meta.get("chain"):
            chain_rows.append(rows[-1])
            child_cpu += _children_cpu() - cpu0

    gauge.sample()
    defects = []
    make_defects = workloads.DEFECTS.get(args.workload)
    if make_defects is not None and args.pass_idx == 0:
        for task in make_defects(rng, ctx):
            ok, detail = _run_untimed(task)
            defects.append({"task": task.name, "ok": ok, "detail": detail})
    for row, in_child in zip(rows, own):
        row[3] = row[1] / (child_gauge if in_child else gauge).factor(row[3] + 0.5 * row[1])
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    doc.update({
        "tasks": rows,        # [name, seconds, ok, normalized seconds]
        "failures": failures,
        "defects": defects,   # known-defect probes, untimed, first pass only
        "raw_wall_s": sum(r[1] for r in rows),
        "wall_s": sum(r[3] for r in rows),
        "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
        "band_points": band_points,
        "band_s": sum(r[3] for r in band_rows),
        "chain_trials": workloads.SEARCH_TRIALS * len(chain_rows),
        "chain_s": sum(r[3] for r in chain_rows),
        "chain_raw_s": sum(r[1] for r in chain_rows),
        "child_cpu_s": child_cpu,
        "search_serial_s": ctx.get("search_serial_s", 0.0),
        "certify_s": ctx.get("certify_s", 0.0),
        "probes": probes,
        "trace": tracer.summary() if tracer else None,
    })
    if tracer:
        tracer.dump(os.path.splitext(args.out)[0] + ".spans.jsonl")
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    return 0


def _run_untimed(task) -> tuple[bool, str]:
    """Call and check one task outside the timed loop; (ok, detail)."""
    try:
        out = task.call()
    except task.refusals as exc:
        return True, f"refused: {exc}"
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"
    try:
        return bool(task.check(out)), _short(out)
    except Exception as exc:
        return False, f"check raised {type(exc).__name__}: {exc}"


def _short(out) -> str:
    text = repr(out)
    return text if len(text) <= 200 else text[:197] + "..."


if __name__ == "__main__":
    sys.exit(main())
