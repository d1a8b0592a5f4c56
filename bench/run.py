"""ellsov benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload rll-n2 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each run starts fresh Python processes
with BLAS pinned to one thread: SETUP_TRIALS of them time set-up (the
last one then measures), so set-up time is a median.  With --trace 0 the
measuring process runs as many closed-loop passes as fill --seconds at
the workload's nominal pass time, and reports the end-to-end metrics;
with --trace 1 it runs a fixed number of untraced and traced passes and
reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Full results go to bench/_out/.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")

SETUP_TRIALS = 5
TIME_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
COUNT_SUFFIXES = (".calls", ".distinct", ".errors", ".iterations", ".spans")

# every thread-count knob a numpy BLAS build may read
PINNED_ENV = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def _stats(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    return "ratio"


def _worker(args, workdir: str, setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
        "--trace-file", os.path.join(OUT, "trace-%s-s%d.json" % (args.workload, args.seed)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError("benchmark worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summarise(args, setups: list[dict], res: dict) -> tuple[dict, dict]:
    records = res["records"]
    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    problems = list(res["problems"])
    if len({s["inputs_sha256"] for s in setups}) != 1:
        problems.append("set-up processes generated different inputs from one seed")
    setup = _stats([s["setup_s"] for s in setups])
    if args.trace:
        metrics = {name: {"value": v, "unit": _per_layer_unit(name)}
                   for name, v in sorted(res["per_layer"].items())}
        timings = {"setup_s": setup}
    else:
        timings = {
            "wall_s": _stats(res["pass_wall_s"]),
            "cpu_s": _stats(res["pass_cpu_s"]),
            "setup_s": setup,
        }
        values = {name: t["median"] for name, t in timings.items()}
        values["peak_rss_mb"] = res["peak_rss_mb"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    failing = [
        {"task": r["id"], "exit": r["exit"],
         "checks": [c for c in r["checks"] if not c["pass"]],
         "exception": r.get("exception")}
        for r in records if r["failed"]
    ]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failing": failing,
        "timings": timings,
        "metrics": metrics,
        "peak_rss_mb": res["peak_rss_mb"],
        "rejected_draws": setups[-1]["rejected_draws"],
        "inputs_sha256": setups[-1]["inputs_sha256"],
        "provenance": res["provenance"],
        "tasks": records,
    }
    line = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return details, line


def _print_human(details: dict) -> None:
    p = details["provenance"]
    print("workload %s  seed %d  trace %d  tasks %d  failed %d  failed_frac %.4f  correct %s"
          % (details["workload"], details["seed"], details["trace"], details["attempted"],
             details["failed"], details["failed_frac"], details["correct"]))
    print("  nproc %s  python %s  numpy %s  blas %s  blas threads %s (runtime %s)  commit %s"
          % (p["nproc"], p["python"], p["numpy"], p["blas"], p["blas_threads_pinned"],
             p["blas_threads_runtime"], p["git_commit"] or "unknown"))
    for name, m in details["metrics"].items():
        t = details["timings"].get(name)
        spread = "  median, quartiles [%.6g, %.6g], n=%d" % (t["q1"], t["q3"], t["n"]) if t else ""
        print("  %-38s %14.6g %-5s%s" % (name, m["value"], m["unit"], spread))
    for f in details["failing"]:
        checks = ", ".join("%s %.2g > %.2g" % (c["name"], c["residual"], c["tolerance"])
                           for c in f["checks"])
        print("  failed: %s exit %s %s" % (f["task"], f["exit"], checks or (f["exception"] or "")))
    for prob in details["problems"]:
        print("  INCORRECT: %s" % prob)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one ellsov benchmark workload.")
    ap.add_argument("--workload", required=True,
                    help="rll-n2, spectrum-n7, transfer-n9 or solvers")
    ap.add_argument("--seed", type=int, default=1, help="workload seed")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measured seconds per run, at the nominal pass time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ellsov", "cli.py")):
        print("error: no ellsov sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%s-s%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        setups = [_worker(args, workdir, True, deadline) for _ in range(SETUP_TRIALS - 1)]
        res = _worker(args, workdir, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res)
    details, line = _summarise(args, setups, res)
    path = os.path.join(OUT, "result-%s-s%d-t%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
    _print_human(details)
    print("  full result: %s" % os.path.relpath(path, ROOT))
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
