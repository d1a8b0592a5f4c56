"""One benchmark process: set up a workload, then measure or trace it.

Started by run.py with BLAS pinned to one thread.  Set-up is everything
before the first task: importing numpy and ellsov, generating the
seed's models, writing their configs and parsing them back the way the
CLI does.  With --setup-only the process stops there; otherwise it runs
the workload's passes, calling ``ellsov.cli.main`` in-process, and
prints one JSON line with the raw samples for run.py to summarise.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from ellsov import cli  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# per-layer metric -> (span name, field); fields are summed over the
# traced tasks and divided by the number of traced passes
SPAN_METRICS = {
    "eqg.rll_residual.self_s": ("eqg.rll_residual", "self_s"),
    "eqg.residue_sum.self_s": ("eqg.residue_sum", "self_s"),
    "eqg.qybe_residual.self_s": ("eqg.qybe_residual", "self_s"),
    "eqg.ShiftOp.matrices.calls": ("eqg.ShiftOp.matrices", "calls"),
    "eqg.ShiftOp.matrices.self_s": ("eqg.ShiftOp.matrices", "self_s"),
    "spaces.interp.calls": ("spaces.ThetaInterpolant.__call__", "calls"),
    "spaces.interp.self_s": ("spaces.ThetaInterpolant.__call__", "self_s"),
    "spaces.bethe.self_s": ("spaces.solve_difference_bethe", "self_s"),
    "spaces.bethe.iterations": ("spaces.solve_difference_bethe", "iterations"),
    "jets.apply_jet.calls": ("jets.LambdaDiffOp.apply_jet", "calls"),
    "jets.apply_jet.self_s": ("jets.LambdaDiffOp.apply_jet", "self_s"),
    "gaudin.bethe.iterations": ("gaudin.solve_gaudin_bethe", "iterations"),
    "irf.build_T_irf_paths.calls": ("irf.build_T_irf_paths", "calls"),
    "irf.build_T_irf_paths.self_s": ("irf.build_T_irf_paths", "self_s"),
    "irf.build_T_irf_sov.calls": ("irf.build_T_irf_sov", "calls"),
    "irf.build_T_irf_sov.self_s": ("irf.build_T_irf_sov", "self_s"),
    "irf.certify_spectrum.self_s": ("irf.certify_spectrum", "self_s"),
    "irf.reconcile_constructions.self_s": ("irf.reconcile_constructions", "self_s"),
    "linalg.eig.calls": ("linalg.eig", "calls"),
    "linalg.eig.self_s": ("linalg.eig", "self_s"),
    "linalg.qr.calls": ("linalg.qr", "calls"),
    "linalg.lstsq.calls": ("linalg.lstsq", "calls"),
    "linalg.lstsq.self_s": ("linalg.lstsq", "self_s"),
    "params.sample_generic.calls": ("params.ModelParams.sample_generic", "calls"),
}
LAYERS = spans.LAYERS + ("linalg",)


def _now() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so run.py's spawn
    # time and this process's ready time are on one clock
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _canonical(report: dict) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "timing"}, sort_keys=True)


class Run:
    """Configs, report checking and pass execution for one workload seed."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.name = workload
        self.wl = workloads.WORKLOADS[workload]
        self.workdir = workdir
        texts, self.rejected = workloads.generate(workload, seed)
        digest = hashlib.sha256()
        self.paths: dict[str, list[str]] = {}
        for spec in self.wl.specs:
            self.paths[spec.name] = []
            for i, text in enumerate(texts[spec.name]):
                path = os.path.join(workdir, "%s-%02d.json" % (spec.name, i))
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                digest.update(text.encode())
                self.paths[spec.name].append(path)
        self.inputs_sha256 = digest.hexdigest()
        for paths in self.paths.values():
            for path in paths:
                cli.build_params(cli.load_config(path))
        self.seen: dict[tuple, str] = {}
        self.problems: list[str] = []

    def run_pass(self, index: int, tracer=None, tag: str = "") -> list[dict]:
        """Run every spec's tasks on model index % models; one record per task."""
        model = index % self.wl.models
        records = []
        for spec in self.wl.specs:
            cfg = self.paths[spec.name][model]
            for task in spec.tasks:
                out = os.path.join(self.workdir, "report-%s-%s.json" % (spec.name, task.replace(" ", "_")))
                if os.path.exists(out):
                    os.remove(out)
                task_id = "%s%d/%s-%02d/%s" % (tag, index, spec.name, model, task)
                rec = {"id": task_id, "task": task, "model": "%s-%02d" % (spec.name, model)}
                if tracer is not None:
                    tracer.begin_task(task_id)
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    rc = cli.main(task.split() + ["--config", cfg, "--out", out])
                except SystemExit as exc:
                    rc = exc.code
                except Exception:  # an escaped exception is a failed task, recorded
                    rc = None
                    rec["exception"] = traceback.format_exc(limit=4)
                rec["wall_s"] = time.perf_counter() - t0
                rec["cpu_s"] = time.process_time() - c0
                if tracer is not None:
                    tracer.end_task()
                rec["exit"] = rc
                rec["failed"] = rc != 0
                self._check_report(rec, out, len(spec.lams), tracer is not None)
                records.append(rec)
        return records

    def _check_report(self, rec: dict, out: str, n: int, traced: bool) -> None:
        """Verify a report's integrity; failures of the program's own checks are not problems."""
        rec["checks"] = []
        if rec["exit"] not in (0, 1):
            return
        where = rec["id"]
        try:
            with open(out, "r", encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            self.problems.append("%s: exit %s but no readable report (%s)" % (where, rec["exit"], exc))
            return
        checks = report.get("checks", [])
        rec["checks"] = [
            {"name": c.get("name"), "pass": c.get("pass"), "residual": c.get("residual"),
             "tolerance": c.get("tolerance")}
            for c in checks
        ]
        names = tuple(c["name"] for c in rec["checks"])
        task = rec["task"]
        if report.get("task") != task:
            self.problems.append("%s: report names task %r" % (where, report.get("task")))
        solver_failed = names == ("solver_converged",) and "solver_error" in report.get("metrics", {})
        if names != workloads.EXPECTED_CHECKS[task] and not solver_failed:
            self.problems.append("%s: unexpected checks %s" % (where, names))
        for c in rec["checks"]:
            res, tol = c["residual"], c["tolerance"]
            if c["pass"] is not (isinstance(res, float) and res <= tol):
                self.problems.append("%s: check %s pass flag disagrees with its residual" % (where, c["name"]))
        passed = all(c["pass"] for c in rec["checks"])
        if report.get("pass") is not passed or rec["exit"] != (0 if passed else 1):
            self.problems.append("%s: exit code and pass flags disagree" % where)
        metrics = report.get("metrics", {})
        if task == "irf build" and metrics.get("dimension") != 2**n:
            self.problems.append("%s: transfer matrix dimension %r" % (where, metrics.get("dimension")))
        if task == "irf spectrum" and not (1 <= metrics.get("count", 0) == len(report.get("certificates", []))):
            self.problems.append("%s: certificate count mismatch" % where)
        # the same model and task must give the same report, traced or not
        key = (rec["model"], task)
        digest = hashlib.sha256(_canonical(report).encode()).hexdigest()
        if self.seen.setdefault(key, digest) != digest:
            self.problems.append(
                "%s: %sreport differs from an earlier run of the same config apart from timing"
                % (where, "traced " if traced else "")
            )


def _provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads_pinned": int(os.environ.get("OPENBLAS_NUM_THREADS", "0") or 0),
        "blas_threads_runtime": _openblas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload_seed": seed,
    }


def _openblas_threads():
    """Thread count OpenBLAS reports at run time, or None when it cannot be read."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "ellsov")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _measure(run: Run, seconds: float) -> dict:
    """Closed loop, one client: a fixed number of passes back to back."""
    records, walls, cpus = [], [], []
    for index in range(run.wl.passes(seconds)):
        recs = run.run_pass(index)
        records += recs
        walls.append(sum(r["wall_s"] for r in recs))
        cpus.append(sum(r["cpu_s"] for r in recs))
    return {"records": records, "pass_wall_s": walls, "pass_cpu_s": cpus}


def _trace(run: Run, trace_path: str) -> dict:
    """Untraced then traced pass on each of the first trace_passes models."""
    tracer = spans.Tracer()
    records, untraced, traced = [], [], []
    for index in range(run.wl.trace_passes):
        recs = run.run_pass(index, tag="u")
        untraced.append(sum(r["wall_s"] for r in recs))
        records += recs
        tracer.install()
        try:
            recs = run.run_pass(index, tracer=tracer, tag="t")
        finally:
            tracer.uninstall()
        traced.append(sum(r["wall_s"] for r in recs))
        records += recs
    passes = len(traced)
    tasks = tracer.tasks

    def field(span: str, key: str) -> float:
        return sum(e[key] for t in tasks for edge, e in t["spans"].items()
                   if edge.split(">", 1)[1] == span) / passes

    layer_self = {layer: 0.0 for layer in LAYERS}
    span_count = 0
    for t in tasks:
        for edge, e in t["spans"].items():
            layer_self[edge.split(">", 1)[1].split(".", 1)[0]] += e["self_s"]
            span_count += e["calls"]
    metrics = {"%s.self_s" % layer: s / passes for layer, s in layer_self.items()}
    calls = field(spans.THETA_LEAF, "calls")
    distinct = sum(t["theta_distinct"] for t in tasks) / passes
    interp_calls = field("spaces.ThetaInterpolant.__call__", "calls")
    metrics.update({
        "theta.calls": calls,
        "theta.distinct": distinct,
        "theta.reuse": calls / distinct if distinct else 0.0,
        "theta.us_per_call": 1e6 * metrics["theta.self_s"] / calls if calls else 0.0,
        "theta.errors": sum(t["theta_errors"] for t in tasks) / passes,
        "spaces.interp.theta_per_call": (
            field("spaces.ThetaInterpolant.__call__", "theta_calls") / interp_calls
            if interp_calls else 0.0
        ),
    })
    for name, (span, key) in SPAN_METRICS.items():
        metrics[name] = field(span, key)
    wall_t = statistics.fmean(traced)
    wall_u = statistics.fmean(untraced)
    metrics.update({
        "trace.wall_s": wall_t,
        "trace.untraced_wall_s": wall_u,
        "trace.overhead_s": wall_t - wall_u,
        "trace.self_sum_s": sum(layer_self.values()) / passes,
        "trace.spans": span_count / passes,
    })
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": run.name, "passes": passes, "untraced_pass_wall_s": untraced,
                   "traced_pass_wall_s": traced, "tasks": tasks}, fh, indent=1, sort_keys=True)
    return {"records": records, "per_layer": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="CLOCK_MONOTONIC time at which run.py started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r; choose from %s" % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.workdir)
    result = {
        "setup_s": _now() - args.spawned_at,
        "inputs_sha256": run.inputs_sha256,
        "rejected_draws": run.rejected,
    }
    if not args.setup_only:
        if args.trace:
            result.update(_trace(run, args.trace_file))
        else:
            result.update(_measure(run, args.seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["problems"] = run.problems
        result["provenance"] = _provenance(args.seed)
    print(json.dumps(result, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
