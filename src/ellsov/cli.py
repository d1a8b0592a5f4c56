"""Batch front-end: config parsing, verification dispatch, JSON reports, CSV data.

Configs and reports are JSON; complex numbers travel as [re, im] pairs.
Every random draw comes from one seeded generator per run, so reports
are reproducible byte for byte apart from the timing block.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 config or
schema error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import time

import numpy as np

from . import eqg, gaudin, irf, jets, spaces
from .params import ModelParams, ParameterError
from .theta import Lattice, ThetaError

__all__ = ["main", "ConfigError", "load_config", "build_params"]


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config handling


def _as_complex(value, name: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in value)
    ):
        raise ConfigError("%s must be a [re, im] pair" % name)
    return complex(float(value[0]), float(value[1]))


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc)
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for key in ("tau", "eta", "sites"):
        if key not in cfg:
            raise ConfigError("config lacks required field '%s'" % key)
    return cfg


def build_params(cfg: dict) -> ModelParams:
    tau = _as_complex(cfg["tau"], "tau")
    if tau.imag <= 0.0:
        raise ConfigError("Lattice invariant violated: Im(tau) must be positive")
    eta = _as_complex(cfg["eta"], "eta")
    sites = cfg["sites"]
    if not isinstance(sites, list) or not sites:
        raise ConfigError("sites must be a nonempty list")
    zs, lams = [], []
    for i, site in enumerate(sites):
        if not isinstance(site, dict) or "z" not in site or "lambda" not in site:
            raise ConfigError("sites[%d] must carry 'z' and 'lambda'" % i)
        zs.append(_as_complex(site["z"], "sites[%d].z" % i))
        lam = site["lambda"]
        if not isinstance(lam, int) or isinstance(lam, bool) or lam < 1:
            raise ConfigError("sites[%d].lambda must be a positive integer" % i)
        lams.append(lam)
    tols = cfg.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigError("tolerances must be an object")
    try:
        return ModelParams(
            lattice=Lattice(tau),
            eta=eta,
            zs=tuple(zs),
            lams=tuple(lams),
            rho=float(tols.get("rho", 1e-6)),
            trunc_tol=float(tols.get("trunc_tol", 1e-16)),
        )
    except (ParameterError, ThetaError) as exc:
        raise ConfigError(str(exc))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return [c.real, c.imag]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _check(name: str, residual: float, tolerance: float) -> dict:
    residual = float(residual)
    return {
        "name": name,
        "residual": residual,
        "tolerance": float(tolerance),
        "pass": bool(residual <= tolerance),
    }


def _random_jet(rng: np.random.Generator, dim: int, degree: int) -> np.ndarray:
    return rng.standard_normal((degree + 1, dim)) + 1j * rng.standard_normal(
        (degree + 1, dim)
    )


# ---------------------------------------------------------------------------
# task bodies; each returns {"checks": [...], "metrics": {...}, ...}


def _task_theta_eval(cfg, params, rng, tol, csv_dir):
    ev = params.evaluator()
    block = cfg.get("theta", {})
    samples = int(block.get("samples", 100))
    tau = params.lattice.tau
    qp = odd = 0.0
    for _ in range(samples):
        z = params.sample_generic(rng, margin=5e-2)
        base = ev.theta(z)
        r = int(rng.integers(-2, 3))
        s = int(rng.integers(-2, 3))
        mult = (-1.0) ** (r + s) * cmath.exp(-1j * math.pi * (s * s * tau + 2 * s * z))
        shifted = ev.theta(z + r + s * tau)
        # the multiplier reaches 1e11 at |s| = 2, so compare at the shifted scale
        qp = max(qp, abs(shifted - mult * base) / max(1.0, abs(shifted)))
        odd = max(odd, abs(ev.theta(-z) + base) / max(1.0, abs(base)))
    jet_dev = 0.0
    for _ in range(min(samples, 20)):
        z = params.sample_generic(rng, margin=5e-2)
        taylor = ev.theta_taylor(z, 3)
        for d in (1, 2, 3):
            expect = math.factorial(d) * taylor[d]
            jet_dev = max(jet_dev, abs(ev.theta(z, d) - expect) / max(1.0, abs(expect)))
    values = []
    for i, pt in enumerate(block.get("points", [])):
        z = _as_complex(pt, "theta.points[%d]" % i)
        values.append(
            {
                "z": z,
                "theta": ev.theta(z),
                "theta_prime": ev.theta(z, 1),
                "zeta_bar": ev.zeta_bar(z),
                "wp_bar": ev.wp_bar(z),
            }
        )
    checks = [
        _check("quasi_periodicity", qp, 1e-10),
        _check("oddness", odd, 1e-10),
        _check("derivative_vs_jet", jet_dev, 1e-10),
    ]
    return {"checks": checks, "metrics": {"samples": samples, "values": values}}


def _task_gaudin_check(cfg, params, rng, tol, csv_dir):
    block = cfg.get("gaudin", {})
    degree = int(block.get("degree", 8))
    hams = gaudin.build_hamiltonians(params)
    dim = gaudin.zero_weight_space(params).dim
    u = _random_jet(rng, dim, degree)

    comm = 0.0
    for _ in range(int(block.get("lambda_samples", 3))):
        lam0 = params.sample_generic(rng, margin=5e-2)
        applied = [H.apply_jet(lam0, u) for H in hams]
        scale = max(1.0, max(float(np.max(np.abs(a))) for a in applied))
        for i in range(len(hams)):
            for j in range(i + 1, len(hams)):
                dev = np.max(np.abs(jets.commutator_jet(hams[i], hams[j], lam0, u)))
                comm = max(comm, float(dev) / scale)

    lam0 = params.sample_generic(rng, margin=5e-2)
    total = hams[1].apply_jet(lam0, u)
    scale = max(1.0, float(np.max(np.abs(total))))
    for H in hams[2:]:
        total += H.apply_jet(lam0, u)
    ham_sum = float(np.max(np.abs(total))) / scale

    ev = params.evaluator()
    s_dev = 0.0
    for _ in range(3):
        z = params.sample_generic(rng, avoid=params.zs)
        lhs = gaudin.build_S(params, z).apply_jet(lam0, u)
        rows = lhs.shape[0]
        rhs = hams[0].apply_jet(lam0, u)
        for k, zk in enumerate(params.zs):
            rhs += ev.zeta_bar(z - zk) * hams[k + 1].apply_jet(lam0, u)[:rows]
            rhs += gaudin.spectral_weight(params, k) * ev.wp_bar(z - zk) * u[:rows]
        scale = max(1.0, float(np.max(np.abs(lhs))))
        s_dev = max(s_dev, float(np.max(np.abs(lhs - rhs))) / scale)

    z1 = params.sample_generic(rng, avoid=params.zs)
    z2 = params.sample_generic(rng, avoid=params.zs)
    s1, s2 = gaudin.build_S(params, z1), gaudin.build_S(params, z2)
    scale = max(1.0, float(np.max(np.abs(s1.apply_jet(lam0, u)))))
    ss = float(np.max(np.abs(jets.commutator_jet(s1, s2, lam0, u)))) / scale

    checks = [
        _check("hamiltonians_commute", comm, tol),
        _check("hamiltonian_sum_vanishes", ham_sum, tol),
        _check("s_decomposition", s_dev, tol),
        _check("s_family_commutes", ss, tol),
    ]
    return {"checks": checks, "metrics": {"zero_weight_dim": dim, "degree": degree}}


def _task_gaudin_bethe(cfg, params, rng, tol, csv_dir):
    block = cfg.get("gaudin", {})
    degree = int(block.get("degree", 8))
    try:
        sol = gaudin.solve_gaudin_bethe(params, rng, m=block.get("bethe_m"))
    except RuntimeError as exc:
        return {
            "checks": [_check("solver_converged", 1.0, 1e-10)],
            "metrics": {"solver_error": str(exc)},
        }
    hams = gaudin.build_hamiltonians(params)
    eigen_dev = 0.0
    eps = []
    for _ in range(2):
        lam0 = params.sample_generic(rng, margin=5e-2)
        u = gaudin.bethe_eigenvector(params, sol.c, sol.roots, lam0, degree)
        scale = float(np.max(np.abs(u)))
        eps = []
        for H in hams:
            out = H.apply_jet(lam0, u)
            i = int(np.argmax(np.abs(u[0])))
            ej = out[0][i] / u[0][i]
            eps.append(complex(ej))
            eigen_dev = max(
                eigen_dev, float(np.max(np.abs(out - ej * u[: out.shape[0]]))) / scale
            )
    eps_sum = abs(sum(eps[1:])) / max(1.0, max(abs(e) for e in eps))
    checks = [
        _check("solver_converged", sol.residual, 1e-10),
        _check("eigen_residual", eigen_dev, 1e-8),
        _check("eigenvalue_sum", eps_sum, 1e-9),
    ]
    metrics = {
        "c": complex(sol.c),
        "roots": list(sol.roots),
        "eigenvalues": eps,
        "iterations": sol.iterations,
    }
    return {"checks": checks, "metrics": metrics}


def _task_eqg_rll(cfg, params, rng, tol, csv_dir):
    block = cfg.get("eqg", {})
    lam_count = int(block.get("lambda_samples", 5))
    lat = params.lattice
    lam_samples = [params.sample_generic(rng, margin=5e-2) for _ in range(lam_count)]
    z = params.sample_generic(rng, margin=5e-2)
    w = params.sample_generic(rng, margin=5e-2, avoid=(z,))
    rep = eqg.rll_residual(params, z, w, lam_samples)

    qybe = 0.0
    for _ in range(int(block.get("qybe_samples", 20))):
        zq = params.sample_generic(rng, margin=5e-2)
        wq = params.sample_generic(rng, margin=5e-2)
        lamq = params.sample_generic(rng, margin=5e-2)
        qybe = max(qybe, eqg.qybe_residual(params, zq, wq, lamq))

    ktwist = 0.0
    for _ in range(5):
        zk = params.sample_generic(rng, margin=5e-2)
        lamk = params.sample_generic(rng, margin=5e-2)
        ktwist = max(ktwist, eqg.ktwist_residual(params, zk, lamk))

    grid_dim = int(np.prod([l + 1 for l in params.lams]))
    res_sum = 0.0
    for gi in range(min(grid_dim, 4)):
        for i in range(params.n):
            res_sum = max(res_sum, abs(eqg.residue_sum(params, gi, i)))

    checks = [
        _check("rll_sixteen_relations", rep["max_residual"], tol),
        _check("qybe", qybe, tol),
        _check("ktwist", ktwist, 1e-12),
        _check("residue_sum", res_sum, 1e-10),
    ]
    metrics = {"block_residuals": rep["block_residuals"], "z": z, "w": w}
    return {"checks": checks, "metrics": metrics}


def _task_eqg_hw(cfg, params, rng, tol, csv_dir):
    block = cfg.get("eqg", {})
    count = int(block.get("lambda_samples", 3))
    z_samples = [params.sample_generic(rng, margin=5e-2) for _ in range(count)]
    lam_samples = [params.sample_generic(rng, margin=5e-2) for _ in range(count)]
    rep = eqg.highest_weight_check(params, z_samples, lam_samples)
    checks = [
        _check("c_annihilates_hw", rep["c_residual"], 1e-12),
        _check("a_eigenvalue", rep["a_residual"], 1e-10),
        _check("d_eigenvalue", rep["d_residual"], 1e-10),
        _check("normalized_pair", rep["pair_residual"], 1e-10),
    ]
    metrics = {"weight": rep["weight"], "weight_expected": rep["weight_expected"]}
    return {"checks": checks, "metrics": metrics}


def _task_irf_build(cfg, params, rng, tol, csv_dir):
    block = cfg.get("irf", {})
    pairs = int(block.get("commuting_pairs", 3))
    sov_comm = paths_comm = 0.0
    for _ in range(pairs):
        za = irf.sample_spectral(params, rng)
        zb = irf.sample_spectral(params, rng)
        a, b = irf.build_T_irf_sov(params, za), irf.build_T_irf_sov(params, zb)
        sov_comm = max(
            sov_comm, float(np.max(np.abs(a @ b - b @ a)) / np.max(np.abs(a @ b)))
        )
        a, b = irf.build_T_irf_paths(params, za), irf.build_T_irf_paths(params, zb)
        paths_comm = max(
            paths_comm, float(np.max(np.abs(a @ b - b @ a)) / np.max(np.abs(a @ b)))
        )
    rec = irf.reconcile_constructions(params, rng)
    checks = [
        _check("sov_family_commutes", sov_comm, tol),
        _check("paths_family_commutes", paths_comm, tol),
        _check("dual_reconciliation", rec.residual, tol),
    ]
    metrics = {
        "dimension": 2 ** params.n,
        "bridge_constant": rec.constant,
        "literal_entrywise_gap": rec.literal_gap,
    }
    return {"checks": checks, "metrics": metrics}


def _serialize_certificate(cert) -> dict:
    return {
        "eigenvalue": cert.eigenvalue,
        "passed": cert.passed,
        "degenerate": cert.degenerate,
        "gap": cert.gap,
        "angle": cert.angle,
        "membership_residual": cert.membership_residual,
        "cluster_residual": cert.cluster_residual,
        "quadratic_residuals": list(cert.quadratic_residuals),
        "second_line_residuals": list(cert.second_line_residuals),
        "q_pairs": [list(p) for p in cert.q_pairs],
        "reconstruction": list(cert.reconstruction),
    }


def _task_irf_spectrum(cfg, params, rng, tol, csv_dir):
    block = cfg.get("irf", {})
    gap_tol = float(cfg.get("tolerances", {}).get("gap_tol", 1e-7))
    if "z0" in block:
        z0 = _as_complex(block["z0"], "irf.z0")
    else:
        z0 = irf.sample_spectral(params, rng)
    certs = irf.certify_spectrum(params, z0, tol=tol, rng=rng, gap_tol=gap_tol)

    worst = 0.0
    for c in certs:
        worst = max(
            worst,
            c.membership_residual,
            c.cluster_residual,
            max(c.quadratic_residuals),
            max(c.second_line_residuals),
        )
    angles = [c.angle for c in certs if not c.degenerate]
    recon = np.stack(
        [c.reconstruction / np.linalg.norm(c.reconstruction) for c in certs], axis=1
    )
    min_sv = float(np.linalg.svd(recon, compute_uv=False)[-1])

    chi0 = irf.eigenvalue_character(params)
    tau = params.lattice.tau
    law = 0.0
    zlaw = params.sample_generic(rng, margin=5e-2)
    for c in certs:
        for (r, s) in ((1, 0), (0, 1)):
            expect = spaces.expected_multiplier(chi0, params.n, zlaw, r, s, tau) * c.eps(zlaw)
            law = max(law, abs(c.eps(zlaw + r + s * tau) - expect) / max(1.0, abs(expect)))

    checks = [
        _check("certificate_residuals", worst, tol),
        _check("reconstruction_angle", max(angles) if angles else 0.0, 1e-6),
        _check("reconstruction_span", max(0.0, 1e-6 - min_sv), 0.0),
        _check("character_laws", law, tol),
    ]
    metrics = {
        "z0": z0,
        "count": len(certs),
        "eigenvalues": [c.eigenvalue for c in certs],
        "min_singular_value": min_sv,
    }
    body = {
        "checks": checks,
        "metrics": metrics,
        "certificates": [_serialize_certificate(c) for c in certs],
    }
    if csv_dir:
        os.makedirs(csv_dir, exist_ok=True)
        count = int(block.get("csv_points", 129))
        offset = 0.37 * tau
        ts = np.linspace(0.0, 1.0, count)
        for k, c in enumerate(certs):
            path = os.path.join(csv_dir, "spectrum_eps_%02d.csv" % k)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("z_re,z_im,eps_re,eps_im\n")
                for t in ts:
                    z = complex(t) + offset
                    val = c.eps(z)
                    fh.write(
                        "%.17g,%.17g,%.17g,%.17g\n" % (z.real, z.imag, val.real, val.imag)
                    )
        body["csv_files"] = [
            os.path.join(csv_dir, "spectrum_eps_%02d.csv" % k) for k in range(len(certs))
        ]
    return body


def _task_irf_partition(cfg, params, rng, tol, csv_dir):
    block = cfg.get("irf", {})
    if "rows" not in block or not block["rows"]:
        raise ConfigError("irf.rows must list the row parameters for partition tasks")
    ws = [_as_complex(w, "irf.rows[%d]" % i) for i, w in enumerate(block["rows"])]
    perm = list(rng.permutation(len(ws)))
    devs = {}
    values = {}
    for kind in ("paths", "sov"):
        base = irf.partition_function(params, ws, kind=kind)
        shuffled = irf.partition_function(params, [ws[i] for i in perm], kind=kind)
        devs[kind] = abs(base - shuffled) / max(1.0, abs(base))
        values[kind] = base
    bridge = (-1.0) ** len(ws)
    for w in ws:
        bridge *= irf.kappa_factor(params, w - params.eta)
    shifted = irf.partition_function(params, [w - params.eta for w in ws], kind="sov")
    cross = abs(values["paths"] - bridge * shifted) / max(1.0, abs(values["paths"]))
    checks = [
        _check("row_permutation_paths", devs["paths"], tol),
        _check("row_permutation_sov", devs["sov"], tol),
        _check("construction_consistency", cross, tol),
    ]
    metrics = {
        "rows": ws,
        "value_paths": values["paths"],
        "value_sov": values["sov"],
        "permutation": perm,
    }
    return {"checks": checks, "metrics": metrics}


def _task_irf_bethe(cfg, params, rng, tol, csv_dir):
    block = cfg.get("irf", {})
    try:
        cb = irf.continuous_bethe(params, rng)
    except spaces.SpacesError as exc:
        return {
            "checks": [_check("solver_converged", 1.0, 1e-10)],
            "metrics": {"solver_error": str(exc)},
        }
    eigen = 0.0
    for _ in range(int(block.get("eigen_samples", 3))):
        xs = [params.sample_generic(rng, margin=5e-2) for _ in params.zs]
        zeta = params.sample_generic(rng, margin=5e-2)
        lhs = irf.apply_transfer_continuous(params, zeta, cb.u_value, xs)
        rhs = cb.eps_value(zeta) * cb.u_value(xs)
        eigen = max(eigen, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    chi_q = spaces.character_of(cb.q, params.lattice.tau)
    chi_dev = max(
        abs(cb.chi.chi1 - chi_q.chi1) / max(1.0, abs(chi_q.chi1)),
        abs(cb.chi.chiTau - chi_q.chiTau) / max(1.0, abs(chi_q.chiTau)),
    )
    m = sum(params.lams) // 2
    ev = params.evaluator()
    member = spaces.membership_test(ev, cb.q_value, m, cb.chi, rng)
    checks = [
        _check("solver_converged", cb.solution.residual, 1e-10),
        _check("eigen_residual", eigen, 1e-8),
        _check("character_match", chi_dev, 1e-9),
        _check("q_membership", max(member.deviation, member.qp_residual) / member.scale, 1e-8),
    ]
    metrics = {
        "a": complex(cb.solution.a),
        "roots": list(cb.solution.roots),
        "chi": [cb.chi.chi1, cb.chi.chiTau],
        "iterations": cb.solution.iterations,
    }
    return {"checks": checks, "metrics": metrics}


_DISPATCH = {
    "theta eval": _task_theta_eval,
    "gaudin check": _task_gaudin_check,
    "gaudin bethe": _task_gaudin_bethe,
    "eqg rll-check": _task_eqg_rll,
    "eqg hw-check": _task_eqg_hw,
    "irf build": _task_irf_build,
    "irf spectrum": _task_irf_spectrum,
    "irf partition": _task_irf_partition,
    "irf bethe": _task_irf_bethe,
}

# schema-level gates per task family
_NEEDS_IRF_GRID = {"irf build", "irf spectrum", "irf partition"}
_NEEDS_EVEN_WEIGHT = {"gaudin bethe", "irf bethe"}


def _validate_task(task: str, params: ModelParams) -> None:
    try:
        if task in _NEEDS_IRF_GRID:
            params.validate_for_irf()
        if task in _NEEDS_EVEN_WEIGHT:
            params.validate_even_weight_sum()
        if task.startswith("gaudin"):
            params.validate_distinct_sites()
    except ParameterError as exc:
        raise ConfigError(str(exc))


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="model config JSON")
    common.add_argument("--out", help="report path (default: stdout)")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--tol", type=float, help="override tolerances.residual_tol")
    common.add_argument(
        "--emit-csv", dest="emit_csv", metavar="DIR", help="write sampled curves here"
    )
    parser = argparse.ArgumentParser(
        prog="ellsov", description="verification suites for the elliptic transfer stack"
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for group, actions in (
        ("theta", ["eval"]),
        ("gaudin", ["check", "bethe"]),
        ("eqg", ["rll-check", "hw-check"]),
        ("irf", ["build", "spectrum", "partition", "bethe"]),
    ):
        gp = groups.add_parser(group)
        sub = gp.add_subparsers(dest="action", required=True)
        for action in actions:
            sub.add_parser(action, parents=[common])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    task = "%s %s" % (args.group, args.action)
    try:
        cfg = load_config(args.config)
        params = build_params(cfg)
        _validate_task(task, params)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        tols = cfg.get("tolerances", {})
        tol = args.tol if args.tol is not None else float(tols.get("residual_tol", 1e-9))
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    try:
        body = _DISPATCH[task](cfg, params, rng, tol, args.emit_csv)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (ParameterError, ThetaError) as exc:
        print("config error: model outside task hypotheses: %s" % exc, file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    report = {
        "task": task,
        "config": cfg,
        "seed": seed,
        "checks": body["checks"],
        "pass": all(c["pass"] for c in body["checks"]),
        "metrics": body.get("metrics", {}),
    }
    if "certificates" in body:
        report["certificates"] = body["certificates"]
    if "csv_files" in body:
        report["csv_files"] = body["csv_files"]
    report["timing"] = {"seconds": elapsed}

    text = json.dumps(_jsonable(report), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
