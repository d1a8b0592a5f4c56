"""Batch front-end: config parsing, verification dispatch, JSON reports, CSV data.

Configs and reports are JSON; complex numbers travel as [re, im] pairs.
Every random draw comes from one seeded generator per run, so reports
are reproducible byte for byte apart from the timing block.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 config or
schema error, or a typed model or range error raised while the task runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import eqg, gaudin, irf, spaces
from .params import ModelParams, ParameterError
from .theta import Lattice, ThetaError, ThetaOverflowError

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
    try:
        return complex(float(value[0]), float(value[1]))
    except OverflowError:
        raise ConfigError("%s must be a [re, im] pair within float range" % name)


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
            rho=_positive(tols, "rho", 1e-6),
            trunc_tol=_positive(tols, "trunc_tol", 1e-16),
        )
    except (ParameterError, ThetaError) as exc:
        raise ConfigError(str(exc))


def _json_default(obj):
    """json.dumps's hook for what it cannot encode: complex as [re, im],
    numpy arrays and scalars through tolist(); anything else is a TypeError."""
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return [c.real, c.imag]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError("%s is not JSON serializable" % type(obj).__name__)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _count(block: dict, key: str, default: int, least: int = 1) -> int:
    value = block.get(key, default)
    if not _is_int(value) or value < least:
        raise ConfigError("%s must be a positive integer, at least %d" % (key, least))
    return value


def _positive(block: dict, key: str, default: float) -> float:
    value = block.get(key, default)
    # an int above the largest float would overflow float() below
    if not (_is_int(value) or isinstance(value, float)) or not 0 < value <= sys.float_info.max:
        raise ConfigError("%s must be a positive finite number" % key)
    return float(value)


def _list(block: dict, key: str) -> list:
    value = block.get(key, [])
    if not isinstance(value, list):
        raise ConfigError("%s must be a list" % key)
    return value


def _check(name: str, residual: float, tolerance: float) -> dict:
    residual = float(residual)
    return {
        "name": name,
        "residual": residual,
        "tolerance": float(tolerance),
        "pass": bool(residual <= tolerance),
    }


def _worst(values) -> float:
    """The largest of values, 0.0 for none.  A NaN is kept: max() drops one that is not first."""
    return float(np.max(values, initial=0.0))


def _random_jet(rng: np.random.Generator, dim: int, degree: int) -> np.ndarray:
    return rng.standard_normal((degree + 1, dim)) + 1j * rng.standard_normal(
        (degree + 1, dim)
    )


# ---------------------------------------------------------------------------
# task bodies; each gets its group's config block and returns
# {"checks": [...], "metrics": {...}, ...}


def _task_theta_eval(block, params, rng, tol, csv_dir):
    ev = params.evaluator()
    samples = _count(block, "samples", 100)
    tau = params.lattice.tau
    draws = []
    for _ in range(samples):
        z = params.sample_generic(rng, margin=5e-2)
        r, s = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
        mult = spaces.expected_multiplier(spaces.Character(-1.0, -1.0), 1, z, r, s, tau)
        draws.append((z, z + r + s * tau, mult))
    # theta at each z, at its shift z + r + s tau and at -z, from one call
    thetas = iter(ev.theta_values([(z, shift, -z) for z, shift, _ in draws]))
    qp, odd = [], []
    for _, _, mult in draws:
        base, shifted, minus = next(thetas), next(thetas), next(thetas)
        # the multiplier reaches 1e11 at |s| = 2, so compare at the shifted scale
        qp.append(abs(shifted - mult * base) / max(1.0, abs(shifted)))
        odd.append(abs(minus + base) / max(1.0, abs(base)))
    # theta^(d), d = 1..3, from the degree-3 jet against a Cauchy integral of the degree-0
    # values: the trapezoid rule on |w - z| = 1/4 at 32 nodes, all three from one FFT
    zs = np.array([params.sample_generic(rng, margin=5e-2) for _ in range(min(samples, 20))])
    circle, fact = 0.25 * np.exp(2j * math.pi * np.arange(32) / 32), np.array([1.0, 2.0, 6.0])
    ring = ev.theta_array((zs[:, None] + circle).ravel(), 0)[:, 0].reshape(len(zs), len(circle))
    expect = np.fft.fft(ring, axis=1)[:, 1:4] * fact / (32 * 0.25 ** np.arange(1, 4))
    got = ev.theta_array(zs, 3)[:, 1:] * fact
    jet_dev = float(np.max(np.abs(got - expect) / np.maximum(1.0, np.abs(expect))))
    points = [_as_complex(pt, "theta.points[%d]" % i) for i, pt in enumerate(_list(block, "points"))]
    at = np.array(points, dtype=complex)
    zeta, wp = ev.zeta_wp(at)
    jets = ev.theta_array(at, 1).tolist()
    values = [
        {"z": z, "theta": th, "theta_prime": tp, "zeta_bar": zb, "wp_bar": w}
        for z, (th, tp), zb, w in zip(points, jets, zeta, wp)
    ]
    checks = [
        _check("quasi_periodicity", _worst(qp), 1e-10),
        _check("oddness", _worst(odd), 1e-10),
        _check("derivative_vs_jet", jet_dev, 1e-10),
    ]
    return {"checks": checks, "metrics": {"samples": samples, "values": values}}


def _task_gaudin_check(block, params, rng, tol, csv_dir):
    degree = _count(block, "degree", 8, least=4)  # S(z1) S(z2) u takes four derivatives
    dim = gaudin._gaudin_model(params).dim
    u = _random_jet(rng, dim, degree)
    # every point up front, in the order the checks read them: lam0s, then the zs of S
    samples = _count(block, "lambda_samples", 3)
    lam0s = np.array([params.sample_generic(rng, margin=5e-2) for _ in range(samples + 1)])
    zs = np.array([params.sample_generic(rng, avoid=params.zs) for _ in range(5)])

    # each family is built once, as a stack over its points; products apply it to its own outputs
    hams = gaudin.build_hamiltonians(params, lam0s, degree)
    applied = [H.apply_jet(u[:, None]) for H in hams]  # (degree - order + 1, point, dim)
    scales = np.maximum(1.0, np.max([np.max(np.abs(a), axis=(0, 2)) for a in applied], axis=0))
    comm = []
    for i in range(len(hams)):
        for j in range(i + 1, len(hams)):
            dev = hams[i].apply_jet(applied[j]) - hams[j].apply_jet(applied[i])
            comm.extend(np.max(np.abs(dev[:, :samples]), axis=(0, 2)) / scales[:samples])

    # the Hamiltonian sum and the S-decomposition share the last lam0 and its H_j u
    applied = [a[:, samples] for a in applied]
    scale = max(1.0, float(np.max(np.abs(applied[1]))))
    ham_sum = float(np.max(np.abs(sum(applied[1:])))) / scale

    # zeta_bar and wp_bar at z - z_i, one call: S(z) reads zeta_bar, the decomposition at the first three z both
    dzs = zs[:, None] - np.array(params.zs)
    zeta, wp = (a.reshape(dzs.shape) for a in params.evaluator().zeta_wp(dzs.ravel()))
    s_ops = gaudin.build_S(params, zs, lam0s[samples], degree, zeta=zeta)
    su = s_ops.apply_jet(u[:, None])
    s_dev = []
    for p in range(3):
        rhs = applied[0].copy()
        for k in range(params.n):
            rhs += zeta[p, k] * applied[k + 1][: len(su)]
            rhs += gaudin.spectral_weight(params, k) * wp[p, k] * u[: len(su)]
        scale = max(1.0, float(np.max(np.abs(su[:, p]))))
        s_dev.append(float(np.max(np.abs(su[:, p] - rhs))) / scale)

    # S(z1) S(z2) u - S(z2) S(z1) u: the stack applied to S u with z1's and z2's columns swapped
    swapped = s_ops.apply_jet(su[:, [0, 1, 2, 4, 3]])
    scale = max(1.0, float(np.max(np.abs(su[:, 3]))))
    ss = float(np.max(np.abs(swapped[:, 3] - swapped[:, 4]))) / scale

    checks = [
        _check("hamiltonians_commute", _worst(comm), tol),
        _check("hamiltonian_sum_vanishes", ham_sum, tol),
        _check("s_decomposition", _worst(s_dev), tol),
        _check("s_family_commutes", ss, tol),
    ]
    return {"checks": checks, "metrics": {"zero_weight_dim": dim, "degree": degree}}


def _task_gaudin_bethe(block, params, rng, tol, csv_dir):
    degree = _count(block, "degree", 8, least=2)  # H_0 takes two derivatives
    try:
        sol = gaudin.solve_gaudin_bethe(params, rng)
    except spaces.SpacesError as exc:
        return {
            "checks": [_check("solver_converged", 1.0, 1e-10)],
            "metrics": {"solver_error": str(exc)},
        }
    lam0s = np.array([params.sample_generic(rng, margin=5e-2) for _ in range(2)])
    u = gaudin.bethe_eigenvector(params, sol.c, sol.roots, lam0s, degree)
    outs = [H.apply_jet(u) for H in gaudin.build_hamiltonians(params, lam0s, degree)]
    eigen_dev = []
    for p in range(len(lam0s)):
        scale = float(np.max(np.abs(u[:, p])))
        i = int(np.argmax(np.abs(u[0, p])))
        eps = []  # the last point's eigenvalues are reported
        for out in outs:
            ej = out[0, p, i] / u[0, p, i]
            eps.append(complex(ej))
            eigen_dev.append(float(np.max(np.abs(out[:, p] - ej * u[: out.shape[0], p]))) / scale)
    eps_sum = abs(sum(eps[1:])) / max(1.0, max(abs(e) for e in eps))
    checks = [
        _check("solver_converged", sol.residual, 1e-10),
        _check("eigen_residual", _worst(eigen_dev), 1e-8),
        _check("eigenvalue_sum", eps_sum, 1e-9),
    ]
    metrics = {
        "c": complex(sol.c),
        "roots": list(sol.roots),
        "eigenvalues": eps,
        "iterations": sol.iterations,
    }
    return {"checks": checks, "metrics": metrics}


def _task_eqg_rll(block, params, rng, tol, csv_dir):
    lam_count = _count(block, "lambda_samples", 5)
    lat = params.lattice
    lam_samples = [params.sample_generic(rng, margin=5e-2) for _ in range(lam_count)]
    z = params.sample_generic(rng, margin=5e-2)
    w = params.sample_generic(rng, margin=5e-2, avoid=(z,))
    rep = eqg.rll_residual(params, z, w, lam_samples)

    qybe = []
    for _ in range(_count(block, "qybe_samples", 20)):
        zq = params.sample_generic(rng, margin=5e-2)
        wq = params.sample_generic(rng, margin=5e-2)
        lamq = params.sample_generic(rng, margin=5e-2)
        qybe.append(eqg.qybe_residual(params, zq, wq, lamq))

    ktwist = []
    for _ in range(5):
        zk = params.sample_generic(rng, margin=5e-2)
        lamk = params.sample_generic(rng, margin=5e-2)
        ktwist.append(eqg.ktwist_residual(params, zk, lamk))

    grid_dim = int(np.prod([l + 1 for l in params.lams]))
    res_sum = [abs(eqg.residue_sum(params, gi, i)) for gi in range(min(grid_dim, 4)) for i in range(params.n)]

    checks = [
        _check("rll_sixteen_relations", rep["max_residual"], tol),
        _check("qybe", _worst(qybe), tol),
        _check("ktwist", _worst(ktwist), 1e-12),
        _check("residue_sum", _worst(res_sum), 1e-10),
    ]
    metrics = {"block_residuals": rep["block_residuals"], "z": z, "w": w}
    return {"checks": checks, "metrics": metrics}


def _task_eqg_hw(block, params, rng, tol, csv_dir):
    count = _count(block, "lambda_samples", 3)
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


def _task_irf_build(block, params, rng, tol, csv_dir):
    pairs = _count(block, "commuting_pairs", 3)
    comm = {"sov": [], "paths": []}
    for _ in range(pairs):
        za = irf.sample_spectral(params, rng)
        zb = irf.sample_spectral(params, rng)
        for kind, build in (("sov", irf.build_T_irf_sov), ("paths", irf.build_T_irf_paths)):
            comm[kind].append(irf._commutator_residual(build(params, za), build(params, zb)))
    rec = irf.reconcile_constructions(params, rng)
    checks = [
        _check("sov_family_commutes", _worst(comm["sov"]), tol),
        _check("paths_family_commutes", _worst(comm["paths"]), tol),
        _check("dual_reconciliation", rec.residual, tol),
    ]
    metrics = {
        "dimension": 2 ** params.n,
        "bridge_constant": rec.constant,
        "literal_entrywise_gap": rec.literal_gap,
        "bridge_condition": rec.condition,
        "paths_min_relative_gap": rec.min_gap,
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
        "q_pairs": [list(p) for p in cert.q_pairs],
    }


def _eps_at(certs, zs) -> np.ndarray:
    """Every certificate's eps at the points zs, shape (len(certs), len(zs)): one
    cardinal_vector call on the basis the certificates share, and one product."""
    cards = certs[0].eps.basis.cardinal_vector(zs)
    return np.stack([c.eps.values for c in certs]) @ cards.T


def _task_irf_spectrum(block, params, rng, tol, csv_dir):
    if "z0" in block:
        z0 = _as_complex(block["z0"], "irf.z0")
    else:
        z0 = irf.sample_spectral(params, rng)
    certs = irf.certify_spectrum(params, z0, tol=tol, rng=rng)

    worst = _worst([
        r for c in certs for r in (c.membership_residual, c.cluster_residual, *c.quadratic_residuals)
    ])
    angles = [c.angle for c in certs if not c.degenerate]
    recon = np.stack(
        [c.reconstruction / np.linalg.norm(c.reconstruction) for c in certs], axis=1
    )
    min_sv = float(np.linalg.svd(recon, compute_uv=False)[-1])

    chi0 = irf.eigenvalue_character(params)
    tau = params.lattice.tau
    zlaw = params.sample_generic(rng, margin=5e-2)
    # both multipliers before the shifted points: an overflowing multiplier is the error raised
    mults = [spaces.expected_multiplier(chi0, params.n, zlaw, r, s, tau) for (r, s) in ((1, 0), (0, 1))]
    eps = _eps_at(certs, [zlaw, zlaw + 1, zlaw + tau])
    expect = eps[:, :1] * mults
    law = np.abs(eps[:, 1:] - expect) / np.maximum(1.0, np.abs(expect))

    checks = [
        _check("certificate_residuals", worst, tol),
        _check("reconstruction_angle", _worst(angles), irf._ANGLE_TOL),
        _check("reconstruction_span", _worst([1e-6 - min_sv]), 0.0),
        _check("character_laws", _worst(law), tol),
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
        zs = np.linspace(0.0, 1.0, _count(block, "csv_points", 129)) + 0.37 * tau
        body["csv_files"] = []
        for k, curve in enumerate(_eps_at(certs, zs)):
            path = os.path.join(csv_dir, "spectrum_eps_%02d.csv" % k)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("z_re,z_im,eps_re,eps_im\n")
                for z, val in zip(zs, curve):
                    fh.write("%.17g,%.17g,%.17g,%.17g\n" % (z.real, z.imag, val.real, val.imag))
            body["csv_files"].append(path)
    return body


def _task_irf_partition(block, params, rng, tol, csv_dir):
    rows = _list(block, "rows")
    if not rows:
        raise ConfigError("irf.rows must list the row parameters for partition tasks")
    ws = [_as_complex(w, "irf.rows[%d]" % i) for i, w in enumerate(rows)]
    perm = list(rng.permutation(len(ws)))
    devs = {}
    values = {}
    for kind in ("paths", "sov"):
        base = irf.partition_function(params, ws, kind=kind)
        shuffled = irf.partition_function(params, [ws[i] for i in perm], kind=kind)
        devs[kind] = abs(base - shuffled) / max(1.0, abs(base))
        values[kind] = base
    bridge = math.prod(irf.bridge_scalar(params, w) for w in ws)
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


def _task_irf_bethe(block, params, rng, tol, csv_dir):
    try:
        cb = irf.continuous_bethe(params, rng)
    except spaces.SpacesError as exc:
        return {
            "checks": [_check("solver_converged", 1.0, 1e-10)],
            "metrics": {"solver_error": str(exc)},
        }
    # each sample draws its n coordinates xs, then zeta; the samples are evaluated as one stack
    samples = range(_count(block, "eigen_samples", 3))
    draws = np.array([[params.sample_generic(rng, margin=5e-2) for _ in range(params.n + 1)] for _ in samples])
    xs, zetas = draws[:, :-1], draws[:, -1]
    lhs = irf.apply_transfer_continuous(params, zetas, cb.u_value, xs)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # a non-finite miss raises below
        rhs = cb.eps_value(zetas) * cb.u_value(xs)
        eigen = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), np.abs(rhs))
    if not np.isfinite(eigen).all():
        zeta = complex(zetas[np.argmin(np.isfinite(eigen))])
        raise ThetaOverflowError("eps u at zeta = %r leaves double range" % (zeta,))
    m = sum(params.lams) // 2
    ev = params.evaluator()
    member = spaces.membership_test(ev, cb.q_value, m, cb.chi, rng)
    # eps carries the character the difference equation induces from A_plus
    chi_plus = spaces.character_of(cb.a_plus, params.lattice.tau)
    chi_eps = spaces.induced_eigenvalue_character(chi_plus, 2 * params.eta, m)
    # from Im z in [-Im tau/2, Im tau/2): from the cell, eps's tau multiplier reaches exp(3 pi n Im tau)
    half = params.lattice.tau / 2
    zchar = params.sample_generic(rng, margin=5e-2, avoid=[w + half for w in cb.solution.roots]) - half
    chi_dev = spaces.multiplier_deviation(ev, cb.eps, cb.a_plus.order, chi_eps, zchar)
    checks = [
        _check("solver_converged", cb.solution.residual, 1e-10),
        _check("eigen_residual", _worst(eigen), 1e-8),
        _check("character_match", chi_dev, 1e-9),
        _check("q_membership", _worst([member.deviation, member.qp_residual]) / member.scale, 1e-8),
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

@functools.cache  # built once per process; parse_args leaves it unchanged
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
    actions = {}
    for task in _DISPATCH:
        group, action = task.split()
        if group not in actions:
            actions[group] = groups.add_parser(group).add_subparsers(dest="action", required=True)
        actions[group].add_parser(action, parents=[common])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    task = "%s %s" % (args.group, args.action)
    # the library's validators are the task gates: their ParameterError exits 2
    try:
        cfg = load_config(args.config)
        params = build_params(cfg)
        block = cfg.get(args.group, {})
        if not isinstance(block, dict):
            raise ConfigError("%s must be an object" % args.group)
        seed = cfg.get("seed", 0) if args.seed is None else args.seed
        if not _is_int(seed) or seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        # build_params has checked that tolerances is an object
        tols = cfg.get("tolerances", {}) if args.tol is None else {"residual_tol": args.tol}
        tol = _positive(tols, "residual_tol", 1e-9)
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        body = _DISPATCH[task](block, params, rng, tol, args.emit_csv)
        elapsed = time.perf_counter() - start
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (ParameterError, ThetaError) as exc:  # build_params turns its own into ConfigError
        print("task error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2

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

    text = json.dumps(report, sort_keys=True, default=_json_default)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
