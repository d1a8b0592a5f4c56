"""Elliptic Gaudin system: field operators, Hamiltonians, kernel S, Bethe vectors.

The model lives on the tensor product of irreducible sl2 modules of
highest weights Lambda_i attached to the sites z_i.  All Hamiltonians
act on the zero-weight subspace as first/second order differential
operators in the dynamical variable lambda.  Each operator is built at
a point lam0, or as a stack over an array of them, for input jets up to
a given Taylor degree: its coefficient jets are formed once, from
lambda-free matrices and thetas cached per model, and compositions and
commutators read them truncated.

The tensor basis vector v_{m_1} x .. x v_{m_n} is labelled by the
multi-index m of :class:`ellsov.eqg.S0Grid`, in the grid's order, so the
zero-weight subspace is spanned by the grid points of weight zero.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Sequence

import numpy as np

from . import jets
from .eqg import S0Grid
from .jets import LambdaDiffOp
from .params import ModelParams
from .spaces import damped_newton
from .theta import ThetaEvaluator

__all__ = [
    "build_hamiltonians",
    "build_S",
    "spectral_weight",
    "solve_gaudin_bethe",
    "bethe_eigenvector",
    "GaudinBetheResult",
]


def _site_operators(grid: S0Grid) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per-site (e, f, h) acting on the full tensor product, in S0Grid order.

    Site i's module has the integer basis f v_k = v_{k+1}, h v_k = (Lambda_i - 2k) v_k,
    e v_k = k (Lambda_i - k + 1) v_{k-1}; moving m_i by one moves the grid
    index by the stride s_i, so e and f sit on the diagonals +s_i and -s_i.
    """
    ops = []
    for k, lam, s in zip(np.array(grid.points).T, grid.params.lams, grid.strides):
        e = np.diag((k * (lam - k + 1))[s:].astype(complex), s)
        f = np.diag((k < lam)[:-s].astype(complex), -s)
        ops.append((e, f, np.diag((lam - 2 * k).astype(complex))))
    return tuple(ops)


@dataclasses.dataclass(frozen=True)
class _GaudinModel:
    """The model-level data every Gaudin operator reads, read-only.

    ops[i] is site i's (e, f, h) on the full tensor product of dimension
    total; indices are the grid points of weight zero, which span M[0].
    The lambda-free parts of the operators are restricted to M[0]: per
    site j, h[j] = h^(j) and pair_hh[j] = sum_{k != j} zeta_bar(z_jk)/2
    h^(j) h^(k); per ordered pair (j, k), j != k, j-major, z_jk = z_j - z_k,
    mats_ef = e^(j) f^(k) and mats_fe = f^(j) e^(k); and
    H_0's constant hh_const and sum_j (e^(j) f^(j) + f^(j) e^(j)), diag_ef.
    """

    params: ModelParams
    ev: ThetaEvaluator
    ops: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    indices: np.ndarray
    total: int
    h: np.ndarray
    pair_hh: np.ndarray
    zjks: tuple[complex, ...]
    mats_ef: np.ndarray
    mats_fe: np.ndarray
    hh_const: np.ndarray
    diag_ef: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.indices)


@functools.lru_cache(maxsize=2)  # an entry holds 3n total^2 and 2n^2 + 2 dim^2 complex matrices
def _gaudin_model(params: ModelParams) -> _GaudinModel:
    """Distinct sites checked, site operators, zero-weight indices and the
    operators' lambda-free matrices and thetas built, once per model.

    The CLI runs one task per process; gaudin check and gaudin bethe run
    on one model in one process share an entry, so two entries suffice.
    """
    params.validate_distinct_sites()
    params.validate_even_weight_sum()  # grid weights share the parity of the total weight
    grid = S0Grid(params)
    indices = np.flatnonzero(grid.weights == 0)
    ops = _site_operators(grid)
    ev, n, dim, block = params.evaluator(), params.n, len(indices), np.ix_(indices, indices)
    zjks = tuple(params.zs[j] - params.zs[k] for j in range(n) for k in range(n) if k != j)
    jet = ev.theta_array(np.array((0j,) + zjks), 3)  # theta at 0, then at each z_jk
    diag_hh = 6.0 * jet[0, 3] / jet[0, 1]  # theta'''(0)/theta'(0), the j = k ratio of H_0
    zeta = jet[1:, 1] / jet[1:, 0]
    hh_const = np.zeros((dim, dim), dtype=complex)
    diag_ef = np.zeros((dim, dim), dtype=complex)
    pair_hh = np.zeros((n, dim, dim), dtype=complex)
    mats_ef, mats_fe = [], []
    p = 0
    for j, (ej, fj, hj) in enumerate(ops):
        hh_const += 0.125 * diag_hh * (hj @ hj)[block]
        diag_ef += (ej @ fj + fj @ ej)[block]
        for k, (ek, fk, hk) in enumerate(ops):
            if k == j:
                continue
            hh = (hj @ hk)[block]
            pair_hh[j] += (0.5 * zeta[p]) * hh
            hh_const += 0.125 * (2.0 * jet[1 + p, 2] / jet[1 + p, 0]) * hh
            mats_ef.append((ej @ fk)[block])
            mats_fe.append((fj @ ek)[block])
            p += 1
    h = np.array([site[2][block] for site in ops])
    mats = (np.array(mats_ef).reshape(-1, dim, dim), np.array(mats_fe).reshape(-1, dim, dim))
    for arr in (indices, *(m for site in ops for m in site), h, pair_hh, *mats, hh_const, diag_ef):
        arr.setflags(write=False)
    return _GaudinModel(params, ev, ops, indices, grid.dim, h, pair_hh, zjks, *mats, hh_const, diag_ef)


def build_hamiltonians(params: ModelParams, lam0, degree: int) -> list[LambdaDiffOp]:
    """[H_0, H_1, ..., H_n] on the zero-weight space at lam0, for input jets of degree <= degree.

    H_j = -h^(j) d/dlambda + pair_hh[j] + sum_{k != j} (sigma_lambda(z_jk)
    e^(j) f^(k) + sigma_{-lambda}(z_jk) f^(j) e^(k)).  H_0, the z-constant
    term of S(z), is
        d^2/dlambda^2
        + (1/8) sum_{j,k} h^(j) h^(k) theta''(z_jk)/theta(z_jk)
        - (1/2) wp_bar(lambda) sum_j (e^(j) f^(j) + f^(j) e^(j))
        - sum_{j != k} (d sigma_lambda / d lambda)(z_jk) e^(j) f^(k),
    with the j = k ratio understood as theta'''(0)/theta'(0).  The hh
    weight 1/8 and the ordered ef sum are forced by matching the pole
    expansion of S(z); the residue decomposition test referees them.
    At an array lam0 each H_j is the stack over its points.  All read one
    jet_sigma call over the points and ordered pairs; theta's jet at lam0
    gives wp_bar = -(theta'/theta)'.  H_0 takes the derivatives of the sigma
    jets, with no pole of zeta_bar(lambda - z_jk) to cancel.
    """
    if degree < 2:
        raise ValueError("H_0 takes two derivatives: degree must be at least 2")
    ctx = _gaudin_model(params)
    ev, dim, others = ctx.ev, ctx.dim, params.n - 1
    sig, sig_neg, theta_lam = jets.jet_sigma(ev, lam0, ctx.zjks, degree)
    sig, sig_neg = sig[:degree], sig_neg[:degree]  # the coefficients reach degree - 1
    wp = -jets.jderiv(jets.jdiv(jets.jderiv(theta_lam), theta_lam[:degree], degree - 1))
    points = theta_lam.shape[1:]

    c0 = np.zeros((degree - 1,) + points + (dim, dim), dtype=complex)
    c0[0] += ctx.hh_const
    c0 -= 0.5 * wp[..., None, None] * ctx.diag_ef
    for sj, mat in zip(np.moveaxis(jets.jderiv(sig), -1, 0), ctx.mats_ef):
        c0 -= sj[..., None, None] * mat
    eye = np.eye(dim, dtype=complex)[(None,) * (1 + len(points))]
    hams = [LambdaDiffOp(degree, (c0, np.zeros_like(eye), eye))]
    for j in range(params.n):
        c0 = np.zeros((degree,) + points + (dim, dim), dtype=complex)
        c0[0] += ctx.pair_hh[j]
        for sigs, mats in ((sig, ctx.mats_ef), (sig_neg, ctx.mats_fe)):
            for p in range(j * others, (j + 1) * others):
                c0 += sigs[..., p, None, None] * mats[p]
        hams.append(LambdaDiffOp(degree, (c0, -ctx.h[j] * eye)))
    return hams


def build_S(params: ModelParams, z, lam0, degree: int) -> LambdaDiffOp:
    """Generating kernel S(z) = (d/dlambda - h(z)/2)^2 + (e f + f e)/2 on M[0], at lam0.

    For input jets of degree 2..degree; arrays z and lam0 broadcast to a
    stack, with one zeta_wp and one jet_sigma call.  The symmetrized product
    carries the 1/2 so that the double poles of S(z) at the sites come out
    as Casimir halves; see the residue decomposition test.
    """
    ctx = _gaudin_model(params)
    ev, dim, d_out = ctx.ev, ctx.dim, degree - 2
    dzs = np.asarray(z, dtype=complex)[..., None] - np.array(params.zs)
    zetas = np.moveaxis(ev.zeta_wp(dzs.ravel())[0].reshape(dzs.shape), -1, 0)
    hz = sum(zeta[..., None, None] * hi for hi, zeta in zip(ctx.h, zetas))
    sps, sns, _ = jets.jet_sigma(ev, lam0, dzs, d_out)
    e_jet = sum(sn[..., None, None] * ei for (ei, _, _), sn in zip(ctx.ops, np.moveaxis(sns, -1, 0)))
    f_jet = sum(sp[..., None, None] * fi for (_, fi, _), sp in zip(ctx.ops, np.moveaxis(sps, -1, 0)))
    rows, cols = (..., ctx.indices, slice(None)), (..., ctx.indices)  # the M[0] block of each product
    c0 = 0.5 * (jets.jmul(e_jet[rows], f_jet[cols], d_out) + jets.jmul(f_jet[rows], e_jet[cols], d_out))
    c0[0] += 0.25 * (hz @ hz)
    return LambdaDiffOp(degree, (c0, -hz[None], np.eye(dim, dtype=complex)[(None,) * (c0.ndim - 2)]))


def spectral_weight(params: ModelParams, k: int) -> float:
    """Half Casimir value c_k/2 = Lambda_k (Lambda_k + 2) / 4."""
    l = params.lams[k]
    return l * (l + 2) / 4.0


# -- Bethe system -------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GaudinBetheResult:
    c: complex
    roots: tuple[complex, ...]
    residual: float
    iterations: int


def _gaudin_equations(ev: ThetaEvaluator, params: ModelParams, x: np.ndarray):
    """damped_newton's system(x) for the Gaudin Bethe equations, x = (c, w_1..w_m).

    Equation j is -2c + sum_l Lambda_l zeta_bar(w_j - z_l) - 2 sum_{k != j}
    zeta_bar(w_j - w_k) (v'' at a zero of e^{cy} prod_k theta(y - w_k) takes
    theta'(w_j - w_k) from both product-rule branches).  All arguments, row j
    w_j - z_l then w_j - w_k, take one zeta_wp call: zeta_bar for the
    residual, wp_bar = -zeta_bar' for the Jacobian.
    """
    c, roots = x[0], x[1:]
    m, n = len(roots), params.n
    others = np.nonzero(~np.eye(m, dtype=bool))[1].reshape(m, m - 1)
    args = np.hstack((roots[:, None] - np.array(params.zs), roots[:, None] - roots[others])).ravel()
    zb, wp = (a.reshape(m, n + m - 1) for a in ev.zeta_wp(args))
    lams = np.array(params.lams, dtype=float)
    res = -2.0 * c + zb[:, :n] @ lams - 2.0 * zb[:, n:].sum(axis=1)
    jac = np.zeros((m, m + 1), dtype=complex)
    jac[:, 0] = -2.0
    np.put_along_axis(jac, 1 + others, -2.0 * wp[:, n:], axis=1)
    np.fill_diagonal(jac[:, 1:], 2.0 * wp[:, n:].sum(axis=1) - wp[:, :n] @ lams)
    return res, lambda: jac


def solve_gaudin_bethe(params: ModelParams, rng: np.random.Generator) -> GaudinBetheResult:
    """spaces.damped_newton on the n-site Gaudin Bethe equations in (c, w_1..w_m).

    m = sum(Lambda_i)/2 roots: the Bethe vector f(w_1)..f(w_m) v_0 lies in
    the zero-weight space only for that m.  Each start draws the roots,
    then c.
    """
    params.validate_distinct_sites()
    params.validate_even_weight_sum()
    ev = params.evaluator()
    m = sum(params.lams) // 2

    def start():
        roots = [params.sample_generic(rng, avoid=params.zs) for _ in range(m)]
        return np.array([complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))] + roots)

    x, residual, iterations = damped_newton(functools.partial(_gaudin_equations, ev, params), start)
    return GaudinBetheResult(complex(x[0]), tuple(complex(w) for w in x[1:]), residual, iterations)


def bethe_eigenvector(
    params: ModelParams,
    c: complex,
    roots: Sequence[complex],
    lam0,
    degree: int,
) -> np.ndarray:
    """Jet of u(lambda) = e^{c lambda} f(w_1) ... f(w_m) v_0 on the zero-weight space.

    The lowering fields carry the running lambda through every factor; an
    array lam0 gives the stack (degree + 1, *lam0.shape, dim).
    """
    ctx = _gaudin_model(params)
    exp_jet = jets.jet_exp(c, lam0, degree)
    vec = np.zeros(exp_jet.shape + (ctx.total,), dtype=complex)
    vec[..., 0] = exp_jet  # e^{c lambda} v_0: index 0 is the top vector of every factor
    # one jet_sigma call over every point and (root, site) pair, root-major
    pairs = (np.array(roots)[:, None] - np.array(params.zs)).ravel()
    sps = np.moveaxis(jets.jet_sigma(ctx.ev, lam0, pairs, degree)[0], -1, 0)
    for r in range(len(roots)):
        f_jet = sum(sp[..., None, None] * fi for sp, (_, fi, _) in zip(sps[r * params.n :], ctx.ops))
        vec = jets.jmul(f_jet, vec, degree)
    return vec[..., ctx.indices]
