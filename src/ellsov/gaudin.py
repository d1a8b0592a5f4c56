"""Elliptic Gaudin system: field operators, Hamiltonians, kernel S, Bethe vectors.

The model lives on the tensor product of irreducible sl2 modules of
highest weights Lambda_i attached to the sites z_i.  All Hamiltonians
act on the zero-weight subspace as first/second order differential
operators in the dynamical variable lambda; their coefficients are
produced as lambda-jets so that compositions and commutators stay exact
through the requested Taylor degree.

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
from .params import ModelParams, ParameterError
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
    """

    params: ModelParams
    ev: ThetaEvaluator
    ops: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    indices: np.ndarray
    total: int

    @property
    def dim(self) -> int:
        return len(self.indices)

    def restrict(self, op: np.ndarray) -> np.ndarray:
        return op[np.ix_(self.indices, self.indices)]


@functools.lru_cache(maxsize=2)  # an entry holds 3n dense total^2 complex matrices
def _gaudin_model(params: ModelParams) -> _GaudinModel:
    """Distinct sites checked, site operators and zero-weight indices built, once per model.

    The CLI runs one task per process; gaudin check and gaudin bethe run
    on one model in one process share an entry, so two entries suffice.
    """
    params.validate_distinct_sites()
    grid = S0Grid(params)
    indices = np.flatnonzero(grid.weights == 0)
    if not indices.size:
        raise ParameterError("zero-weight subspace is empty: total weight parity is odd")
    ops = _site_operators(grid)
    for arr in (indices, *(m for site in ops for m in site)):
        arr.setflags(write=False)
    return _GaudinModel(params, params.evaluator(), ops, indices, grid.dim)


def _hamiltonian_j(ctx: _GaudinModel, j: int) -> LambdaDiffOp:
    """H_j = -h^(j) d/dlambda + sum_{k != j} pairwise kernel terms, on M[0]."""
    params, ev, dim = ctx.params, ctx.ev, ctx.dim
    ej, fj, hj = ctx.ops[j]
    c1 = -ctx.restrict(hj)

    others = [k for k in range(params.n) if k != j]
    zjks = [params.zs[j] - params.zs[k] for k in others]
    pair_hh = [(0.5 * ev.zeta_bar(zjk), ctx.restrict(hj @ ctx.ops[k][2])) for k, zjk in zip(others, zjks)]
    mats_ef = [ctx.restrict(ej @ ctx.ops[k][1]) for k in others]
    mats_fe = [ctx.restrict(fj @ ctx.ops[k][0]) for k in others]
    theta_zjks = [ev.theta(zjk) for zjk in zjks]

    def c0(lam0: complex, degree: int) -> np.ndarray:
        out = np.zeros((degree + 1, dim, dim), dtype=complex)
        for coeff, mat in pair_hh:
            out[0] += coeff * mat
        for sj, mat in zip(jets.jet_sigma(ev, lam0, zjks, degree, theta_zjks), mats_ef):
            out += sj[:, None, None] * mat[None, :, :]
        for sj, mat in zip(jets.jet_sigma_neg(ev, lam0, zjks, degree, theta_zjks), mats_fe):
            out += sj[:, None, None] * mat[None, :, :]
        return out

    return LambdaDiffOp(dim, (c0, LambdaDiffOp.const_coeff(c1)))


def _hamiltonian_0(ctx: _GaudinModel) -> LambdaDiffOp:
    """The second-order member of the family: the z-constant term of S(z).

    On the zero-weight space this is
        d^2/dlambda^2
        + (1/8) sum_{j,k} h^(j) h^(k) theta''(z_jk)/theta(z_jk)
        - (1/2) wp_bar(lambda) sum_j (e^(j) f^(j) + f^(j) e^(j))
        - sum_{j != k} (d sigma_lambda / d lambda)(z_jk) e^(j) f^(k),
    with the j = k ratio understood as theta'''(0)/theta'(0).  The hh
    weight 1/8 and the ordered ef sum are forced by matching the pole
    expansion of S(z); the residue decomposition test referees them.
    """
    params, ev, dim = ctx.params, ctx.ev, ctx.dim
    jet0 = ev.theta0_jet(3)
    diag_hh = 6.0 * jet0[3] / jet0[1]  # theta'''(0)/theta'(0)

    hh_const = np.zeros((dim, dim), dtype=complex)
    diag_ef = np.zeros((dim, dim), dtype=complex)
    zjks: list[complex] = []
    mats_ef: list[np.ndarray] = []
    for j in range(params.n):
        ej, fj, hj = ctx.ops[j]
        hh_const += 0.125 * diag_hh * ctx.restrict(hj @ hj)
        diag_ef += ctx.restrict(ej @ fj + fj @ ej)
        for k in range(params.n):
            if k == j:
                continue
            ek, fk, hk = ctx.ops[k]
            zjk = params.zs[j] - params.zs[k]
            tj = ev.theta_taylor(zjk, 2)
            hh_const += 0.125 * (2.0 * tj[2] / tj[0]) * ctx.restrict(hj @ hk)
            zjks.append(zjk)
            mats_ef.append(ctx.restrict(ej @ fk))
    theta_zjks = [ev.theta(zjk) for zjk in zjks]

    def c0(lam0: complex, degree: int) -> np.ndarray:
        out = np.zeros((degree + 1, dim, dim), dtype=complex)
        out[0] += hh_const
        wp = jets.jet_wp_bar(ev, lam0, degree)
        out -= 0.5 * wp[:, None, None] * diag_ef[None, :, :]
        for sj, mat in zip(jets.jet_sigma_dlambda(ev, lam0, zjks, degree, theta_zjks), mats_ef):
            out -= sj[:, None, None] * mat[None, :, :]
        return out

    eye = np.eye(dim, dtype=complex)
    zero = np.zeros((dim, dim), dtype=complex)
    return LambdaDiffOp(
        dim,
        (c0, LambdaDiffOp.const_coeff(zero), LambdaDiffOp.const_coeff(eye)),
    )


def build_hamiltonians(params: ModelParams) -> list[LambdaDiffOp]:
    """[H_0, H_1, ..., H_n] acting on the zero-weight space."""
    ctx = _gaudin_model(params)
    return [_hamiltonian_0(ctx)] + [_hamiltonian_j(ctx, j) for j in range(params.n)]


def build_S(params: ModelParams, z: complex) -> LambdaDiffOp:
    """Generating kernel S(z) = (d/dlambda - h(z)/2)^2 + (e f + f e)/2 on M[0].

    The symmetrized product carries the 1/2 so that the double poles of
    S(z) at the sites come out as Casimir halves; see the residue
    decomposition test.
    """
    ctx = _gaudin_model(params)
    ev, dim = ctx.ev, ctx.dim

    h_full = np.zeros((ctx.total, ctx.total), dtype=complex)
    for (ei, fi, hi), zi in zip(ctx.ops, params.zs):
        h_full += ev.zeta_bar(z - zi) * hi
    hz = ctx.restrict(h_full)
    dzs = [z - zi for zi in params.zs]
    theta_dzs = [ev.theta(dz) for dz in dzs]

    def c0(lam0: complex, degree: int) -> np.ndarray:
        e_jet = np.zeros((degree + 1, ctx.total, ctx.total), dtype=complex)
        f_jet = np.zeros((degree + 1, ctx.total, ctx.total), dtype=complex)
        sns = jets.jet_sigma_neg(ev, lam0, dzs, degree, theta_dzs)
        sps = jets.jet_sigma(ev, lam0, dzs, degree, theta_dzs)
        for (ei, fi, hi), sn, sp in zip(ctx.ops, sns, sps):
            e_jet += sn[:, None, None] * ei[None, :, :]
            f_jet += sp[:, None, None] * fi[None, :, :]
        anti = jets.jmul(e_jet, f_jet, degree) + jets.jmul(f_jet, e_jet, degree)
        out = np.stack([0.5 * ctx.restrict(a) for a in anti])
        out[0] += 0.25 * (hz @ hz)
        return out

    return LambdaDiffOp(
        dim,
        (c0, LambdaDiffOp.const_coeff(-hz), LambdaDiffOp.const_coeff(np.eye(dim, dtype=complex))),
    )


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


def _gaudin_equations(ev: ThetaEvaluator, params: ModelParams, c: complex, roots: np.ndarray):
    m = len(roots)
    res = np.zeros(m, dtype=complex)
    for j in range(m):
        val = -2.0 * c
        for zl, ll in zip(params.zs, params.lams):
            val += ll * ev.zeta_bar(roots[j] - zl)
        for k in range(m):
            if k != j:
                # root-root weight 2: v'' at a zero of e^{cy} prod_k theta(y-w_k)
                # picks up theta'(w_j-w_k) from both product-rule branches
                val -= 2.0 * ev.zeta_bar(roots[j] - roots[k])
        res[j] = val
    return res


def _gaudin_jacobian(ev: ThetaEvaluator, params: ModelParams, roots: np.ndarray) -> np.ndarray:
    m = len(roots)
    jac = np.zeros((m, m + 1), dtype=complex)
    for j in range(m):
        jac[j, 0] = -2.0
        diag = 0j
        for zl, ll in zip(params.zs, params.lams):
            diag -= ll * ev.wp_bar(roots[j] - zl)
        for k in range(m):
            if k != j:
                wp = ev.wp_bar(roots[j] - roots[k])
                diag += 2.0 * wp
                jac[j, 1 + k] = -2.0 * wp
        jac[j, 1 + j] = diag
    return jac


def solve_gaudin_bethe(params: ModelParams, rng: np.random.Generator) -> GaudinBetheResult:
    """spaces.damped_newton on the n-site Gaudin Bethe equations in (c, w_1..w_m).

    m = sum(Lambda_i)/2 roots: the Bethe vector f(w_1)..f(w_m) v_0 lies in
    the zero-weight space only for that m.  The target is absolute
    (scale 1); each start draws the roots, then c.
    """
    params.validate_distinct_sites()
    params.validate_even_weight_sum()
    ev = params.evaluator()
    m = sum(params.lams) // 2

    def start():
        roots = [params.sample_generic(rng, avoid=params.zs) for _ in range(m)]
        return np.array([complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))] + roots)

    def system(x):
        return _gaudin_equations(ev, params, x[0], x[1:]), 1.0, lambda: _gaudin_jacobian(ev, params, x[1:])

    x, residual, iterations = damped_newton(system, start)
    return GaudinBetheResult(complex(x[0]), tuple(complex(w) for w in x[1:]), residual, iterations)


def bethe_eigenvector(
    params: ModelParams,
    c: complex,
    roots: Sequence[complex],
    lam0: complex,
    degree: int,
) -> np.ndarray:
    """Jet of u(lambda) = e^{c lambda} f(w_1) ... f(w_m) v_0 on the zero-weight space.

    The lowering fields carry the running lambda through every factor.
    """
    ctx = _gaudin_model(params)
    vec = np.zeros((degree + 1, ctx.total), dtype=complex)
    vec[0, 0] = 1.0  # index 0 is the top vector of every factor
    for w in roots:
        sps = jets.jet_sigma(ctx.ev, lam0, [w - zi for zi in params.zs], degree)
        f_jet = sum(sp[:, None, None] * fi for sp, (_, fi, _) in zip(sps, ctx.ops))
        vec = jets.jmul(f_jet, vec, degree)
    vec = jets.jmul(jets.jet_exp(c, lam0, degree), vec, degree)
    return vec[:, ctx.indices]
