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
from typing import Sequence

import numpy as np

from . import jets
from .eqg import S0Grid
from .jets import LambdaDiffOp
from .params import ModelParams, ParameterError
from .spaces import damped_newton
from .theta import ThetaEvaluator

__all__ = [
    "Sl2Rep",
    "ZeroWeightSpace",
    "build_hamiltonians",
    "build_S",
    "spectral_weight",
    "solve_gaudin_bethe",
    "bethe_eigenvector",
    "GaudinBetheResult",
]


@dataclasses.dataclass(frozen=True)
class Sl2Rep:
    """Irreducible sl2 module of highest weight lam, in the integer basis.

    f v_k = v_{k+1}, h v_k = (lam - 2k) v_k, e v_k = k (lam - k + 1) v_{k-1}.
    """

    lam: int

    @property
    def dim(self) -> int:
        return self.lam + 1

    @property
    def e(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for k in range(1, self.dim):
            m[k - 1, k] = k * (self.lam - k + 1)
        return m

    @property
    def f(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for k in range(self.dim - 1):
            m[k + 1, k] = 1.0
        return m

    @property
    def h(self) -> np.ndarray:
        return np.diag([complex(self.lam - 2 * k) for k in range(self.dim)])


def _site_operators(lams: Sequence[int]) -> list[tuple[np.ndarray, ...]]:
    """Per-site (e, f, h) acting on the full tensor product, in S0Grid order."""
    reps = [Sl2Rep(l) for l in lams]
    dims = [r.dim for r in reps]
    ops = []
    for i, rep in enumerate(reps):
        eye_l = np.eye(int(np.prod(dims[:i])), dtype=complex)
        eye_r = np.eye(int(np.prod(dims[i + 1:])), dtype=complex)
        ops.append(tuple(np.kron(np.kron(eye_l, m), eye_r) for m in (rep.e, rep.f, rep.h)))
    return ops


@dataclasses.dataclass(frozen=True)
class ZeroWeightSpace:
    """Zero-weight subspace of the site tensor product, with index bookkeeping."""

    params: ModelParams
    indices: tuple[int, ...]
    total_dim: int

    @property
    def dim(self) -> int:
        return len(self.indices)

    def restrict(self, op: np.ndarray) -> np.ndarray:
        idx = np.asarray(self.indices)
        return op[np.ix_(idx, idx)]


def zero_weight_space(params: ModelParams) -> ZeroWeightSpace:
    grid = S0Grid(params)
    idx = tuple(int(i) for i in np.nonzero(grid.weights == 0)[0])
    if not idx:
        raise ParameterError("zero-weight subspace is empty: total weight parity is odd")
    return ZeroWeightSpace(params, idx, grid.dim)


class GaudinContext:
    """Shared matrices and jet builders for one parameter set."""

    def __init__(self, params: ModelParams):
        params.validate_distinct_sites()
        self.params = params
        self.ev = params.evaluator()
        self.ops = _site_operators(params.lams)
        self.space = zero_weight_space(params)
        self.total = self.space.total_dim


def _hamiltonian_j(ctx: GaudinContext, j: int) -> LambdaDiffOp:
    """H_j = -h^(j) d/dlambda + sum_{k != j} pairwise kernel terms, on M[0]."""
    params, ev = ctx.params, ctx.ev
    dim = ctx.space.dim
    ej, fj, hj = ctx.ops[j]
    c1 = -ctx.space.restrict(hj)

    pair_hh = []
    zjks = []
    mats_ef = []
    mats_fe = []
    for k in range(params.n):
        if k == j:
            continue
        ek, fk, hk = ctx.ops[k]
        zjk = params.zs[j] - params.zs[k]
        pair_hh.append((0.5 * ev.zeta_bar(zjk), ctx.space.restrict(hj @ hk)))
        zjks.append(zjk)
        mats_ef.append(ctx.space.restrict(ej @ fk))
        mats_fe.append(ctx.space.restrict(fj @ ek))
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


def _hamiltonian_0(ctx: GaudinContext) -> LambdaDiffOp:
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
    params, ev = ctx.params, ctx.ev
    dim = ctx.space.dim
    jet0 = ev.theta0_jet(3)
    diag_hh = 6.0 * jet0[3] / jet0[1]  # theta'''(0)/theta'(0)

    hh_const = np.zeros((dim, dim), dtype=complex)
    diag_ef = np.zeros((dim, dim), dtype=complex)
    zjks: list[complex] = []
    mats_ef: list[np.ndarray] = []
    for j in range(params.n):
        ej, fj, hj = ctx.ops[j]
        hh_const += 0.125 * diag_hh * ctx.space.restrict(hj @ hj)
        diag_ef += ctx.space.restrict(ej @ fj + fj @ ej)
        for k in range(params.n):
            if k == j:
                continue
            ek, fk, hk = ctx.ops[k]
            zjk = params.zs[j] - params.zs[k]
            tj = ev.theta_taylor(zjk, 2)
            hh_const += 0.125 * (2.0 * tj[2] / tj[0]) * ctx.space.restrict(hj @ hk)
            zjks.append(zjk)
            mats_ef.append(ctx.space.restrict(ej @ fk))
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
    ctx = GaudinContext(params)
    return [_hamiltonian_0(ctx)] + [_hamiltonian_j(ctx, j) for j in range(params.n)]


def build_S(params: ModelParams, z: complex) -> LambdaDiffOp:
    """Generating kernel S(z) = (d/dlambda - h(z)/2)^2 + (e f + f e)/2 on M[0].

    The symmetrized product carries the 1/2 so that the double poles of
    S(z) at the sites come out as Casimir halves; see the residue
    decomposition test.
    """
    ctx = GaudinContext(params)
    params_, ev = ctx.params, ctx.ev
    dim = ctx.space.dim

    h_full = np.zeros((ctx.total, ctx.total), dtype=complex)
    for (ei, fi, hi), zi in zip(ctx.ops, params_.zs):
        h_full += ev.zeta_bar(z - zi) * hi
    hz = ctx.space.restrict(h_full)
    dzs = [z - zi for zi in params_.zs]
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
        out = np.stack([0.5 * ctx.space.restrict(a) for a in anti])
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
    ctx = GaudinContext(params)
    vec = np.zeros((degree + 1, ctx.total), dtype=complex)
    vec[0, 0] = 1.0  # index 0 is the top vector of every factor
    for w in roots:
        sps = jets.jet_sigma(ctx.ev, lam0, [w - zi for zi in params.zs], degree)
        f_jet = sum(sp[:, None, None] * fi for sp, (_, fi, _) in zip(sps, ctx.ops))
        vec = jets.jmul(f_jet, vec, degree)
    vec = jets.jmul(jets.jet_exp(c, lam0, degree), vec, degree)
    return vec[:, np.asarray(ctx.space.indices)]
