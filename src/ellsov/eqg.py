"""Dynamical R-matrix and its difference-operator realization on a finite grid.

The two-dimensional auxiliary space V has basis e[1], e[-1].  A site
collection (z_i, Lambda_i) carries a finite grid of x-values
x_i = -z_i - eta (Lambda_i - 2 m_i), m_i = 0..Lambda_i, and the four operators
a(z), b(z), c(z), d(z) act on functions of (lambda, x) as sparse shift
operators: every term moves x_i by at most one grid step and lambda by an
integer multiple of 2 eta.  d(z) is never written down directly; it is
solved for from the determinant relation inside the shift algebra.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .params import ModelParams, ParameterError
from .theta import ThetaEvaluator

# ---------------------------------------------------------------------------
# R-matrix


def _r_fill(r: np.ndarray, th_z, th_shift, th_2eta, lam_thetas) -> None:
    """Write R's entries into the zeroed 4x4 array r from its thetas.

    Basis order e[1]e[1], e[1]e[-1], e[-1]e[1], e[-1]e[-1].  th_z, th_shift
    and th_2eta are theta(z), theta(z - 2 eta) and theta(2 eta); lam_thetas
    holds (theta(l), theta(l + 2 eta), theta(l + z)) for row 1's l = lambda
    and row 2's l = -lambda.
    """
    r[0, 0] = 1.0
    r[3, 3] = 1.0
    for (row, col), (th_lam, th_lam_2eta, th_lam_z) in zip(((1, 2), (2, 1)), lam_thetas):
        r[row, row] = th_lam_2eta * th_z / (th_lam * th_shift)
        r[row, col] = -th_lam_z * th_2eta / (th_lam * th_shift)


def _r_matrix_raw(ev: ThetaEvaluator, eta: complex, z: complex, lam: complex) -> np.ndarray:
    # each of the 9 theta arguments is evaluated once
    th_z, th_shift, th_2eta = ev.theta(z), ev.theta(z - 2 * eta), ev.theta(2 * eta)
    r = np.zeros((4, 4), dtype=complex)
    lam_thetas = [(ev.theta(l), ev.theta(l + 2 * eta), ev.theta(l + z)) for l in (lam, -lam)]
    _r_fill(r, th_z, th_shift, th_2eta, lam_thetas)
    return r


def _check_lambda(params: ModelParams, lam: complex) -> None:
    if params.lattice.dist_to_lattice(lam) < params.rho:
        raise ParameterError("dynamical parameter lambda is within rho of a lattice point")


def _check_spectral(params: ModelParams, z: complex) -> None:
    if params.lattice.dist_to_lattice(z - 2 * params.eta) < params.rho:
        raise ParameterError("spectral parameter z is within rho of 2 eta mod the lattice")


def r_matrix(params: ModelParams, z: complex, lam: complex) -> np.ndarray:
    """The 4x4 dynamical R-matrix R(z, lambda) for step 2 eta."""
    _check_lambda(params, lam)
    _check_spectral(params, z)
    return _r_matrix_raw(params.evaluator(), params.eta, z, lam)


def ktwist_residual(params: ModelParams, z: complex, lam: complex) -> float:
    """|(K x K) R(z, lambda) - R(z, -lambda) (K x K)| for the spin flip K."""
    kk = np.eye(4, dtype=complex)[::-1]  # K x K sends index 2a + b to 3 - (2a + b)
    lhs = kk @ r_matrix(params, z, lam)
    rhs = r_matrix(params, z, -lam) @ kk
    return float(np.max(np.abs(lhs - rhs)))


def _r_on_three(
    ev: ThetaEvaluator, eta: complex, u: complex, lam: complex, pos: tuple[int, int], dyn: int | None
) -> np.ndarray:
    """Embed R(u, lambda - 2 eta h^(dyn)) into End(V x V x V) at pos = (p, q), p < q.

    dyn is the third factor or None.  R reshaped to (2, 2, 2, 2) is (d_p, d_q, s_p, s_q); it
    fills the (d_0, d_1, d_2, s_0, s_1, s_2) tensor where the third factor keeps its state s.
    """
    (third,) = {0, 1, 2} - set(pos)
    # lambda_eff depends on the basis vector only through its dyn component
    if dyn is None:
        rs = [_r_matrix_raw(ev, eta, u, lam)] * 2
    else:
        rs = [_r_matrix_raw(ev, eta, u, lam - 2 * eta * (1 - 2 * s)) for s in (0, 1)]
    out = np.zeros((2,) * 6, dtype=complex)
    for s, r in enumerate(rs):
        index = [slice(None)] * 6
        index[third] = index[third + 3] = s
        out[tuple(index)] = r.reshape(2, 2, 2, 2)
    return out.reshape(8, 8)


def qybe_residual(params: ModelParams, z: complex, w: complex, lam: complex) -> float:
    """Relative residual of the dynamical Yang-Baxter equation on V x V x V."""
    ev = params.evaluator()
    eta = params.eta
    lhs = (
        _r_on_three(ev, eta, z - w, lam, (0, 1), dyn=2)
        @ _r_on_three(ev, eta, z, lam, (0, 2), dyn=None)
        @ _r_on_three(ev, eta, w, lam, (1, 2), dyn=0)
    )
    rhs = (
        _r_on_three(ev, eta, w, lam, (1, 2), dyn=None)
        @ _r_on_three(ev, eta, z, lam, (0, 2), dyn=1)
        @ _r_on_three(ev, eta, z - w, lam, (0, 1), dyn=None)
    )
    scale = max(1.0, float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


# ---------------------------------------------------------------------------
# Grid and shift operators


class S0Grid:
    """Multi-index grid m_i = 0..Lambda_i with x_i(m) = -z_i - eta(Lambda_i - 2 m_i).

    Points come in itertools.product order, the last site varying
    fastest: the Kronecker order of the Gaudin tensor basis and, at
    Lambda_i = 1, the order of both IRF state sets.  So moving m_i by one
    moves the index by strides[i] = prod_{j > i} (Lambda_j + 1), and the
    point m = 0 has index 0.  weights holds the sl2 weight
    sum_i (Lambda_i - 2 m_i) of each point.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.points = list(itertools.product(*(range(l + 1) for l in params.lams)))
        dims = [l + 1 for l in params.lams]
        self.strides = tuple(math.prod(dims[i + 1:]) for i in range(len(dims)))
        steps = np.asarray(params.lams) - 2 * np.array(self.points)
        self.weights = steps.sum(axis=1)
        self.xs = -np.asarray(params.zs) - params.eta * steps

    @property
    def dim(self) -> int:
        return len(self.points)

    def shifted(self, idx: int, i: int, dm: int) -> int | None:
        """Index of the grid point with m_i changed by dm, None if off the grid."""
        m = self.points[idx][i] + dm
        return idx + dm * self.strides[i] if 0 <= m <= self.params.lams[i] else None


@dataclasses.dataclass
class ShiftOp:
    """Sparse lambda-difference operator on functions of (lambda, grid point).

    blocks(lambda) maps each offset k to a dim x dim matrix M_k; the operator
    sends f to sum_k M_k(lambda) @ f(lambda + k * step).  k is an exact
    integer so repeated composition never accumulates floating shift error.
    """

    dim: int
    step: complex
    blocks: Callable[[complex], dict[int, np.ndarray]]

    @classmethod
    def diagonal(cls, dim: int, step: complex, entries: Callable, k: int = 0) -> "ShiftOp":
        """The operator with the list entries(lambda) on the diagonal of its block k."""
        return cls(dim, step, lambda lam: {k: np.diag(np.array(entries(lam), dtype=complex))})

    def apply(self, f: Callable[[complex], np.ndarray], lam: complex) -> np.ndarray:
        out = np.zeros(self.dim, dtype=complex)
        for k, m in self.blocks(lam).items():
            out += m @ np.asarray(f(lam + k * self.step))
        return out

    def compose(self, other: "ShiftOp") -> "ShiftOp":
        """self after other, with the lambda-argument of other shifted by self's k."""
        if self.dim != other.dim:
            raise ValueError("grid dimension mismatch")
        step = self.step

        def blocks(lam):
            out: dict[int, np.ndarray] = {}
            for k1, a in self.blocks(lam).items():
                for k2, b in other.blocks(lam + k1 * step).items():
                    _accumulate(out, k1 + k2, a @ b)
            return out

        return ShiftOp(self.dim, step, blocks)

    def __add__(self, other: "ShiftOp") -> "ShiftOp":
        def blocks(lam):
            out = dict(self.blocks(lam))
            for k, m in other.blocks(lam).items():
                _accumulate(out, k, m)
            return out

        return ShiftOp(self.dim, self.step, blocks)


def _accumulate(out: dict[int, np.ndarray], k: int, m: np.ndarray) -> None:
    """out[k] += m without writing into an array that out may share."""
    out[k] = out[k] + m if k in out else m


def _offset_pairs(a: ShiftOp, b: ShiftOp, lam_samples: Sequence[complex]):
    """(A_k, B_k) for each offset k of a or b at each lambda; a missing block reads 0."""
    zero = np.zeros((a.dim, a.dim))
    for lam in lam_samples:
        ma, mb = a.blocks(lam), b.blocks(lam)
        for k in set(ma) | set(mb):
            yield ma.get(k, zero), mb.get(k, zero)


# ---------------------------------------------------------------------------
# The operator quadruple


def _hop_factors(ev: ThetaEvaluator, params: ModelParams, xs, i: int, z: complex, sign: int):
    """The lambda-independent factors of a hop of site i onto the x-values xs.

    They are prod_{j != i} theta(z + x_j)/theta(x_i - x_j) and Delta_+(-x_i)
    (sign = +1) or Delta_-(-x_i) (sign = -1).
    """
    off = 1.0 + 0j
    for j in range(len(xs)):
        if j != i:
            off *= ev.theta(z + xs[j]) / ev.theta(xs[i] - xs[j])
    delta = 1.0 + 0j
    for zk, lk in zip(params.zs, params.lams):
        delta *= ev.theta(-xs[i] - zk - sign * lk * params.eta)
    return off, delta


def det_scalar(params: ModelParams, z: complex) -> complex:
    """The central quantum determinant: a scalar function of z."""
    ev = params.evaluator()
    out = 1.0 + 0j
    for zi, li in zip(params.zs, params.lams):
        out *= ev.theta(z - zi - li * params.eta) * ev.theta(z - zi + li * params.eta + 2 * params.eta)
    return out


@dataclasses.dataclass(frozen=True)
class OperatorQuadruple:
    """a, b, c, d as ShiftOp-valued functions of z."""

    grid: S0Grid
    a: Callable[[complex], ShiftOp]
    b: Callable[[complex], ShiftOp]
    c: Callable[[complex], ShiftOp]
    d: Callable[[complex], ShiftOp]


def build_quadruple(params: ModelParams) -> OperatorQuadruple:
    """Assemble the operator quadruple on the S0 grid.

    a is diagonal with a lambda step of -2 eta.  b and c move one grid
    index by one step and shift lambda the opposite way; their boundary
    terms vanish through the Delta factors, so off-grid reads never
    appear.  d is solved from
        a(z + 2 eta) d(z) - c(z + 2 eta) b(z) = theta(lambda - 2 eta h)/theta(lambda) Det(z)
    by composing with the inverse of the diagonal operator a(z + 2 eta).
    Each operator computes its lambda-independent theta factors when it
    is built; its blocks evaluate only the thetas that depend on lambda.
    """
    params.validate_distinct_sites()
    ev = params.evaluator()
    eta = params.eta
    grid = S0Grid(params)
    n = len(params.zs)
    step = 2 * eta
    top = eta * sum(params.lams)

    def a_op(z: complex) -> ShiftOp:
        sites = [np.prod([ev.theta(z + x) for x in xs]) for xs in grid.xs]
        shifts = [eta * h for h in grid.weights]

        def entries(lam):
            th_lam = ev.theta(lam)
            return [p * ev.theta(lam - sh + top) / th_lam for p, sh in zip(sites, shifts)]

        return ShiftOp.diagonal(grid.dim, step, entries, k=-1)

    def hop_op(z: complex, dm: int, argument) -> ShiftOp:
        """Move one m_i by dm with lambda offset -dm: b for dm = -1, c for dm = +1.

        Off-grid sources are dropped: their coefficient carries Delta_+(-x_i),
        zero at m_i = 0, for b and Delta_-(-x_i), zero at m_i = Lambda_i, for c.
        argument(lam, t, x_i) is the hop's lambda-dependent theta argument.
        """
        hops = [
            (t, src, xs[i], *_hop_factors(ev, params, xs, i, z, -dm))
            for t, xs in enumerate(grid.xs)
            for i in range(n)
            if (src := grid.shifted(t, i, dm)) is not None
        ]

        def blocks(lam):
            th_lam = ev.theta(lam)
            m = np.zeros((grid.dim, grid.dim), dtype=complex)
            for t, src, x, off, delta in hops:
                m[t, src] = -ev.theta(argument(lam, t, x)) / th_lam * off * delta
            return {-dm: m}

        return ShiftOp(grid.dim, step, blocks)

    def b_op(z: complex) -> ShiftOp:
        return hop_op(z, -1, lambda lam, t, x: lam + z + x)

    def c_op(z: complex) -> ShiftOp:
        # 2 s at each target, s = sum_j (x_j + z_j)
        two_s = [2 * complex(np.sum(xs + np.asarray(params.zs))) for xs in grid.xs]
        return hop_op(z, +1, lambda lam, t, x: -lam + z + x - two_s[t])

    def d_op(z: complex) -> ShiftOp:
        det_z = det_scalar(params, z)

        def weight_entries(lam):
            th_lam = ev.theta(lam)
            return [ev.theta(lam - step * h) / th_lam * det_z for h in grid.weights]

        inner = ShiftOp.diagonal(grid.dim, step, weight_entries) + c_op(z + step).compose(b_op(z))
        # a(z + 2 eta) has offset -1, so its inverse reads it at lambda + 2 eta
        a_next = a_op(z + step)
        a_inverse = ShiftOp.diagonal(
            grid.dim, step, lambda lam: 1.0 / np.diag(a_next.blocks(lam + step)[-1]), k=1)
        return a_inverse.compose(inner)

    return OperatorQuadruple(grid=grid, a=a_op, b=b_op, c=c_op, d=d_op)


# ---------------------------------------------------------------------------
# Highest weight


def highest_weight_check(
    params: ModelParams,
    z_samples: Sequence[complex],
    lam_samples: Sequence[complex],
) -> dict:
    """Eigenvalue data of the delta function at m = 0 against the closed forms."""
    ev = params.evaluator()
    quad = build_quadruple(params)
    grid = quad.grid
    hw = 0  # the highest-weight point m = 0
    vhw = np.zeros(grid.dim, dtype=complex)
    vhw[hw] = 1.0

    def f(lam):
        return vhw

    eta = params.eta
    lam_tot = sum(params.lams)

    report = {
        "weight": int(grid.weights[hw]),
        "weight_expected": int(lam_tot),
        "c_residual": 0.0,
        "a_residual": 0.0,
        "d_residual": 0.0,
        "pair_residual": 0.0,
    }
    for z in z_samples:
        a_expected = np.prod([ev.theta(z - zi - li * eta) for zi, li in zip(params.zs, params.lams)])
        d_prod = np.prod([ev.theta(z - zi + li * eta) for zi, li in zip(params.zs, params.lams)])
        kappa = 1.0 / a_expected
        for lam in lam_samples:
            cv = quad.c(z).apply(f, lam)
            report["c_residual"] = max(report["c_residual"], float(np.max(np.abs(cv))))

            av = quad.a(z).apply(f, lam)
            off = av.copy()
            off[hw] = 0.0
            res_a = max(float(np.max(np.abs(off))), abs(av[hw] - a_expected))
            report["a_residual"] = max(report["a_residual"], res_a / max(1.0, abs(a_expected)))

            d_expected = ev.theta(lam - 2 * eta * lam_tot) / ev.theta(lam) * d_prod
            dv = quad.d(z).apply(f, lam)
            off = dv.copy()
            off[hw] = 0.0
            res_d = max(float(np.max(np.abs(off))), abs(dv[hw] - d_expected))
            report["d_residual"] = max(report["d_residual"], res_d / max(1.0, abs(d_expected)))

            # after the kappa normalization the pair of eigenvalues is (1, D-bar)
            dbar = ev.theta(lam - 2 * eta * lam_tot) / ev.theta(lam) * d_prod / a_expected
            pair_res = max(abs(kappa * av[hw] - 1.0), abs(kappa * dv[hw] - dbar))
            report["pair_residual"] = max(report["pair_residual"], pair_res / max(1.0, abs(dbar)))
    return report


# ---------------------------------------------------------------------------
# RLL relations in the operator algebra


def _l_hat(quad: OperatorQuadruple, z: complex, factor: int) -> ShiftOp:
    """Embed the 2x2 operator matrix [[a,b],[c,d]](z) at V-factor 0 or 1."""
    ops = [[quad.a(z), quad.b(z)], [quad.c(z), quad.d(z)]]
    dim = quad.grid.dim
    # entry (row, col) keeps the other factor's index j: it fills the grid-sized
    # blocks (2 row + j, 2 col + j) at factor 0 and (2 j + row, 2 j + col) at factor 1
    places = [
        [(2 * row + j, 2 * col + j) if factor == 0 else (2 * j + row, 2 * j + col) for j in (0, 1)]
        for row in (0, 1) for col in (0, 1)
    ]

    def blocks(lam):
        out: dict[int, np.ndarray] = {}
        for op, pairs in zip((op for row in ops for op in row), places):
            for k, m in op.blocks(lam).items():
                full = out.setdefault(k, np.zeros((4 * dim, 4 * dim), dtype=complex))
                for a, b in pairs:
                    full[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim] = m
        return out

    return ShiftOp(4 * dim, ops[0][0].step, blocks)


def _mult_r(
    params: ModelParams, grid: S0Grid, u: complex, mode: str
) -> ShiftOp:
    """Multiplication by R(u, lambda - 2 eta h_W) or R(u, lambda + 2 eta (h_V1 + h_V2))."""
    ev = params.evaluator()
    eta = params.eta
    n = grid.dim
    # the (V x V column, grid point) pairs that read R at each lambda shift
    by_shift: dict[complex, list[tuple[int, int]]] = {}
    for colpair in range(4):
        for g in range(n):
            if mode == "w_shift":
                shift = -2 * eta * grid.weights[g]
            else:
                mu = (1 - 2 * (colpair // 2)) + (1 - 2 * (colpair % 2))
                shift = 2 * eta * mu
            by_shift.setdefault(shift, []).append((colpair, g))
    rows = np.arange(4) * n

    def blocks(lam):
        m = np.zeros((4 * n, 4 * n), dtype=complex)
        for shift, cells in by_shift.items():
            r = _r_matrix_raw(ev, eta, u, lam + shift)
            for colpair, g in cells:
                m[rows + g, colpair * n + g] = r[:, colpair]
        return {0: m}

    return ShiftOp(4 * n, 2 * eta, blocks)


def rll_residual(
    params: ModelParams,
    z: complex,
    w: complex,
    lam_samples: Sequence[complex],
) -> dict:
    """Residuals of the sixteen exchange relations, evaluated in the shift algebra.

    Both sides act on V x V valued functions on the grid: the left side
    multiplies by R(z - w, .) with the lambda argument retarded by the
    grid weight, the right side with it advanced by the V x V weight.
    """
    quad = build_quadruple(params)
    grid = quad.grid
    n = grid.dim
    # each side reads the same two operators, whose factors are computed once
    l_z, l_w = _l_hat(quad, z, 0), _l_hat(quad, w, 1)
    lhs = _mult_r(params, grid, z - w, "w_shift").compose(l_z.compose(l_w))
    rhs = l_w.compose(l_z).compose(_mult_r(params, grid, z - w, "vv_shift"))
    blocks = np.zeros((4, 4))
    scale = 1.0
    for da, db in _offset_pairs(lhs, rhs, lam_samples):
        scale = max(scale, float(np.max(np.abs(db))))
        # the worst entry of each (V x V row, V x V column) block of the difference
        blocks = np.maximum(blocks, np.abs(da - db).reshape(4, n, 4, n).max(axis=(1, 3)))
    return {
        "max_residual": float(np.max(blocks)) / scale,
        "block_residuals": (blocks / scale).tolist(),
        "scale": scale,
    }


# quadrature points on each residue circle of residue_sum.  The circle's
# radius is at most 0.3 of the distance to the nearest other pole modulo
# the lattice, so the trapezoid rule's error falls like 0.3^N: 32 points
# already agree with 512 to 1e-14, and 64 leave a wide margin.
_RESIDUE_POINTS = 64


def residue_sum(params: ModelParams, grid_index: int, i: int) -> complex:
    """Contour sum of the residues of the elliptic auxiliary function.

    The function has poles only at v = -x_j and v = -x_j - 2 eta; being
    doubly periodic its residues over one cell must cancel.  Each residue
    is extracted by quadrature on a small circle, so double poles are
    handled without special cases.
    """
    ev = params.evaluator()
    eta = params.eta
    grid = S0Grid(params)
    xs = grid.xs[grid_index]
    s = complex(np.sum(xs + np.asarray(params.zs)))

    def f(v: complex) -> complex:
        out = ev.theta(2 * s + xs[i] + v + 2 * eta) / ev.theta(v + xs[i] + 2 * eta)
        for zl, ll, xl in zip(params.zs, params.lams, xs):
            out *= ev.theta(v - zl - ll * eta) * ev.theta(v - zl + ll * eta + 2 * eta)
            out /= ev.theta(v + xl) * ev.theta(v + xl + 2 * eta)
        return out

    poles = [-x for x in xs] + [-x - 2 * eta for x in xs]
    # the poles need only be apart modulo the lattice: a closer translate
    # of another pole inside the circle would add its residue
    sep = min(
        params.lattice.dist_to_lattice(p - q) for a, p in enumerate(poles) for q in poles[a + 1:]
    )
    radius = min(0.1, 0.3 * sep)
    total = 0.0 + 0j
    ts = np.exp(2j * np.pi * np.arange(_RESIDUE_POINTS) / _RESIDUE_POINTS)
    for p in poles:
        vals = np.array([f(p + radius * t) for t in ts])
        total += np.sum(vals * radius * ts) / _RESIDUE_POINTS
    return total
