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
from typing import Callable, Sequence

import numpy as np

from .params import ModelParams, ParameterError
from .theta import ThetaEvaluator

# ---------------------------------------------------------------------------
# R-matrix


def _r_matrix_raw(ev: ThetaEvaluator, eta: complex, z: complex, lam: complex) -> np.ndarray:
    # basis order e[1]e[1], e[1]e[-1], e[-1]e[1], e[-1]e[-1]; row 1 reads
    # lambda and row 2 -lambda, and each of the 9 theta arguments is evaluated once
    th_z, th_shift, th_2eta = ev.theta(z), ev.theta(z - 2 * eta), ev.theta(2 * eta)
    r = np.zeros((4, 4), dtype=complex)
    r[0, 0] = 1.0
    r[3, 3] = 1.0
    for row, col, lam_s in ((1, 2, lam), (2, 1, -lam)):
        th_lam = ev.theta(lam_s)
        r[row, row] = ev.theta(lam_s + 2 * eta) * th_z / (th_lam * th_shift)
        r[row, col] = -ev.theta(lam_s + z) * th_2eta / (th_lam * th_shift)
    return r


def r_matrix(params: ModelParams, z: complex, lam: complex) -> np.ndarray:
    """The 4x4 dynamical R-matrix R(z, lambda) for step 2 eta."""
    lat = params.lattice
    if lat.dist_to_lattice(lam) < params.rho:
        raise ParameterError("dynamical parameter lambda is within rho of a lattice point")
    if lat.dist_to_lattice(z - 2 * params.eta) < params.rho:
        raise ParameterError("spectral parameter z is within rho of 2 eta mod the lattice")
    return _r_matrix_raw(params.evaluator(), params.eta, z, lam)


def k_matrix() -> np.ndarray:
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def ktwist_residual(params: ModelParams, z: complex, lam: complex) -> float:
    """|(K x K) R(z, lambda) - R(z, -lambda) (K x K)| for the spin flip K."""
    kk = np.kron(k_matrix(), k_matrix())
    lhs = kk @ r_matrix(params, z, lam)
    rhs = r_matrix(params, z, -lam) @ kk
    return float(np.max(np.abs(lhs - rhs)))


def _r_on_three(
    ev: ThetaEvaluator,
    eta: complex,
    u: complex,
    lam: complex,
    pos: tuple[int, int],
    dyn: int | None,
) -> np.ndarray:
    """Embed R(u, lambda - 2 eta h^(dyn)) into End(V x V x V) acting at pos."""
    pair_index = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    p, q = pos
    # lambda_eff depends on the basis vector only through its dyn component
    if dyn is None:
        rs = [_r_matrix_raw(ev, eta, u, lam)]
    else:
        rs = [_r_matrix_raw(ev, eta, u, lam - 2 * eta * (1 - 2 * s)) for s in (0, 1)]
    out = np.zeros((8, 8), dtype=complex)
    for src in itertools.product((0, 1), repeat=3):
        r = rs[0 if dyn is None else src[dyn]]
        col = pair_index[(src[p], src[q])]
        for row in range(4):
            if r[row, col] == 0:
                continue
            dst = list(src)
            dst[p], dst[q] = divmod(row, 2)
            out[int(np.ravel_multi_index(dst, (2, 2, 2))),
                int(np.ravel_multi_index(src, (2, 2, 2)))] += r[row, col]
    return out


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
    Lambda_i = 1, the order of both IRF state sets.  weights holds the
    sl2 weight sum_i (Lambda_i - 2 m_i) of each point.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self.points = list(itertools.product(*(range(l + 1) for l in params.lams)))
        self._index = {m: i for i, m in enumerate(self.points)}
        steps = np.asarray(params.lams) - 2 * np.array(self.points)
        self.weights = steps.sum(axis=1)
        self.xs = -np.asarray(params.zs) - params.eta * steps

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def hw_index(self) -> int:
        return self._index[(0,) * len(self.params.lams)]

    def shifted(self, idx: int, i: int, dm: int) -> int | None:
        """Index of the grid point with m_i changed by dm, None if off the grid."""
        m = list(self.points[idx])
        m[i] += dm
        return self._index.get(tuple(m))


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
    def zero(cls, dim: int, step: complex) -> "ShiftOp":
        return cls(dim, step, lambda lam: {})

    @classmethod
    def diagonal(cls, dim: int, step: complex, fn: Callable[[complex, int], complex],
                 k: int = 0) -> "ShiftOp":
        return cls(dim, step, lambda lam: {
            k: np.diag(np.array([fn(lam, i) for i in range(dim)], dtype=complex))
        })

    def apply(self, f: Callable[[complex], np.ndarray], lam: complex) -> np.ndarray:
        out = np.zeros(self.dim, dtype=complex)
        for k, m in self.blocks(lam).items():
            out += m @ np.asarray(f(lam + k * self.step))
        return out

    def matrices(self, lam: complex) -> dict[int, np.ndarray]:
        return self.blocks(lam)

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

    def scaled(self, g) -> "ShiftOp":
        """Left multiplication by a scalar or by a function of lambda."""
        fn = g if callable(g) else (lambda lam: g)

        def blocks(lam):
            s = fn(lam)
            return {k: s * m for k, m in self.blocks(lam).items()}

        return ShiftOp(self.dim, self.step, blocks)

    def __sub__(self, other: "ShiftOp") -> "ShiftOp":
        return self + other.scaled(-1.0)


def _accumulate(out: dict[int, np.ndarray], k: int, m: np.ndarray) -> None:
    """out[k] += m without writing into an array that out may share."""
    out[k] = out[k] + m if k in out else m


def shift_residual(a: ShiftOp, b: ShiftOp, lam_samples: Sequence[complex]) -> float:
    """Max entrywise deviation between two shift operators at sampled lambda."""
    worst = 0.0
    for lam in lam_samples:
        ma, mb = a.matrices(lam), b.matrices(lam)
        for k in set(ma) | set(mb):
            da = ma.get(k, np.zeros((a.dim, a.dim)))
            db = mb.get(k, np.zeros((a.dim, a.dim)))
            worst = max(worst, float(np.max(np.abs(da - db))))
    return worst


# ---------------------------------------------------------------------------
# The operator quadruple


def _delta(ev: ThetaEvaluator, params: ModelParams, x: complex, sign: int) -> complex:
    """Delta_+ (sign=+1) or Delta_- (sign=-1) evaluated at z = x."""
    out = 1.0 + 0j
    for zi, li in zip(params.zs, params.lams):
        out *= ev.theta(x - zi - sign * li * params.eta)
    return out


def _offdiag_product(ev: ThetaEvaluator, xs: np.ndarray, i: int, z: complex) -> complex:
    out = 1.0 + 0j
    for j in range(len(xs)):
        if j != i:
            out *= ev.theta(z + xs[j]) / ev.theta(xs[i] - xs[j])
    return out


def _a_coefficient(ev, params, grid, z, lam, idx) -> complex:
    xs = grid.xs[idx]
    pref = np.prod([ev.theta(z + x) for x in xs])
    arg = lam - params.eta * grid.weights[idx] + params.eta * sum(params.lams)
    return pref * ev.theta(arg) / ev.theta(lam)


def _b_coefficient(ev, params, grid, z, lam, idx, i, sign=1) -> complex:
    xs = grid.xs[idx]
    val = -ev.theta(lam + z + xs[i]) / ev.theta(lam)
    val *= _offdiag_product(ev, xs, i, z)
    return val * _delta(ev, params, -xs[i], sign)


def _c_coefficient(ev, params, grid, z, lam, idx, i, sign=-1) -> complex:
    xs = grid.xs[idx]
    s = complex(np.sum(xs + np.asarray(params.zs)))
    val = -ev.theta(-lam + z + xs[i] - 2 * s) / ev.theta(lam)
    val *= _offdiag_product(ev, xs, i, z)
    return val * _delta(ev, params, -xs[i], sign)


def det_scalar(params: ModelParams, z: complex) -> complex:
    """The central quantum determinant: a scalar function of z."""
    ev = params.evaluator()
    out = 1.0 + 0j
    for zi, li in zip(params.zs, params.lams):
        out *= ev.theta(z - zi - li * params.eta) * ev.theta(z - zi + li * params.eta + 2 * params.eta)
    return out


@dataclasses.dataclass(frozen=True)
class OperatorQuadruple:
    """a, b, c, d as ShiftOp-valued functions of z, plus the scalar determinant."""

    grid: S0Grid
    a: Callable[[complex], ShiftOp]
    b: Callable[[complex], ShiftOp]
    c: Callable[[complex], ShiftOp]
    d: Callable[[complex], ShiftOp]
    det: Callable[[complex], complex]


def build_quadruple(params: ModelParams) -> OperatorQuadruple:
    """Assemble the operator quadruple on the S0 grid.

    a is diagonal with a lambda step of -2 eta.  b and c move one grid
    index by one step and shift lambda the opposite way; their boundary
    terms vanish through the Delta factors, so off-grid reads never
    appear.  d is solved from
        a(z + 2 eta) d(z) - c(z + 2 eta) b(z) = theta(lambda - 2 eta h)/theta(lambda) Det(z)
    by composing with the inverse of the diagonal operator a(z + 2 eta).
    """
    params.validate_distinct_sites()
    ev = params.evaluator()
    eta = params.eta
    grid = S0Grid(params)
    n = len(params.zs)
    step = 2 * eta

    def a_op(z: complex) -> ShiftOp:
        return ShiftOp.diagonal(
            grid.dim, step,
            lambda lam, idx: _a_coefficient(ev, params, grid, z, lam, idx),
            k=-1,
        )

    def hop_op(z: complex, dm: int, coefficient) -> ShiftOp:
        """Move one m_i by dm with lambda offset -dm: b for dm = -1, c for dm = +1.

        Off-grid sources are dropped: their coefficient carries Delta_+(-x_i),
        zero at m_i = 0, for b and Delta_-(-x_i), zero at m_i = Lambda_i, for c.
        """
        hops = [
            (idx, src, i)
            for idx in range(grid.dim)
            for i in range(n)
            if (src := grid.shifted(idx, i, dm)) is not None
        ]

        def blocks(lam):
            m = np.zeros((grid.dim, grid.dim), dtype=complex)
            for t, s, i in hops:
                m[t, s] = coefficient(ev, params, grid, z, lam, t, i)
            return {-dm: m}

        return ShiftOp(grid.dim, step, blocks)

    def b_op(z: complex) -> ShiftOp:
        return hop_op(z, -1, _b_coefficient)

    def c_op(z: complex) -> ShiftOp:
        return hop_op(z, +1, _c_coefficient)

    def a_inverse(z: complex) -> ShiftOp:
        return ShiftOp.diagonal(
            grid.dim, step,
            lambda lam, idx: 1.0 / _a_coefficient(ev, params, grid, z, lam + step, idx),
            k=+1,
        )

    def d_op(z: complex) -> ShiftOp:
        det_z = det_scalar(params, z)
        diag = ShiftOp.diagonal(
            grid.dim, step,
            lambda lam, idx: ev.theta(lam - 2 * eta * grid.weights[idx]) / ev.theta(lam) * det_z,
        )
        inner = diag + c_op(z + 2 * eta).compose(b_op(z))
        return a_inverse(z + 2 * eta).compose(inner)

    return OperatorQuadruple(grid=grid, a=a_op, b=b_op, c=c_op, d=d_op,
                             det=lambda z: det_scalar(params, z))


def restriction_closure(params: ModelParams, z: complex, lam: complex) -> dict:
    """Magnitude of the would-be boundary coefficients of b and c.

    For each operator and each Delta sign, reports the largest coefficient
    that an off-grid read would carry.  The sign under which an operator
    closes is the one with magnitude zero; the text naming the signs has
    them crossed for b, so this is recorded rather than assumed.
    """
    ev = params.evaluator()
    grid = S0Grid(params)
    n = len(params.zs)
    report: dict[str, dict[str, float]] = {"b": {}, "c": {}}
    for sign, tag in ((+1, "delta_plus"), (-1, "delta_minus")):
        worst_b = 0.0
        worst_c = 0.0
        for idx, m in enumerate(grid.points):
            for i in range(n):
                if m[i] == 0:  # b would read m_i = -1 here
                    worst_b = max(
                        worst_b, abs(_b_coefficient(ev, params, grid, z, lam, idx, i, sign))
                    )
                if m[i] == params.lams[i]:  # c would read m_i = Lambda_i + 1 here
                    worst_c = max(
                        worst_c, abs(_c_coefficient(ev, params, grid, z, lam, idx, i, sign))
                    )
        report["b"][tag] = worst_b
        report["c"][tag] = worst_c
    report["b_closes_with"] = "delta_plus" if report["b"]["delta_plus"] <= report["b"]["delta_minus"] else "delta_minus"
    report["c_closes_with"] = "delta_minus" if report["c"]["delta_minus"] <= report["c"]["delta_plus"] else "delta_plus"
    return report


# ---------------------------------------------------------------------------
# Highest weight and centrality


def highest_weight_check(
    params: ModelParams,
    z_samples: Sequence[complex],
    lam_samples: Sequence[complex],
) -> dict:
    """Eigenvalue data of the delta function at m = 0 against the closed forms."""
    ev = params.evaluator()
    quad = build_quadruple(params)
    grid = quad.grid
    hw = grid.hw_index
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


def central_element_residual(
    params: ModelParams,
    z: complex,
    w: complex,
    lam_samples: Sequence[complex],
) -> dict:
    """The determinant combination is the scalar Det(z), hence commutes with a, b, c."""
    ev = params.evaluator()
    quad = build_quadruple(params)
    grid = quad.grid
    eta = params.eta
    combo = quad.a(z + 2 * eta).compose(quad.d(z)) - quad.c(z + 2 * eta).compose(quad.b(z))
    # undo the weight-dependent prefactor per target grid point
    central = ShiftOp.diagonal(
        grid.dim, combo.step,
        lambda lam, t: ev.theta(lam) / ev.theta(lam - 2 * eta * grid.weights[t]),
    ).compose(combo)
    det_z = det_scalar(params, z)
    scalar = ShiftOp.diagonal(grid.dim, combo.step, lambda lam, idx: det_z)
    out = {"scalar_residual": shift_residual(central, scalar, lam_samples) / max(1.0, abs(det_z))}
    for name, op in (("a", quad.a(w)), ("b", quad.b(w)), ("c", quad.c(w))):
        comm = central.compose(op) - op.compose(central)
        scale = max(1.0, shift_residual(op.compose(scalar), ShiftOp.zero(grid.dim, op.step), lam_samples))
        out[f"commutator_{name}"] = shift_residual(
            comm, ShiftOp.zero(grid.dim, op.step), lam_samples
        ) / scale
    return out


# ---------------------------------------------------------------------------
# RLL relations in the operator algebra


def _l_hat(quad: OperatorQuadruple, z: complex, factor: int) -> ShiftOp:
    """Embed the 2x2 operator matrix [[a,b],[c,d]](z) at V-factor 0 or 1."""
    ops = [[quad.a(z), quad.b(z)], [quad.c(z), quad.d(z)]]
    units = []
    for row in (0, 1):
        for col in (0, 1):
            unit = np.zeros((2, 2))
            unit[row, col] = 1.0
            aux = np.kron(unit, np.eye(2)) if factor == 0 else np.kron(np.eye(2), unit)
            units.append((aux, ops[row][col]))

    def blocks(lam):
        out: dict[int, np.ndarray] = {}
        for aux, op in units:
            for k, m in op.blocks(lam).items():
                _accumulate(out, k, np.kron(aux, m))
        return out

    return ShiftOp(4 * quad.grid.dim, ops[0][0].step, blocks)


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
    lhs = _mult_r(params, grid, z - w, "w_shift").compose(
        _l_hat(quad, z, 0).compose(_l_hat(quad, w, 1))
    )
    rhs = _l_hat(quad, w, 1).compose(_l_hat(quad, z, 0)).compose(
        _mult_r(params, grid, z - w, "vv_shift")
    )
    blocks = np.zeros((4, 4))
    scale = 1.0
    for lam in lam_samples:
        ml, mr = lhs.matrices(lam), rhs.matrices(lam)
        for k in set(ml) | set(mr):
            da = ml.get(k, np.zeros((4 * n, 4 * n)))
            db = mr.get(k, np.zeros((4 * n, 4 * n)))
            scale = max(scale, float(np.max(np.abs(db))))
            diff = np.abs(da - db)
            for rp in range(4):
                for cp in range(4):
                    sub = diff[rp * n:(rp + 1) * n, cp * n:(cp + 1) * n]
                    blocks[rp, cp] = max(blocks[rp, cp], float(np.max(sub)))
    return {
        "max_residual": float(np.max(blocks)) / scale,
        "block_residuals": (blocks / scale).tolist(),
        "scale": scale,
    }


def ab_exchange_residual(
    params: ModelParams, z: complex, w: complex, lam_samples: Sequence[complex]
) -> float:
    """The displayed a-b exchange relation, checked directly."""
    ev = params.evaluator()
    eta = params.eta
    quad = build_quadruple(params)
    lhs = quad.a(z).compose(quad.b(w))

    def c1(lam):
        return ev.theta(z - w) * ev.theta(lam + 2 * eta) / (
            ev.theta(z - w - 2 * eta) * ev.theta(lam)
        )

    def c2(lam):
        return ev.theta(z - w - lam) * ev.theta(2 * eta) / (
            ev.theta(z - w - 2 * eta) * ev.theta(lam)
        )

    rhs = quad.b(w).compose(quad.a(z)).scaled(c1) + quad.a(w).compose(quad.b(z)).scaled(c2)
    scale = max(
        1.0, shift_residual(lhs, ShiftOp.zero(lhs.dim, lhs.step), lam_samples)
    )
    return shift_residual(lhs, rhs, lam_samples) / scale


# quadrature points on each residue circle of residue_sum
_RESIDUE_POINTS = 512


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
