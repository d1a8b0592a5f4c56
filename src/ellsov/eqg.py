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
import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .params import ModelParams, ParameterError
from .spaces import EllipticPoly, eval_elliptic_polys
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
    # the 9 theta arguments in one call: z, z - 2 eta, 2 eta, then l, l + 2 eta, l + z for l = +/-lambda
    th = ev.theta_values([z, z - 2 * eta, 2 * eta] + [x for l in (lam, -lam) for x in (l, l + 2 * eta, l + z)])
    r = np.zeros((4, 4), dtype=complex)
    _r_fill(r, *th[:3], (th[3:6], th[6:]))
    return r


def r_matrix(params: ModelParams, z: complex, lam: complex) -> np.ndarray:
    """The 4x4 dynamical R-matrix R(z, lambda) for step 2 eta."""
    if params.lattice.dist_to_lattice(lam) < params.rho:
        raise ParameterError("dynamical parameter lambda is within rho of a lattice point")
    if params.lattice.dist_to_lattice(z - 2 * params.eta) < params.rho:
        raise ParameterError("spectral parameter z is within rho of 2 eta mod the lattice")
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


@dataclasses.dataclass(frozen=True)
class _HopTable:
    """b(z) and c(z) apart from their z- and lambda-dependent thetas, once per model.

    Direction d = 0 is b, which reads each target at m_i - 1, d = 1 is c,
    which reads it at m_i + 1.  hops[d] has the rows target, source, site i
    and head slot, and slots[d] holds each head slot's (lambda_w,
    theta(lambda_w), x_i), lambda_w = eta w at the target's weight w.  spectral
    holds the (z_j, (Lambda_j - 2 m_j) eta) of each site value x_j(m_j) =
    -z_j - eta (Lambda_j - 2 m_j), cross the (spectral index of x_j,
    theta(x_i - x_j)) of each pair of values at two sites, and coefs
    A_plus(x_i) at m_i = 1..Lambda_i site by site, then A_minus(x_i) at
    m_i = 0..Lambda_i - 1.  factors[d] indexes each hop's n - 1 cross
    quotients (j != i ascending), then its coefficient, in the cross
    quotients followed by coefs.  bits holds the grid points m.  A hop
    flips the parity of sum m, so b + c is two parity blocks, rows of the
    even targets and of the odd ones; blocks[p] holds, as intp, the
    positions of those hops in the entries of both directions and their
    flat index in block p, a point being row or column k of its block
    when it is the k-th of its parity.
    """

    hops: tuple[np.ndarray, np.ndarray]
    slots: tuple[tuple[tuple[complex, complex, complex], ...], ...]
    spectral: tuple[tuple[complex, complex], ...]
    cross: tuple[tuple[int, complex], ...]
    coefs: tuple[complex, ...]
    factors: tuple[np.ndarray, np.ndarray]
    bits: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


# one model: a process runs one CLI task, and a benchmark pass its models one after another
@functools.lru_cache(maxsize=1)  # (n + 4) n 2^n int32 and 2 n 2^n intp indices at weight 1
def _hop_table(params: ModelParams) -> _HopTable:
    """The hop table of any weights, read-only, for a model its caller has validated
    (build_quadruple: validate_distinct_sites; the IRF callers: validate_for_irf), so a
    failing model keeps no entry.  Each argument is z_k - z_i or -z_i + z_j plus an
    integer times eta, each coefficient a math.prod over k, all from one call."""
    n, eta, zs, lams, ev = params.n, params.eta, params.zs, params.lams, params.evaluator()
    grid = S0Grid(params)
    bits, lams_before = np.array(grid.points), np.cumsum((0,) + lams[:-1])  # sum_{j < i} Lambda_j
    site = np.repeat(np.arange(n), np.array(lams) + 1)  # of each site value, in site order
    steps = [l - 2 * m for l in lams for m in range(l + 1)]
    apart = site[:, None] != site[None, :]
    args = [-zs[site[a]] + zs[site[b]] + (steps[b] - steps[a]) * eta for a, b in zip(*np.nonzero(apart))]
    # A_plus(x_i) = prod_k theta(x_i + z_k + Lambda_k eta) where b hops, A_minus with -Lambda_k where c hops
    coef_sites = [(d, i, m) for d in (0, 1) for i, l in enumerate(lams) for m in range(1 - d, l + 1 - d)]
    args += [zk - zs[i] + ((1 - 2 * d) * lk - lams[i] + 2 * m) * eta
             for d, i, m in coef_sites for zk, lk in zip(zs, lams)]
    weights = sorted(set(grid.weights.tolist()))
    values = iter(ev.theta_values(args + [eta * w for w in weights]))
    cross = tuple((b, next(values)) for b in np.nonzero(apart)[1].tolist())
    coefs = tuple(math.prod(next(values) for _ in zs) for _ in coef_sites)
    dynamical = {w: (eta * w, next(values)) for w in weights}
    # each grid point's site values, each pair's index in cross, and each site's others
    point_values, cross_at = lams_before + np.arange(n) + bits, np.cumsum(apart).reshape(apart.shape) - 1
    others = np.array([[j for j in range(n) if j != i] for i in range(n)], dtype=int)
    hops, slots, factors = [], [], []
    for d, dm in enumerate((-1, 1)):
        target, i = np.nonzero((bits + dm >= 0) & (bits + dm <= lams))
        m = bits[target, i]
        # a head slot is the target's (w, i, m_i)
        keys = list(zip(grid.weights[target].tolist(), i.tolist(), m.tolist()))
        index = {k: s for s, k in enumerate(dict.fromkeys(keys))}
        slot = np.array([index[k] for k in keys])
        slots.append(tuple((*dynamical[w], -zs[j] + (2 * mj - lams[j]) * eta) for w, j, mj in index))
        hops.append(np.stack([target, target + dm * np.array(grid.strides)[i], i, slot]).astype(np.int32))
        cross_k = cross_at[point_values[target, i][:, None], point_values[target[:, None], others[i]]]
        coef = len(cross) + d * sum(lams) + lams_before[i] + m - (1 - d)
        factors.append(np.vstack([cross_k.T, coef]).astype(np.int32))
    parity = bits.sum(axis=1) % 2
    rank = np.where(parity, np.cumsum(parity), np.cumsum(1 - parity)) - 1  # a point's place in its parity
    target, source = np.hstack([h[:2] for h in hops])
    blocks = []
    for p in (0, 1):
        sel = np.flatnonzero(parity[target] == p)
        blocks.append((sel, rank[target[sel]] * np.count_nonzero(parity != p) + rank[source[sel]]))
    for arr in (*hops, *factors, bits, *blocks[0], *blocks[1]):
        arr.setflags(write=False)
    spectral = tuple((zs[j], k * eta) for j, k in zip(site.tolist(), steps))
    return _HopTable(tuple(hops), tuple(slots), spectral, cross, coefs, tuple(factors), bits, tuple(blocks))


def _exact_product(factors) -> np.ndarray:
    """Left-to-right product of complex arrays that broadcast together, each entry
    equal to the scalar product of its factors bit for bit (numpy's complex
    multiply rounds differently); a non-finite entry is the caller's to handle."""
    factors = iter(factors)
    first = next(factors)
    re, im = first.real, first.imag
    for f in factors:  # a generator's own work runs outside the errstate
        with np.errstate(over="ignore", invalid="ignore"):
            re, im = re * f.real - im * f.imag, re * f.imag + im * f.real
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _hop_entries(table: _HopTable, spectral: Sequence[complex], heads: dict[int, list[complex]]) -> np.ndarray:
    """The entries of table.hops[d] for each direction d of heads, one direction after the other:
    head quotient * prod_{j != i} theta(zdisp - x_j)/theta(x_i - x_j) * coefficient, in this order, through
    _exact_product on Python-scalar quotients.  spectral holds theta(zdisp + z_j + shift) over
    table.spectral, heads[d] the quotient of each of table.slots[d]."""
    values = np.array([spectral[k] / th for k, th in table.cross] + list(table.coefs))
    first = np.concatenate([np.array(h, dtype=complex)[table.hops[d][3]] for d, h in heads.items()])
    # numpy converts int32 indices chunk by chunk as it gathers; one astype is cheaper
    index = np.hstack([table.factors[d] for d in heads]).astype(np.intp)
    return _exact_product(itertools.chain([first], values[index]))


def _shift_polys(params: ModelParams) -> tuple[EllipticPoly, EllipticPoly]:
    """The hop coefficients as functions of x: A_plus, A_minus = prod_k theta(x + z_k +/- eta Lambda_k)."""
    plus = tuple(-zk - params.eta * lk for zk, lk in zip(params.zs, params.lams))
    minus = tuple(-zk + params.eta * lk for zk, lk in zip(params.zs, params.lams))
    return EllipticPoly(0.0, plus), EllipticPoly(0.0, minus)


def det_scalar(params: ModelParams, z: complex) -> complex:
    """The central quantum determinant Det(z) = A_plus(-z) A_minus(-z - 2 eta): one elliptic
    polynomial at -z whose zeros are A_plus's and A_minus's shifted by 2 eta."""
    a_plus, a_minus = _shift_polys(params)
    det = EllipticPoly(0.0, a_plus.zeros + tuple(w + 2 * params.eta for w in a_minus.zeros))
    return complex(eval_elliptic_polys(params.evaluator(), (det,), -z)[0])


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
    index by one step and shift lambda the opposite way (_hop_entries on
    the per-model _hop_table); a hop coefficient vanishes where the source
    would leave the grid, so off-grid reads never appear.  d is solved from
        a(z + 2 eta) d(z) - c(z + 2 eta) b(z) = theta(lambda - 2 eta h)/theta(lambda) Det(z)
    by composing with the inverse of the diagonal operator a(z + 2 eta).
    Each operator computes its lambda-independent theta factors when it
    is built (a(z), b(z) and c(z) share theirs); blocks evaluate the rest.
    """
    params.validate_distinct_sites()
    table = _hop_table(params)
    ev = params.evaluator()
    eta = params.eta
    grid = S0Grid(params)
    step = 2 * eta
    top = eta * sum(params.lams)
    # each grid point's site values as indices into table.spectral (site by site, m_j ascending)
    site_index = (np.cumsum((0,) + tuple(l + 1 for l in params.lams[:-1])) + table.bits).tolist()

    @functools.cache
    def spectral(z: complex) -> list[complex]:
        # theta(-z - x_j) at every site value, shared by a(z), b(z) and c(z), from one call
        return ev.theta_values([-z + zj + shift for zj, shift in table.spectral])

    def a_op(z: complex) -> ShiftOp:
        # prod_j theta(z + x_j) = (-1)^n prod_j theta(-z - x_j), theta being odd
        th = spectral(z)
        sites = [math.prod((th[k] for k in row), start=(-1.0) ** params.n) for row in site_index]
        shifts = [eta * h for h in grid.weights]

        def entries(lam):
            th_lam, *thetas = ev.theta_values([lam] + [lam - sh + top for sh in shifts])
            return [p * th / th_lam for p, th in zip(sites, thetas)]

        return ShiftOp.diagonal(grid.dim, step, entries, k=-1)

    def hop_op(z: complex, d: int) -> ShiftOp:
        """b(z) for d = 0, c(z) for d = 1.  The head slot of lambda_w and x_i reads
        theta(mu + z + x_i)/theta(lambda), with mu = lambda for b and
        -lambda + 2 lambda_w = -lambda - 2 sum_j (x_j + z_j) at the target for c."""
        def blocks(lam):
            args = [(lam if d == 0 else -lam + 2 * lw) + z + x for lw, _, x in table.slots[d]]
            th_lam, *heads = ev.theta_values([lam] + args)
            m = np.zeros((grid.dim, grid.dim), dtype=complex)
            m[tuple(table.hops[d][:2])] = _hop_entries(table, spectral(z), {d: [th / th_lam for th in heads]})
            return {1 - 2 * d: m}

        return ShiftOp(grid.dim, step, blocks)

    def d_op(z: complex) -> ShiftOp:
        det_z = det_scalar(params, z)

        def weight_entries(lam):
            th_lam, *thetas = ev.theta_values([lam] + [lam - step * h for h in grid.weights])
            return [th / th_lam * det_z for th in thetas]

        inner = ShiftOp.diagonal(grid.dim, step, weight_entries) + hop_op(z + step, 1).compose(hop_op(z, 0))
        # a(z + 2 eta) has offset -1, so its inverse reads it at lambda + 2 eta
        a_next = a_op(z + step)
        a_inverse = ShiftOp.diagonal(
            grid.dim, step, lambda lam: 1.0 / np.diag(a_next.blocks(lam + step)[-1]), k=1)
        return a_inverse.compose(inner)

    return OperatorQuadruple(
        grid=grid, a=a_op, b=functools.partial(hop_op, d=0), c=functools.partial(hop_op, d=1), d=d_op)


# ---------------------------------------------------------------------------
# Highest weight


def highest_weight_check(
    params: ModelParams,
    z_samples: Sequence[complex],
    lam_samples: Sequence[complex],
) -> dict:
    """Eigenvalue data of the delta function at m = 0 against the closed forms."""
    quad = build_quadruple(params)
    grid = quad.grid
    hw = 0  # the highest-weight point m = 0
    vhw = np.zeros(grid.dim, dtype=complex)
    vhw[hw] = 1.0

    def f(lam):
        return vhw

    ev, eta = params.evaluator(), params.eta
    lam_tot = sum(params.lams)
    # the a and d eigenvalues at m = 0 are (-1)^n A_plus(-z) and (-1)^n A_minus(-z), from one call
    # over every z; theta(lambda - 2 eta Lambda) / theta(lambda) at every lambda from one more
    polys = eval_elliptic_polys(ev, _shift_polys(params), -np.asarray(z_samples, dtype=complex))
    a_values, d_values = ((-1.0) ** params.n * polys).tolist()
    thetas = ev.theta_values([x for lam in lam_samples for x in (lam - 2 * eta * lam_tot, lam)])
    ratios = [num / den for num, den in zip(thetas[::2], thetas[1::2])]

    # each residual's values, folded by np.max so that a NaN is kept
    misses = {key: [0.0] for key in ("c_residual", "a_residual", "d_residual", "pair_residual")}
    for z, a_expected, d_prod in zip(z_samples, a_values, d_values):
        kappa = 1.0 / a_expected
        c_op, a_op, d_op = quad.c(z), quad.a(z), quad.d(z)
        for lam, ratio in zip(lam_samples, ratios):
            misses["c_residual"].append(np.max(np.abs(c_op.apply(f, lam))))
            av, dv = a_op.apply(f, lam), d_op.apply(f, lam)
            for key, v, expected in (("a_residual", av, a_expected), ("d_residual", dv, ratio * d_prod)):
                off = v.copy()
                off[hw] = 0.0
                misses[key].append(np.max([np.max(np.abs(off)), abs(v[hw] - expected)]) / max(1.0, abs(expected)))

            # after the kappa normalization the pair of eigenvalues is (1, D-bar)
            dbar = ratio * d_prod / a_expected
            pair_res = np.max([abs(kappa * av[hw] - 1.0), abs(kappa * dv[hw] - dbar)])
            misses["pair_residual"].append(pair_res / max(1.0, abs(dbar)))
    report = {"weight": int(grid.weights[hw]), "weight_expected": int(lam_tot)}
    report.update({key: float(np.max(values)) for key, values in misses.items()})
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

    poles = [-x for x in xs] + [-x - 2 * eta for x in xs]
    # the poles need only be apart modulo the lattice: a closer translate
    # of another pole inside the circle would add its residue
    sep = min(
        params.lattice.dist_to_lattice(p - q) for a, p in enumerate(poles) for q in poles[a + 1:]
    )
    radius = min(0.1, 0.3 * sep)
    total = 0.0 + 0j
    ts = np.exp(2j * np.pi * np.arange(_RESIDUE_POINTS) / _RESIDUE_POINTS)
    # f(v) = theta(v + 2 s + x_i + 2 eta) Det(v) / (theta(v + x_i + 2 eta) prod_p theta(v - p)),
    # with Det(v) = prod_l theta(v - z_l - Lambda_l eta) theta(v - z_l + Lambda_l eta + 2 eta):
    # two elliptic polynomials, at every quadrature point from one call
    det = [w for zl, ll in zip(params.zs, params.lams) for w in (zl + ll * eta, zl - ll * eta - 2 * eta)]
    num, den = (-(2 * s + xs[i] + 2 * eta), *det), (-(xs[i] + 2 * eta), *poles)
    vs = (np.array(poles)[:, None] + radius * ts).ravel()
    top, bottom = eval_elliptic_polys(ev, (EllipticPoly(0.0, num), EllipticPoly(0.0, den)), vs)
    vals = top / bottom
    for pole_vals in vals.reshape(len(poles), _RESIDUE_POINTS):
        total += np.sum(pole_vals * radius * ts) / _RESIDUE_POINTS
    return total
