"""Antiperiodic face-weight transfer matrices and their separated form.

For n sites of weight 1 (n odd) the 2^n states are height paths
a_1, .., a_{n+1} with steps of one and a_{n+1} = -a_1, or equivalently
sign vectors sigma.  The same index also labels the point grid
x_i = -z_i + sigma_i eta, and both bases are enumerated here by the
multi-index m in {0,1}^n of :class:`ellsov.eqg.S0Grid`, with the path
sign 1 - 2 m_i and the grid sign 2 m_i - 1, so that matching indices
carry the same dynamical value lambda = eta (n - 2 sum m).

Two independent matrix constructions are provided: the product of local
face weights over the path basis, and the displayed one-flip difference
operator on the grid.  They generate the same commuting family but are
not equal entrywise; ``reconcile_constructions`` computes the exact
bridge (a spectral-parameter shift by eta, a scalar prefactor, and a
z-independent change of basis).
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
from typing import Callable, Sequence

import numpy as np

from . import spaces
from .eqg import r_matrix
from .params import ModelParams, ParameterError
from .spaces import BetheSolution, Character, EllipticPoly, ThetaInterpolant

__all__ = [
    "PathState",
    "path_states",
    "BoltzmannWeights",
    "boltzmann_weights",
    "build_T_irf_paths",
    "build_T_irf_sov",
    "kappa_factor",
    "DualReconciliation",
    "reconcile_constructions",
    "sample_spectral",
    "SpectralCertificate",
    "certify_spectrum",
    "eigenvalue_character",
    "partition_function",
    "apply_transfer_continuous",
    "ContinuousBethe",
    "continuous_bethe",
]

_2PI_I = 2j * cmath.pi


def _twice(height) -> int:
    """Exact integer 2*height; heights live in (1/2) Z."""
    doubled = 2.0 * float(height)
    rounded = round(doubled)
    if abs(doubled - rounded) > 1e-9:
        raise ValueError("height %r is not a half-integer" % (height,))
    return int(rounded)


@dataclasses.dataclass(frozen=True)
class PathState:
    """Height path a_1..a_{n+1}, stored as doubled integers.

    Steps are +-1 and the path is antiperiodic, a_{n+1} = -a_1.
    """

    twice_heights: tuple[int, ...]

    def __post_init__(self):
        a = self.twice_heights
        if len(a) < 2:
            raise ValueError("a path needs at least two heights")
        if a[-1] != -a[0]:
            raise ValueError("path endpoints must satisfy a_{n+1} = -a_1")
        if any(abs(a[i + 1] - a[i]) != 2 for i in range(len(a) - 1)):
            raise ValueError("path heights must step by exactly one")

    @staticmethod
    def from_sigmas(sigmas: Sequence[int]) -> "PathState":
        # antiperiodicity fixes the starting height: 2 a_1 = sum sigma
        start = sum(sigmas)
        heights = [start]
        for s in sigmas:
            heights.append(heights[-1] - 2 * s)
        return PathState(tuple(heights))

    @property
    def n(self) -> int:
        return len(self.twice_heights) - 1

    @property
    def heights(self) -> tuple[float, ...]:
        return tuple(h / 2.0 for h in self.twice_heights)

    @property
    def sigmas(self) -> tuple[int, ...]:
        a = self.twice_heights
        return tuple((a[i] - a[i + 1]) // 2 for i in range(len(a) - 1))


def path_states(n: int) -> list[PathState]:
    """All 2^n antiperiodic paths, ordered by the shared multi-index m."""
    if n % 2 == 0:
        raise ParameterError("antiperiodic height paths need an odd number of steps")
    return [
        PathState.from_sigmas([1 - 2 * mi for mi in m])
        for m in itertools.product(range(2), repeat=n)
    ]


# ---------------------------------------------------------------------------
# local face weights


class BoltzmannWeights:
    """Face weights W(c, b, a, d | z) read off the dynamical R-matrix.

    The four arguments are the heights around a face; the weight vanishes
    unless all four differences c-d, b-c, b-a, a-d are +-1.  The dynamical
    parameter of the R-matrix is pinned to -2 eta d, so the weight depends
    on the corner height d itself and not only on the differences.  The
    all-ascending weight W(l+1, l+2, l+1, l | z) equals one.
    """

    _IDX = {2: 0, -2: 1}

    def __init__(self, params: ModelParams, z: complex):
        self.params = params
        self.z = complex(z)
        self._cache: dict[int, np.ndarray] = {}

    def _r_for(self, d2: int) -> np.ndarray:
        if d2 not in self._cache:
            self._cache[d2] = r_matrix(self.params, self.z, -self.params.eta * d2)
        return self._cache[d2]

    def value_doubled(self, c2: int, b2: int, a2: int, d2: int) -> complex:
        """Weight with doubled-height integer arguments."""
        for diff in (c2 - d2, b2 - c2, b2 - a2, a2 - d2):
            if diff != 2 and diff != -2:
                return 0.0j
        row = 2 * self._IDX[b2 - a2] + self._IDX[a2 - d2]
        col = 2 * self._IDX[c2 - d2] + self._IDX[b2 - c2]
        return self._r_for(d2)[row, col]

    def value(self, c, b, a, d) -> complex:
        return self.value_doubled(_twice(c), _twice(b), _twice(a), _twice(d))


def boltzmann_weights(params: ModelParams, z: complex) -> BoltzmannWeights:
    return BoltzmannWeights(params, z)


# ---------------------------------------------------------------------------
# transfer matrix, path construction


def build_T_irf_paths(params: ModelParams, z: complex) -> np.ndarray:
    """Transfer matrix on the path basis, column i carrying z - z_i.

    Entry [b, a] is the product over columns of the face weight
    W(a_{i+1}, a_i, b_i, b_{i+1} | z - z_i); it vanishes unless the two
    paths differ by one at every node.
    """
    params.validate_for_irf()
    n = params.n
    states = path_states(n)
    weights = [BoltzmannWeights(params, z - zi) for zi in params.zs]
    dim = len(states)
    t = np.zeros((dim, dim), dtype=complex)
    for acol, astate in enumerate(states):
        ah = astate.twice_heights
        for brow, bstate in enumerate(states):
            bh = bstate.twice_heights
            if any(abs(ah[i] - bh[i]) != 2 for i in range(n + 1)):
                continue
            val = 1.0 + 0.0j
            for i in range(n):
                val *= weights[i].value_doubled(ah[i + 1], ah[i], bh[i], bh[i + 1])
                if val == 0.0:
                    break
            t[brow, acol] = val
    return t


# ---------------------------------------------------------------------------
# transfer matrix, separated (one-flip) construction


def _grid_sigmas(n: int) -> list[tuple[int, ...]]:
    return [
        tuple(2 * mi - 1 for mi in m) for m in itertools.product(range(2), repeat=n)
    ]


def build_T_irf_sov(params: ModelParams, zeta: complex) -> np.ndarray:
    """One-flip difference operator on the grid x_i = -z_i + sigma_i eta.

    The displayed operator reads off the evaluation point -zeta; each
    term flips one sigma_i, the opposite shift leaving the grid carries a
    coefficient with an exact zero factor (certified below before it is
    dropped).  Entries are entire in zeta.
    """
    params.validate_for_irf()
    n = params.n
    ev = params.evaluator()
    eta = params.eta
    zs = params.zs
    lat = params.lattice
    zdisp = -complex(zeta)

    # dynamical denominators theta(lambda) at lambda = -eta * (odd sum)
    for k in range(1, n + 1, 2):
        if lat.dist_to_lattice(k * eta) < params.rho:
            raise ParameterError(
                "grid value lambda = %d eta sits within rho of the lattice" % k
            )
    if lat.dist_to_lattice(2 * eta) < params.rho:
        raise ParameterError("shift 2 eta sits within rho of the lattice")

    # flip coefficient and the certified-zero opposite branch, per (i, sigma_i);
    # the opposite shift's coefficient reduces to prod_k theta(z_k - z_i),
    # whose k = i factor is theta(0) = 0 exactly
    flip_coeff = {}
    for i in range(n):
        off_branch = 1.0 + 0.0j
        for zk in zs:
            off_branch *= ev.theta(zk - zs[i])
        for s in (-1, 1):
            on_branch = 1.0 + 0.0j
            for zk in zs:
                on_branch *= ev.theta(zk - zs[i] + 2 * s * eta)
            if abs(off_branch) > 1e-10 * max(1.0, abs(on_branch)):
                raise ParameterError(
                    "off-grid shift coefficient fails to vanish at site %d" % i
                )
            flip_coeff[(i, s)] = on_branch

    # theta(zdisp - x_j) takes 2n distinct values across the whole grid
    spect = {
        (j, s): ev.theta(zdisp + zs[j] - s * eta) for j in range(n) for s in (-1, 1)
    }
    cross = {
        (i, si, j, sj): ev.theta(-zs[i] + zs[j] + (si - sj) * eta)
        for i in range(n)
        for j in range(n)
        if i != j
        for si in (-1, 1)
        for sj in (-1, 1)
    }
    th_lam = {k: ev.theta(-eta * k) for k in range(-n, n + 1, 2)}
    # the row prefactor theta(lam - zdisp + x_i), lam = -eta * sum(sigma), depends
    # on the row only through (sum(sigma), i, sigma_i): 2 n^2 values in all
    head = {
        (total, i, s): ev.theta(-eta * total - zdisp + (-zs[i] + s * eta))
        for total in range(-n, n + 1, 2)
        for i in range(n)
        for s in (-1, 1)
        if abs(total - s) <= n - 1
    }

    sigmas = _grid_sigmas(n)
    dim = len(sigmas)
    t = np.zeros((dim, dim), dtype=complex)
    for row, sig in enumerate(sigmas):
        total = sum(sig)
        denom = th_lam[total]
        for i in range(n):
            pref = head[(total, i, sig[i])] / denom
            for j in range(n):
                if j == i:
                    continue
                pref *= spect[(j, sig[j])] / cross[(i, sig[i], j, sig[j])]
            # site i is bit n-1-i of the grid index, so flipping sigma_i flips that bit
            t[row, row ^ (1 << (n - 1 - i))] = pref * flip_coeff[(i, sig[i])]
    return t


# ---------------------------------------------------------------------------
# bridging the two constructions


def kappa_factor(params: ModelParams, w: complex) -> complex:
    """Scalar bridge factor prod_i 1/theta(w - z_i - eta)."""
    ev = params.evaluator()
    val = 1.0 + 0.0j
    for zi in params.zs:
        val /= ev.theta(w - zi - params.eta)
    return val


@dataclasses.dataclass(frozen=True)
class DualReconciliation:
    """Exact bridge T_paths(z) = constant * kappa(z - eta) * P T_sov(z - eta) P^{-1}.

    The change of basis P and the constant are z-independent.  residual
    is the relative error of the bridged identity at fresh sample points,
    literal_gap the relative entrywise distance between the two raw
    matrices (order one; the two constructions do not coincide literally).
    """

    constant: complex
    conjugation: np.ndarray
    residual: float
    literal_gap: float

    def map_eigenvalue(
        self, params: ModelParams, eps: Callable[[complex], complex]
    ) -> Callable[[complex], complex]:
        """Eigenvalue of the path construction induced by a grid eigenvalue."""

        def mapped(z: complex) -> complex:
            return self.constant * kappa_factor(params, z - params.eta) * eps(z - params.eta)

        return mapped


def sample_spectral(params: ModelParams, rng: np.random.Generator) -> complex:
    """Seeded generic spectral parameter for the transfer matrices."""
    # clear the path-construction poles at z_i + 2 eta by a wide margin
    avoid = tuple(zi + 2 * params.eta for zi in params.zs)
    return params.sample_generic(rng, margin=5e-2, avoid=avoid)


def reconcile_constructions(
    params: ModelParams,
    rng: np.random.Generator,
    samples: int = 2,
) -> DualReconciliation:
    """Match the two constructions through their (shared) eigenbases.

    The constant is fixed to -1 by the one-site case; the sign ambiguity
    left by the plus/minus symmetric grid spectrum is resolved the same
    way for every n.  Raises ParameterError when the probe spectrum is
    too clustered to pair up eigenvalues.
    """
    params.validate_for_irf()
    ev = params.evaluator()
    z0 = sample_spectral(params, rng)
    tp = build_T_irf_paths(params, z0)
    ts = build_T_irf_sov(params, z0 - params.eta)
    kap = 1.0 + 0.0j
    for zi in params.zs:
        kap /= ev.theta(z0 - zi - 2 * params.eta)
    literal = float(
        np.max(np.abs(tp - build_T_irf_sov(params, z0))) / np.max(np.abs(tp))
    )
    mu, vp = np.linalg.eig(tp)
    nu, vs = np.linalg.eig(ts)
    constant = -1.0 + 0.0j
    scale = float(np.max(np.abs(mu)))
    perm = []
    for l in range(len(mu)):
        cands = [
            k
            for k in range(len(nu))
            if abs(mu[l] - constant * kap * nu[k]) < 1e-8 * scale
        ]
        if len(cands) != 1:
            raise ParameterError(
                "eigenvalue pairing between the two constructions is ambiguous"
            )
        perm.append(cands[0])
    if sorted(perm) != list(range(len(mu))):
        raise ParameterError("eigenvalue pairing is not a bijection")
    conj = vp @ np.linalg.inv(vs[:, perm])

    conj_inv = np.linalg.inv(conj)
    residual = 0.0
    for _ in range(samples):
        zf = sample_spectral(params, rng)
        lhs = build_T_irf_paths(params, zf)
        kapf = 1.0 + 0.0j
        for zi in params.zs:
            kapf /= ev.theta(zf - zi - 2 * params.eta)
        rhs = constant * kapf * conj @ build_T_irf_sov(params, zf - params.eta) @ conj_inv
        residual = max(residual, float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs))))
    return DualReconciliation(
        constant=constant, conjugation=conj, residual=residual, literal_gap=literal
    )


# ---------------------------------------------------------------------------
# spectrum certification


def eigenvalue_character(params: ModelParams) -> Character:
    """chi_0 with chi_0(1) = (-1)^n and chi_0(tau) = (-1)^n e^{2 pi i sum z_j}."""
    sgn = (-1.0) ** params.n
    return Character(sgn, sgn * cmath.exp(_2PI_I * sum(params.zs)))


@dataclasses.dataclass(frozen=True)
class SpectralCertificate:
    """One certified eigenvalue function of the grid transfer matrices.

    vectors holds the eigensolver's (orthonormalized) eigenvectors of the
    cluster as columns; reconstruction is the factorized vector built
    from the per-site pair values (q_minus at x_i = -z_i - eta, q_plus at
    x_i = -z_i + eta).  All residuals are relative to their own scales.
    angle is against the eigensolver vector (a subspace angle when the
    cluster is degenerate, in which case it is only advisory).
    """

    eigenvalue: complex
    vectors: np.ndarray
    eps: ThetaInterpolant
    membership_residual: float
    cluster_residual: float
    quadratic_residuals: tuple[float, ...]
    second_line_residuals: tuple[float, ...]
    q_pairs: tuple[tuple[complex, complex], ...]
    reconstruction: np.ndarray
    angle: float
    degenerate: bool
    gap: float
    tol: float
    angle_tol: float = 1e-6

    @property
    def passed(self) -> bool:
        ok = self.membership_residual <= self.tol
        ok = ok and self.cluster_residual <= self.tol
        ok = ok and max(self.quadratic_residuals) <= self.tol
        ok = ok and max(self.second_line_residuals) <= self.tol
        if not self.degenerate:
            ok = ok and self.angle <= self.angle_tol
        return ok


def _draw_basis(
    params: ModelParams, chi: Character, rng: np.random.Generator, count: int
) -> spaces.ThetaSpaceBasis:
    """Cardinal basis at level `count` for chi over generic nodes."""
    ev = params.evaluator()
    for _ in range(64):
        nodes = [params.sample_generic(rng, margin=5e-2) for _ in range(count)]
        try:
            return spaces.ThetaSpaceBasis(ev, count, chi, nodes)
        except (spaces.DegenerateNodesError, spaces.ResonantCharacterError):
            continue
    raise ParameterError("no admissible interpolation nodes found for the character")


def _clusters(mu: np.ndarray, gap_tol: float) -> list[list[int]]:
    """Connected components of |mu_i - mu_j| < gap_tol * scale.

    Components are listed by their first member in (real, imag) order,
    members in that order.  Two eigenvalues closer than the threshold
    are closer in real part too, so after sorting by real part each
    eigenvalue is compared only with the successors inside that window.
    """
    thresh = gap_tol * max(float(np.max(np.abs(mu))), 1.0)
    vals = mu.tolist()
    order = sorted(range(len(vals)), key=lambda i: (vals[i].real, vals[i].imag))
    parent = list(range(len(vals)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for pos, a in enumerate(order):
        nxt = pos + 1
        while nxt < len(order) and vals[order[nxt]].real - vals[a].real < thresh:
            b = order[nxt]
            if abs(vals[a] - vals[b]) < thresh:
                parent[find(a)] = find(b)
            nxt += 1
    groups: dict[int, list[int]] = {}
    for i in order:
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def certify_spectrum(
    params: ModelParams,
    z0: complex,
    tol: float = 1e-8,
    rng: np.random.Generator | None = None,
    gap_tol: float = 1e-7,
    validation_points: int = 3,
) -> list[SpectralCertificate]:
    """Diagonalize the grid transfer matrix at z0 and certify every eigenvalue.

    Per cluster: the eigenvalue function is sampled through ratios of
    T(z_s) v against v at n shared nodes, interpolated at level n with
    the antiperiodic character, validated at fresh points, and checked
    against the n quadratic relations.  The factorized eigenvector is
    rebuilt from the separated two-point data and compared by angle.

    Every eigenvalue function lies in the same level-n space, so all
    clusters are fitted on one cardinal basis: each evaluation point
    costs one vector of theta values, shared by all certificates (and by
    later calls of their eps).  Each sample matrix is applied once to
    the side-by-side cluster bases.
    """
    params.validate_for_irf()
    rng = np.random.default_rng(20250811) if rng is None else rng
    n = params.n
    ev = params.evaluator()
    chi0 = eigenvalue_character(params)
    basis = _draw_basis(params, chi0, rng, n)

    t0 = build_T_irf_sov(params, z0)
    mu, vecs = np.linalg.eig(t0)
    node_mats = [build_T_irf_sov(params, zs) for zs in basis.nodes]
    val_pts = [sample_spectral(params, rng) for _ in range(validation_points)]
    val_mats = [build_T_irf_sov(params, zv) for zv in val_pts]

    # z-independent data of the quadratic relations
    prod_plus = []
    prod_minus = []
    for i in range(n):
        pp = 1.0 + 0.0j
        pm = 1.0 + 0.0j
        for zk in params.zs:
            pp *= ev.theta(zk - params.zs[i] + 2 * params.eta)
            pm *= ev.theta(zk - params.zs[i] - 2 * params.eta)
        prod_plus.append(pp)
        prod_minus.append(pm)

    groups = _clusters(mu, gap_tol)
    mu_scale = max(float(np.max(np.abs(mu))), 1.0)
    # orthonormal cluster bases side by side, and every sample matrix applied once
    bases = [np.linalg.qr(vecs[:, group])[0] for group in groups]
    ends = np.cumsum([b.shape[1] for b in bases])
    stacked = np.concatenate(bases, axis=1)
    node_images = [tmat @ stacked for tmat in node_mats]
    val_images = [tmat @ stacked for tmat in val_mats]
    negative = np.array(_grid_sigmas(n)) < 0

    certs = []
    for group, basis_g, end in zip(groups, bases, ends):
        cols = slice(end - basis_g.shape[1], end)
        outside = np.ones(len(mu), dtype=bool)
        outside[group] = False
        if outside.any():
            gap = float(np.min(np.abs(mu[group][:, None] - mu[outside][None, :])))
        else:
            gap = float("inf")
        dim = basis_g.shape[1]
        degenerate = bool(dim > 1 or gap < gap_tol * mu_scale)

        def sample_ratio(image):
            # tr(V* T V)/dim; the deviation from a scalar block is recorded
            block = basis_g.conj().T @ image[:, cols]
            val = complex(np.trace(block)) / dim
            dev = float(np.max(np.abs(block - val * np.eye(dim))))
            return val, dev

        vals = []
        cluster_dev = 0.0
        for image in node_images:
            val, dev = sample_ratio(image)
            vals.append(val)
            cluster_dev = max(cluster_dev, dev)
        eps = basis.fit(vals)
        scale = max(max(abs(v) for v in vals), 1e-300)

        member_dev = 0.0
        for zv, image in zip(val_pts, val_images):
            val, dev = sample_ratio(image)
            cluster_dev = max(cluster_dev, dev)
            member_dev = max(member_dev, abs(val - eps(zv)))
            scale = max(scale, abs(val))

        quad = []
        qpairs = []
        second = []
        for i in range(n):
            em = eps(params.zs[i] - params.eta)
            ep = eps(params.zs[i] + params.eta)
            lhs = em * ep
            rhs = prod_plus[i] * prod_minus[i]
            quad.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
            qm, qp = em, prod_plus[i]
            qpairs.append((qm, qp))
            l2 = prod_minus[i] * qp
            r2 = ep * qm
            second.append(abs(l2 - r2) / max(abs(l2), abs(r2), 1e-300))

        # u(sigma) = prod_i (q_minus_i if sigma_i < 0 else q_plus_i)
        q_minus = np.array([p[0] for p in qpairs])
        q_plus = np.array([p[1] for p in qpairs])
        u = np.where(negative, q_minus, q_plus).prod(axis=1)
        un = np.linalg.norm(u)
        if un == 0.0:
            angle = float(np.pi / 2)
        else:
            overlap = np.linalg.norm(basis_g.conj().T @ (u / un))
            angle = float(np.arccos(min(1.0, overlap)))

        certs.append(
            SpectralCertificate(
                eigenvalue=complex(np.mean(mu[group])),
                vectors=basis_g,
                eps=eps,
                membership_residual=member_dev / scale,
                cluster_residual=cluster_dev / scale,
                quadratic_residuals=tuple(quad),
                second_line_residuals=tuple(second),
                q_pairs=tuple(qpairs),
                reconstruction=u,
                angle=angle,
                degenerate=degenerate,
                gap=gap,
                tol=tol,
            )
        )
    return certs


# ---------------------------------------------------------------------------
# partition function


def partition_function(
    params: ModelParams, ws: Sequence[complex], kind: str = "paths"
) -> complex:
    """Trace of the ordered transfer-matrix product over the given rows."""
    if kind not in ("paths", "sov"):
        raise ValueError("kind must be 'paths' or 'sov'")
    if len(ws) == 0:
        raise ParameterError("the partition trace needs at least one row")
    build = build_T_irf_paths if kind == "paths" else build_T_irf_sov
    out = build(params, ws[0])
    for w in ws[1:]:
        out = out @ build(params, w)
    return complex(np.trace(out))


# ---------------------------------------------------------------------------
# continuous variables


def apply_transfer_continuous(
    params: ModelParams,
    zeta: complex,
    u: Callable[[Sequence[complex]], complex],
    xs: Sequence[complex],
) -> complex:
    """The displayed difference operator at zeta, off the grid.

    xs are arbitrary complex points (the function u must be defined at
    single-coordinate shifts by 2 eta); weights Lambda_i enter the shift
    coefficients.  The dynamical value lambda = -sum (x_i + z_i) must
    stay off the lattice.
    """
    ev = params.evaluator()
    eta = params.eta
    zs, lams = params.zs, params.lams
    n = params.n
    if len(xs) != n:
        raise ParameterError("need one coordinate per site")
    zdisp = -complex(zeta)
    lam = -sum(xi + zi for xi, zi in zip(xs, zs))
    if params.lattice.dist_to_lattice(lam) < params.rho:
        raise ParameterError("dynamical value -sum(x_i + z_i) is within rho of the lattice")
    th_lam = ev.theta(lam)
    total = 0.0j
    for i in range(n):
        pref = ev.theta(lam - zdisp + xs[i]) / th_lam
        for j in range(n):
            if j == i:
                continue
            pref *= ev.theta(zdisp - xs[j]) / ev.theta(xs[i] - xs[j])
        down = 1.0 + 0.0j
        up = 1.0 + 0.0j
        for zk, lk in zip(zs, lams):
            down *= ev.theta(xs[i] + zk + eta * lk)
            up *= ev.theta(xs[i] + zk - eta * lk)
        shifted_down = [x - 2 * eta if k == i else x for k, x in enumerate(xs)]
        shifted_up = [x + 2 * eta if k == i else x for k, x in enumerate(xs)]
        total += pref * (down * u(shifted_down) + up * u(shifted_up))
    return total


@dataclasses.dataclass(frozen=True)
class ContinuousBethe:
    """Factorized eigenfunction data for continuous coordinates.

    q is kept with the solver's raw exponent and roots: reducing the
    roots to the fundamental cell would multiply the function by an
    exponential in x and silently change its character, breaking both
    the difference equation and the eigenvalue's periodicity class.
    """

    params: ModelParams
    solution: BetheSolution
    q: EllipticPoly
    a_plus: EllipticPoly
    a_minus: EllipticPoly
    chi: Character

    def q_value(self, x: complex) -> complex:
        return spaces.eval_elliptic_poly(self.params.evaluator(), self.q, x)

    def u_value(self, xs: Sequence[complex]) -> complex:
        val = 1.0 + 0.0j
        for x in xs:
            val *= self.q_value(x)
        return val

    def eps_value(self, z: complex) -> complex:
        """Transfer eigenvalue; entire in z thanks to the root conditions."""
        ev = self.params.evaluator()
        gamma = 2 * self.params.eta
        x = -complex(z)
        qx = spaces.eval_elliptic_poly(ev, self.q, x)
        num = spaces.eval_elliptic_poly(ev, self.a_plus, x) * spaces.eval_elliptic_poly(
            ev, self.q, x - gamma
        ) + spaces.eval_elliptic_poly(ev, self.a_minus, x) * spaces.eval_elliptic_poly(
            ev, self.q, x + gamma
        )
        return num / qx


def continuous_bethe(
    params: ModelParams,
    rng: np.random.Generator,
    target: float = 1e-11,
) -> ContinuousBethe:
    """Solve the root system for Q and package the factorized eigenfunction.

    Requires an even total weight 2m; the difference-equation step is
    2 eta and the shift coefficients are the unreduced products over
    sites.
    """
    params.validate_distinct_sites()
    params.validate_even_weight_sum()
    m = sum(params.lams) // 2
    ev = params.evaluator()
    a_plus = EllipticPoly(
        0.0, tuple(-zk - params.eta * lk for zk, lk in zip(params.zs, params.lams))
    )
    a_minus = EllipticPoly(
        0.0, tuple(-zk + params.eta * lk for zk, lk in zip(params.zs, params.lams))
    )
    sol = spaces.solve_difference_bethe(
        ev, a_plus, a_minus, 2 * params.eta, m, rng, target=target
    )
    q = EllipticPoly(sol.a, sol.roots)
    chi = Character(
        (-1.0) ** m * cmath.exp(sol.a),
        (-1.0) ** m * cmath.exp(sol.a * params.lattice.tau + _2PI_I * sum(sol.roots)),
    )
    return ContinuousBethe(
        params=params, solution=sol, q=q, a_plus=a_plus, a_minus=a_minus, chi=chi
    )
