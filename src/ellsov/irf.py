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
import functools
from typing import Callable, Sequence

import numpy as np

from . import spaces
from .eqg import S0Grid, r_matrix
from .params import ModelParams, ParameterError
from .spaces import BetheSolution, Character, EllipticPoly, ThetaInterpolant

__all__ = [
    "BoltzmannWeights",
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
# fresh spectral points at which reconcile_constructions checks the bridge
# and certify_spectrum validates each fitted eigenvalue function
_RECONCILE_SAMPLES = 2
_VALIDATION_POINTS = 3


def _twice(height) -> int:
    """Exact integer 2*height; heights live in (1/2) Z."""
    doubled = 2.0 * float(height)
    rounded = round(doubled)
    if abs(doubled - rounded) > 1e-9:
        raise ValueError("height %r is not a half-integer" % (height,))
    return int(rounded)


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
        return self._r_for(d2)[self._slots(c2, b2, a2, d2)]

    @staticmethod
    def _slots(c2, b2, a2, d2):
        """R-matrix (row, col) of admissible faces, entrywise on arrays; step up is slot 0."""
        return 2 * (b2 < a2) + (a2 < d2), 2 * (c2 < d2) + (b2 < c2)

    def value(self, c, b, a, d) -> complex:
        return self.value_doubled(_twice(c), _twice(b), _twice(a), _twice(d))


# ---------------------------------------------------------------------------
# transfer matrix, path construction


def build_T_irf_paths(params: ModelParams, z: complex) -> np.ndarray:
    """Transfer matrix on the path basis, column i carrying z - z_i.

    Entry [b, a] is the product over columns of the face weight
    W(a_{i+1}, a_i, b_i, b_{i+1} | z - z_i); it vanishes unless the two
    paths differ by one at every node, which leaves 3^n - 1 entries.
    The node product uses the scalar complex-product formula on real and
    imaginary arrays (numpy's complex multiply rounds differently), so
    each entry equals the pair-by-pair product bit for bit.
    """
    params.validate_for_irf()
    n = params.n
    # doubled heights from the path sign 1 - 2m: antiperiodicity fixes
    # 2 a_1 = sum sigma, and each step is -2 sigma_i
    sigma = 1 - 2 * np.array(S0Grid(params).points)
    steps = np.hstack([sigma.sum(axis=1, keepdims=True), -2 * sigma])
    heights = np.cumsum(steps, axis=1).astype(np.int8)
    dim = len(heights)
    support = np.ones((dim, dim), dtype=bool)
    for i in range(n + 1):
        support &= np.abs(heights[:, None, i] - heights[None, :, i]) == 2
    rows, cols = np.nonzero(support)
    b, a = heights[rows], heights[cols]
    re, im = np.ones(len(rows)), np.zeros(len(rows))
    for i, zi in enumerate(params.zs):
        weights = BoltzmannWeights(params, z - zi)
        corners, which = np.unique(b[:, i + 1], return_inverse=True)
        rmats = np.array([weights._r_for(int(d2)) for d2 in corners])
        w = rmats[(which,) + BoltzmannWeights._slots(a[:, i + 1], a[:, i], b[:, i], b[:, i + 1])]
        re, im = re * w.real - im * w.imag, re * w.imag + im * w.real
    t = np.zeros((dim, dim), dtype=complex)
    t.real[rows, cols] = re
    t.imag[rows, cols] = im
    return t


# ---------------------------------------------------------------------------
# transfer matrix, separated (one-flip) construction


@dataclasses.dataclass(frozen=True)
class _GridModel:
    """The zeta-independent part of build_T_irf_sov, computed once per model.

    flip[i][m] is the coefficient of flipping site i from grid sign 2m - 1.
    heads holds (lambda, x_i, theta(lambda)) per prefactor slot (None where
    no row reaches it) and cross the pairs (2j + m_j, theta(x_i - x_j)).
    factors[f, r, i] indexes row r's f-th factor at site i in the per-zeta
    values: the prefactor, the n - 1 cross quotients, the flip coefficient.
    """

    flip: tuple[tuple[complex, complex], ...]
    heads: tuple[tuple[complex, complex, complex] | None, ...]
    cross: tuple[tuple[int, complex], ...]
    bits: np.ndarray
    factors: np.ndarray


@functools.lru_cache(maxsize=8)  # an entry holds (n + 1) n 2^n indices
def _grid_model(params: ModelParams) -> _GridModel:
    """Lattice checks, flip coefficients, cross thetas and grid indices, read-only.

    Flipping sigma_i = s carries prod_k theta(z_k - z_i + 2 s eta); the
    opposite shift's coefficient prod_k theta(z_k - z_i) has the factor
    theta(0) = 0 at k = i, and it is certified to vanish before it is
    dropped.
    """
    n, eta, zs, ev = params.n, params.eta, params.zs, params.evaluator()
    # dynamical denominators theta(lambda) at lambda = -eta * (odd sum)
    for k in range(1, n + 1, 2):
        if params.lattice.dist_to_lattice(k * eta) < params.rho:
            raise ParameterError("grid value lambda = %d eta sits within rho of the lattice" % k)
    if params.lattice.dist_to_lattice(2 * eta) < params.rho:
        raise ParameterError("shift 2 eta sits within rho of the lattice")
    flip = []
    for i in range(n):
        off_branch = 1.0 + 0.0j
        for zk in zs:
            off_branch *= ev.theta(zk - zs[i])
        flip.append([])
        for s in (-1, 1):
            on_branch = 1.0 + 0.0j
            for zk in zs:
                on_branch *= ev.theta(zk - zs[i] + 2 * s * eta)
            if abs(off_branch) > 1e-10 * max(1.0, abs(on_branch)):
                raise ParameterError("off-grid shift coefficient fails to vanish at site %d" % i)
            flip[i].append(on_branch)
    others = [[j for j in range(n) if j != i] for i in range(n)]
    cross = tuple(
        (2 * j + (sj + 1) // 2, ev.theta(-zs[i] + zs[j] + (si - sj) * eta))
        for i in range(n) for si in (-1, 1) for j in others[i] for sj in (-1, 1)
    )
    denom = {t: ev.theta(-eta * t) for t in range(-n, n + 1, 2)}
    # the row prefactor depends on the row only through (sum m, i, m_i): 2 n^2 slots
    heads = tuple(
        (-eta * t, -zs[i] + s * eta, denom[t]) if abs(t - s) <= n - 1 else None
        for t in range(-n, n + 1, 2) for i in range(n) for s in (-1, 1)
    )
    bits = np.array(S0Grid(params).points, dtype=int)
    sites = np.arange(n)
    # cross factor k of site i divides by theta(x_i - x_j), j the k-th site other than i
    other_bits = np.moveaxis(bits[:, np.array(others, dtype=int).reshape(n, n - 1)], 2, 0)
    cross_factors = 2 * ((2 * sites + bits) * (n - 1) + np.arange(n - 1)[:, None, None])
    cross_factors += other_bits
    factors = np.concatenate([
        ((bits.sum(axis=1, keepdims=True) * n + sites) * 2 + bits)[None],
        len(heads) + cross_factors,
        (len(heads) + len(cross) + 2 * sites + bits)[None],
    ])
    bits.setflags(write=False)
    factors.setflags(write=False)
    return _GridModel(tuple(map(tuple, flip)), heads, cross, bits, factors)


def build_T_irf_sov(params: ModelParams, zeta: complex) -> np.ndarray:
    """One-flip difference operator on the grid x_i = -z_i + sigma_i eta.

    The displayed operator reads off the evaluation point -zeta; each
    term flips one sigma_i, the opposite shift leaving the grid carries a
    coefficient with an exact zero factor (certified before it is
    dropped).  Entries are entire in zeta.  Row r's term at site i is
    theta(lam - zdisp + x_i)/theta(lam) * prod_{j != i} theta(zdisp - x_j)/
    theta(x_i - x_j) * flip, in this order.  The quotients are Python
    scalars and the product runs on real and imaginary arrays with the
    scalar complex-product formula, so each entry equals the scalar
    product bit for bit.
    """
    params.validate_for_irf()
    model = _grid_model(params)
    ev = params.evaluator()
    eta, n, zdisp = params.eta, params.n, -complex(zeta)
    # theta(zdisp - x_j) takes 2n distinct values across the whole grid
    spect = [ev.theta(zdisp + zj - s * eta) for zj in params.zs for s in (-1, 1)]
    values = [0j if h is None else ev.theta(h[0] - zdisp + h[1]) / h[2] for h in model.heads]
    values += [spect[k] / c for k, c in model.cross]
    w = np.array(values + [f for pair in model.flip for f in pair])[model.factors]
    re, im = w[0].real, w[0].imag
    for f in w[1:]:
        re, im = re * f.real - im * f.imag, re * f.imag + im * f.real
    rows = np.arange(2 ** n)[:, None]
    # site i is bit n-1-i of the grid index, so flipping sigma_i flips that bit
    cols = rows ^ (1 << (n - 1 - np.arange(n)))
    t = np.zeros((2 ** n, 2 ** n), dtype=complex)
    t.real[rows, cols] = re
    t.imag[rows, cols] = im
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
    condition is the 1-norm condition number of the conjugation, min_gap
    the smallest eigenvalue distance of T_paths(z0) over its spectral radius.
    """

    constant: complex
    conjugation: np.ndarray
    residual: float
    literal_gap: float
    condition: float
    min_gap: float

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


def _pair_spectra(mu: np.ndarray, target: np.ndarray, tol: float) -> np.ndarray:
    """perm with |mu[l] - target[perm[l]]| < tol, the only target that close."""
    close = np.abs(mu[:, None] - target[None, :]) < tol
    if np.any(np.count_nonzero(close, axis=1) != 1):
        raise ParameterError("eigenvalue pairing between the two constructions is ambiguous")
    perm = np.argmax(close, axis=1)
    if np.unique(perm).size != len(mu):
        raise ParameterError("eigenvalue pairing is not a bijection")
    return perm


def _concurrently(f: Callable, g: Callable) -> tuple:
    """(f(), g()) with g on one worker thread, whose exception is raised here.

    For independent dense LAPACK/BLAS calls, which release the GIL.
    """
    from concurrent.futures import ThreadPoolExecutor  # only irf build pays its import

    with ThreadPoolExecutor(max_workers=1) as pool:
        second = pool.submit(g)
        return f(), second.result()


def reconcile_constructions(params: ModelParams, rng: np.random.Generator) -> DualReconciliation:
    """Match the two constructions through their (shared) eigenbases.

    The constant is fixed to -1 by the one-site case; the sign ambiguity
    left by the plus/minus symmetric grid spectrum is resolved the same
    way for every n.  Raises ParameterError when the probe spectrum is
    too clustered to pair up eigenvalues.
    """
    params.validate_for_irf()
    z0 = sample_spectral(params, rng)
    tp = build_T_irf_paths(params, z0)
    ts = build_T_irf_sov(params, z0 - params.eta)
    kap = kappa_factor(params, z0 - params.eta)
    literal = float(
        np.max(np.abs(tp - build_T_irf_sov(params, z0))) / np.max(np.abs(tp))
    )
    (mu, vp), (nu, vs) = _concurrently(lambda: np.linalg.eig(tp), lambda: np.linalg.eig(ts))
    del tp, ts
    constant = -1.0 + 0.0j
    scale = float(np.max(np.abs(mu)))
    perm = _pair_spectra(mu, constant * kap * nu, 1e-8 * scale)
    conj = vp @ np.linalg.inv(vs[:, perm])
    del vp, vs

    # diagnostics only now that vp and vs are freed, below the eig-phase peak
    conj_inv = np.linalg.inv(conj)
    condition = float(np.linalg.norm(conj, 1) * np.linalg.norm(conj_inv, 1))
    min_gap = min(float(np.min(np.abs(mu[i + 1 :] - mu[i]))) for i in range(len(mu) - 1)) / scale
    residual = 0.0
    for _ in range(_RECONCILE_SAMPLES):
        zf = sample_spectral(params, rng)
        kapf = kappa_factor(params, zf - params.eta)
        rhs = constant * kapf * conj @ build_T_irf_sov(params, zf - params.eta) @ conj_inv
        lhs = build_T_irf_paths(params, zf)  # after rhs: not alive during its products
        rhs -= lhs  # |rhs - lhs| equals |lhs - rhs| bit for bit
        residual = max(residual, float(np.max(np.abs(rhs)) / np.max(np.abs(lhs))))
        del lhs, rhs  # not alive while the next sample's pair is built
    return DualReconciliation(constant, conj, residual, literal, condition, min_gap)


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
        if not self.degenerate:
            ok = ok and self.angle <= self.angle_tol
        return ok


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
    try:
        basis = spaces.make_basis(ev, n, chi0, rng, margin=5e-2)
    except spaces.ResonantCharacterError as exc:
        raise ParameterError(str(exc)) from exc

    t0 = build_T_irf_sov(params, z0)
    mu, vecs = np.linalg.eig(t0)
    val_pts = [sample_spectral(params, rng) for _ in range(_VALIDATION_POINTS)]

    # z-independent data of the quadratic relations (the flip coefficients) and the grid signs
    model = _grid_model(params)

    groups = _clusters(mu, gap_tol)
    mu_scale = max(float(np.max(np.abs(mu))), 1.0)
    # orthonormal cluster bases side by side, and every sample matrix applied once
    # as soon as it is built, its images stacked per kind
    bases = [np.linalg.qr(vecs[:, group])[0] for group in groups]
    ends = np.cumsum([b.shape[1] for b in bases])
    stacked = np.concatenate(bases, axis=1)
    node_images = np.stack([build_T_irf_sov(params, zs) @ stacked for zs in basis.nodes])
    val_images = np.stack([build_T_irf_sov(params, zv) @ stacked for zv in val_pts])
    # the grid sign 2m - 1 is negative where m_i = 0
    negative = model.bits == 0

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

        def sample_ratios(images):
            # tr(V* T V)/dim per sample matrix, and each block's deviation from a scalar
            blocks = basis_g.conj().T @ images[:, :, cols]
            vals = [complex(tr) / dim for tr in np.trace(blocks, axis1=1, axis2=2)]
            devs = np.abs(blocks - np.array(vals)[:, None, None] * np.eye(dim)).max(axis=(1, 2))
            return vals, devs.tolist()

        vals, node_devs = sample_ratios(node_images)
        eps = basis.fit(vals)
        checks, val_devs = sample_ratios(val_images)
        cluster_dev = max(0.0, *node_devs, *val_devs)
        member_dev = max(0.0, *(abs(val - eps(zv)) for zv, val in zip(val_pts, checks)))
        scale = max(max(abs(v) for v in vals), 1e-300, *(abs(v) for v in checks))

        quad = []
        qpairs = []
        for i in range(n):
            em = eps(params.zs[i] - params.eta)
            ep = eps(params.zs[i] + params.eta)
            lhs = em * ep
            rhs = model.flip[i][1] * model.flip[i][0]
            quad.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
            qpairs.append((em, model.flip[i][1]))

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
        eps = spaces.difference_eigenvalue(
            self.params.evaluator(), self.a_plus, self.a_minus, 2 * self.params.eta, self.solution
        )
        return eps(-complex(z))


def continuous_bethe(
    params: ModelParams,
    rng: np.random.Generator,
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
    sol = spaces.solve_difference_bethe(ev, a_plus, a_minus, 2 * params.eta, m, rng)
    q = EllipticPoly(sol.a, sol.roots)
    return ContinuousBethe(
        params=params,
        solution=sol,
        q=q,
        a_plus=a_plus,
        a_minus=a_minus,
        chi=spaces.character_of(q, params.lattice.tau),
    )
