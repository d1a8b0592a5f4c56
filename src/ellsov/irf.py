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
operator on the grid.  Both flip the parity of sum m, so each is returned
as its two parity blocks (B, C).  They generate the same commuting family
but are not equal entrywise; ``reconcile_constructions`` computes the exact
bridge (a spectral-parameter shift by eta, a scalar prefactor, and a
z-independent change of basis).
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import itertools
from typing import Callable, Sequence

import numpy as np

from . import spaces
from .eqg import S0Grid, _exact_product, _hop_entries, _hop_table, _r_fill, _shift_polys
from .params import ModelParams, ParameterError
from .spaces import BetheSolution, Character, EllipticPoly
from .theta import ThetaOverflowError, _require_finite

__all__ = [
    "build_T_irf_paths",
    "build_T_irf_sov",
    "kappa_factor",
    "bridge_scalar",
    "DualReconciliation",
    "reconcile_constructions",
    "sample_spectral",
    "SpectralCertificates",
    "certify_spectrum",
    "eigenvalue_character",
    "partition_function",
    "apply_transfer_continuous",
    "ContinuousBethe",
    "continuous_bethe",
]

_2PI_I = 2j * cmath.pi
# the bridge's constant, fixed to -1 by the one-site case
_BRIDGE_CONSTANT = -1.0 + 0.0j
# fresh spectral points at which reconcile_constructions checks the bridge
# and certify_spectrum validates each fitted eigenvalue function
_RECONCILE_SAMPLES = 2
_VALIDATION_POINTS = 3
# certify_spectrum: eigenvalues closer than _GAP_TOL * max |mu| form one
# cluster, and a simple eigenvalue's reconstruction angle must stay within
# _ANGLE_TOL
_GAP_TOL = 1e-7
_ANGLE_TOL = 1e-6
# certify_spectrum forms its eigenvector columns, reconstructions and projections this many
# clusters at a time, so that no temporary of those stages is 2^n square
_COLUMNS = 128
# a callable that forms a transfer matrix's parity blocks (B, C) afresh, for the
# eigensolvers, which drop them as soon as they are read
_Blocks = Callable[[], tuple[np.ndarray, np.ndarray]]


# ---------------------------------------------------------------------------
# parity blocks


@functools.cache
def _parity_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices with an even and with an odd sum m (popcount parity), read-only."""
    odd = np.bitwise_count(np.arange(2 ** n)) % 2 == 1
    order = np.flatnonzero(~odd), np.flatnonzero(odd)
    for idx in order:
        idx.setflags(write=False)
    return order


# ---------------------------------------------------------------------------
# transfer matrix, path construction


def _face_slots(c2, b2, a2, d2):
    """R-matrix (row, col) of the face W(c, b, a, d), entrywise on doubled heights.

    A step up is slot 0.  The dynamical parameter of the R-matrix is pinned
    to -2 eta d, so the weight depends on the corner height d itself.
    """
    return 2 * (b2 < a2) + (a2 < d2), 2 * (c2 < d2) + (b2 < c2)


@dataclasses.dataclass(frozen=True)
class _PathModel:
    """The z-independent part of build_T_irf_paths, computed once per model.

    rows, cols (uint16) list the (3^n - 1)/2 neighbouring path pairs whose
    row has even parity, as row and column of the block B.  faces[i]
    (uint8) indexes each pair's face at site i in that site's
    (corners, 4, 4) R-matrix table as corner * 16 + 4 row + col.
    corners[i] holds, per distinct corner height d of site i, the triples
    (l, theta(l), theta(l + 2 eta)) for l = lambda and l = -lambda,
    lambda = -2 eta d.
    """

    rows: np.ndarray
    cols: np.ndarray
    faces: np.ndarray
    corners: tuple[tuple[tuple[tuple[complex, complex, complex], ...], ...], ...]
    th_2eta: complex


def _path_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): the 3^n - 1 pairs of paths whose heights differ by one at every node.

    Grown one site at a time from the two signs of delta = (a_1 - b_1) / 2.
    Where delta stays, both paths take the same step (either one); where it
    flips, they cross, b stepping by 2 delta and a by -2 delta.
    Antiperiodicity negates every height of the last node against the
    first, so delta must flip an odd number of times.  Site i is bit n-1-i of a path index, m_i = 1 being a
    step of +2.
    """
    rows = cols = np.zeros(2, dtype=int)
    delta = start = np.array([1, -1])
    for _ in range(n):
        # row bits of the three moves: both step with m = 0, both with m = 1, apart
        bits = np.stack([0 * delta, 0 * delta + 1, (1 + delta) // 2], axis=1)
        rows = (2 * rows[:, None] + bits).reshape(-1)
        cols = (2 * cols[:, None] + bits * [1, 1, -1] + [0, 0, 1]).reshape(-1)
        delta = (delta[:, None] * [1, 1, -1]).reshape(-1)
        start = np.repeat(start, 3)
    keep = delta == -start
    return rows[keep], cols[keep]


# the IRF per-model caches, this one, _path_model and eqg._hop_table, hold one model: a
# process runs one CLI task, and a benchmark pass its models one after another
@functools.lru_cache(maxsize=1)
def _validated_for_irf(params: ModelParams) -> None:
    """validate_for_irf once per model for both constructions; a model that fails keeps no entry."""
    params.validate_for_irf()


@functools.lru_cache(maxsize=1)  # (3^n - 1)(4 + n)/2 bytes of indices
def _path_model(params: ModelParams) -> _PathModel:
    """Support, face indices and the corner heights' thetas of B, read-only."""
    _validated_for_irf(params)
    n, eta, ev = params.n, params.eta, params.evaluator()
    # doubled heights from the path sign 1 - 2m: antiperiodicity fixes
    # 2 a_1 = sum sigma, and each step is -2 sigma_i
    sigma = 1 - 2 * np.array(S0Grid(params).points)
    steps = np.hstack([sigma.sum(axis=1, keepdims=True), -2 * sigma])
    heights = np.cumsum(steps, axis=1).astype(np.int8)
    rows, cols = _path_pairs(n)
    even = np.bitwise_count(rows) % 2 == 0  # the rows of B; C is its reflection
    rows, cols = rows[even], cols[even]
    b, a = heights[rows], heights[cols]
    faces, site_heights = [], []
    for i in range(n):
        # one R-matrix per distinct corner height d of this column
        heights_d, which = np.unique(b[:, i + 1], return_inverse=True)
        row, col = _face_slots(a[:, i + 1], a[:, i], b[:, i], b[:, i + 1])
        faces.append((which * 16 + 4 * row + col).astype(np.uint8))
        site_heights.append(list(map(int, heights_d)))
    # theta(l) and theta(l + 2 eta) at l = lambda and -lambda, lambda = -eta |d|, per
    # distinct |d|, then theta(2 eta), from one call
    mags = sorted({abs(d2) for hs in site_heights for d2 in hs})
    ls = [l for d in mags for lam in (-eta * d,) for l in (lam, -lam)]
    vals = iter(ev.theta_values([x for l in ls for x in (l, l + 2 * eta)] + [2 * eta]))
    lam_thetas = {d: tuple((l, next(vals), next(vals)) for l in ls[2 * k : 2 * k + 2]) for k, d in enumerate(mags)}
    # height -d2 reads the pair {lambda, -lambda} of d2 in swapped order
    corners = tuple(tuple(lam_thetas[abs(d2)][:: -1 if d2 < 0 else 1] for d2 in hs) for hs in site_heights)
    # uint16 block indices hold every n <= 17, and uint8 faces, since a node
    # has at most n + 1 corner heights, every n <= 15: far above any dense build
    rows, cols, faces = (rows >> 1).astype(np.uint16), (cols >> 1).astype(np.uint16), np.array(faces)
    for arr in (rows, cols, faces):
        arr.setflags(write=False)
    return _PathModel(rows, cols, faces, corners, next(vals))


def build_T_irf_paths(params: ModelParams, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """Transfer matrix on the path basis, column i carrying z - z_i, as its parity blocks (B, C).

    Entry [b, a] is the product over columns of the face weight
    W(a_{i+1}, a_i, b_i, b_{i+1} | z - z_i); it vanishes unless the two
    paths differ by one at every node, which leaves 3^n - 1 entries.
    The height reflection a -> -a (index r -> r XOR (2^n - 1), block
    index k -> 2^(n-1) - 1 - k) leaves every face weight unchanged, so
    C is the view B[::-1, ::-1] and only B's (3^n - 1)/2 entries are formed.
    Site i's R-matrices, one per corner height, share theta(z - z_i) and
    theta(z - z_i - 2 eta); the z-independent data comes from the
    per-model cache, and the z-dependent thetas of all sites from one
    call, whose distance at z - z_i - 2 eta is eqg.r_matrix's spectral
    check.  Each table entry is eqg.r_matrix's and the node
    product is _exact_product's, so each entry equals the pair-by-pair
    product bit for bit; an entry that overflows is a ParameterError.
    """
    model = _path_model(params)
    ev, eta = params.evaluator(), params.eta
    # per site s = z - z_i: theta(s), theta(s - 2 eta), then theta(l + s) per corner triple
    args, spectral = [], []
    for zi, corners in zip(params.zs, model.corners):
        s = complex(z - zi)
        spectral.append(len(args) + 1)
        args += [s, s - 2 * eta] + [l + s for lam_thetas in corners for l, _, _ in lam_thetas]
    thetas, dist = ev.theta_array(np.array(args), 0, dist=True)
    if np.any(dist[spectral] < params.rho):
        raise ParameterError("spectral parameter z is within rho of 2 eta mod the lattice")
    values = iter(thetas[:, 0].tolist())

    def site_weights():
        yield np.ones((), dtype=complex)  # the pair loop's product starts at 1
        for corners, faces in zip(model.corners, model.faces):
            th_z, th_shift = next(values), next(values)
            table = np.zeros((len(corners), 4, 4), dtype=complex)
            for r, lam_thetas in zip(table, corners):
                _r_fill(r, th_z, th_shift, model.th_2eta, [(th, th2, next(values)) for _, th, th2 in lam_thetas])
            yield table.reshape(-1)[faces]

    entries = _exact_product(site_weights())
    if not np.isfinite(entries).all():
        raise ParameterError("path transfer-matrix entries overflow double precision")
    half = 2 ** (params.n - 1)
    b = np.zeros((half, half), dtype=complex)
    b[model.rows, model.cols] = entries
    return b, b[::-1, ::-1]


# ---------------------------------------------------------------------------
# transfer matrix, separated (one-flip) construction


def build_T_irf_sov(params: ModelParams, zeta: complex) -> tuple[np.ndarray, np.ndarray]:
    """One-flip difference operator on the grid x_i = -z_i + sigma_i eta, as its parity blocks (B, C).

    Row r is row r of eqg's b(zeta) + c(zeta) at lambda_r = eta (n - 2 sum m),
    read off the evaluation point zdisp = -zeta: its term at site i flips
    sigma_i and is theta(lambda_r - zdisp + x_i)/theta(lambda_r) *
    prod_{j != i} theta(zdisp - x_j)/theta(x_i - x_j) * A(x_i), through
    eqg._hop_entries on the per-model eqg._hop_table; the shift leaving the
    grid, whose coefficient has an exact zero factor, is never formed.
    Entries are entire in zeta.  The zeta-dependent thetas come from one
    theta_array call; each entry equals the scalar product of its factors
    bit for bit, and one that overflows is a ParameterError.
    """
    return _sov_blocks(params, zeta)()


def _sov_blocks(params: ModelParams, zeta: complex) -> _Blocks:
    """build_T_irf_sov(params, zeta) as a callable that forms fresh blocks (B, C) at each
    call from the entries of one theta_array call, so a caller can drop them and form them again."""
    _validated_for_irf(params)
    table = _hop_table(params)
    zdisp = -complex(zeta)
    # theta(zdisp - x_j) takes 2n distinct values across the whole grid; they and
    # the head slots' thetas come from one array-kernel call
    head_args = [lw - zdisp + x for slots in table.slots for lw, _, x in slots]
    thetas = params.evaluator().theta_values([zdisp + zj + shift for zj, shift in table.spectral] + head_args)
    spectral, heads = thetas[: len(table.spectral)], iter(thetas[len(table.spectral) :])
    quotients = {d: [next(heads) / th_lw for _, th_lw, _ in slots] for d, slots in enumerate(table.slots)}
    entries = _hop_entries(table, spectral, quotients)
    if not np.isfinite(entries).all():
        raise ParameterError("grid transfer-matrix entries overflow double precision")
    half = 2 ** (params.n - 1)

    def blocks() -> tuple[np.ndarray, np.ndarray]:
        out = []
        for sel, flat in table.blocks:
            block = np.zeros(half * half, dtype=complex)
            block[flat] = entries[sel]
            out.append(block.reshape(half, half))
        return out[0], out[1]

    return blocks


# ---------------------------------------------------------------------------
# bridging the two constructions


def kappa_factor(params: ModelParams, w: complex) -> complex:
    """Scalar bridge factor prod_i 1/theta(w - z_i - eta)."""
    val = 1.0 + 0.0j
    for th in params.evaluator().theta_values([w - zi - params.eta for zi in params.zs]):
        val /= th
    return val


def bridge_scalar(params: ModelParams, z: complex) -> complex:
    """The bridge's scalar at z: the constant -1 times kappa(z - eta)."""
    return _BRIDGE_CONSTANT * kappa_factor(params, z - params.eta)


@dataclasses.dataclass(frozen=True)
class DualReconciliation:
    """Exact bridge T_paths(z) = bridge_scalar(z) * P T_sov(z - eta) P^{-1}.

    The change of basis P and the constant are z-independent; P is
    block-diagonal in the parity order and conjugation holds its blocks
    (K_even, K_odd).  residual is the relative error of the bridged
    identity at fresh sample points, literal_gap the relative entrywise
    distance between the two raw matrices (order one; the two
    constructions do not coincide literally).  condition is the 1-norm
    condition number of P, min_gap the smallest eigenvalue distance of
    T_paths(z0) over its spectral radius.
    """

    constant: complex
    conjugation: tuple[np.ndarray, np.ndarray]
    residual: float
    literal_gap: float
    condition: float
    min_gap: float


def sample_spectral(params: ModelParams, rng: np.random.Generator) -> complex:
    """Seeded generic spectral parameter for the transfer matrices."""
    # clear the path-construction poles at z_i + 2 eta by a wide margin
    avoid = tuple(zi + 2 * params.eta for zi in params.zs)
    return params.sample_generic(rng, margin=5e-2, avoid=avoid)


def _pair_spectra(nu: np.ndarray, target: np.ndarray, tol: float) -> np.ndarray:
    """perm with |nu[l] - [target, -target][perm[l]]| < tol, the only one of the 2h that close."""
    close = np.abs(nu[:, None] - np.concatenate([target, -target])[None, :]) < tol
    if np.any(np.count_nonzero(close, axis=1) != 1):
        raise ParameterError("eigenvalue pairing between the two constructions is ambiguous")
    perm = np.argmax(close, axis=1)
    if np.unique(perm % len(nu)).size != len(nu):  # -nu pairs to perm + h mod 2h
        raise ParameterError("eigenvalue pairing is not a bijection")
    return perm


def _commutator_residual(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> float:
    """max |a b - b a| / max |a b| for two transfer matrices given as their parity blocks.

    a b = diag(B_a C_b, C_a B_b) and b a = diag(B_b C_a, C_b B_a); every
    entry of each product equals the dense product's.  A NaN or inf entry
    (the products overflow) or a zero a b leaves no scale: a ParameterError.
    """
    (b_a, c_a), (b_b, c_b) = a, b
    devs, scales = [], []
    for x_a, y_b, x_b, y_a in ((b_a, c_b, b_b, c_a), (c_a, b_b, c_b, b_a)):
        ab, ba = x_a @ y_b, x_b @ y_a
        ba -= ab  # |ba - ab| equals |ab - ba| bit for bit; ab is also the scale
        devs.append(np.max(np.abs(ba)))
        scales.append(np.max(np.abs(ab)))
        del ab, ba
    dev, scale = float(np.max(devs)), float(np.max(scales))  # np.max, unlike max, keeps a NaN
    if not (cmath.isfinite(complex(dev, scale)) and scale > 0.0):
        raise ParameterError("transfer-matrix products are zero or not finite; the commutator has no scale")
    return dev / scale


def _divide_gaps(f: np.ndarray, nu: np.ndarray, op: np.ufunc, tol: float) -> None:
    """f[i, j] /= op(nu_j, nu_i) in place where that exceeds tol in modulus, and 0 elsewhere."""
    den = op(nu[None, :], nu[:, None])
    keep = np.abs(den) > tol
    np.divide(f, den, out=f, where=keep)
    f[~keep] = 0


def _chiral_eig(blocks: _Blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nu, x, y): the eigenpairs of t = [[0, B], [C, 0]] are (+nu, [x; y]) and (-nu, [x; -y]).

    blocks() forms fresh (B, C); x holds the even-parity rows and y the odd
    ones, in the order of _parity_order.  eig(B C) at half the size gives
    nu^2 and x, and y = C x / nu.  Squaring loses the digits of small |nu|,
    so two first-order refinement steps (Dongarra, Moler & Wilkinson 1983)
    run on the unsquared t, in blocks: with G = x^-1 B y and H = y^-1 C x,
    nu = diag(G + H) / 2, F11 = (G + H) / 2 / (nu_j - nu_i) off the
    diagonal and F21 = (G - H) / 2 / (nu_j + nu_i) with its diagonal, the
    x/y mismatch of each +/- pair; x += x (F11 + F21), y += y (F11 - F21).
    Denominators below _GAP_TOL * max |nu| (clusters, nu_i near -nu_j) get
    no correction.  A (near) zero nu cannot be split into its +/- pair and
    is a ParameterError.

    Working set: solve copies both of its operands, so B and C are dropped
    once B y and C x are formed, and the second step forms them again; C x
    serves both y and the first step's H.  F11 and F21 fill the buffers of
    G + H and G - H, and x + x F is formed as (x F) += x.  The traced peak,
    5.6 blocks, is _divide_gaps's tables beside x, y, G and G - H; the
    solves hold seven blocks with their untraced copies.
    """
    b, c = blocks()
    sq, x = np.linalg.eig(b @ c)
    nu = np.sqrt(sq)
    tol = _GAP_TOL * float(np.max(np.abs(nu)))
    if not np.min(np.abs(nu)) > tol:  # also a zero or non-finite matrix
        raise ParameterError("transfer matrix has a (near) zero eigenvalue; its +/- pair does not split")
    cx = c @ x
    del c
    y = cx / nu
    for step in range(2):
        if step:
            b, c = blocks()
            cx = c @ x
            del c
        by = b @ y
        del b
        g = np.linalg.solve(x, by)
        del by
        h = np.linalg.solve(y, cx)
        del cx
        d = g - h
        g += h
        del h
        g /= 2
        d /= 2
        nu = g.diagonal().copy()
        _divide_gaps(g, nu, np.subtract, tol)
        _divide_gaps(d, nu, np.add, tol)
        f = g + d
        g -= d
        del d
        xf = x @ f
        del f
        xf += x
        yf = y @ g
        del g
        yf += y
        x, y = xf, yf
        del xf, yf
    return nu, x, y


def _reflected_eig(blocks: _Blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nu, x, x[::-1]), _chiral_eig's eigenpairs of t = [[0, B], [B[::-1, ::-1], 0]].

    blocks() gives (B, C), of which only B is read.  With R the index
    reversal, C = R B R and (nu, u) an eigenpair of M = B R,
    t [u; +/-R u] = +/-nu [u; +/-R u]: eig(M) at half the size gives the
    spectrum with no squaring.  One first-order refinement step (Dongarra,
    Moler & Wilkinson 1983) runs on M: with G = x^-1 M x, nu = diag G and
    x += x F, F = G / (nu_j - nu_i) off the diagonal, formed in G's buffer.
    Denominators below _GAP_TOL * max |nu| get no correction, and a (near)
    zero nu is a ParameterError, as in _chiral_eig.  B is not held past M's
    copy, nor M past M x, so the solve runs beside x, M x and G only.
    """
    m = np.ascontiguousarray(blocks()[0][:, ::-1])
    nu, x = np.linalg.eig(m)
    tol = _GAP_TOL * float(np.max(np.abs(nu)))
    if not np.min(np.abs(nu)) > tol:  # also a zero or non-finite matrix
        raise ParameterError("transfer matrix has a (near) zero eigenvalue; its +/- pair does not split")
    mx = m @ x
    del m
    g = np.linalg.solve(x, mx)
    del mx
    nu = g.diagonal().copy()
    _divide_gaps(g, nu, np.subtract, tol)
    xf = x @ g
    xf += x
    return nu, xf, xf[::-1]


def reconcile_constructions(params: ModelParams, rng: np.random.Generator) -> DualReconciliation:
    """Match the two constructions through their (shared) eigenbases.

    The sign ambiguity left by the plus/minus symmetric grid spectrum is
    resolved the same way for every n.  T_paths is diagonalized by
    _reflected_eig, T_sov (which has no reflection symmetry) by
    _chiral_eig, and +/-nu_p is paired with +/-bridge_scalar nu_s as whole
    spectra, which reads each pair's sign.  The conjugation is then block-diagonal in the parity
    order: x_p x_s^-1 on the even states and (y_p sign) y_s^-1 on the odd
    ones, so the bridge's products, inverses and residual run on
    2^(n-1)-square blocks.  The path matrix is dropped once M = B R is
    formed, and each eigenbasis once its block is.  Raises ParameterError
    when the probe spectrum is too clustered to pair up eigenvalues.
    """
    z0 = sample_spectral(params, rng)
    # T_sov first: its solves then run beside its own blocks only, not the path eigenbasis
    nu_s, xs, ys = _chiral_eig(_sov_blocks(params, z0 - params.eta))
    tp = build_T_irf_paths(params, z0)
    bridge = bridge_scalar(params, z0)
    # same-parity blocks are 0; max |C| is max |B| (np.abs of C's reversed view can differ in the last bit)
    gap = max(float(np.max(np.abs(p - s))) for p, s in zip(tp, build_T_irf_sov(params, z0)))
    literal = gap / float(np.max(np.abs(tp[0])))
    held = [tp]
    del tp
    nu_p, xp, yp = _reflected_eig(held.pop)  # hands over the only reference to the path matrix
    half = len(nu_p)
    scale = float(np.max(np.abs(nu_p)))
    perm = _pair_spectra(nu_p, bridge * nu_s, 1e-8 * scale)
    sign = np.where(perm < half, 1.0, -1.0)
    perm %= half
    # the distances within [nu_p, -nu_p] are |nu_i - nu_j| (i != j) and |nu_i + nu_j|, exactly
    within = np.min(np.abs(nu_p[:, None] - nu_p[None, :]), where=~np.eye(half, dtype=bool), initial=np.inf)
    min_gap = float(min(within, np.min(np.abs(nu_p[:, None] + nu_p[None, :])))) / scale
    # each eigenbasis is dropped once its block is formed, and the unpermuted one before inv
    xs = xs[:, perm]
    k_even = xp @ np.linalg.inv(xs)
    del xs
    yp = yp * sign
    del xp
    ys = ys[:, perm]
    blocks = (k_even, yp @ np.linalg.inv(ys))
    del yp, ys, k_even

    inverses = tuple(np.linalg.inv(k) for k in blocks)
    # a block-diagonal matrix's 1-norm is its blocks' largest
    condition = float(
        max(np.linalg.norm(k, 1) for k in blocks) * max(np.linalg.norm(k, 1) for k in inverses)
    )
    residuals = []
    for _ in range(_RECONCILE_SAMPLES):
        zf = sample_spectral(params, rng)
        bridge = bridge_scalar(params, zf)
        bs, cs = build_T_irf_sov(params, zf - params.eta)
        # the same-parity blocks are 0 on both sides: only B and C can differ; each
        # T_sov block is dropped once its product is formed
        rhs = [bridge * blocks[0] @ bs @ inverses[1]]
        del bs
        rhs.append(bridge * blocks[1] @ cs @ inverses[0])
        del cs
        lhs = build_T_irf_paths(params, zf)
        dev = np.max([np.max(np.abs(np.subtract(r, l, out=r))) for r, l in zip(rhs, lhs)])  # r - l in r
        residuals.append(dev / np.max(np.abs(lhs[0])))
        del lhs, rhs  # not alive while the next sample's pair is built
    residual = float(np.max(residuals))  # a NaN is kept
    return DualReconciliation(_BRIDGE_CONSTANT, blocks, residual, literal, condition, min_gap)


# ---------------------------------------------------------------------------
# spectrum certification


def eigenvalue_character(params: ModelParams) -> Character:
    """chi_0 with chi_0(1) = (-1)^n and chi_0(tau) = (-1)^n e^{2 pi i sum z_j}."""
    sgn = (-1.0) ** params.n
    return Character(sgn, sgn * cmath.exp(_2PI_I * sum(params.zs)))


@dataclasses.dataclass(frozen=True, eq=False)
class SpectralCertificates:
    """The certified eigenvalue functions of the grid transfer matrices, indexed by cluster.

    bases[k] holds cluster k's (orthonormalized) eigensolver vectors as columns, and
    eps_nodes[k] its eigenvalue function's values at the nodes of the shared level-n basis.
    reconstruction[k] is the factorized vector built from the separated factors q_minus[k, i]
    at x_i = -z_i - eta and q_plus[i] at x_i = -z_i + eta, which every cluster shares.
    Residuals are relative to their own scales; an angle is against the eigensolver vector
    (a subspace angle, only advisory, where the cluster is degenerate).
    """

    eigenvalues: np.ndarray
    bases: tuple[np.ndarray, ...]
    basis: spaces.ThetaSpaceBasis
    eps_nodes: np.ndarray
    membership_residuals: np.ndarray
    cluster_residuals: np.ndarray
    quadratic_residuals: np.ndarray
    q_minus: np.ndarray
    q_plus: np.ndarray
    reconstruction: np.ndarray
    angles: np.ndarray
    degenerate: np.ndarray
    gaps: np.ndarray
    tol: float

    @property
    def passed(self) -> np.ndarray:
        """Each cluster's verdict; a NaN residual fails."""
        ok = (self.membership_residuals <= self.tol) & (self.cluster_residuals <= self.tol)
        ok &= np.max(self.quadratic_residuals, axis=1) <= self.tol
        return ok & (self.degenerate | (self.angles <= _ANGLE_TOL))

    def eps(self, zs) -> np.ndarray:
        """Every eigenvalue function at a point or a 1-D sequence of points, shape
        (clusters,) or (clusters, points): one cardinal_vector call and one product."""
        return self.eps_nodes @ self.basis.cardinal_vector(zs).T


def _clusters(mu: np.ndarray, gap_tol: float) -> tuple[list[list[int]], np.ndarray]:
    """Connected components of |mu_i - mu_j| < gap_tol * scale, and that distance matrix.

    Components are the union over the close pairs, listed by their first
    member in (real, imag) order, members in that order.
    """
    dist = np.abs(mu[:, None] - mu[None, :])
    close = np.triu(dist < gap_tol * float(np.max(np.abs(mu))), 1)
    parent = list(range(len(mu)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(close)):
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in sorted(range(len(mu)), key=lambda i: (mu[i].real, mu[i].imag)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values()), dist


def _run(index: np.ndarray) -> np.ndarray | slice:
    """An increasing index as a slice where it is a run of consecutive integers, so that it reads a view."""
    if index.size and index[-1] - index[0] == index.size - 1:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def certify_spectrum(
    params: ModelParams,
    z0: complex,
    tol: float = 1e-8,
    *,
    rng: np.random.Generator,
) -> SpectralCertificates:
    """Diagonalize the grid transfer matrix at z0 and certify every eigenvalue.

    Per cluster: the eigenvalue function is sampled through ratios of
    T(z_s) v against v at n shared nodes, interpolated at level n with
    the antiperiodic character, validated at fresh points, and checked
    against the n quadratic relations.  The factorized eigenvector is
    rebuilt from the separated two-point data and compared by angle.

    Every eigenvalue function lies in the same level-n space, so all
    clusters are fitted on one cardinal basis: one cardinal_vector call
    at the 3 + 2n evaluation points serves all clusters, through one
    product.  Each sample matrix is applied once to
    the side-by-side cluster bases and its image dropped once the ratios
    are read; validation, the quadratic relations and the reconstructions
    run for all clusters at once, and the certificate keeps their arrays.
    The cluster bases are column views of the one array the eigenvectors
    are written into, and no other array of the certificate's stages is
    2^n square but the sample matrix's image and the reconstructions.
    """
    # z-independent data of the quadratic relations (the hop coefficients) and the grid signs
    _validated_for_irf(params)
    table = _hop_table(params)
    n = params.n
    ev = params.evaluator()
    chi0 = eigenvalue_character(params)
    try:
        basis = spaces.make_basis(ev, n, chi0, rng, margin=5e-2)
    except spaces.ResonantCharacterError as exc:
        raise ParameterError(str(exc)) from exc

    nu, x, y = _chiral_eig(_sov_blocks(params, z0))
    half = len(nu)
    mu = np.concatenate([nu, -nu])
    even, odd = _parity_order(n)
    val_pts = [sample_spectral(params, rng) for _ in range(_VALIDATION_POINTS)]

    groups, dist = _clusters(mu, _GAP_TOL)
    # distance from each cluster to the rest of the spectrum
    label = np.empty(len(mu), dtype=int)
    for k, group in enumerate(groups):
        label[group] = k
    dist[label[:, None] == label[None, :]] = np.inf
    nearest = dist.min(axis=1)
    del dist
    # one array holds the orthonormal cluster bases side by side, in cluster order: the
    # eigenvectors [x; +/-y] are written in place and each cluster's columns normalized
    # there, a unit column for a simple eigenvalue; bases[k] is a view of its columns
    dims = np.array([len(g) for g in groups])
    starts = np.cumsum(dims) - dims
    order = np.concatenate(groups)
    stacked = np.empty((2 * half, 2 * half), dtype=complex)
    for lo in range(0, len(order), _COLUMNS):
        cols = order[lo : lo + _COLUMNS]
        stacked[even, lo : lo + len(cols)] = x[:, cols % half]
        odd_part = y[:, cols % half]
        np.negative(odd_part, out=odd_part, where=cols >= half)
        stacked[odd, lo : lo + len(cols)] = odd_part
        del odd_part
    del x, y
    bases = tuple(stacked[:, start : start + dim] for start, dim in zip(starts.tolist(), dims.tolist()))
    for v in bases:
        if v.shape[1] == 1:
            v /= np.linalg.norm(v)
        else:
            v[...] = np.linalg.qr(v)[0]
    unit = dims == 1
    blocks = np.flatnonzero(~unit)
    # the simple clusters and their columns, _COLUMNS at a time
    simple = np.flatnonzero(unit)
    chunks = [(_run(k), _run(starts[k])) for k in np.split(simple, range(_COLUMNS, simple.size, _COLUMNS))]
    # ratios[k, p]: cluster k's eigenvalue of the p-th sample matrix, nodes first;
    # a simple eigenvalue's ratio is v* T v, a cluster's the mean of its block's trace
    points = list(basis.nodes) + val_pts
    ratios = np.empty((len(groups), len(points)), dtype=complex)
    cluster_dev = np.zeros(len(groups))
    for p, zp in enumerate(points):
        b, c = build_T_irf_sov(params, zp)
        image = np.empty_like(stacked)
        image[even] = b @ stacked[odd]
        del b
        image[odd] = c @ stacked[even]
        del c
        for k in blocks:
            cols = slice(starts[k], starts[k] + dims[k])
            block = bases[k].conj().T @ image[:, cols]
            ratios[k, p] = complex(np.trace(block)) / dims[k]
            dev = float(np.max(np.abs(block - ratios[k, p] * np.eye(dims[k]))))
            cluster_dev[k] = np.maximum(cluster_dev[k], dev)  # a NaN is kept
        # v* (T v) is conj(sum_r v_r conj(T v)_r) bit for bit: the image is conjugated in place
        np.conjugate(image, out=image)
        for k, cols in chunks:
            ratios[k, p] = np.einsum("rk,rk->k", stacked[:, cols], image[:, cols]).conj()
        del image
    scale = np.maximum(np.max(np.abs(ratios), axis=1), 1e-300)

    # every eigenvalue function at the validation points and at z_i -/+ eta, as one
    # product with the shared basis's cardinal vectors
    zs = params.zs
    evals = val_pts + [zi - params.eta for zi in zs] + [zi + params.eta for zi in zs]
    fitted = ratios[:, :n] @ basis.cardinal_vector(evals).T
    member_dev = np.max(np.abs(ratios[:, n:] - fitted[:, : len(val_pts)]), axis=1)
    em, ep = fitted[:, len(val_pts) : -n], fitted[:, -n:]
    lhs = em * ep
    # at weight 1 the coefficients are A_plus(x_i) at sigma_i = 1, then A_minus(x_i) at sigma_i = -1
    q_plus, minus = table.coefs[:n], table.coefs[n:]
    rhs = np.array([p * m for p, m in zip(q_plus, minus)])
    quad = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)

    # u(sigma) = prod_i (q_minus_i if sigma_i < 0 else q_plus_i), one site at a time,
    # so it equals math.prod of the pairs; the grid sign 2m - 1 is negative where m_i = 0.
    # It and its norm are formed _COLUMNS clusters at a time, so their temporaries are not 2^n square
    negative = table.bits == 0
    recon = np.empty((len(groups), 2 * half), dtype=complex)
    norms = np.empty(len(groups))
    for lo in range(0, len(groups), _COLUMNS):
        rows = slice(lo, lo + _COLUMNS)
        recon[rows] = _exact_product(itertools.chain(
            [np.ones((), dtype=complex)],  # math.prod starts at 1
            (np.where(negative[:, i], em[rows, i, None], q_plus[i]) for i in range(n)),
        ))
        norms[rows] = np.linalg.norm(recon[rows], axis=1)
    found = norms > 0.0
    # the sine of the angle is the norm of the part of u/|u| outside the cluster basis
    # (arccos of the overlap resolves nothing below 1.5e-8), formed for the chunks of
    # simple clusters and then per block; a simple cluster's overlap v* u is
    # conj(sum_r v_r conj(u_r))
    divisors = np.where(found, norms, 1.0)[:, None]
    sines = np.empty(len(groups))
    for k, cols in chunks:
        outside = recon[k] / divisors[k]
        overlap = np.einsum("rk,kr->k", stacked[:, cols], outside.conj()).conj()
        outside -= overlap[:, None] * stacked[:, cols].T
        sines[k] = np.linalg.norm(outside, axis=1)
    for k in blocks:
        outside = recon[k : k + 1] / divisors[k : k + 1]
        outside[0] -= bases[k] @ (bases[k].conj().T @ outside[0])
        sines[k] = np.linalg.norm(outside, axis=1)[0]
    angles = np.where(found, np.arcsin(np.minimum(1.0, sines)), np.pi / 2)

    eps_nodes = ratios[:, :n].copy()
    eps_nodes.setflags(write=False)
    return SpectralCertificates(
        eigenvalues=np.array([np.mean(mu[group]) for group in groups]), bases=bases, basis=basis,
        eps_nodes=eps_nodes, membership_residuals=member_dev / scale, cluster_residuals=cluster_dev / scale,
        quadratic_residuals=quad, q_minus=em, q_plus=np.array(q_plus), reconstruction=recon, angles=angles,
        degenerate=dims > 1, gaps=np.array([np.min(nearest[group]) for group in groups]), tol=tol,
    )


# ---------------------------------------------------------------------------
# partition function


def partition_function(
    params: ModelParams, ws: Sequence[complex], kind: str = "paths"
) -> complex:
    """Trace of the ordered transfer-matrix product over the given rows.

    Every row is [[0, B], [C, 0]] in the parity order, so an even product
    is diag(B_1 C_2 B_3 .., C_1 B_2 C_3 ..), two chains of 2^(n-1)-square
    blocks, and an odd product has no diagonal block: its trace is exactly
    0j.  Every row is still built and its parity structure checked.  The
    blocks of a generic row are invertible, so a chain whose entries peak
    outside the normal doubles has over- or underflowed: a ParameterError.
    """
    if kind not in ("paths", "sov"):
        raise ValueError("kind must be 'paths' or 'sov'")
    if len(ws) == 0:
        raise ParameterError("the partition trace needs at least one row")
    build = build_T_irf_paths if kind == "paths" else build_T_irf_sov
    chains = []
    for k, w in enumerate(ws):
        b, c = build(params, w)
        if len(ws) % 2:
            continue
        # B and C alternate along both chains, which start B_1 and C_1
        if k % 2:
            b, c = c, b
        with np.errstate(over="ignore", invalid="ignore"):  # the range check below raises
            chains = [b, c] if k == 0 else [chains[0] @ b, chains[1] @ c]
        for chain in chains:
            peak = np.max(np.abs(chain))
            if not np.finfo(float).tiny <= peak < np.inf:  # a NaN peak is an overflow's inf * 0
                way = "underflows" if peak < np.finfo(float).tiny else "overflows"
                raise ParameterError("the row product leaves double range: it %s at row %d" % (way, k + 1))
    if not chains:
        return 0j
    return complex(np.trace(chains[0]) + np.trace(chains[1]))


# ---------------------------------------------------------------------------
# continuous variables


def apply_transfer_continuous(
    params: ModelParams,
    zeta,
    u: Callable[[np.ndarray], np.ndarray],
    xs,
):
    """The displayed difference operator at zeta, at arbitrary points xs:

        T(zeta) u(x) = sum_i L_i(-zeta) [A_plus(x_i) u(x - 2 eta e_i) + A_minus(x_i) u(x + 2 eta e_i)]

    with continuous_bethe's shift coefficients A_plus, A_minus and L the
    level-n cardinal basis on the nodes xs for chi(1) = (-1)^n, chi(tau) =
    (-1)^n e^{-2 pi i sum z_j}.  A stack of samples, zeta of shape S and xs
    of shape S + (n,), gives an array of shape S, one sample a complex.  u
    maps a stack of coordinate sets, shape (..., n), to its values; it is
    called once, on the 2n shifted sets of every sample, and A_plus and
    A_minus take one array call.  xs colliding modulo the lattice, or -sum
    (x_i + z_i) within rho of it, raise ParameterError; a non-finite sum
    raises ThetaOverflowError.
    """
    zeta, xs, n = np.asarray(zeta, dtype=complex), np.asarray(xs, dtype=complex), params.n
    if xs.shape != zeta.shape + (n,):
        raise ParameterError("need one coordinate per site")
    ev, sgn = params.evaluator(), (-1.0) ** n
    chi = Character(sgn, sgn * cmath.exp(-_2PI_I * sum(params.zs)))
    try:  # each sample's basis takes its own two calls
        bases = [spaces.ThetaSpaceBasis(ev, n, chi, nodes) for nodes in xs.reshape(-1, n)]
    except (spaces.DegenerateNodesError, spaces.ResonantCharacterError) as exc:
        raise ParameterError(str(exc)) from exc
    weights = np.array([b.cardinal_vector(-z) for b, z in zip(bases, zeta.ravel())]).reshape(xs.shape)
    a_plus, a_minus = _shift_polys(params)
    moved = xs[..., None, :] + 2 * params.eta * np.concatenate((-np.eye(n), np.eye(n)))
    values = u(moved)  # set i of a sample moves x_i down, set n + i moves it up
    down, up = spaces.eval_elliptic_polys(ev, (a_plus, a_minus), xs)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum raises below
        total = np.sum(weights * (down * values[..., :n] + up * values[..., n:]), axis=-1)
    _require_finite(total, zeta.ravel(), "the off-grid transfer operator overflows double precision at %r")
    return complex(total) if total.ndim == 0 else total


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
    chi: Character
    eps: Callable[[complex], complex]  # the transfer eigenvalue in the separated variable x = -z

    def q_value(self, xs) -> np.ndarray:
        """q at each point of xs, from one array call."""
        return spaces.eval_elliptic_polys(self.params.evaluator(), (self.q,), xs)[0]

    def u_value(self, xs) -> np.ndarray:
        """u(x) = prod_i q(x_i) for each coordinate set of xs, shape (..., n), from one array call."""
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite product raises below
            vals = self.q_value(xs).prod(axis=-1)
        if not np.isfinite(vals).all():
            raise ThetaOverflowError("the product eigenfunction overflows double precision")
        return vals

    def eps_value(self, z):
        """Transfer eigenvalue at z or an array of z; entire in z thanks to the root conditions."""
        return self.eps(-np.asarray(z, dtype=complex))


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
    a_plus, a_minus = _shift_polys(params)
    sol = spaces.solve_difference_bethe(ev, a_plus, a_minus, 2 * params.eta, m, rng)
    q = EllipticPoly(sol.a, sol.roots)
    return ContinuousBethe(
        params=params,
        solution=sol,
        q=q,
        a_plus=a_plus,
        chi=spaces.character_of(q, params.lattice.tau),
        eps=spaces.difference_eigenvalue(ev, a_plus, a_minus, 2 * params.eta, sol),
    )
