"""Block encodings and singular-value threshold measurements.

A block encoding presents a matrix M as the scaled top-left block of a
larger unitary, ancilla register leading. Density matrices get encoded
through their purification: with purifying register B and a fresh copy A' of
the system, the unitary W^dag (swap A A') W has top-left block exactly rho,
and only the purification column of W ever enters that block. The
discrimination measurement projects onto the high singular directions of an
encoded block, either exactly (ideal backend) or through a bounded
polynomial applied to the singular values (polynomial backend). That
polynomial interpolates an erf step (after Gilyen-Su-Low-Wiebe); the step
uses the standard library's `math.erf` and its normal quantile.
"""
from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .linalg import UnitaryMatrix, _as_mat
from .seeds import as_generator
from . import budget, subroutines


@dataclass(frozen=True)
class BlockEncoding:
    """(alpha, eps)-encoding of a block_dim matrix with `ancilla_qubits` ancillas.

    Exactly one backing form is set: a dense unitary, or a purification
    vector on [B (m qubits), A (n qubits)] representing the swap-trick
    unitary without materializing it.
    """

    alpha: float
    eps: float
    ancilla_qubits: int
    block_dim: int
    unitary_mat: np.ndarray | None = None
    purification: np.ndarray | None = None

    def __post_init__(self):
        if (self.unitary_mat is None) == (self.purification is None):
            raise ValueError("exactly one of unitary_mat / purification must be set")

    @classmethod
    def from_unitary(
        cls, u: UnitaryMatrix, ancilla_qubits: int, alpha: float = 1.0, eps: float = 0.0
    ) -> "BlockEncoding":
        block = u.dim >> ancilla_qubits
        return cls(alpha, eps, ancilla_qubits, block, unitary_mat=u.mat)

    def extract(self) -> np.ndarray:
        """The represented matrix: alpha times the top-left block of the unitary."""
        n = self.block_dim
        if self.unitary_mat is not None:
            return self.alpha * self.unitary_mat[:n, :n]
        psi = self.purification.reshape(-1, n)
        return self.alpha * (psi.T @ psi.conj())


def complete_to_unitary(first_column: np.ndarray) -> np.ndarray:
    """Deterministic unitary completion of a given unit first column."""
    v = np.asarray(first_column, dtype=np.complex128)
    d = v.size
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError("column to complete must be normalized")
    a = np.eye(d, dtype=np.complex128)
    a[:, 0] = v
    q, r = np.linalg.qr(a)
    q[:, 0] = q[:, 0] * r[0, 0]  # undo the QR phase so column 0 is exactly v
    return q


def purify(rho) -> UnitaryMatrix:
    """Full purifier on the doubled register; its first column purifies rho."""
    vec, _, _ = purification_vector(rho, compact=False)
    return UnitaryMatrix(complete_to_unitary(vec))


def compact_register(w: np.ndarray) -> tuple[int, int]:
    """(numerical rank, purifying qubits) for descending nonnegative eigenvalues w.

    The rank counts eigenvalues above 1e-12 times the largest; the compact
    purifying register holds at least that many slots, and at least one qubit.
    """
    rank = max(1, int(np.sum(w > 1e-12 * w[0])))
    return rank, max(1, (rank - 1).bit_length())


def purification_vector(rho, compact: bool = True):
    """Purification of rho on [B, A], eigenvalues descending.

    With compact=True the B register is only as large as the numerical rank
    requires (at least one qubit). Returns (vector, n_qubits, m_qubits).
    """
    mat = _as_mat(rho)
    d = mat.shape[0]
    n_q = d.bit_length() - 1
    if 2**n_q != d:
        raise ValueError("purification needs a power-of-2 system dimension")
    w, v = subroutines.eigh((mat + mat.conj().T) / 2, label="purify")
    w = np.clip(w[::-1], 0.0, None)
    v = v[:, ::-1]
    m_q = compact_register(w)[1] if compact else n_q
    b = 2**m_q
    w = w[:b]
    w = w / np.sum(w)
    vec = (np.sqrt(w)[:, None] * v[:, :b].T).reshape(-1)
    return vec, n_q, m_q


def block_encode_density(purifier, n_qubits: int, m_qubits: int) -> BlockEncoding:
    """Exact (1, 0, n+m)-encoding of the density purified by `purifier`.

    `purifier` is either the purifying unitary (its first column is used) or
    the purification vector itself, laid out on [B (m), A (n)].
    """
    if isinstance(purifier, UnitaryMatrix):
        vec = purifier.mat[:, 0]
    else:
        vec = np.asarray(purifier, dtype=np.complex128).reshape(-1)
    if vec.size != 2 ** (n_qubits + m_qubits):
        raise ValueError("purifier size does not match the declared registers")
    return BlockEncoding(
        alpha=1.0,
        eps=0.0,
        ancilla_qubits=n_qubits + m_qubits,
        block_dim=2**n_qubits,
        purification=vec,
    )


def encode_density(rho, compact: bool = True) -> BlockEncoding:
    vec, n_q, m_q = purification_vector(rho, compact=compact)
    return block_encode_density(vec, n_q, m_q)


def dilation_encoding(m: np.ndarray) -> BlockEncoding:
    """One-ancilla exact encoding of an arbitrary matrix with norm at most 1."""
    m = np.asarray(m, dtype=np.complex128)
    u, s, vh = np.linalg.svd(m)
    if s.size and s[0] > 1 + 1e-9:
        raise ValueError("dilation needs spectral norm at most 1")
    c = np.sqrt(np.clip(1 - s**2, 0.0, None))
    d = m.shape[0]
    mid = np.block(
        [[np.diag(s), np.diag(c)], [np.diag(c), -np.diag(s)]]
    )
    left = np.block(
        [[u, np.zeros((d, d))], [np.zeros((d, d)), vh.conj().T]]
    )
    right = np.block(
        [[vh, np.zeros((d, d))], [np.zeros((d, d)), u.conj().T]]
    )
    return BlockEncoding.from_unitary(
        UnitaryMatrix(left @ mid @ right), ancilla_qubits=1
    )


def verify_block_encoding(be: BlockEncoding, target) -> float:
    """Spectral-norm defect between the represented block and the target."""
    return float(np.linalg.norm(be.extract() - _as_mat(target), 2))


# ------------------------------------------------------------- threshold polynomial

# points per certification grid, linear and log-spaced alike
GRID_POINTS = 10_000

# a candidate degree is first screened on every SUBSET_STRIDE-th grid point
SUBSET_STRIDE = 16


@dataclass(frozen=True)
class ThresholdPoly:
    """Bounded polynomial step: within eta of 0 on [0, a] and of 1 on [b, 1]."""

    a: float
    b: float
    eta: float
    coeffs: np.ndarray
    degree: int
    low_max: float
    high_min: float

    def __call__(self, x):
        """sum_k c_k T_k(t) at t = 2x - 1, as sum_k c_k cos(k arccos t).

        One cosine table of points x (degree + 1) per chunk of points, the
        chunks sized by the factor budget. Clenshaw would make ~3 ufunc calls
        per degree, which cost more than the table at an attack's few points;
        certification keeps `chebval`, cheaper per entry on its 20k-point grid.
        """
        theta = np.arccos(2.0 * np.clip(x, 0.0, 1.0) - 1.0)
        flat = theta.reshape(-1)
        k = np.arange(float(self.coeffs.size))
        out = np.empty(flat.size)
        for rows in budget.DEFAULT_BUDGET.chunks(flat.size, k.size):
            sl = slice(rows.start, rows.stop)
            out[sl] = np.cos(np.multiply.outer(flat[sl], k)) @ self.coeffs
        # a scalar in gives a scalar out, as chebval does
        return out.reshape(theta.shape)[()]


def _chebyshev_coeffs(samples: np.ndarray) -> np.ndarray:
    """Coefficients of the interpolant through samples taken at `chebpts1` points.

    The points ascend, x_k = -cos(pi (k + 1/2) / N), so the samples reversed
    sit at cos(pi (k + 1/2) / N), and their DCT-II, taken as an FFT of the
    even extension, gives N times the coefficients (2N times c_0).
    """
    n = samples.size
    desc = samples[::-1]
    spec = np.fft.rfft(np.concatenate([desc, samples]))[:n]
    coeffs = (spec * np.exp(-0.5j * np.pi * np.arange(n) / n)).real / n
    coeffs[0] /= 2.0
    return coeffs


_erf = np.frompyfunc(math.erf, 1, 1)  # math.erf element-wise


def _kappa(a: float, b: float, eta_target: float) -> float:
    """The step's slope 2 erfinv(1 - 2 eta) / (b - a), by the normal quantile: no 1 - 2 eta cancellation."""
    return -math.sqrt(2.0) * statistics.NormalDist().inv_cdf(eta_target) / (b - a)


def _poly_candidate(a: float, b: float, eta_target: float, degree: int) -> np.ndarray:
    x = (_cheb.chebpts1(degree + 1) + 1.0) / 2.0
    step = _erf(_kappa(a, b, eta_target) * (x - (a + b) / 2.0)).astype(float)
    return _chebyshev_coeffs(0.5 * (1.0 + step))


@functools.lru_cache(maxsize=16)
def _grid(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Certification grid on [0, 1] with a and b on it, and its screening subset."""
    # log-spaced points keep the check honest when a and b sit deep below 1
    xs = np.unique(
        np.concatenate(
            [np.linspace(0.0, 1.0, GRID_POINTS), np.geomspace(1e-12, 1.0, GRID_POINTS), [a, b]]
        )
    )
    sub = xs[np.union1d(np.arange(0, xs.size, SUBSET_STRIDE), np.searchsorted(xs, [a, b]))]
    xs.flags.writeable = sub.flags.writeable = False
    return xs, sub


def _grid_check(coeffs: np.ndarray, xs: np.ndarray, a: float, b: float):
    vals = _cheb.chebval(2.0 * xs - 1.0, coeffs)
    # renormalize into [0, 1] with a small buffer for off-grid excursions
    pad = 1.05 * max(0.0, -float(np.min(vals)), float(np.max(vals)) - 1.0) + 1e-15
    scale = 1.0 + 2.0 * pad
    coeffs = coeffs / scale
    coeffs[0] += pad / scale
    # the renormalization is affine and increasing, so it maps extremes to extremes
    low_max = (float(np.max(vals[xs <= a])) + pad) / scale
    high_min = (float(np.min(vals[xs >= b])) + pad) / scale
    return coeffs, low_max, high_min


def _fails_subset(coeffs: np.ndarray, xs: np.ndarray, a: float, b: float, eta: float) -> bool:
    """Whether the raw candidate already misses a margin on the points xs.

    The renormalization of `_grid_check` only moves values toward 1/2, so a
    miss here is a miss on the full grid; the 1e-9 slack absorbs rounding.
    """
    vals = _cheb.chebval(2.0 * xs - 1.0, coeffs)
    low, high = vals[xs <= a], vals[xs >= b]
    return bool(np.any(low > eta + 1e-9) or np.any(high < 1.0 - eta - 1e-9))


@functools.lru_cache(maxsize=128)
def threshold_poly(a: float, b: float, eta: float) -> ThresholdPoly:
    """Adaptive-degree Chebyshev step, validated on a dense grid.

    The degree starts at 64 and doubles until the grid certifies the eta
    margins, capped by ceil(8/(b-a) * ln(4/eta)). Each candidate interpolates
    an erf step at first-kind Chebyshev points, its coefficients taken by a
    DCT. A candidate is screened on every 16th grid point plus a and b, and
    only one that passes is evaluated on the whole grid. Results are cached
    by (a, b, eta), so the returned coefficients are read-only.
    """
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("need 0 <= a < b <= 1")
    if not (0.0 < eta < 0.5):
        raise ValueError("need eta in (0, 1/2)")
    xs, sub = _grid(a, b)
    cap = math.ceil(8.0 / (b - a) * math.log(4.0 / eta))
    degree = min(64, cap)
    while True:
        coeffs = _poly_candidate(a, b, 0.7 * eta, degree)
        if not _fails_subset(coeffs, sub, a, b, eta):
            coeffs, low_max, high_min = _grid_check(coeffs, xs, a, b)
            if low_max <= eta and high_min >= 1.0 - eta:
                coeffs.flags.writeable = False
                return ThresholdPoly(a, b, eta, coeffs, degree, low_max, high_min)
        if degree >= cap:
            raise ValueError(
                f"threshold polynomial failed to certify by the degree cap {cap}"
            )
        degree = min(2 * degree, cap)


# ------------------------------------------------------------- discrimination


def sv_projector(mat: np.ndarray, theta: float) -> tuple[np.ndarray, int]:
    """Projector onto right singular vectors with singular value >= theta."""
    _, s, vh = subroutines.svd(mat, label="sv-projector")
    sel = s >= theta
    vs = vh[sel]
    return vs.conj().T @ vs, int(np.sum(sel))


@dataclass(frozen=True)
class DiscriminationResult:
    accept_prob: float
    accept: bool
    backend: str
    threshold: float
    rank_above: int
    poly_degree: int | None = None


def svd_discriminate(
    be: BlockEncoding,
    xi,
    a: float,
    b: float,
    eta: float,
    backend: str = "ideal",
    seed=0,
) -> DiscriminationResult:
    """Accept if the test state sits in the high singular directions of the block.

    On inputs promised inside the span of right singular vectors with value
    >= b the acceptance probability is >= 1 - eta; on inputs supported where
    every value is <= a it is <= eta. The ideal backend projects exactly at
    the midpoint threshold; the polynomial backend applies a bounded
    threshold polynomial to the singular values and measures its flag, so
    its acceptance is sum_i p(s_i)^2 <v_i| xi |v_i>.
    """
    m = be.extract()
    state = _as_mat(xi)
    if state.shape[0] != be.block_dim:
        raise ValueError("test state does not match the encoded block")
    theta = (a + b) / 2.0
    if backend == "ideal":
        proj, rank = sv_projector(m, theta)
        prob = float(np.clip(np.real(np.trace(proj @ state)), 0.0, 1.0))
        degree = None
    elif backend == "poly":
        poly = threshold_poly(a, b, eta / 2.0)
        _, s, vh = subroutines.svd(m, label="sv-transform")
        weights = poly(np.clip(s, 0.0, 1.0)) ** 2
        # ket of the i-th right singular vector is vh[i].conj()
        diag = np.real(np.einsum("ij,jk,ik->i", vh, state, vh.conj()))
        prob = float(np.clip(np.sum(weights * np.clip(diag, 0.0, None)), 0.0, 1.0))
        rank = int(np.sum(s >= theta))
        degree = poly.degree
    else:
        raise ValueError(f"unknown backend {backend!r}")
    accept = bool(as_generator(seed).random() < prob)
    return DiscriminationResult(prob, accept, backend, theta, rank, degree)


def tail_mass_bounds(be: BlockEncoding, rho, eps: float, p_exp: int):
    """Mass of rho on the kept singular directions of a 2^-p-accurate block.

    Returns (mass, lower) where the kept directions are the right singular
    vectors of the encoded block with value >= eps and
    lower = 1 - 2^(n-p+1) - 2^n eps for an n-qubit block.
    """
    state = _as_mat(rho)
    n = int(round(math.log2(be.block_dim)))
    proj, _ = sv_projector(be.extract(), eps)
    mass = float(np.real(np.trace(proj @ state)))
    lower = 1.0 - 2.0 ** (n - p_exp + 1) - 2.0**n * eps
    return mass, lower


def kernel_leakage_bounds(be: BlockEncoding, psi: np.ndarray, eps: float, p_exp: int):
    """Norm a kernel vector of the ideal block leaks past the eps cut.

    For psi annihilated by the target block and an encoding within 2^-p of
    it, returns (leak, cap) with leak = |Pi_{>=eps} psi| and cap = 2^-p / eps.
    """
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    if vec.shape[0] != be.block_dim:
        raise ValueError("kernel vector does not match the encoded block")
    proj, _ = sv_projector(be.extract(), eps)
    leak = float(np.linalg.norm(proj @ vec))
    cap = 2.0 ** (-p_exp) / eps
    return leak, cap
