"""Distinguishing attacks against keyed unitary and isometry candidates.

All three pipelines share one shape: build the map of the oracle blocks the
candidate calls (`oracles.oracle_blocks`), turn it in one pass into the
surrogate's map (`surrogate_blocks`: each block up to the cutoff learned by
tomography, each one above it the identity, which deletes the call), form
the keyed Choi state over ell copies from the candidate's circuits under the
first map and the surrogate state from the same circuits under the second,
then test challenges against the high singular directions of the surrogate
state. Keyed unitaries and keyed isometries are both `oracles.Candidate`
(stretch s = 0 and s > 0).

The Choi states are never built densely on the attack path. Each is held as
a factor: the Choi vectors of its ell-fold Kraus operators as the columns of
a 2^n x r matrix V, with rho = V V^dag / keys and r = keys * 2^(c ell). One
eigendecomposition of the surrogate's r x r Gram matrix gives its support
and singular values; a challenge's weight on each support direction comes
from its own factor, or, for the fully averaged reference, from the
reference overlap matrix of the support directions, a permutation gather
of the vectors themselves. Acceptance probabilities on the report path are
exact traces; randomness enters only through the optional finite-shot
tomography mode and the final challenge bit.

Register conventions follow the averaged references: copies lead, the
entangled partner trails, and inside each copy the fresh pad qubits sit in
front of the payload. `oracles.candidate_channel` returns every key's Kraus
operators in that order already, as one (keys, 2^c, 2^(s+lam), 2^lam) stack
read off the stacked circuit unitaries, whose wires put the payload first.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields
import numpy as np

from .blockenc import compact_register
from .haar import _check_perm_pairs, reference_overlap_matrix, sample_haar_unitary
from .linalg import ATOL_TRACE, choi_vectors, schatten_norm
from .oracles import Candidate, candidate_channel, oracle_blocks
from .seeds import SeedPath, as_generator
from .tomography import (
    phase_aligned_distance,
    process_tomography_exact,
    process_tomography_sampled,
)
from . import blockenc, budget, subroutines

# hybrid-bound calibration: worst observed distance/term ratio across the
# unit runs stays under 2, doubled for slack
C_HYBRID = 4.0

BACKENDS = ("ideal", "poly")
TOMOGRAPHY_MODES = ("exact", "sampled")


@dataclass(frozen=True)
class AttackConfig:
    p: int = 20
    ell_override: int | None = None
    backend: str = "ideal"
    tomography_mode: str = "exact"
    seed: SeedPath = field(default_factory=lambda: SeedPath(0))
    exponent_a: float = 1.0

    def __post_init__(self):
        if not _integer(self.p) or self.p < 2:
            raise ValueError(f"target polynomial value p must be an integer of at least 2, got {self.p!r}")
        if self.ell_override is not None and (not _integer(self.ell_override) or self.ell_override < 1):
            raise ValueError(f"copies ell must be an integer of at least 1, got {self.ell_override!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.tomography_mode not in TOMOGRAPHY_MODES:
            raise ValueError(f"unknown tomography mode {self.tomography_mode!r}")
        a = self.exponent_a
        if isinstance(a, bool) or not isinstance(a, numbers.Real) or not math.isfinite(a) or a < 1:
            raise ValueError(f"stretch exponent a must be a finite number of at least 1, got {a!r}")


def _integer(value) -> bool:
    """An integer, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def default_copies(n_keys: int) -> int:
    """ceil(log2 of the key count), floored at one copy."""
    return max(1, (int(n_keys) - 1).bit_length())


# ------------------------------------------------------------------ surrogate


def surrogate_blocks(
    blocks: dict,
    *,
    d_cutoff: int,
    mode: str = "exact",
    eps: float = 0.0,
    eta: float = 0.0,
    seed: SeedPath = SeedPath(0),
) -> tuple[dict, float, int]:
    """The surrogate's block map: each block of size n <= d_cutoff learned by process
    tomography, each larger one the identity, which deletes the call.

    Blocks go by their call key, swap keys n before rotation keys (n, m); sampled mode
    learns block n from seed's child tomo-swap/n, and block (n, m) from tomo-rot/n then
    m/m. Returns the map, the largest phase-aligned error of a learned block, and the
    tomography queries spent.
    """
    surrogate: dict = {}
    error, queries = 0.0, 0
    for key in sorted(blocks, key=lambda k: (isinstance(k, tuple), k)):
        gate = blocks[key]
        rot = isinstance(key, tuple)
        n = key[0] if rot else key
        if n > d_cutoff:
            surrogate[key] = np.eye(len(gate), dtype=np.complex128)
            continue
        if mode == "exact":
            res = process_tomography_exact(lambda v: gate @ v, len(gate))
        else:
            path = seed.child("tomo-rot", n).child("m", key[1]) if rot else seed.child("tomo-swap", n)
            res = process_tomography_sampled(lambda v: gate @ v, len(gate), eps, eta, path)
        surrogate[key] = res.estimate
        error = max(error, phase_aligned_distance(res.estimate, gate, 2))
        queries += res.queries
    return surrogate, error, queries


# ------------------------------------------------------------------ Choi states


@dataclass(frozen=True)
class ChoiFactor:
    """A keyed Choi state in Gram form, rho = vecs vecs^dag / n_keys.

    The columns of vecs are the Choi vectors of the ell-fold Kraus
    operators, grouped by key. The form is Hermitian and PSD by
    construction, so finite entries and unit trace are the complete state
    check.
    """

    vecs: np.ndarray
    n_keys: int

    def __post_init__(self):
        tr = float(np.sum(np.abs(self.vecs) ** 2)) / self.n_keys
        if not np.all(np.isfinite(self.vecs)) or abs(tr - 1.0) > ATOL_TRACE:
            raise ValueError(f"Choi factor is not a state: trace {tr}, tolerance {ATOL_TRACE}")

    def key(self, index: int) -> "ChoiFactor":
        """The columns of the index-th key alone: that key's own Choi state."""
        per = self.vecs.shape[1] // self.n_keys
        return ChoiFactor(self.vecs[:, index * per : (index + 1) * per], 1)


def keyed_choi_vectors(cand, blocks: dict | None = None, *, ell: int) -> ChoiFactor:
    """Choi vectors of the ell-fold Kraus operators of every key under `blocks`, as columns.

    Each key contributes 2^(c ell) operators; the keyed Choi state is the
    uniform key average of the per-key vector outer products, so the factor
    returned here carries everything the dense state and its support need.
    """
    qubits = (2 * cand.lam + cand.stretch_s) * ell
    budget.DEFAULT_BUDGET.check_factor(qubits, len(cand.keys), "keyed state vectors", cand.ancilla_c * ell)
    return ChoiFactor(choi_vectors(candidate_channel(cand, blocks), ell), len(cand.keys))


# ------------------------------------------------------------------ support overlap


def _reference_weights(vecs: np.ndarray, coeffs: np.ndarray, lam: int, s: int, ell: int) -> np.ndarray:
    """Weight the fully averaged reference puts on each direction vecs @ coeffs[:, i].

    The directions are combinations of Choi vectors of ell-fold operators,
    so the reference overlap matrix gives <u|rho2|u> on its diagonal; the
    reference itself is never materialized.
    """
    h = reference_overlap_matrix(vecs @ coeffs, 2**lam, 2 ** (lam + s), ell)
    return np.real(np.diag(h))


def support_overlap(cand, swap=None, hri=None, *, ell: int) -> float:
    """Exact weight the averaged reference puts on the keyed support.

    Tr[Q rho2] with Q the projector onto the span of the keyed Choi
    vectors, summed over the orthonormal basis of that span that the attack
    takes of the surrogate state (`_surrogate_support`, rank cut included).
    """
    keyed = keyed_choi_vectors(cand, oracle_blocks(cand.circuits.values(), swap, hri), ell=ell)
    _, coeffs = _surrogate_support(keyed)
    return float(np.sum(_reference_weights(keyed.vecs, coeffs, cand.lam, cand.stretch_s, ell)))


def support_chain_bound(lam: int, s: int, c: int, ell: int) -> float:
    """Rank-over-symmetric-dimension cap plus the permutation-twirl slack."""
    rank_cap = 2 ** ((1 + c) * ell)
    sym = math.comb(2 ** (2 * lam + s) + ell - 1, ell)
    return rank_cap / sym + 4.0 * ell**2 / 2 ** (lam + s)


# ------------------------------------------------------------------ attack drivers


@dataclass(frozen=True)
class AttackReport:
    kind: str
    lam: int
    ell: int
    t_queries: int
    ancilla_c: int
    stretch_s: int
    d_cutoff: int
    p: int
    backend: str
    tomography_mode: str
    accept_keyed: float
    accept_haar: float
    accept_self: float
    advantage: float
    hybrid_distance: float
    hybrid_bound: float
    eps_term: float
    deletion_term: float
    eps_claimed: float
    max_replacement_error: float
    deleted_calls: int
    tomography_queries: int
    composition_floor: float
    exact_probabilities: bool
    challenge_kind: str | None
    challenge_bit: bool | None
    challenge_prob: float | None
    crossings: tuple
    seed: str
    wall_ms: int

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["crossings"] = [dict(entry) for entry in self.crossings]
        return out


def _cutoff(kind: str, ell: int, t_queries: int, cfg: AttackConfig, c: int, s: int) -> int:
    # a candidate that never queries needs no learned blocks at all
    if t_queries == 0:
        return 0
    base = 2 * math.log2(ell * t_queries * cfg.p)
    if kind == "pru":
        return math.ceil(base) + c
    if kind == "pri":
        return math.ceil(base) + 3 * c + 2 * s
    return math.ceil((base + 2 * s + 3 * c) ** (1.0 / cfg.exponent_a))


def _deletion_term(kind: str, ell: int, t_queries: int, c: int, s: int, denom_exp: float) -> float:
    if t_queries == 0:
        return 0.0
    coef = 2.0 ** (c / 2.0) if kind == "pru" else 2.0 ** (s + 1.5 * c)
    return coef * ell * t_queries / 2.0 ** (denom_exp / 2.0)


def _surrogate_support(sur: ChoiFactor) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of a factored state and its support, from one Gram eigh.

    Applies the rank cut and renormalisation of `blockenc`'s compact
    purification, which the block-encoded distinguisher encodes: the top 2^m
    eigenvalues are scaled to unit sum. Returns (values, coeffs), direction i
    being sur.vecs @ coeffs[:, i] (orthonormal), for the directions above the
    numerical rank only.
    """
    w, u = subroutines.eigh(sur.vecs.conj().T @ sur.vecs / sur.n_keys, label="surrogate-gram")
    w = np.clip(w[::-1], 0.0, None)
    u = u[:, ::-1]
    rank, m_q = compact_register(w)
    coeffs = u[:, :rank] / np.sqrt(sur.n_keys * w[:rank])
    return w[:rank] / np.sum(w[: 2**m_q]), coeffs


def _factor_weights(sur: ChoiFactor, coeffs: np.ndarray, x: ChoiFactor) -> np.ndarray:
    """Weight the state of factor x puts on each surrogate support direction."""
    amp = coeffs.conj().T @ (sur.vecs.conj().T @ x.vecs)
    return np.sum(np.abs(amp) ** 2, axis=1) / x.n_keys


def _acceptance(values, weights, theta: float, gains) -> float:
    """Threshold-test acceptance of a challenge from its support weights.

    Ideal (gains None): the weight on directions of singular value >= theta.
    Polynomial: gains holds p(s_i)^2 for each support value, then p(0)^2; the
    acceptance is sum_i p(s_i)^2 d_i over the support, plus p(0)^2 times the
    challenge's weight off the support, where every singular value is zero;
    challenges are states, so that weight is 1 - sum_i d_i.
    """
    if gains is None:
        prob = np.sum(weights[values >= theta])
    else:
        prob = np.sum(gains[:-1] * weights) + gains[-1] * (1.0 - np.sum(weights))
    return float(np.clip(prob, 0.0, 1.0))


def _hybrid_distance(keyed: ChoiFactor, sur: ChoiFactor) -> float:
    """Trace norm of rho_keyed - rho_sur on the joint span of the two factors.

    With Q an orthonormal basis of the span of [V_keyed | V_sur] (from a QR),
    the difference is Q (A A^dag - B B^dag) Q^dag / keys with A = Q^dag V_keyed
    and B = Q^dag V_sur, whose trace norm is that of the small signed Gram
    matrix in the middle. A and B come from separate identical products, so
    equal factors give exactly zero, as the dense difference does. On small
    factors the QR and the products after it each wake OpenBLAS workers that
    then spin through the rest of the attack, so those run on one thread.
    """
    with subroutines.serial_if_small(keyed.vecs.shape[0]):
        q, _ = np.linalg.qr(np.hstack([keyed.vecs, sur.vecs]))
        qh = q.conj().T
        a, b = qh @ keyed.vecs, qh @ sur.vecs
        return schatten_norm((a @ a.conj().T) / keyed.n_keys - (b @ b.conj().T) / sur.n_keys, 1)


def check_attack_size(lam: int, s: int, c: int, keys: int, ell: int, backend: str) -> None:
    """Refuse an attack whose Choi factors, pair weights, register maps or polynomial exceed the budget."""
    qubits = (2 * lam + s) * ell
    # the threshold polynomial's degree is about 2^(qubits+2), certified at ~20k points
    if backend == "poly":
        budget.DEFAULT_BUDGET.check_dense_matrix(qubits, "poly backend")
    budget.DEFAULT_BUDGET.check_factor(qubits, keys, "keyed state vectors", c * ell)
    _check_perm_pairs(ell)
    budget.DEFAULT_BUDGET.check_factor((lam + s) * ell, math.factorial(ell), "register maps")


def _run_attack(kind, cand, swap, hri, cfg, challenge) -> AttackReport:
    # a challenge is ("keyed", one of the candidate's keys) or ("haar",), refused before any work
    if challenge is not None and challenge[0] not in ("keyed", "haar"):
        raise ValueError(f"unknown challenge kind {challenge[0]!r}; known: keyed, haar")
    if challenge is not None and challenge[0] == "keyed" and challenge[1] not in cand.keys:
        raise ValueError(f"challenge key {challenge[1]!r} is not one of the candidate's keys {cand.keys}")
    t0 = time.perf_counter()
    with subroutines.capture() as crossings:
        lam, s, c = cand.lam, cand.stretch_s, cand.ancilla_c
        ell = cfg.ell_override if cfg.ell_override is not None else default_copies(len(cand.keys))
        check_attack_size(lam, s, c, len(cand.keys), ell, cfg.backend)
        t_queries = cand.query_count
        n_qubits = (2 * lam + s) * ell
        bk = cfg.backend

        d_cut = _cutoff(kind, ell, t_queries, cfg, c, s)
        eps_claimed = 0.0 if t_queries == 0 else 1.0 / (ell * t_queries * cfg.p)
        blocks = oracle_blocks(cand.circuits.values(), swap, hri)
        sur_blocks, max_error, tomo_queries = surrogate_blocks(
            blocks,
            d_cutoff=d_cut,
            mode=cfg.tomography_mode,
            eps=eps_claimed,
            eta=eps_claimed,
            seed=cfg.seed.child("tomo"),
        )
        deleted = sum(step.n > d_cut for circ in cand.circuits.values() for step in circ.calls)

        keyed = keyed_choi_vectors(cand, blocks, ell=ell)
        sur = keyed_choi_vectors(cand, sur_blocks, ell=ell)
        values, coeffs = _surrogate_support(sur)

        hybrid = _hybrid_distance(keyed, sur)
        eps_term = ell * t_queries * eps_claimed
        denom_exp = hri.t_of(d_cut) if kind == "hri" and hri is not None else d_cut
        deletion = _deletion_term(kind, ell, t_queries, c, s, denom_exp)
        # the additive floor absorbs rounding on query-free candidates
        bound = C_HYBRID * (eps_term + deletion) + 1e-9

        # the distinguisher's window (2^-3n, 2^-2n) and eta = 2^-lam
        a, b = 2.0 ** (-3 * n_qubits), 2.0 ** (-2 * n_qubits)
        # one cosine-table evaluation of the degree ~2^(n+2) polynomial serves every challenge
        poly = blockenc.threshold_poly(a, b, 2.0 ** (-lam) / 2.0) if bk == "poly" else None
        gains = None if poly is None else poly(np.append(values, 0.0)) ** 2

        def accept(weights):
            return _acceptance(values, weights, (a + b) / 2.0, gains)

        p_self = accept(_factor_weights(sur, coeffs, sur))
        p_keyed = accept(_factor_weights(sur, coeffs, keyed))
        p_haar = accept(_reference_weights(sur.vecs, coeffs, lam, s, ell))
        advantage = abs(p_keyed - p_haar)
        floor = p_self - hybrid / 2.0 - p_haar

        ch_kind = ch_bit = ch_prob = None
        if challenge is not None:
            ch_kind = challenge[0]
            if ch_kind == "keyed":
                x = keyed.key(cand.keys.index(challenge[1]))
            else:
                d_out = 2 ** (lam + s)
                v = sample_haar_unitary(d_out, cfg.seed.child("haar-draw")).mat
                x = ChoiFactor(choi_vectors(v[None, :, : 2**lam], ell), 1)
            ch_prob = accept(_factor_weights(sur, coeffs, x))
            ch_bit = bool(as_generator(cfg.seed.child("bit-challenge")).random() < ch_prob)

    return AttackReport(
        kind=kind,
        lam=lam,
        ell=ell,
        t_queries=t_queries,
        ancilla_c=c,
        stretch_s=s,
        d_cutoff=d_cut,
        p=cfg.p,
        backend=bk,
        tomography_mode=cfg.tomography_mode,
        accept_keyed=p_keyed,
        accept_haar=p_haar,
        accept_self=p_self,
        advantage=advantage,
        hybrid_distance=hybrid,
        hybrid_bound=bound,
        eps_term=eps_term,
        deletion_term=deletion,
        eps_claimed=eps_claimed,
        max_replacement_error=max_error,
        deleted_calls=deleted,
        tomography_queries=tomo_queries,
        composition_floor=floor,
        exact_probabilities=True,
        challenge_kind=ch_kind,
        challenge_bit=ch_bit,
        challenge_prob=ch_prob,
        crossings=tuple(crossings),
        seed=cfg.seed.describe(),
        wall_ms=int(round((time.perf_counter() - t0) * 1000)),
    )


def attack_pru(
    cand: Candidate, swap=None, cfg: AttackConfig = AttackConfig(), challenge=None
) -> AttackReport:
    """Keyed-unitary attack: learn small swap blocks, project, threshold."""
    return _run_attack("pru", cand, swap, None, cfg, challenge)


def attack_pri(
    cand: Candidate, swap=None, cfg: AttackConfig = AttackConfig(), challenge=None
) -> AttackReport:
    """Keyed-isometry attack; the averaged reference carries the pad register."""
    return _run_attack("pri", cand, swap, None, cfg, challenge)


def attack_pri_vs_hri(
    cand, hri=None, cfg: AttackConfig = AttackConfig(), challenge=None
) -> AttackReport:
    """Attack against candidates built over the hidden-rotation family.

    The cutoff exponent is stretched by 1/a and the deletion denominator
    uses t(d) in place of d; everything else matches the isometry attack.
    """
    return _run_attack("hri", cand, None, hri, cfg, challenge)
