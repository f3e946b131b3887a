"""Experiment harness: named checks, attack presets, reports, suites.

A check is `fn(seed, *, name=default, ...) -> (lhs, bound, calibration)`:
its keyword defaults are all the parameters it reads.
Every check reduces to one scalar comparison, lhs <= calibration * bound,
and reports the seed label plus wall time so a run can be replayed or
diffed. Bounds that hold with an absolute constant use calibration 1;
rate bounds stated up to a constant use the calibration frozen here.
Reports serialize to json (lossless modulo timing) or flat csv rows; a
sweep writes an x,y companion file next to the main one.

Checks and attacks run one after another on the calling thread. On a
2-vCPU VM a 4-worker pool made the 20 checks of `suite fast` about 1.5x
slower than a loop (median 0.53 s against 0.34 s over 10 runs): the checks
are small numpy calls glued by Python, so the workers mostly wait for the
interpreter. The OpenBLAS thread count that subroutines lowers for small
calls is also process-wide, so a pooled neighbour would change another
check's rounding.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import numbers
import os
import tempfile
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__, adversary, blockenc, budget, games, haar, seeds, subroutines
from . import linalg as la
from .adversary import AttackConfig, AttackReport
from .oracles import HriOracleFamily, SwapOracleFamily
from .seeds import SeedPath
from .toys import _CALL_WIRES, toy_hri_candidate, toy_pri_candidate, toy_pru_candidate

# ------------------------------------------------------------------- results


def _field_dict(obj) -> dict:
    """A dataclass's fields by name, values as they are: no recursive copy."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@dataclass(frozen=True)
class LemmaCheckResult:
    """One scalar check: passed iff lhs / bound <= calibration."""

    lemma_id: str
    params: dict
    lhs: float
    bound: float
    ratio: float
    calibration: float
    passed: bool
    seed: str
    runtime_ms: int

    def as_dict(self) -> dict:
        d = _field_dict(self)
        d["params"] = dict(self.params)
        d["pass"] = d.pop("passed")
        return d


# the lowest value of each named setting, check or attack parameter; delta, a
# deviation of a probability, lies in (0, 1] instead
_LOWEST = {
    "lam": 1, "ell": 1, "n": 1, "members": 1, "keys": 1, "trials": 1, "samples": 1,
    "d": 2, "s": 0, "c": 0, "calls": 0, "p": 2, "a": 1,
}


def _take(params: dict, **defaults):
    """Fill defaults and type each value as its default is typed.

    Unknown keys fault, as do integer parameters that are not integers (an
    integral float is taken; a bool or a string is not), numbers given as
    strings or not finite, and values out of range.
    """
    extra = sorted(set(params) - set(defaults))
    if extra:
        raise ValueError(f"unknown parameters {extra}, expected from {sorted(defaults)}")
    out = {}
    for k, v in defaults.items():
        val = params.get(k, v)
        if isinstance(v, int):
            if isinstance(val, float) and val.is_integer():
                val = int(val)
            if isinstance(val, bool) or not isinstance(val, numbers.Integral):
                raise ValueError(f"parameter {k} must be an integer, got {val!r}")
            val = int(val)
        elif isinstance(v, float):
            if isinstance(val, bool) or not isinstance(val, numbers.Real) or not math.isfinite(val):
                raise ValueError(f"parameter {k} must be a finite number, got {val!r}")
            val = float(val)
        else:
            val = str(val)
        if k in _LOWEST and val < _LOWEST[k]:
            raise ValueError(f"parameter {k} must be at least {_LOWEST[k]}, got {val}")
        out[k] = val
    if "delta" in out and not 0 < out["delta"] <= 1:
        raise ValueError(f"parameter delta must lie in (0, 1], got {out['delta']}")
    return out


def _rand_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = la.ginibre(rng, d)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------- norm inequalities


def _gentle_measurement(seed: SeedPath, *, d=8, trials=30):
    # even trials: a rank d-2 projector on a pure state, which sits exactly at the bound;
    # odd trials: an operator of spectrum in [0.2, 1] on a mixed state
    def ratios(idx) -> np.ndarray:
        zs, weights, rhos = [], [], []
        for i, rng in zip(idx, seeds.generators([seed.child("inst", i) for i in idx])):
            zs.append(la.ginibre(rng, d))
            if i % 2 == 0:
                weights.append(np.repeat([1.0, 0.0], [d - 2, 2]))
                psi = la.random_state_from(rng, d)
                rhos.append(np.outer(psi, psi.conj()))
            else:
                weights.append(rng.uniform(0.2, 1.0, size=d))
                rhos.append(_rand_density(rng, d))
        basis = la.haar_from_ginibre(np.stack(zs))
        m = (basis * np.stack(weights)[:, None, :]) @ basis.conj().swapaxes(-1, -2)
        rho = np.stack(rhos)
        eps = 1.0 - np.real(np.trace(m @ rho, axis1=-2, axis2=-1))
        keep = (eps >= 1e-12) & (eps <= 0.95)
        _, dist = la.gentle_residual(m[keep], rho[keep])
        return dist / np.sqrt(eps[keep])

    return float(np.max(games._stacked(trials, d * d, ratios), initial=0.0)), 1.0, 1.0 + 1e-9


def _holder_product(seed: SeedPath, *, d=6, trials=40):
    # trial i compares Schatten norms of order (1, 2, inf)[i % 3]
    def ratios(idx) -> np.ndarray:
        a, b = la.complex_normals([seed.child("inst", i) for i in idx], (d, d), (d, d))
        order = np.array(idx) % 3
        out = []
        for k, sp in enumerate((1.0, 2.0, np.inf)):
            ak, bk = a[order == k], b[order == k]
            den = la.schatten_norm(ak, sp) * la.schatten_norm(bk, np.inf)
            out.append(la.schatten_norm(ak @ bk, sp) / den)
        return np.concatenate(out)

    return float(np.max(games._stacked(trials, 2 * d * d, ratios), initial=0.0)), 1.0, 1.0 + 1e-9


def _two_query_lipschitz(seed: SeedPath, *, d=8, trials=100):
    res = games.two_query_lipschitz_check(d, trials, seed)
    return res.max_ratio, 1.0, 1.0 + 1e-9


def _conjugation_lipschitz(seed: SeedPath, *, d=8, trials=100):
    def gap_dist(pairs):
        zs, hs, psis = la.complex_normals([seed.child("pair", i) for i in pairs], (d, d), (d, d), (d,))
        psis /= la.row_norms(psis)[:, None]
        u = la.haar_from_ginibre(zs)
        h = (hs + np.swapaxes(hs.conj(), -1, -2)) / 2
        scales = np.array([10.0 ** (-3 + 3.5 * i / max(1, trials - 1)) for i in pairs])
        v = u @ subroutines.expi((scales / np.linalg.norm(h, 2, axis=(-2, -1)))[:, None, None] * h)
        x, y = u @ psis[..., None], v @ psis[..., None]
        ru, rv = x * x.conj().transpose(0, 2, 1), y * y.conj().transpose(0, 2, 1)
        return np.linalg.norm(ru - rv, axis=(-2, -1)), np.linalg.norm(u - v, axis=(-2, -1))

    # one call of U on a fixed state; the ratio is against 2 ||U - V||_F
    return games.lipschitz_pairs(trials, 1, 2.0, d * d, gap_dist).max_ratio, 1.0, 1.0 + 1e-9


def _family_lipschitz(seed: SeedPath, *, d=4, members=2, trials=50):
    res = games.family_lipschitz_check(d, members, trials, seed)
    return res.max_ratio, 1.0, 1.0 + 1e-9


# ------------------------------------------------------- moments and twirl rates


def _state_moment_mc(seed: SeedPath, *, d=4, ell=2, samples=20_000):
    got = haar.state_moment_mc(d, ell, samples, seed)
    dist = la.trace_distance(got, haar.state_moment_exact(d, ell))
    # budgeted at 0.02 for 1e5 draws, scaled by the usual mc root law
    bound = 0.02 * math.sqrt(1e5 / samples)
    return dist, bound, 1.0


def _pair_to_block(mat: np.ndarray, d_copy: int, d_partner: int, ell: int) -> np.ndarray:
    """Reorder [C_1 P_1 .. C_ell P_ell] into [C_1 .. C_ell | P_1 .. P_ell].

    Dense route for the Choi-rate distances, kept as the reference that
    haar.choi_moment_distance is tested against.
    """
    dims = [d_copy, d_partner] * ell
    perm = list(range(0, 2 * ell, 2)) + list(range(1, 2 * ell, 2))
    return la.permute_subsystems(mat, dims, perm)


def _twirl_choi_rate(seed: SeedPath, *, lam=2, ell=2):
    dist = haar.choi_moment_distance(2**lam, 2**lam, ell)
    return float(dist), ell**2 / 2**lam, 4.0


def _isometry_choi_rate(seed: SeedPath, *, lam=1, s=1, ell=2):
    dist = haar.choi_moment_distance(2 ** (lam + s), 2**lam, ell)
    return float(dist), ell**2 / 2 ** (lam + s), 4.0


def _permutation_twirl_rate(seed: SeedPath, *, n=2, ell=2):
    rho = _rand_density(seed.rng(), 2 ** (n * ell) * 2)
    exact = haar.twirl_exact(rho, 2**n, ell)
    approx = haar.twirl_permutation_approx(rho, n, ell)
    dist = la.trace_distance(exact.mat, (approx + approx.conj().T) / 2)
    return dist, ell**2 / 2**n, 4.0


# --------------------------------------------------------- oracle identities


def _choi_shrinkage(seed: SeedPath, *, n=3):
    member = SwapOracleFamily(seed.child("family")).dense_oracle(n).mat
    measured = np.linalg.norm(np.eye(member.shape[0]) - member) / math.sqrt(2 ** (2 * n + 1))
    return abs(measured - 2 ** ((1 - n) / 2)), 1e-9, 1.0


def _hri_trace(seed: SeedPath, *, n=2, stretch="n"):
    fam = HriOracleFamily(seed.child("family"), stretch=stretch)
    t = fam.t_of(n)
    expected = 2 ** (n + t + 1) - 2 ** (n + 1)
    worst = max(
        abs(float(np.real(np.trace(fam.oracle(n, m).mat))) - expected)
        for m in range(min(4, 2**n))
    )
    return worst, 1e-9, 1.0


def _omega_transpose(seed: SeedPath, *, trials=50):
    # trial i draws a d_out x d_in isometry, 2 <= d_in <= d_out <= 8 and d_in <= 6, whose largest
    # array, I (x) A^T, holds d_out d_in x d_out^2 entries; each shape takes one QR and one residual
    def residuals(idx) -> np.ndarray:
        draws = {}
        for rng in seeds.generators([seed.child("iso", i) for i in idx]):
            d_in = int(rng.integers(2, 7))
            d_out = int(rng.integers(d_in, 9))
            draws.setdefault((d_out, d_in), []).append(la.ginibre(rng, d_out, d_in))
        isometries = (np.linalg.qr(np.stack(z))[0] for z in draws.values())
        return np.concatenate([la.transpose_identity_residual(q) for q in isometries])

    return float(np.max(games._stacked(trials, 8 * 6 * 8 * 8, residuals), initial=0.0)), 1e-10, 1.0


def _one_call_distance(width: int, lam: int, trials: int, gate_of, seed: SeedPath) -> float:
    """Largest trace distance a single embedded oracle call makes inside a random circuit
    holding half of a maximally entangled pair, over the trials.

    Trial i runs U E V on `width` qubits, E the gate `gate_of(i)` on the leading
    wires, with V drawn from seed.child("draw", i).child("v"). The pair's
    circuit half enters as B = [I; 0] / sqrt(2^lam), so the states U E V B and
    U V B overlap in tr(B^dag V^dag E V B): U cancels and is not drawn, and only
    the first 2^lam columns of V enter, so only they are orthonormalised. V's
    whole Ginibre matrix is still drawn, so those columns are the ones a full
    draw gives; its real and imaginary parts are cut to them before they are combined.
    """
    k = 2**lam

    def dists(idx) -> np.ndarray:
        z = seeds.normals([seed.child("draw", i).child("v") for i in idx], 2 * 4**width)
        z = z.reshape(len(idx), 2, 2**width, 2**width)[..., :k]
        vb = la.haar_from_ginibre(z[:, 0] + 1j * z[:, 1])
        gates = np.stack([gate_of(i) for i in idx])
        evb = (gates @ vb.reshape(len(idx), gates.shape[-1], -1)).reshape(vb.shape)
        ov = np.abs(np.sum(vb.conj() * evb, axis=(-2, -1)) / k) ** 2
        return np.sqrt(np.maximum(0.0, 1.0 - ov))

    return float(np.max(games._stacked(trials, 4**width, dists)))


def _swap_call_closeness(seed: SeedPath, *, lam=3, c=3, n=2, trials=5):
    gate = SwapOracleFamily(seed.child("family")).dense_oracle(n).mat
    worst = _one_call_distance(lam + c, lam, trials, lambda i: gate, seed)
    return worst, 2.0 ** ((c - n) / 2), 4.0


def _hri_call_closeness(seed: SeedPath, *, lam=3, c=3, n=1, stretch="n", trials=5):
    fam = HriOracleFamily(seed.child("family"), stretch=stretch)
    t = fam.t_of(n)
    worst = _one_call_distance(lam + c, lam, trials, lambda i: fam.oracle(n, i % 2**n).mat, seed)
    return worst, 2.0 ** (c - t / 2), 4.0


def _support_overlap(seed: SeedPath, *, lam=2, ell=2, keys=4):
    cand = toy_pru_candidate(lam, keys, seed.child("cand"))
    weight = adversary.support_overlap(cand, ell=ell)
    return weight, adversary.support_chain_bound(lam, 0, 0, ell), 1.0


# ------------------------------------------------------------- spectral caps


def _perturbed_unitary(seed: SeedPath, d: int, p_exp: int):
    rng = seed.rng()
    u = la.random_unitary_from(rng, d)
    h = la.ginibre(rng, d)
    h = (h + h.conj().T) / 2
    h /= np.linalg.norm(h, 2)
    delta = 2.0 ** (-p_exp - 1)
    return u @ subroutines.expi(delta * h) * (1.0 - delta)


def _sv_tail_mass(seed: SeedPath, *, n=3, trials=5):
    p_exp = 4 * n
    eps = 2.0 ** (-2 * n)
    worst = 0.0
    for i in range(trials):
        sub = seed.child("inst", i)
        enc = blockenc.dilation_encoding(_perturbed_unitary(sub, 2**n, p_exp))
        rho = _rand_density(sub.child("rho").rng(), 2**n)
        mass, _ = blockenc.tail_mass_bounds(enc, rho, eps, p_exp)
        worst = max(worst, 1.0 - mass)
    return worst, 2.0 ** (n - p_exp + 1) + 2.0**n * eps, 1.0


def _kernel_leakage(seed: SeedPath, *, n=3, trials=5):
    d, p_exp = 2**n, 4 * n
    eps = 2.0 ** (-2 * n)
    worst = 0.0
    for rng in seeds.generators([seed.child("inst", i) for i in range(trials)]):
        u = la.random_unitary_from(rng, d)
        w = la.random_unitary_from(rng, d)
        sv = np.sort(rng.uniform(0.3, 0.9, size=d))[::-1]
        sv[-1] = 0.0
        m = u @ np.diag(sv) @ w.conj().T
        e = la.ginibre(rng, d)
        a = m + 2.0 ** (-p_exp - 1) * (e / np.linalg.norm(e, 2))
        leak, _ = blockenc.kernel_leakage_bounds(
            blockenc.dilation_encoding(a), w[:, -1], eps, p_exp
        )
        worst = max(worst, leak)
    return worst, 2.0 ** (-p_exp) / eps, 1.0


# -------------------------------------------------------------- game checks


def _haar_concentration(seed: SeedPath, *, d=8, trials=200, delta=0.3):
    res = games.haar_concentration_check(d, trials, delta, seed)
    return res.exceed_fraction, res.bound, 1.0


def _prfsg_mean(seed: SeedPath, *, lam=2, trials=200):
    res = games.prfsg_game(lam, trials, seed)
    return abs(res.mean_advantage), res.mean_bound, 1.0


def _prfsg_tail(seed: SeedPath, *, lam=2, trials=200):
    res = games.prfsg_game(lam, trials, seed)
    return res.tail_fraction, res.tail_bound, 1.0


CHECKS = {
    "gentle-measurement": _gentle_measurement,
    "holder-product": _holder_product,
    "two-query-lipschitz": _two_query_lipschitz,
    "conjugation-lipschitz": _conjugation_lipschitz,
    "family-lipschitz": _family_lipschitz,
    "state-moment-mc": _state_moment_mc,
    "twirl-choi-rate": _twirl_choi_rate,
    "isometry-choi-rate": _isometry_choi_rate,
    "permutation-twirl-rate": _permutation_twirl_rate,
    "choi-shrinkage": _choi_shrinkage,
    "hri-trace": _hri_trace,
    "omega-transpose": _omega_transpose,
    "swap-call-closeness": _swap_call_closeness,
    "hri-call-closeness": _hri_call_closeness,
    "support-overlap": _support_overlap,
    "sv-tail-mass": _sv_tail_mass,
    "kernel-leakage": _kernel_leakage,
    "haar-concentration": _haar_concentration,
    "prfsg-mean-advantage": _prfsg_mean,
    "prfsg-tail": _prfsg_tail,
}


def _call_width(wires: int, lam: int, c: int) -> int:
    if wires > lam + c:
        raise ValueError(f"call on {wires} wires exceeds width {lam + c}")
    return lam + c


def _rotation_wires(n: int, stretch: str) -> int:
    return 1 + HriOracleFamily(SeedPath(0), stretch=stretch).t_of(n) + n


def _permutation_twirl_size(n: int, ell: int) -> None:
    budget.DEFAULT_BUDGET.check_dense_matrix(n * ell + 1, "permutation-twirl-rate")
    haar._check_perm_pairs(ell)


def _game_size(lam: int, trials: int) -> None:
    budget.DEFAULT_BUDGET.check_factor(2 * lam, 1, "game key states", lam)


def _matrices_size(d: int, members: int = 1, **_) -> None:
    """Size the `members` d x d matrices a check draws in each trial as one factor."""
    qubits = la.register_qubits(d, 1)
    budget.DEFAULT_BUDGET.check_factor(qubits, members, "a trial's d x d matrices", qubits)


# each check's premises, from its resolved parameters: an entry raises on a failed
# premise or an oversized object, and may return the qubits of the largest dense
# matrix the check builds for _resolve_check to size, all before any run starts
_PREMISES = {
    "gentle-measurement": _matrices_size,
    "holder-product": _matrices_size,
    "two-query-lipschitz": _matrices_size,
    "conjugation-lipschitz": _matrices_size,
    "family-lipschitz": _matrices_size,
    "haar-concentration": _matrices_size,
    "state-moment-mc": lambda d, ell, **_: la.register_qubits(d, ell),
    "twirl-choi-rate": lambda ell, **_: haar._check_moment_ell(ell),
    "isometry-choi-rate": lambda ell, **_: haar._check_moment_ell(ell),
    "permutation-twirl-rate": _permutation_twirl_size,
    "choi-shrinkage": lambda n: 2 * n + 1,
    "hri-trace": lambda n, stretch: _rotation_wires(n, stretch),
    "swap-call-closeness": lambda lam, c, n, **_: _call_width(2 * n + 1, lam, c),
    "hri-call-closeness": lambda lam, c, n, stretch, **_: _call_width(
        _rotation_wires(n, stretch), lam, c
    ),
    "support-overlap": lambda lam, ell, keys: adversary.check_attack_size(lam, 0, 0, keys, ell, "ideal"),
    "sv-tail-mass": lambda n, **_: n + 1,
    "kernel-leakage": lambda n, **_: n + 1,
    "prfsg-mean-advantage": _game_size,
    "prfsg-tail": _game_size,
}


def _resolve_check(lemma_id: str, params: dict):
    """A check and its parameters, filled from its keyword defaults, typed and held to its premises."""
    if lemma_id not in CHECKS:
        raise ValueError(f"unknown check {lemma_id!r}; known: {', '.join(sorted(CHECKS))}")
    fn = CHECKS[lemma_id]
    resolved = _take(params, **fn.__kwdefaults__)
    qubits = _PREMISES[lemma_id](**resolved) if lemma_id in _PREMISES else None
    if qubits is not None:
        budget.DEFAULT_BUDGET.check_dense_matrix(qubits, lemma_id)
    return fn, resolved


def lemma_check(lemma_id: str, params: dict | None = None, seed: SeedPath | None = None) -> LemmaCheckResult:
    """Run one named check and wrap the comparison into a result row."""
    fn, resolved = _resolve_check(lemma_id, dict(params or {}))
    seed = seed if seed is not None else SeedPath(0)
    t0 = time.perf_counter()
    lhs, bound, calibration = fn(seed, **resolved)
    ratio = lhs / bound
    return LemmaCheckResult(
        lemma_id=lemma_id,
        params=resolved,
        lhs=float(lhs),
        bound=float(bound),
        ratio=float(ratio),
        calibration=float(calibration),
        passed=bool(ratio <= calibration),
        seed=seed.describe(),
        runtime_ms=int(round((time.perf_counter() - t0) * 1000)),
    )


# -------------------------------------------------------------- experiments

# per-config fields a lemma run forwards into the check parameters
_LEMMA_FIELDS = ("lam", "ell", "s", "c", "trials")
_ATTACK_FIELDS = ("lam", "ell", "c", "p", "backend", "tomography_mode")

# what each experiment kind reads besides the seed; "extra" stands for the
# free-form parameters. A run refuses a setting its kind would ignore.
_READS = {
    "lemma": _LEMMA_FIELDS + ("lemma_ids", "extra"),
    "attack-pru": _ATTACK_FIELDS + ("extra",),
    "attack-pri": _ATTACK_FIELDS + ("s", "extra"),
    "attack-pri-vs-hri": _ATTACK_FIELDS + ("extra",),
    "prfsg-game": _LEMMA_FIELDS + ("extra",),
    "suite-all": (),
    "suite-fast": (),
}
_SETTINGS = ("lam", "ell", "s", "c", "p", "trials", "seed", "backend", "tomography_mode")
_CHOICES = {"backend": adversary.BACKENDS, "tomography_mode": adversary.TOMOGRAPHY_MODES}
REPORT_FORMATS = ("json", "csv")

# the checks a prfsg-game run reports
_GAME_CHECKS = ("prfsg-mean-advantage", "prfsg-tail")


def _setting(name: str, value):
    """A run setting as typed: a backend or tomography mode by name, the rest
    integers, bounded as the parameters of the same name are."""
    if name not in _CHOICES:
        return _take({name: value}, **{name: 0})[name]
    if value not in _CHOICES[name]:
        raise ValueError(f"unknown {name.replace('_', ' ')} {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One harness invocation; None means the item's own default applies.

    The settings, and the values of a swept setting, are typed here once:
    integers by `_take`, backend and tomography mode by name. A value given
    twice faults, and so does any run the config describes, a suite's too,
    whose check or toy parameters do not resolve: `_runs` lists them all here,
    once, into `runs`, which `run_experiment` runs.
    """

    kind: str = "lemma"
    lemma_ids: tuple = ()
    lam: int | None = None
    ell: int | None = None
    s: int | None = None
    c: int | None = None
    p: int | None = None
    trials: int | None = None
    seed: int = 0
    backend: str | None = None
    tomography_mode: str | None = None
    out_path: str | None = None
    fmt: str = "json"
    sweep: tuple | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _READS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.fmt not in REPORT_FORMATS:
            raise ValueError(f"unknown report format {self.fmt!r}")
        for name in _SETTINGS:
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _setting(name, getattr(self, name)))
        object.__setattr__(self, "lemma_ids", tuple(self.lemma_ids))
        if self.kind == "lemma" and not self.lemma_ids:
            raise ValueError("a lemma run needs at least one check id")
        if self.sweep is not None:
            param, values = self.sweep
            if not values:
                raise ValueError("sweep needs at least one value")
            if param in _SETTINGS:
                values = [_setting(param, v) for v in values]
            object.__setattr__(self, "sweep", (str(param), tuple(values)))
        given = {f for f in _SETTINGS if getattr(self, f) is not None}
        given |= {f for f in ("lemma_ids", "extra") if getattr(self, f)}
        if self.sweep is not None:
            param = self.sweep[0]
            given.add(param if param in _SETTINGS else "extra")
        unread = sorted(given - set(_READS[self.kind]) - {"seed"})
        if unread:
            raise ValueError(f"{self.kind} does not read {', '.join(unread)}")
        # the seed always has a value, so sweeping it overrides nothing
        named = [f for f in _SETTINGS if f != "seed" and getattr(self, f) is not None]
        named += list(self.extra) + ([self.sweep[0]] if self.sweep is not None else [])
        twice = sorted({n for n in named if named.count(n) > 1})
        if twice:
            raise ValueError(f"{', '.join(twice)} given twice")
        object.__setattr__(self, "runs", _runs(self))

    @functools.cached_property
    def toy(self) -> tuple:
        """An attack's toy candidate as lam, s, c, keys and calls: typed, and the attack sized, once."""
        kind = self.kind.removeprefix("attack-")
        lam = self.lam if self.lam is not None else 2
        s = (self.s if self.s is not None else 1) if kind == "pri" else 0
        c = self.c if self.c is not None else 0
        # `a` stretches only the rotation attack's cutoff and is read by _run_attack;
        # listing it here makes every other key a fault
        stretch = {"a": 1.0} if kind == "pri-vs-hri" else {}
        wires, need = lam + s + c, len(_CALL_WIRES)
        p = _take(self.extra, keys=min(2**lam, 4), calls=1 if wires >= need else 0, **stretch)
        if p["calls"] and wires < need:
            raise ValueError(f"width {wires} cannot host an oracle call on {need} wires")
        ell = self.ell if self.ell is not None else adversary.default_copies(p["keys"])
        adversary.check_attack_size(lam, s, c, p["keys"], ell, self.backend or AttackConfig.backend)
        return lam, s, c, p["keys"], p["calls"]

    def as_dict(self) -> dict:
        d = {k: _listed(v) for k, v in _field_dict(self).items()}
        d["extra"] = dict(self.extra)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config `as_dict` wrote; construction turns its lists back into tuples."""
        return cls(**d)


def _listed(value):
    """Tuples, nested ones too, as the lists json writes them as."""
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


@dataclass(frozen=True)
class Report:
    config: ExperimentConfig
    results: tuple
    versions: dict
    total_runtime_ms: int


def result_passed(res) -> bool:
    if isinstance(res, LemmaCheckResult):
        return res.passed
    return res.hybrid_distance <= res.hybrid_bound


def report_to_dict(report: Report) -> dict:
    return {
        "config": report.config.as_dict(),
        "results": [r.as_dict() for r in report.results],
        "versions": dict(report.versions),
        "total_runtime_ms": report.total_runtime_ms,
    }


def report_from_dict(d: dict) -> Report:
    results = []
    for row in d["results"]:
        if "lemma_id" in row:
            row = dict(row)
            row["passed"] = row.pop("pass")
            results.append(LemmaCheckResult(**row))
        else:
            row = dict(row)
            row["crossings"] = tuple(row["crossings"])
            results.append(AttackReport(**row))
    return Report(
        config=ExperimentConfig.from_dict(d["config"]),
        results=tuple(results),
        versions=dict(d["versions"]),
        total_runtime_ms=d["total_runtime_ms"],
    )


def strip_timing(report: Report) -> Report:
    """Zero every wall-clock field; what remains is seed-determined."""
    rows = tuple(
        replace(r, runtime_ms=0) if isinstance(r, LemmaCheckResult) else replace(r, wall_ms=0)
        for r in report.results
    )
    return replace(report, results=rows, total_runtime_ms=0)


# ------------------------------------------------------------------ running


def _toy_for(kind: str, cfg: ExperimentConfig, root: SeedPath):
    """An attack's toy candidate and the family its calls query, from the parameters its config resolved."""
    lam, s, c, keys, calls = cfg.toy
    seed = root.child("cand")
    if kind == "pru":
        cand = toy_pru_candidate(lam, keys, seed, c=c, swap_calls=calls)
    elif kind == "pri":
        cand = toy_pri_candidate(lam, s, keys, seed, c=c, swap_calls=calls)
    else:
        cand = toy_hri_candidate(lam, keys, seed, c=c, rot_calls=calls)
    family = HriOracleFamily if kind == "pri-vs-hri" else SwapOracleFamily
    return cand, family(root.child("family")) if calls else None


def _run_attack(kind: str, cfg: ExperimentConfig, root: SeedPath) -> AttackReport:
    cand, fam = _toy_for(kind, cfg, root)
    # only what the experiment set: the defaults live in AttackConfig
    given = {"p": cfg.p, "ell_override": cfg.ell, "backend": cfg.backend,
             "tomography_mode": cfg.tomography_mode, "exponent_a": cfg.extra.get("a")}
    acfg = AttackConfig(seed=root.child("attack"), **{k: v for k, v in given.items() if v is not None})
    if kind == "pru":
        return adversary.attack_pru(cand, fam, acfg)
    if kind == "pri":
        return adversary.attack_pri(cand, fam, acfg)
    return adversary.attack_pri_vs_hri(cand, fam, acfg)


# trial counts the two suite profiles pin on top of the check defaults
_SUITE_OVERRIDES = {
    "fast": {
        "two-query-lipschitz": {"trials": 40},
        "conjugation-lipschitz": {"trials": 40},
        "family-lipschitz": {"trials": 25},
        "haar-concentration": {"trials": 100},
        "omega-transpose": {"trials": 20},
        "prfsg-mean-advantage": {"trials": 50},
        "prfsg-tail": {"trials": 50},
    },
    "all": {
        "state-moment-mc": {"samples": 100_000},
        "family-lipschitz": {"trials": 100},
        "haar-concentration": {"trials": 400},
    },
}

_SUITE_ATTACKS = {
    "fast": [("attack-pru", {}), ("attack-pri", {}), ("attack-pri-vs-hri", {})],
    "all": [
        ("attack-pru", {"c": 1}),
        ("attack-pri", {}),
        ("attack-pri-vs-hri", {"c": 1}),
    ],
}


def _with_sweep_value(cfg: ExperimentConfig, param: str, value) -> ExperimentConfig:
    if param in _SETTINGS:
        return replace(cfg, sweep=None, **{param: value})
    return replace(cfg, sweep=None, extra={**cfg.extra, param: value})


def _runs(cfg: ExperimentConfig) -> list:
    """The config's runs in order, as ("check" or "attack", arguments) pairs: each swept
    value's runs in turn, a suite's checks then its attacks. Every run is resolved, typed and
    sized as it is listed, so listing the runs refuses a bad config before any of them
    starts; a swept value's or a suite attack's runs are those its own config listed."""
    if cfg.sweep is not None:
        param, values = cfg.sweep
        return [run for value in values for run in _with_sweep_value(cfg, param, value).runs]
    root = SeedPath(cfg.seed)
    if cfg.kind.startswith("attack-"):
        cfg.toy  # resolves the toy and sizes the attack, once
        return [("attack", (cfg.kind.removeprefix("attack-"), cfg, root))]
    if cfg.kind.startswith("suite-"):
        profile = cfg.kind.removeprefix("suite-")
        checks = [(cid, _SUITE_OVERRIDES[profile].get(cid, {})) for cid in CHECKS]
        attacks = _SUITE_ATTACKS[profile]
    else:
        params = {k: getattr(cfg, k) for k in _LEMMA_FIELDS if getattr(cfg, k) is not None} | cfg.extra
        ids = cfg.lemma_ids if cfg.kind == "lemma" else _GAME_CHECKS
        checks, attacks = [(cid, params) for cid in ids], ()
    runs = []
    for cid, params in checks:
        _resolve_check(cid, params)
        runs.append(("check", (cid, params, root.child(cid))))
    for kind, tweaks in attacks:
        # suites pin their attack shapes, inherit only the seed and run each under its seed child
        ((_, (target, attack, _)),) = ExperimentConfig(kind=kind, seed=cfg.seed, **tweaks).runs
        runs.append(("attack", (target, attack, root.child(kind))))
    return runs


def run_experiment(cfg: ExperimentConfig) -> Report:
    t0 = time.perf_counter()
    # the functions are looked up here, as the runs start, so patching them takes effect
    call = {"check": lemma_check, "attack": _run_attack}
    results = [call[what](*args) for what, args in cfg.runs]
    return Report(
        config=cfg,
        results=tuple(results),
        versions={"schema": 1, "package": __version__, "numpy": np.__version__},
        total_runtime_ms=int(round((time.perf_counter() - t0) * 1000)),
    )


# ------------------------------------------------------------------ emission


def _atomic_write(path: str, text: str) -> None:
    # temp file in the same directory so the final rename never crosses mounts
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".partial-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp's file is its owner's alone; give it the mode open(path, "w") leaves
        umask = os.umask(0o077)
        os.umask(umask)
        os.chmod(tmp, os.stat(path).st_mode & 0o7777 if os.path.exists(path) else 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _csv_rows(report: Report) -> list[tuple[str, dict, float, float, float, bool, str, int]]:
    rows = []
    for r in report.results:
        if isinstance(r, LemmaCheckResult):
            rows.append((r.lemma_id, r.params, r.lhs, r.bound, r.ratio, r.passed, r.seed, r.runtime_ms))
        else:
            params = {
                "lam": r.lam, "ell": r.ell, "s": r.stretch_s, "c": r.ancilla_c,
                "p": r.p, "backend": r.backend, "tomo": r.tomography_mode,
            }
            ratio = r.hybrid_distance / r.hybrid_bound if r.hybrid_bound > 0 else 0.0
            rows.append((
                "attack-" + r.kind, params, r.hybrid_distance, r.hybrid_bound,
                ratio, result_passed(r), r.seed, r.wall_ms,
            ))
    return rows


def _csv_text(report: Report) -> str:
    rows = _csv_rows(report)
    keys = sorted({k for _, params, *_ in rows for k in params})
    header = ["id"] + [f"param:{k}" for k in keys] + ["lhs", "bound", "ratio", "pass", "seed", "runtime_ms"]
    lines = [",".join(header)]
    for rid, params, lhs, bound, ratio, ok, seed, ms in rows:
        cells = [rid]
        cells += ["" if k not in params else str(params[k]) for k in keys]
        cells += [repr(lhs), repr(bound), repr(ratio), "true" if ok else "false", seed, str(ms)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _sweep_text(report: Report) -> str:
    param, values = report.config.sweep
    group, rem = divmod(len(report.results), len(values))
    if rem:
        raise ValueError("sweep results do not divide evenly across values")
    lines = [f"{param},value"]
    for i, r in enumerate(report.results):
        y = r.ratio if isinstance(r, LemmaCheckResult) else r.advantage
        lines.append(f"{values[i // group]},{y!r}")
    return "\n".join(lines) + "\n"


def emit_report(report: Report, path: str, fmt: str = "json") -> None:
    """Write a report atomically; sweeps get an x,y companion file."""
    path = os.fspath(path)
    if fmt == "json":
        _atomic_write(path, json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n")
    elif fmt == "csv":
        _atomic_write(path, _csv_text(report))
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if report.config.sweep is not None:
        stem, _ = os.path.splitext(path)
        _atomic_write(stem + ".sweep.csv", _sweep_text(report))
