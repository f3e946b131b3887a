from __future__ import annotations

import json
import math

import numpy as np
import pytest

from oraclebench import adversary as adv
from oraclebench import blockenc, budget, cli, harness, tomography
from oraclebench import oracles as orc
from oraclebench.budget import Budget, SizingError
from oraclebench.haar import haar_choi, haar_isometry_choi, sample_haar_unitary
from oraclebench.linalg import choi_vectors, random_unitary_from, schatten_norm
from oraclebench.oracles import (
    Candidate,
    FixedGate,
    HriCall,
    HriOracleFamily,
    OracleCall,
    OracleCircuit,
    SwapOracleFamily,
    circuit_unitaries,
)
from oraclebench.seeds import SeedPath
from oraclebench.toys import toy_hri_candidate, toy_pri_candidate, toy_pru_candidate

import dense_reference as ref

SEED = SeedPath(404)


def blocks_of(cand, swap=None, hri=None) -> dict:
    return orc.oracle_blocks(cand.circuits.values(), swap, hri)


@pytest.fixture(scope="module")
def pru_report():
    cand = toy_pru_candidate(lam=2, n_keys=4, seed=SEED.child("pru-t0"))
    return cand, adv.attack_pru(cand, None, adv.AttackConfig(seed=SEED.child("cfg", 0)))


@pytest.fixture(scope="module")
def pru_call_report():
    swap = SwapOracleFamily(SEED.child("swap", 1))
    cand = toy_pru_candidate(lam=2, n_keys=4, seed=SEED.child("pru-c1"), c=1, swap_calls=1)
    rep = adv.attack_pru(cand, swap, adv.AttackConfig(seed=SEED.child("cfg", 1)))
    return cand, swap, rep


@pytest.fixture(scope="module")
def pri_report():
    swap = SwapOracleFamily(SEED.child("swap", 2))
    cand = toy_pri_candidate(lam=2, s=1, n_keys=4, seed=SEED.child("pri"), swap_calls=1)
    rep = adv.attack_pri(cand, swap, adv.AttackConfig(seed=SEED.child("cfg", 2)))
    return cand, swap, rep


# ---------------------------------------------------------------- config and sizing


def test_config_validation():
    with pytest.raises(ValueError):
        adv.AttackConfig(p=1)
    with pytest.raises(ValueError):
        adv.AttackConfig(backend="fancy")
    with pytest.raises(ValueError):
        adv.AttackConfig(tomography_mode="guess")
    with pytest.raises(ValueError):
        adv.AttackConfig(exponent_a=0.5)
    with pytest.raises(ValueError):
        adv.AttackConfig(backend="polynomial")
    for bad in ({"p": 2.5}, {"p": True}, {"ell_override": 1.5}, {"ell_override": True}):
        with pytest.raises(ValueError, match="must be an integer"):
            adv.AttackConfig(**bad)
    for bad in (float("nan"), float("inf"), True, "2", 0.5):
        with pytest.raises(ValueError, match="stretch exponent a must be a finite number"):
            adv.AttackConfig(exponent_a=bad)
    assert adv.AttackConfig(exponent_a=np.float64(1.5)).exponent_a == 1.5
    assert adv.AttackConfig(exponent_a=2).exponent_a == 2
    assert adv.AttackConfig(p=np.int64(3), ell_override=np.int64(2)).p == 3


def test_default_copies_is_log_key_count():
    assert adv.default_copies(1) == 1
    assert adv.default_copies(2) == 1
    assert adv.default_copies(4) == 2
    assert adv.default_copies(5) == 3


def test_oversized_copy_count_faults():
    cand = toy_pru_candidate(lam=2, n_keys=4, seed=SEED.child("big"))
    with pytest.raises(SizingError):
        adv.attack_pru(cand, None, adv.AttackConfig(ell_override=9, seed=SEED))


# ---------------------------------------------------------------- Choi states


def test_keyed_choi_is_state_with_capped_rank():
    cand = toy_pru_candidate(lam=2, n_keys=4, seed=SEED.child("rank"))
    rho = ref.choi_density(adv.keyed_choi_vectors(cand, ell=2)).mat
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    evals = np.linalg.eigvalsh(rho)
    assert evals[0] >= -1e-12
    assert int(np.sum(evals > 1e-10)) <= 2 ** ((1 + 0) * 2)


def test_keyed_choi_rank_cap_with_work_register():
    swap = SwapOracleFamily(SEED.child("swap", 3))
    cand = toy_pru_candidate(lam=2, n_keys=4, seed=SEED.child("rank-c"), c=1, swap_calls=1)
    rho = ref.choi_density(adv.keyed_choi_vectors(cand, blocks_of(cand, swap), ell=2)).mat
    evals = np.linalg.eigvalsh(rho)
    assert int(np.sum(evals > 1e-10)) <= 2 ** ((1 + 1) * 2)


def test_single_key_choi_is_pure():
    cand = toy_pru_candidate(lam=2, n_keys=1, seed=SEED.child("pure"))
    rho = ref.choi_density(adv.keyed_choi_vectors(cand, ell=1)).mat
    assert abs(np.trace(rho @ rho).real - 1.0) <= 1e-10


def test_keyed_choi_merge_order_invariance():
    cand = toy_pru_candidate(lam=1, n_keys=2, seed=SEED.child("merge"))
    swapped = type(cand)(
        lam=cand.lam,
        ancilla_c=cand.ancilla_c,
        circuits={1: cand.circuits[1], 0: cand.circuits[0]},
    )
    a = ref.choi_density(adv.keyed_choi_vectors(cand, ell=2)).mat
    b = ref.choi_density(adv.keyed_choi_vectors(swapped, ell=2)).mat
    assert np.max(np.abs(a - b)) <= 1e-12


def test_isometry_kraus_put_the_pad_first():
    # the empty circuit maps |x> to |x>|0^s>; the references order each
    # copy [pad, payload], so its Kraus operator must read |0^s>|x>
    lam, s = 2, 1
    cand = Candidate(lam=lam, stretch_s=s, circuits={0: OracleCircuit(lam + s, ())})
    d_out, d_in = 2 ** (lam + s), 2**lam
    vecs = adv.keyed_choi_vectors(cand, ell=1).vecs
    op = vecs[:, 0].reshape(d_out, d_in) * math.sqrt(d_in)
    assert np.array_equal(op, np.eye(d_out, d_in))


def test_keyed_choi_vectors_match_the_kron_chain():
    lam, s, c, ell = 2, 1, 1, 2
    swap = SwapOracleFamily(SEED.child("swap", 9))
    cand = toy_pri_candidate(lam, s, 3, SEED.child("kron"), c=c, swap_calls=1)
    blocks = blocks_of(cand, swap)
    want = np.column_stack([
        ref.kron_choi_vectors(
            ref.stinespring_kraus(circuit_unitaries([cand.circuits[k]], blocks)[0], lam, s, c), ell
        )
        for k in cand.keys
    ])
    assert np.array_equal(adv.keyed_choi_vectors(cand, blocks, ell=ell).vecs, want)


def test_choi_vectors_resolve_the_channel_trace():
    # trace preservation shows up as unit total weight per key
    swap = SwapOracleFamily(SEED.child("swap", 4))
    cand = toy_pru_candidate(lam=1, n_keys=2, seed=SEED.child("tp"), c=2, swap_calls=1)
    factor = adv.keyed_choi_vectors(cand, blocks_of(cand, swap), ell=2)
    vecs, n_keys = factor.vecs, factor.n_keys
    assert n_keys == 2
    per_key = vecs.shape[1] // n_keys
    norms = np.sum(np.abs(vecs) ** 2, axis=0)
    for k in range(n_keys):
        total = float(np.sum(norms[k * per_key : (k + 1) * per_key]))
        assert abs(total - 1.0) <= 1e-12


# ---------------------------------------------------------------- surrogates


def test_exact_surrogate_reproduces_the_circuit():
    swap = SwapOracleFamily(SEED.child("swap", 5))
    cand = toy_pru_candidate(lam=1, n_keys=2, seed=SEED.child("sur"), c=2, swap_calls=2)
    blocks = blocks_of(cand, swap)
    sur, _, _ = adv.surrogate_blocks(blocks, d_cutoff=3)
    assert sur.keys() == blocks.keys()
    circuits = [cand.circuits[k] for k in cand.keys]
    true = circuit_unitaries(circuits, blocks)
    rebuilt = circuit_unitaries(circuits, sur)
    assert np.max(np.abs(true - rebuilt)) <= 1e-10


@pytest.mark.parametrize("mode", adv.TOMOGRAPHY_MODES)
def test_surrogate_learns_small_blocks_and_deletes_large_ones(mode):
    # swap blocks n = 1, 2 and rotation blocks (1, 0), (1, 1), (2, 0): cutoff 1 learns three
    swap = SwapOracleFamily(SEED.child("swap", 11))
    hri = HriOracleFamily(SEED.child("hri", 11), stretch="n")
    five = tuple(range(5))
    steps = [OracleCall(2, five), HriCall(1, m=1, wires=(0, 1, 2)), OracleCall(1, (2, 3, 4)),
             HriCall(2, m=0, wires=five), HriCall(1, m=0, wires=(4, 3, 2))]
    blocks = orc.oracle_blocks([OracleCircuit(5, tuple(steps))], swap, hri)
    seed = SEED.child("tomo", 11)
    sur, error, queries = adv.surrogate_blocks(
        blocks, d_cutoff=1, mode=mode, eps=0.5, eta=0.5, seed=seed
    )
    assert list(sur) == [1, 2, (1, 0), (1, 1), (2, 0)] and sur.keys() == blocks.keys()
    for key in (2, (2, 0)):
        assert np.array_equal(sur[key], np.eye(len(blocks[key])))
    direct = {}
    for key, path in [(1, seed.child("tomo-swap", 1)),
                      ((1, 0), seed.child("tomo-rot", 1).child("m", 0)),
                      ((1, 1), seed.child("tomo-rot", 1).child("m", 1))]:
        gate = blocks[key]
        if mode == "exact":
            res = tomography.process_tomography_exact(lambda v: gate @ v, len(gate))
        else:
            res = tomography.process_tomography_sampled(lambda v: gate @ v, len(gate), 0.5, 0.5, path)
        assert np.array_equal(sur[key], res.estimate), key
        direct[key] = res
    errors = [tomography.phase_aligned_distance(r.estimate, blocks[key], 2) for key, r in direct.items()]
    assert error == max(errors) and queries == sum(res.queries for res in direct.values())


def test_sampled_tomography_is_held_to_the_callers_budget(monkeypatch):
    # an n=1 swap block is an 8 x 8 gate, so its column correlation is 2^6 x 2^6
    swap = SwapOracleFamily(SEED.child("swap", 8))
    cand = toy_pru_candidate(lam=1, n_keys=2, seed=SEED.child("tomo-budget"), c=2, swap_calls=1)
    blocks = blocks_of(cand, swap)
    monkeypatch.setattr(budget, "DEFAULT_BUDGET", Budget(max_dense_matrix_qubits=5))
    with pytest.raises(SizingError, match="sampled tomography correlation"):
        adv.surrogate_blocks(blocks, d_cutoff=1, mode="sampled", eps=0.5, eta=0.5)


def test_deletion_below_cutoff():
    # cutoff 0 deletes every call, learning nothing; the surrogate is still a channel
    swap = SwapOracleFamily(SEED.child("swap", 7))
    cand = toy_pru_candidate(lam=1, n_keys=2, seed=SEED.child("del"), c=2, swap_calls=1)
    blocks = blocks_of(cand, swap)
    sur, error, queries = adv.surrogate_blocks(blocks, d_cutoff=0)
    assert error == 0.0 and queries == 0
    assert np.array_equal(sur[1], np.eye(8))
    rho = ref.choi_density(adv.keyed_choi_vectors(cand, sur, ell=2)).mat
    assert abs(np.trace(rho).real - 1.0) <= 1e-12


@pytest.mark.parametrize("mode", adv.TOMOGRAPHY_MODES)
def test_an_attack_deletes_every_call_above_the_cutoff(mode):
    # two keys at lam = 7, each calling an n = 3 swap block; p = 2 puts the cutoff at 2,
    # so neither mode learns a block or draws a shot
    swap = SwapOracleFamily(SEED.child("swap", 10))
    rng = np.random.default_rng(10)
    gates = {k: [FixedGate(random_unitary_from(rng, 2**7), range(7)) for _ in range(2)] for k in (0, 1)}
    cand = Candidate(lam=7, circuits={
        k: OracleCircuit(7, (g[0], OracleCall(3, range(7)), g[1])) for k, g in gates.items()
    })
    cfg = adv.AttackConfig(p=2, tomography_mode=mode, seed=SEED.child("cfg", 10))
    rep = adv.attack_pru(cand, swap, cfg)
    assert rep.d_cutoff == 2 and rep.ell == 1
    assert rep.deleted_calls == len(cand.keys)
    assert rep.tomography_queries == 0 and rep.max_replacement_error == 0.0
    assert rep.hybrid_distance <= rep.hybrid_bound
    # the surrogate runs each circuit with its call deleted
    blocks = blocks_of(cand, swap)
    sur, error, queries = adv.surrogate_blocks(
        blocks, d_cutoff=2, mode=mode, eps=rep.eps_claimed, eta=rep.eps_claimed, seed=cfg.seed.child("tomo")
    )
    assert error == 0.0 and queries == 0
    bare = Candidate(lam=7, circuits={k: OracleCircuit(7, tuple(g)) for k, g in gates.items()})
    got = adv.keyed_choi_vectors(cand, sur, ell=1).vecs
    assert np.array_equal(got, adv.keyed_choi_vectors(bare, ell=1).vecs)


# ---------------------------------------------------------------- support overlap


def test_support_overlap_equals_ideal_haar_acceptance():
    for lam in (1, 2):
        cand = toy_pru_candidate(lam=lam, n_keys=min(2**lam, 4), seed=SEED.child("eq", lam))
        rep = adv.attack_pru(
            cand, None, adv.AttackConfig(ell_override=2, seed=SEED.child("eqc", lam))
        )
        assert abs(rep.accept_haar - adv.support_overlap(cand, ell=2)) <= 1e-12


def test_support_overlap_chain_and_decrease():
    overlaps = []
    for lam in (1, 2, 3):
        cand = toy_pru_candidate(
            lam=lam, n_keys=min(2**lam, 4), seed=SEED.child("chain", lam)
        )
        ov = adv.support_overlap(cand, ell=2)
        assert 0.0 <= ov <= adv.support_chain_bound(lam, 0, 0, 2)
        overlaps.append(ov)
    assert overlaps[0] > overlaps[1] > overlaps[2]


# ---------------------------------------------------------------- attacks


def test_attack_pru_query_free_toy(pru_report):
    _, rep = pru_report
    assert rep.advantage >= 0.9
    assert rep.accept_haar <= 0.1
    assert rep.advantage == abs(rep.accept_keyed - rep.accept_haar)
    assert rep.hybrid_distance <= rep.hybrid_bound
    assert rep.ell == 2 and rep.t_queries == 0 and rep.d_cutoff == 0
    assert rep.advantage >= rep.composition_floor - 1e-12


def test_attack_pru_with_real_calls(pru_call_report):
    _, _, rep = pru_call_report
    assert rep.advantage >= 0.8
    assert rep.hybrid_distance <= rep.hybrid_bound
    assert rep.d_cutoff == 12  # ceil(2 log2(2*1*20)) + c
    assert rep.deleted_calls == 0
    assert rep.tomography_queries == 8  # exact mode reads the 8 columns once
    assert rep.max_replacement_error <= 1e-9
    assert rep.advantage >= rep.composition_floor - 1e-12
    # spectral work stays on the r x r Gram side: r = keys * 2^(c ell) = 16 here
    assert rep.crossings
    assert all(entry["dim"] <= 4 * 2 ** (1 * rep.ell) for entry in rep.crossings)


def test_attack_pri_isometry_toy(pri_report):
    _, _, rep = pri_report
    assert rep.stretch_s == 1
    assert rep.advantage >= 0.9
    assert rep.hybrid_distance <= rep.hybrid_bound
    assert rep.d_cutoff == 13  # ceil(2 log2(40)) + 2s
    assert rep.advantage >= rep.composition_floor - 1e-12


def test_attack_hri_query_free_toy():
    hri = HriOracleFamily(SEED.child("hri", 0))
    cand = toy_hri_candidate(lam=2, n_keys=4, seed=SEED.child("hric", 0))
    rep = adv.attack_pri_vs_hri(cand, hri, adv.AttackConfig(seed=SEED.child("cfg", 3)))
    assert rep.advantage >= 0.9
    assert rep.accept_haar <= 0.1


def test_attack_hri_with_real_calls():
    hri = HriOracleFamily(SEED.child("hri", 1))
    cand = toy_hri_candidate(
        lam=2, n_keys=4, seed=SEED.child("hric", 1), c=1, rot_calls=1
    )
    rep = adv.attack_pri_vs_hri(cand, hri, adv.AttackConfig(seed=SEED.child("cfg", 4)))
    assert rep.advantage >= 0.8
    assert rep.hybrid_distance <= rep.hybrid_bound
    assert rep.d_cutoff == 14  # ceil(2 log2(40) + 3c) at a = 1
    assert rep.deleted_calls == 0


def test_hri_cutoff_shrinks_with_exponent():
    hri = HriOracleFamily(SEED.child("hri", 2))
    cand = toy_hri_candidate(
        lam=2, n_keys=4, seed=SEED.child("hric", 2), c=1, rot_calls=1
    )
    rep = adv.attack_pri_vs_hri(
        cand, hri, adv.AttackConfig(exponent_a=2.0, seed=SEED.child("cfg", 5))
    )
    assert rep.d_cutoff == math.ceil(math.sqrt(2 * math.log2(40) + 3))
    assert rep.advantage >= 0.8


def test_single_key_sanity():
    cand = toy_pru_candidate(lam=2, n_keys=1, seed=SEED.child("k1"))
    rep = adv.attack_pru(cand, None, adv.AttackConfig(seed=SEED.child("cfg", 6)))
    assert rep.ell == 1
    assert rep.advantage >= 0.9


def test_sampled_tomography_attack():
    swap = SwapOracleFamily(SEED.child("swap", 8))
    cand = toy_pru_candidate(lam=2, n_keys=4, seed=SEED.child("smp"), c=1, swap_calls=1)
    rep = adv.attack_pru(
        cand,
        swap,
        adv.AttackConfig(tomography_mode="sampled", seed=SEED.child("cfg", 7)),
    )
    assert rep.advantage >= 0.8
    assert rep.hybrid_distance <= rep.hybrid_bound
    assert rep.max_replacement_error <= 5 * rep.eps_claimed
    assert rep.tomography_queries > 10**6  # finite-shot accounting, not column reads


def test_challenge_modes(pru_report):
    cand, _ = pru_report
    cfg = adv.AttackConfig(seed=SEED.child("cfg", 8))
    keyed = adv.attack_pru(cand, None, cfg, challenge=("keyed", 1))
    assert keyed.challenge_kind == "keyed"
    assert isinstance(keyed.challenge_bit, bool)
    assert keyed.challenge_prob >= 0.9
    haar = adv.attack_pru(cand, None, cfg, challenge=("haar",))
    assert haar.challenge_kind == "haar"
    assert 0.0 <= haar.challenge_prob <= 1.0
    with pytest.raises(ValueError, match="unknown challenge kind 'both'"):
        adv.attack_pru(cand, None, cfg, challenge=("both",))
    with pytest.raises(ValueError, match=r"challenge key 9 is not one of the candidate's keys \(0, 1, 2, 3\)"):
        adv.attack_pru(cand, None, cfg, challenge=("keyed", 9))


def test_report_serializes_to_json(pru_call_report):
    _, _, rep = pru_call_report
    blob = json.dumps(rep.as_dict())
    back = json.loads(blob)
    assert back["kind"] == "pru"
    assert back["advantage"] == rep.advantage
    assert isinstance(back["crossings"], list) and back["crossings"]
    assert {"op", "label", "dim"} <= set(back["crossings"][0])


# ---------------------------------------------------------------- distinguisher


def test_backend_agreement_at_tight_eta():
    cand = toy_pru_candidate(lam=2, n_keys=4, seed=SEED.child("agree"))
    rho1 = ref.choi_density(adv.keyed_choi_vectors(cand, ell=2))
    rho2 = haar_choi(2, 2)
    for challenge in (rho1, rho2):
        _, p_ideal = ref.distinguisher(rho1, challenge, 8, 2, "ideal")
        _, p_poly = ref.distinguisher(rho1, challenge, 8, 2, "poly", eta=1e-4)
        assert abs(p_ideal - p_poly) <= 1e-6


def test_advantage_monotone_in_eta():
    cand = toy_pru_candidate(lam=2, n_keys=4, seed=SEED.child("mono"))
    rho1 = ref.choi_density(adv.keyed_choi_vectors(cand, ell=2))
    rho2 = haar_choi(2, 2)
    advs = []
    for eta in (2**-6, 2**-4, 0.25):
        _, p_keyed = ref.distinguisher(rho1, rho1, 8, 2, "poly", eta=eta)
        _, p_haar = ref.distinguisher(rho1, rho2, 8, 2, "poly", eta=eta)
        advs.append(p_keyed - p_haar)
    assert advs[0] >= advs[1] - 1e-12
    assert advs[1] >= advs[2] - 1e-12


def test_distinguisher_dimension_faults():
    cand = toy_pru_candidate(lam=1, n_keys=2, seed=SEED.child("dims"))
    rho = ref.choi_density(adv.keyed_choi_vectors(cand, ell=1))
    with pytest.raises(ValueError):
        ref.distinguisher(rho, rho, 3, 1)
    with pytest.raises(ValueError):
        ref.distinguisher(rho, np.eye(8) / 8, 2, 1)


def test_distinguisher_bit_is_seeded():
    cand = toy_pru_candidate(lam=1, n_keys=2, seed=SEED.child("bit"))
    rho = ref.choi_density(adv.keyed_choi_vectors(cand, ell=1))
    bits = {ref.distinguisher(rho, rho, 2, 1, seed=SEED.child("b", 5))[0] for _ in range(3)}
    assert len(bits) == 1


# ---------------------------------------------------------------- factored path vs dense reference


def _dense_case(kind: str, c: int):
    """A candidate of each kind at 8 qubits, with and without a work register and a call."""
    seed = SEED.child("dense-" + kind, c)
    if kind == "pru":
        fam = SwapOracleFamily(seed.child("fam")) if c else None
        cand = toy_pru_candidate(lam=2, n_keys=4, seed=seed, c=c, swap_calls=c)
        return cand, fam, None, None
    if kind == "pri":
        fam = SwapOracleFamily(seed.child("fam"))
        cand = toy_pri_candidate(lam=1, s=2, n_keys=2, seed=seed, c=c, swap_calls=1)
        return cand, fam, None, 2
    fam = HriOracleFamily(seed.child("fam")) if c else None
    cand = toy_hri_candidate(lam=2, n_keys=4, seed=seed, c=c, rot_calls=c)
    return cand, None, fam, None


@pytest.mark.parametrize("backend", ["ideal", "poly"])
@pytest.mark.parametrize("c", [0, 1])
@pytest.mark.parametrize("kind", ["pru", "pri", "hri"])
def test_factored_attack_matches_dense_reference(kind, c, backend):
    cand, swap, hri, ell = _dense_case(kind, c)
    seed = SEED.child("dense-cfg-" + kind, c)
    cfg = adv.AttackConfig(ell_override=ell, backend=backend, seed=seed)
    run = {"pru": adv.attack_pru, "pri": adv.attack_pri, "hri": adv.attack_pri_vs_hri}[kind]
    fam = hri if kind == "hri" else swap
    reps = [run(cand, fam, cfg, challenge=ch) for ch in (("keyed", 1), ("haar",))]
    rep = reps[0]
    lam, s, ell = rep.lam, rep.stretch_s, rep.ell
    n = (2 * lam + s) * ell
    assert n <= 10

    blocks = blocks_of(cand, swap, hri)
    rho_keyed = ref.choi_density(adv.keyed_choi_vectors(cand, blocks, ell=ell))
    sur_blocks, _, _ = adv.surrogate_blocks(blocks, d_cutoff=rep.d_cutoff)
    rho_sur = ref.choi_density(adv.keyed_choi_vectors(cand, sur_blocks, ell=ell))
    rho_ref = haar_isometry_choi(lam, s, ell) if s else haar_choi(lam, ell)

    def dense(state):
        return ref.distinguisher(rho_sur, state, n, lam, backend)[1]

    p_keyed, p_haar = dense(rho_keyed), dense(rho_ref)
    d_out = 2 ** (lam + s)
    iso = sample_haar_unitary(d_out, cfg.seed.child("haar-draw")).mat @ np.eye(d_out, 2**lam)
    (vec,) = choi_vectors(iso[None], ell).T
    # The dense reference sees the surrogate's zero singular values as rounding
    # noise (~1e-16), where the threshold polynomial is steep; the factored path
    # evaluates p at exact zeros. Each acceptance may differ by at most the
    # largest |p(noise)^2 - p(0)^2|, since the challenge's weights sum to 1.
    slack = 0.0
    if backend == "poly":
        poly = blockenc.threshold_poly(2.0 ** (-3 * n), 2.0 ** (-2 * n), 2.0 ** (-lam) / 2)
        sv = np.linalg.svd(blockenc.encode_density(rho_sur).extract(), compute_uv=False)
        noise = sv[sv < 1e-12]
        slack = float(np.max(np.abs(poly(noise) ** 2 - poly(0.0) ** 2)))
    want = {
        "accept_self": (dense(rho_sur), slack),
        "accept_keyed": (p_keyed, slack),
        "accept_haar": (p_haar, slack),
        "advantage": (abs(p_keyed - p_haar), 2 * slack),
        "hybrid_distance": (schatten_norm(rho_keyed.mat - rho_sur.mat, 1), 0.0),
    }
    for r in reps:
        for name, (value, extra) in want.items():
            assert abs(getattr(r, name) - value) <= 1e-12 + extra, name
    key_state = ref.choi_density(adv.keyed_choi_vectors(cand, blocks, ell=ell).key(1))
    assert abs(reps[0].challenge_prob - dense(key_state)) <= 1e-12 + slack
    assert abs(reps[1].challenge_prob - dense(np.outer(vec, vec.conj()))) <= 1e-12 + slack


@pytest.mark.parametrize("rows,threads", [(64, 1), (512, 2)])
def test_hybrid_distance_runs_small_factors_on_one_blas_thread(monkeypatch, blas_counts, rows, threads):
    seen = []

    def spy(mat, p):
        seen.append(blas_counts())
        return schatten_norm(mat, p)

    monkeypatch.setattr(adv, "schatten_norm", spy)
    rng = np.random.default_rng(7)

    def factor():
        vecs = rng.normal(size=(rows, 2)) + 1j * rng.normal(size=(rows, 2))
        return adv.ChoiFactor(vecs * np.sqrt(2.0) / np.linalg.norm(vecs), 2)

    keyed, sur = factor(), factor()
    assert adv._hybrid_distance(keyed, keyed) == 0.0
    assert 0.0 < adv._hybrid_distance(keyed, sur) <= 2.0
    assert seen == [dict.fromkeys(blas_counts(), threads)] * 2
    assert blas_counts() == dict.fromkeys(blas_counts(), 2)


def test_the_threshold_polynomial_is_evaluated_once_per_attack(monkeypatch):
    # one evaluation over the support values and 0 serves self, keyed, Haar
    # and the challenge; each costs a points x (degree + 1) cosine table
    sizes = []
    call = blockenc.ThresholdPoly.__call__

    def spy(self, x):
        sizes.append(np.size(x))
        return call(self, x)

    monkeypatch.setattr(blockenc.ThresholdPoly, "__call__", spy)
    cand = toy_pru_candidate(2, 4, SEED.child("once"))
    rep = adv.attack_pru(cand, cfg=adv.AttackConfig(backend="poly", seed=SEED.child("once-cfg")), challenge=("haar",))
    assert rep.challenge_prob is not None
    assert len(sizes) == 1 and sizes[0] > 1


def _cli_attack(argv, path):
    assert cli.cli_main(argv + ["--out", str(path)]) in (0, 1)
    (res,) = harness.strip_timing(harness.report_from_dict(json.loads(path.read_text()))).results
    return res.as_dict()


@pytest.mark.parametrize("kind", ["pru", "pri-vs-hri"])
def test_poly_attacks_match_a_clenshaw_evaluated_polynomial(kind, monkeypatch, tmp_path):
    # the cosine-table evaluation against numpy's Clenshaw on the attacks that use it
    def clenshaw(self, x):
        return np.polynomial.chebyshev.chebval(2.0 * np.clip(x, 0.0, 1.0) - 1.0, self.coeffs)

    for seed in range(3):
        argv = ["attack", kind, "--c", "1", "--backend", "poly", "--tomo", "sampled", "--seed", str(seed)]
        got = _cli_attack(argv, tmp_path / "got.json")
        with monkeypatch.context() as m:
            m.setattr(blockenc.ThresholdPoly, "__call__", clenshaw)
            want = _cli_attack(argv, tmp_path / "want.json")
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                assert abs(got[key] - value) <= 1e-12 * abs(value), key
            else:
                assert got[key] == value, key


@pytest.mark.parametrize("kind", ["pru", "pri-vs-hri"])
def test_an_attack_makes_two_stacked_circuit_passes(kind, monkeypatch, tmp_path):
    # every key's circuit runs in one stacked pass: one for the keyed candidate,
    # one for its surrogate, where a pass per key made eight evaluations
    passes = []
    stacked = orc._stacked_pass

    def spy(circuits, blocks):
        passes.append(len(circuits))
        return stacked(circuits, blocks)

    monkeypatch.setattr(orc, "_stacked_pass", spy)
    _cli_attack(["attack", kind, "--c", "1", "--backend", "poly", "--tomo", "sampled"], tmp_path / "r.json")
    assert passes == [4, 4]


@pytest.mark.parametrize(
    "kind,family,build,built",
    [
        ("pru", SwapOracleFamily, "dense_oracle", [(1,)]),
        ("pri-vs-hri", HriOracleFamily, "oracle", [(1, 0), (1, 1)]),
    ],
)
def test_an_attack_builds_each_called_block_once(kind, family, build, built, monkeypatch, tmp_path):
    # one block map serves tomography and the keyed pass: the pru toy's keys all
    # call S_1, the rotation toy's key k calls block k % 2
    builds = []
    real = getattr(family, build)
    monkeypatch.setattr(family, build, lambda self, *args: builds.append(args) or real(self, *args))
    _cli_attack(["attack", kind, "--c", "1", "--backend", "poly", "--tomo", "sampled"], tmp_path / "r.json")
    assert sorted(builds) == built
