from __future__ import annotations

import numpy as np
import pytest

from oraclebench import budget, haar, linalg as la, oracles as orc, toys
from oraclebench.budget import Budget, SizingError
from oraclebench.seeds import SeedPath

import dense_reference as ref

SEED = SeedPath(77)


def fresh_family(tag="fam"):
    return orc.SwapOracleFamily(SEED.child(tag))


def test_swap_unitary_defining_action():
    for n in (1, 2, 3):
        fam = fresh_family(f"def{n}")
        psi = fam.state(n, 0)
        s = orc.swap_unitary(n, psi).mat
        d = 2 ** (n + 1)
        e0 = np.zeros(d, dtype=complex)
        e0[0] = 1.0
        e1 = np.zeros(d, dtype=complex)
        e1[2**n :] = psi.amplitudes
        assert np.allclose(s @ e0, e1, atol=1e-12)
        assert np.allclose(s @ e1, e0, atol=1e-12)
        assert np.max(np.abs(s - s.conj().T)) < 1e-12
        assert np.allclose(s @ s, np.eye(d), atol=1e-12)
        # identity on the complement of the swapped plane
        rng = np.random.default_rng(n)
        v = la.random_state_from(rng, d)
        v -= e0 * (e0.conj() @ v) + e1 * (e1.conj() @ v)
        assert np.allclose(s @ v, v, atol=1e-12)


def test_swap_block_trace_is_dim_minus_two():
    # the swapped pair is orthogonal, so each block loses exactly 2 from the trace
    for n in (1, 2, 3):
        fam = fresh_family(f"tr{n}")
        block = fam.block_unitary(n, 1).mat
        assert np.isclose(np.trace(block).real, 2 ** (n + 1) - 2, atol=1e-10)
        dense = fam.dense_oracle(n).mat
        assert np.isclose(np.trace(dense).real, 2 ** (2 * n + 1) - 2 ** (n + 1), atol=1e-9)


def test_dense_oracle_budget_guard(monkeypatch):
    fam = fresh_family("guard")
    monkeypatch.setattr(budget, "DEFAULT_BUDGET", Budget(max_dense_matrix_qubits=5))
    with pytest.raises(SizingError):
        fam.dense_oracle(3)


def test_family_lazy_sampling_and_determinism():
    fam = fresh_family("lazy")
    assert len(fam._states) == 0
    a = fam.state(2, 3)
    assert list(fam._states) == [(2, 3)]
    fam2 = fresh_family("lazy")
    assert np.array_equal(a.amplitudes, fam2.state(2, 3).amplitudes)
    other = orc.SwapOracleFamily(SEED.child("lazy2"))
    assert not np.allclose(a.amplitudes, other.state(2, 3).amplitudes)


def test_apply_swap_call_matches_dense_member():
    rng = np.random.default_rng(9)
    for n, extra in ((1, 1), (2, 1)):
        fam = fresh_family(f"apply{n}")
        total = 2 * n + 1 + extra
        vec = la.random_state_from(rng, 2**total)
        wires = list(range(1, 2 * n + 2))  # offset by one spectator wire
        got = ref.apply_swap_call(fam, vec, n, wires, total)
        dense = fam.dense_oracle(n).mat
        want = la.apply_on_wires(vec, dense, wires, total)
        assert np.allclose(got, want, atol=1e-11)


def test_apply_swap_call_skips_unqueried_blocks():
    fam = fresh_family("skip")
    n = 2
    vec = np.zeros(2 ** (2 * n + 1), dtype=complex)
    vec[3 << (n + 1)] = 1.0  # index register |11>, flag 0, payload 0
    ref.apply_swap_call(fam, vec, n, list(range(2 * n + 1)), 2 * n + 1)
    assert list(fam._states) == [(n, 3)]


def test_apply_swap_call_is_involution():
    fam = fresh_family("invol")
    rng = np.random.default_rng(10)
    vec = la.random_state_from(rng, 2**3)
    kept = vec.copy()
    once = ref.apply_swap_call(fam, vec, 1, [0, 1, 2], 3)
    # the input is left alone, also on the leading wires where no axis moves
    assert np.array_equal(vec, kept) and not np.shares_memory(once, vec)
    assert not np.allclose(once, vec, atol=1e-6)
    twice = ref.apply_swap_call(fam, once, 1, [0, 1, 2], 3)
    assert np.allclose(twice, vec, atol=1e-12)


def test_prfsg_eval_returns_family_state():
    # prfsg_game reads fam.state(2 lam, k||x) directly: that is what one
    # query on |k, x>|0>|0^2lam> loads into the flagged payload
    lam = 2
    n, total = 2 * lam, 4 * lam + 1
    fam = fresh_family("prfsg")
    for k, x in ((2, 1), (3, 1)):
        m = (k << lam) | x
        vec = np.zeros(2**total, dtype=complex)
        vec[m << (n + 1)] = 1.0  # flag 0, payload 0^n
        out = ref.apply_swap_call(fam, vec, n, list(range(total)), total)
        block = out.reshape(2**n, 2, 2**n)
        assert np.allclose(block[m, 1], fam.state(n, m).amplitudes, atol=1e-12)
        assert np.isclose(np.linalg.norm(block[m, 1]), 1.0, atol=1e-12)


# ------------------------------------------------------------------ rotation family


def test_hri_unitary_defining_action():
    t, n = 2, 1
    u = haar.sample_haar_unitary(2 ** (t + n), SEED.child("hri-u"))
    h = orc.hri_unitary(t, n, u).mat
    d = 2 ** (t + n)
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    assert np.allclose(h @ h, np.eye(2 * d), atol=1e-11)
    for x in (0, 1):
        inp = np.zeros(2 * d, dtype=complex)
        inp[x] = 1.0  # flag 0, pad zeros, payload x
        out = h @ inp
        want = np.zeros(2 * d, dtype=complex)
        want[d:] = u.mat[:, x]  # flag flipped, payload rotated
        assert np.allclose(out, want, atol=1e-12)
        back = h @ out
        assert np.allclose(back, inp, atol=1e-12)
    # identity outside the padded sector and its rotated image
    rng = np.random.default_rng(3)
    v = np.zeros(2 * d, dtype=complex)
    v[2**n : d] = la.random_state_from(rng, d - 2**n)  # flag 0, pad nonzero
    assert np.allclose(h @ v, v, atol=1e-12)
    w = np.zeros(2 * d, dtype=complex)
    w[d:] = u.mat @ v[:d]  # flag 1, orthogonal to the image of the padded sector
    assert np.allclose(h @ w, w, atol=1e-12)


def test_hri_trace_closed_form():
    for t, n in ((1, 1), (2, 1), (1, 2)):
        u = haar.sample_haar_unitary(2 ** (t + n), SEED.child("hrit", t * 10 + n))
        h = orc.hri_unitary(t, n, u).mat
        assert np.isclose(np.trace(h).real, 2 ** (t + n + 1) - 2 ** (n + 1), atol=1e-9)


def test_hri_family_caching_and_manifest():
    fam = orc.HriOracleFamily(SEED.child("hfam"), stretch="n")
    u1 = fam.haar_unitary(1, 0)
    u2 = fam.haar_unitary(1, 0)
    assert u1 is u2
    assert list(fam._unitaries) == [(1, 0)]
    assert fam.t_of(3) == 3
    assert orc.HriOracleFamily(SEED, stretch="2n").t_of(3) == 6
    assert orc.HriOracleFamily(SEED, stretch="zero").t_of(3) == 0


# ------------------------------------------------------------------ circuits


def test_fixed_gate_circuit_matches_dense_product():
    rng = np.random.default_rng(11)
    g1 = la.random_unitary_from(rng, 4)
    g2 = la.random_unitary_from(rng, 2)
    circ = orc.OracleCircuit(3, (orc.FixedGate(g1, (0, 1)), orc.FixedGate(g2, (2,))))
    (u,) = orc.circuit_unitaries([circ])
    want = np.kron(np.eye(4), g2) @ np.kron(g1, np.eye(2))
    assert np.allclose(u, want, atol=1e-10)
    assert circ.query_count == 0


def test_circuit_with_oracle_call_matches_dense_substitution():
    fam = fresh_family("circ")
    rng = np.random.default_rng(12)
    g = la.random_unitary_from(rng, 8)
    circ = orc.OracleCircuit(
        3, (orc.FixedGate(g, (0, 1, 2)), orc.OracleCall(1, (0, 1, 2)))
    )
    assert circ.query_count == 1
    (u,) = orc.circuit_unitaries([circ], orc.oracle_blocks([circ], swap=fam))
    want = fam.dense_oracle(1).mat @ g
    assert np.allclose(u, want, atol=1e-10)
    with pytest.raises(ValueError, match="key 1"):
        orc.circuit_unitaries([circ])  # family not supplied


def test_circuit_with_rotation_call():
    hfam = orc.HriOracleFamily(SEED.child("hcirc"), stretch="n")
    circ = orc.OracleCircuit(3, (orc.HriCall(1, m=1, wires=(0, 1, 2)),))
    (u,) = orc.circuit_unitaries([circ], orc.oracle_blocks([circ], hri=hfam))
    assert np.allclose(u, hfam.oracle(1, 1).mat, atol=1e-12)
    with pytest.raises(ValueError, match=r"key \(1, 1\)"):
        orc.circuit_unitaries([circ], {(1, 0): np.eye(8)})
    bad = orc.OracleCircuit(3, (orc.HriCall(1, m=0, wires=(0, 1)),))
    with pytest.raises(ValueError):
        orc.oracle_blocks([bad], hri=hfam)


def test_a_missing_family_is_named():
    swap_circ = orc.OracleCircuit(3, (orc.OracleCall(1, (0, 1, 2)),))
    with pytest.raises(ValueError, match="swap family"):
        orc.oracle_blocks([swap_circ], hri=orc.HriOracleFamily(SEED.child("hnone")))
    rot_circ = orc.OracleCircuit(3, (orc.HriCall(1, m=0, wires=(0, 1, 2)),))
    with pytest.raises(ValueError, match="rotation family"):
        orc.oracle_blocks([rot_circ], swap=fresh_family("none"))
    cand = toys.toy_pri_candidate(2, 1, 2, SEED.child("none-cand"), swap_calls=1)
    with pytest.raises(ValueError, match="swap family"):
        orc.oracle_blocks(cand.circuits.values())


def test_circuit_unitary_matches_per_column_reference():
    # the batched pass against the old column-by-column evaluation
    swap = fresh_family("batch")
    hfam = orc.HriOracleFamily(SEED.child("hbatch"), stretch="n")
    for c in (0, 1):
        for i, cand in enumerate(
            (
                toys.toy_pru_candidate(2, 2, SEED.child("bfix", c), c=c),
                toys.toy_pru_candidate(3, 2, SEED.child("bswp", c), c=c, swap_calls=2),
                toys.toy_pri_candidate(2, 1, 2, SEED.child("bpri", c), c=c, swap_calls=1),
                toys.toy_hri_candidate(3, 2, SEED.child("brot", c), c=c, rot_calls=2),
            )
        ):
            circuits = [cand.circuits[k] for k in cand.keys]
            stack = orc.circuit_unitaries(circuits, orc.oracle_blocks(circuits, swap, hfam))
            for k in cand.keys:
                want = ref.per_column_circuit_unitary(cand.circuits[k], swap=swap, hri=hfam).mat
                assert np.max(np.abs(stack[k] - want)) <= 1e-12, (c, i, k)


def _mixed_circuits(width: int, seed: SeedPath) -> list:
    """Circuits of one width with 0-2 calls, gates on wire subsets and swap and rotation
    calls; several share a skeleton, the rest stand alone, in shuffled order."""
    rng = seed.rng()

    def gate(wires):
        return orc.FixedGate(la.random_unitary_from(rng, 2 ** len(wires)), wires)

    sub = tuple(int(w) for w in rng.permutation(width)[: max(1, width - 1)])
    shapes = [[("g", tuple(range(width)))], [("g", sub)], [("g", sub), ("g", (width - 1,))]]
    if width >= 3:
        shapes += [
            [("g", sub), ("swap", (0, 1, 2)), ("g", tuple(range(width)))],
            [("rot", (width - 3, width - 2, width - 1)), ("g", sub), ("swap", (2, 0, 1))],
            [("swap", (0, 1, 2)), ("rot", (0, 1, 2))],
        ]
    if width >= 5:
        shapes.append([("g", (4, 0)), ("swap", (4, 3, 2, 1, 0)), ("rot", (1, 3, 4))])
    circuits = []
    for copy in range(3):  # each skeleton three times, with its own gates and indices
        for shape in shapes:
            steps = []
            for kind, wires in shape:
                if kind == "g":
                    steps.append(gate(wires))
                elif kind == "swap":
                    steps.append(orc.OracleCall((len(wires) - 1) // 2, wires))
                else:
                    steps.append(orc.HriCall(1, m=copy % 2, wires=wires))
            circuits.append(orc.OracleCircuit(width, tuple(steps)))
    return [circuits[i] for i in rng.permutation(len(circuits))]


@pytest.mark.parametrize("width", [2, 3, 4, 5])
def test_stacked_circuits_match_per_column_reference(width):
    swap = fresh_family("mixed")
    hfam = orc.HriOracleFamily(SEED.child("hmixed"), stretch="n")
    circuits = _mixed_circuits(width, SEED.child("mixed", width))
    blocks = orc.oracle_blocks(circuits, swap, hfam)
    stack = orc.circuit_unitaries(circuits, blocks)
    assert stack.shape == (len(circuits), 2**width, 2**width)
    for i, circ in enumerate(circuits):
        want = ref.per_column_circuit_unitary(circ, swap=swap, hri=hfam).mat
        assert np.max(np.abs(stack[i] - want)) <= 1e-15, i
        # grouping leaves each circuit's matrix as a stack of one gives it
        assert np.array_equal(stack[i], orc.circuit_unitaries([circ], blocks)[0])


def test_stacked_circuits_are_checked_once(monkeypatch):
    circuits = _mixed_circuits(5, SEED.child("mixed-check"))
    checks = []
    check = orc.check_unitary
    monkeypatch.setattr(orc, "check_unitary", lambda m: checks.append(m.shape) or check(m))
    orc.circuit_unitaries(
        circuits, orc.oracle_blocks(circuits, fresh_family("mc"), orc.HriOracleFamily(SEED.child("hmc")))
    )
    assert checks == [(len(circuits), 32, 32)]
    with pytest.raises(ValueError, match="one width"):
        orc.circuit_unitaries([circuits[0], orc.OracleCircuit(4, ())])


def test_toy_gates_equal_per_path_draws(monkeypatch):
    checks = []
    check = orc.check_unitary
    monkeypatch.setattr(orc, "check_unitary", lambda m: checks.append(m.shape) or check(m))
    seed = SEED.child("toy-draws")
    cand = toys.toy_hri_candidate(2, 3, seed, c=1, rot_calls=2)
    # all nine gates drawn, factored and checked as one stack
    assert checks == [(9, 8, 8)]
    for k in cand.keys:
        gates = [step for step in cand.circuits[k].steps if isinstance(step, orc.FixedGate)]
        assert len(gates) == 3
        for q, g in enumerate(gates):
            want = la.random_unitary_from(seed.child("key", k).child("g", q).rng(), 8)
            assert np.array_equal(g.matrix, want), (k, q)
            assert g.wires == (0, 1, 2) and not g.matrix.flags.writeable


def test_toy_gates_are_sized_before_drawing(monkeypatch):
    with pytest.raises(SizingError, match="toy gate"):
        toys.toy_pru_candidate(1, 2, SEED.child("wide"), c=12)
    # past one budget's worth the draws go in chunks that give the same gates
    seed = SEED.child("toy-chunks")
    whole = toys.toy_pru_candidate(2, 3, seed, c=1, swap_calls=1)
    monkeypatch.setattr(budget, "DEFAULT_BUDGET", Budget(max_dense_matrix_qubits=4))
    chunked = toys.toy_pru_candidate(2, 3, seed, c=1, swap_calls=1)
    for k in whole.keys:
        for a, b in zip(whole.circuits[k].steps, chunked.circuits[k].steps):
            assert a == b if not isinstance(a, orc.FixedGate) else np.array_equal(a.matrix, b.matrix)


def test_fixed_gate_checks():
    g = la.random_unitary_from(np.random.default_rng(3), 4)
    gate = orc.FixedGate(g, (1, 0))
    assert np.array_equal(gate.matrix, g) and not np.shares_memory(gate.matrix, g)
    for bad, match in (
        (g[:, :3], "square"),
        (g[:2, :2], "wire count"),
        (2 * g, "unitary"),
        (np.where(np.eye(4) > 0, np.nan, g), "NaN"),
        (np.stack([g, g]), "one matrix"),
    ):
        with pytest.raises(ValueError, match=match):
            orc.FixedGate(bad, (1, 0))
    with pytest.raises(ValueError, match="unitary"):
        orc.FixedGate.stack(np.stack([g, 2 * g]), (0, 1))


# ------------------------------------------------------------------ candidates


def test_a_candidate_needs_a_key():
    with pytest.raises(ValueError, match="at least one key"):
        orc.Candidate(lam=1, circuits={})


def test_toy_pru_candidate_shapes():
    cand = toys.toy_pru_candidate(2, 4, SEED.child("pru"))
    assert cand.keys == (0, 1, 2, 3)
    assert cand.query_count == 0
    assert orc.candidate_channel(cand).shape == (4, 1, 4, 4)


def test_toy_pri_candidate_queries_family():
    fam = fresh_family("pric")
    cand = toys.toy_pri_candidate(2, 1, 2, SEED.child("pri-cand"), swap_calls=2)
    assert cand.query_count == 2
    kraus = orc.candidate_channel(cand, orc.oracle_blocks(cand.circuits.values(), swap=fam))[1]
    assert kraus.shape == (1, 8, 4)
    # isometry: K^dag K = I on the input register
    assert np.allclose(kraus[0].conj().T @ kraus[0], np.eye(4), atol=1e-10)


def test_toy_hri_candidate_queries_rotation_family():
    hfam = orc.HriOracleFamily(SEED.child("hritoy"), stretch="n")
    cand = toys.toy_hri_candidate(3, 2, SEED.child("htoy"), rot_calls=1)
    assert cand.query_count == 1
    blocks = orc.oracle_blocks(cand.circuits.values(), hri=hfam)
    assert orc.candidate_channel(cand, blocks).shape == (2, 1, 8, 8)


def test_candidate_kraus_completeness_and_stinespring_route():
    lam, s, c = 2, 1, 1
    fam = fresh_family("kraus")
    cand = toys.toy_pri_candidate(lam, s, 2, SEED.child("kraus-cand"), c=c, swap_calls=1)
    blocks = orc.oracle_blocks(cand.circuits.values(), swap=fam)
    kraus = orc.candidate_channel(cand, blocks)[0]
    assert kraus.shape == (2, 8, 4)
    acc = sum(k.conj().T @ k for k in kraus)
    assert np.allclose(acc, np.eye(4), atol=1e-10)

    rng = np.random.default_rng(2)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
    out = sum(k @ rho @ k.conj().T for k in kraus)
    # independent route: embed with pad and work in zeros, conjugate by the
    # circuit unitary, trace out the work qubit, then move the pad first
    u = orc.circuit_unitaries([cand.circuits[k] for k in cand.keys], blocks)[0]
    zeros = np.zeros((4, 4), dtype=complex)
    zeros[0, 0] = 1.0
    direct = (u @ np.kron(rho, zeros) @ u.conj().T).reshape(4, 2, 2, 4, 2, 2)
    direct = np.einsum("abjcdj->abcd", direct).transpose(1, 0, 3, 2).reshape(8, 8)
    assert np.allclose(out, direct, atol=1e-10)

    # pad first: row (pad, y) of operator j is output wire order (y, pad, j)
    for j in range(2):
        for pad in range(2):
            for y in range(4):
                for x in range(4):
                    assert kraus[j, pad * 4 + y, x] == u[(y * 2 + pad) * 2 + j, x * 4]

