"""Small keyed candidates for exercising the attack pipelines end to end.

These are deliberately weak constructions: a handful of keys, every key a
short circuit of seeded random gates with an optional oracle call threaded
through. Their output support has rank at most the key count, which is what
the threshold distinguisher latches onto.
"""
from __future__ import annotations

from . import budget
from . import linalg as la
from .oracles import Candidate, FixedGate, HriCall, OracleCall, OracleCircuit
from .seeds import SeedPath

# every toy oracle call queries a size-1 block on the leading three wires: a
# swap call on 2n + 1 of them, or a rotation call on flag, pad and payload
# (the rotation family's default stretch pads n = 1 with t = 1 qubit)
_CALL_WIRES = (0, 1, 2)


def _random_gates(paths: list, width: int) -> list:
    """One Haar gate on all `width` wires per seed path, each the one
    `random_unitary_from(path.rng(), 2^width)` draws; drawn, factored and checked
    as stacks of at most one budget's worth."""
    budget.DEFAULT_BUDGET.check_dense_matrix(width, "toy gate")
    d, wires = 2**width, tuple(range(width))
    gates = []
    for part in budget.DEFAULT_BUDGET.chunks(len(paths), d * d):
        (z,) = la.complex_normals(paths[part.start : part.stop], (d, d))
        gates += FixedGate.stack(la.haar_from_ginibre(z), wires)
    return gates


def _keyed_circuits(width: int, n_keys: int, seed: SeedPath, calls: int, call) -> dict:
    """Per key: a random gate, then `calls` rounds of oracle call plus random gate.

    `call(k)` builds key k's call. Gate q of key k is drawn from
    seed.child("key", k).child("g", q); all gates are drawn as one batch.
    """
    if calls and width < len(_CALL_WIRES):
        raise ValueError(f"width {width} cannot host an oracle call on {len(_CALL_WIRES)} wires")
    per = calls + 1
    paths = [seed.child("key", k).child("g", q) for k in range(n_keys) for q in range(per)]
    gates = _random_gates(paths, width)
    circuits = {}
    for k in range(n_keys):
        own = gates[k * per : (k + 1) * per]
        steps = [own[0]]
        for gate in own[1:]:
            steps += [call(k), gate]
        circuits[k] = OracleCircuit(width, tuple(steps))
    return circuits


def _swap_circuits(width: int, n_keys: int, seed: SeedPath, calls: int) -> dict:
    return _keyed_circuits(width, n_keys, seed, calls, lambda k: OracleCall(1, _CALL_WIRES))


def toy_pru_candidate(
    lam: int,
    n_keys: int,
    seed: SeedPath,
    c: int = 0,
    swap_calls: int = 0,
) -> Candidate:
    circuits = _swap_circuits(lam + c, n_keys, seed, swap_calls)
    return Candidate(lam=lam, ancilla_c=c, circuits=circuits)


def toy_pri_candidate(
    lam: int,
    s: int,
    n_keys: int,
    seed: SeedPath,
    c: int = 0,
    swap_calls: int = 1,
) -> Candidate:
    circuits = _swap_circuits(lam + s + c, n_keys, seed, swap_calls)
    return Candidate(lam=lam, stretch_s=s, ancilla_c=c, circuits=circuits)


def toy_hri_candidate(
    lam: int,
    n_keys: int,
    seed: SeedPath,
    c: int = 0,
    rot_calls: int = 0,
) -> Candidate:
    """Unitary candidate whose circuits may query the hidden-rotation family."""
    circuits = _keyed_circuits(
        lam + c, n_keys, seed, rot_calls, lambda k: HriCall(1, m=k % 2, wires=_CALL_WIRES)
    )
    return Candidate(lam=lam, ancilla_c=c, circuits=circuits)
