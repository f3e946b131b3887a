"""Small keyed candidates for exercising the attack pipelines end to end.

These are deliberately weak constructions: a handful of keys, every key a
short circuit of seeded random gates with an optional oracle call threaded
through. Their output support has rank at most the key count, which is what
the threshold distinguisher latches onto.
"""
from __future__ import annotations

from .linalg import random_unitary_from
from .oracles import Candidate, FixedGate, HriCall, OracleCall, OracleCircuit
from .seeds import SeedPath


def _random_gate(seed: SeedPath, width: int) -> FixedGate:
    return FixedGate(random_unitary_from(seed.rng(), 2**width), tuple(range(width)))


def _keyed_circuits(width: int, n_keys: int, seed: SeedPath, calls: int, need: int, call) -> dict:
    """Per key: a random gate, then `calls` rounds of oracle call plus random gate.

    `call(k, daggered)` builds key k's call on the leading `need` wires;
    every other call is daggered.
    """
    if calls and width < need:
        raise ValueError(f"width {width} cannot host an oracle call on {need} wires")
    circuits = {}
    for k in range(n_keys):
        ks = seed.child("key", k)
        steps = [_random_gate(ks.child("g", 0), width)]
        for q in range(calls):
            steps.append(call(k, q % 2 == 1))
            steps.append(_random_gate(ks.child("g", q + 1), width))
        circuits[k] = OracleCircuit(width, tuple(steps))
    return circuits


def _swap_circuits(width: int, n_keys: int, seed: SeedPath, calls: int, call_n: int) -> dict:
    wires = tuple(range(2 * call_n + 1))
    return _keyed_circuits(
        width, n_keys, seed, calls, len(wires),
        lambda k, daggered: OracleCall(call_n, wires, daggered=daggered),
    )


def toy_pru_candidate(
    lam: int,
    n_keys: int,
    seed: SeedPath,
    c: int = 0,
    swap_calls: int = 0,
    call_n: int = 1,
) -> Candidate:
    circuits = _swap_circuits(lam + c, n_keys, seed, swap_calls, call_n)
    return Candidate(lam=lam, ancilla_c=c, circuits=circuits)


def toy_pri_candidate(
    lam: int,
    s: int,
    n_keys: int,
    seed: SeedPath,
    c: int = 0,
    swap_calls: int = 1,
    call_n: int = 1,
) -> Candidate:
    circuits = _swap_circuits(lam + s + c, n_keys, seed, swap_calls, call_n)
    return Candidate(lam=lam, stretch_s=s, ancilla_c=c, circuits=circuits)


def toy_hri_candidate(
    lam: int,
    n_keys: int,
    seed: SeedPath,
    c: int = 0,
    rot_calls: int = 0,
    call_n: int = 1,
    t_of_call: int = 1,
) -> Candidate:
    """Unitary candidate whose circuits may query the hidden-rotation family."""
    need = 1 + t_of_call + call_n

    def call(k, daggered):
        return HriCall(call_n, m=k % 2**call_n, wires=tuple(range(need)), daggered=daggered)

    circuits = _keyed_circuits(lam + c, n_keys, seed, rot_calls, need, call)
    return Candidate(lam=lam, ancilla_c=c, circuits=circuits)
