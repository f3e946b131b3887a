"""Oracle families and the circuits that query them.

The swap family reflects between two designated states per index: on the
block labeled m it exchanges |0>|0^n> with |1>|psi_{n,m}> and fixes the
orthogonal complement, so each block is a self-adjoint involution. The
hidden-rotation family instead flips a flag while applying a Haar unitary
on a padded register, again an involution. Family members are sampled
lazily from a SeedPath: a swap call draws every index state of the member
S_n it queries, a rotation call only its block m. Each state has its own
seed path, so what gets drawn never changes a drawn value.

Wire conventions. A swap call occupies 2n+1 wires ordered
[index m (n), flag (1), payload (n)]; flag is the most significant qubit of
the reflected block. A hidden-rotation call occupies 1 + t(n) + n wires
ordered [flag, pad, payload], with the index m carried classically on the
call. Circuits list steps top to bottom, wire 0 most significant.

Each call carries the key of the block it queries: n for a swap call (the
whole member S_n), (n, m) for a rotation call. Calls are resolved through a
block map {key: dense unitary}: `oracle_blocks` builds a family's map, one
block per distinct key, and a surrogate is the same circuits run under a map
of learned blocks, with the identity standing for a deleted call. Keyed
candidates are one type, `Candidate`, whose stretch s = 0 makes a keyed
unitary. `circuit_unitaries` runs circuits of one skeleton (step kinds, wires
and call sizes) together, each step once on a (circuits, 2^w, 2^w) stack of
all their basis columns, and checks the stack once; a single circuit is a
stack of one.
`candidate_channel` reads every key's Kraus operators off that stack as one
(keys, 2^c, 2^(s+lam), 2^lam) array.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import budget
from .linalg import PureState, UnitaryMatrix, _freeze, apply_on_wires, as_complex_array, check_unitary
from .seeds import SeedPath
from . import haar

STRETCHES = {
    "n": lambda n: n,
    "2n": lambda n: 2 * n,
    "zero": lambda n: 0,
}


def swap_unitary(n: int, psi: PureState) -> UnitaryMatrix:
    """Reflection on n+1 qubits exchanging |0,0^n> with |1,psi>."""
    if psi.dim != 2**n:
        raise ValueError(f"target state has dim {psi.dim}, expected 2^{n}")
    d = 2 ** (n + 1)
    e0 = np.zeros(d, dtype=np.complex128)
    e0[0] = 1.0
    e1 = np.zeros(d, dtype=np.complex128)
    e1[2**n :] = psi.amplitudes
    s = np.eye(d, dtype=np.complex128)
    s -= np.outer(e0, e0.conj()) + np.outer(e1, e1.conj())
    s += np.outer(e0, e1.conj()) + np.outer(e1, e0.conj())
    return UnitaryMatrix(s)


@dataclass
class SwapOracleFamily:
    """Lazily sampled family {S_n}: block m of S_n reflects toward psi_{n,m}."""

    seed: SeedPath
    _states: dict = field(default_factory=dict, repr=False)

    def state_seed(self, n: int, m: int) -> SeedPath:
        """The seed psi_{n,m} is drawn from."""
        return self.seed.child("n", n).child("m", m)

    def state(self, n: int, m: int) -> PureState:
        if not 0 <= m < 2**n:
            raise ValueError(f"index m={m} out of range for n={n}")
        key = (n, m)
        if key not in self._states:
            self._states[key] = haar.sample_haar_state(2**n, self.state_seed(n, m))
        return self._states[key]

    def block_unitary(self, n: int, m: int) -> UnitaryMatrix:
        return swap_unitary(n, self.state(n, m))

    def dense_oracle(self, n: int) -> UnitaryMatrix:
        """Full member on 2n+1 qubits, block diagonal over the index register."""
        budget.DEFAULT_BUDGET.check_dense_matrix(2 * n + 1, "dense oracle")
        block = 2 ** (n + 1)
        out = np.zeros((2**n * block, 2**n * block), dtype=np.complex128)
        for m in range(2**n):
            sl = slice(m * block, (m + 1) * block)
            out[sl, sl] = self.block_unitary(n, m).mat
        return UnitaryMatrix(out)

@dataclass
class HriOracleFamily:
    """Lazily sampled flag-flip family: block m applies a Haar unitary on t(n)+n qubits."""

    seed: SeedPath
    stretch: str = "n"
    _unitaries: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.stretch not in STRETCHES:
            raise ValueError(f"unknown stretch {self.stretch!r}; known: {', '.join(STRETCHES)}")

    def t_of(self, n: int) -> int:
        return STRETCHES[self.stretch](n)

    def haar_unitary(self, n: int, m: int) -> UnitaryMatrix:
        if not 0 <= m < 2**n:
            raise ValueError(f"index m={m} out of range for n={n}")
        key = (n, m)
        if key not in self._unitaries:
            self._unitaries[key] = haar.sample_haar_unitary(
                2 ** (n + self.t_of(n)),
                self.seed.child("hri-n", n).child("m", m),
            )
        return self._unitaries[key]

    def oracle(self, n: int, m: int) -> UnitaryMatrix:
        t = self.t_of(n)
        budget.DEFAULT_BUDGET.check_dense_matrix(1 + t + n, "hidden-rotation oracle")
        return hri_unitary(t, n, self.haar_unitary(n, m))

def hri_unitary(t: int, n: int, u: UnitaryMatrix) -> UnitaryMatrix:
    """Self-adjoint involution on [flag, pad(t), payload(n)].

    Maps |1>|0^t>|x> to |0> U |0^t x| and back, and acts as the identity on
    the subspace orthogonal to both the padded input sector and its image.
    """
    d_in = 2 ** (t + n)
    if u.dim != d_in:
        raise ValueError(f"rotation has dim {u.dim}, expected 2^{t + n}")
    p0 = np.zeros((d_in, d_in), dtype=np.complex128)
    idx = np.arange(2**n)  # pad register zero, payload free; pad most significant
    p0[idx, idx] = 1.0
    up0 = u.mat @ p0
    out = np.zeros((2 * d_in, 2 * d_in), dtype=np.complex128)
    out[:d_in, :d_in] = np.eye(d_in) - p0
    out[:d_in, d_in:] = up0.conj().T  # P0 U^dag
    out[d_in:, :d_in] = up0
    out[d_in:, d_in:] = np.eye(d_in) - up0 @ u.mat.conj().T  # I - U P0 U^dag
    return UnitaryMatrix(out)


# ------------------------------------------------------------------ circuits


def _checked_gates(mats, wires: tuple) -> np.ndarray:
    """A frozen copy of a gate or a (..., 2^k, 2^k) gate stack for k wires, checked finite and
    unitary once."""
    m = as_complex_array(mats, "gate")
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"unitary must be square, got shape {m.shape}")
    if m.shape[-1] != 2 ** len(wires):
        raise ValueError("gate size does not match its wire count")
    check_unitary(m)
    return _freeze(m)


@dataclass(frozen=True)
class FixedGate:
    """A unitary on the listed wires. Its matrix is copied and checked once: here, or for
    gates built together, by `FixedGate.stack` on their whole stack."""

    matrix: np.ndarray
    wires: tuple

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        m = _checked_gates(self.matrix, self.wires)
        if m.ndim != 2:
            raise ValueError(f"a gate is one matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def stack(cls, mats, wires) -> list:
        """One gate per matrix of an (n, 2^k, 2^k) stack, all on the same wires."""
        wires = tuple(int(w) for w in wires)
        gates = []
        for m in _checked_gates(mats, wires):
            gate = object.__new__(cls)  # each matrix is checked with the stack, not again
            object.__setattr__(gate, "matrix", m)
            object.__setattr__(gate, "wires", wires)
            gates.append(gate)
        return gates


@dataclass(frozen=True)
class OracleCall:
    n: int
    wires: tuple

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        if len(self.wires) != 2 * self.n + 1:
            raise ValueError(f"swap call on n={self.n} needs {2 * self.n + 1} wires")

    @property
    def key(self) -> int:
        """The called block: the whole family member S_n."""
        return self.n


@dataclass(frozen=True)
class HriCall:
    n: int
    m: int
    wires: tuple

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        if not 0 <= self.m < 2**self.n:
            raise ValueError(f"call index m={self.m} out of range for n={self.n}")

    @property
    def key(self) -> tuple:
        """The called block: index m of the size-n rotation oracle."""
        return (self.n, self.m)


@dataclass(frozen=True)
class OracleCircuit:
    total_qubits: int
    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            if not isinstance(step, (FixedGate, OracleCall, HriCall)):
                raise TypeError(f"unknown circuit step {type(step).__name__}")
            ws = step.wires
            if len(set(ws)) != len(ws) or any(w < 0 or w >= self.total_qubits for w in ws):
                raise ValueError(f"bad wires {ws} for {self.total_qubits} qubits")

    @property
    def calls(self) -> tuple:
        """The oracle-call steps, in circuit order."""
        return tuple(s for s in self.steps if not isinstance(s, FixedGate))

    @property
    def query_count(self) -> int:
        return len(self.calls)


def _skeleton(circ: OracleCircuit) -> tuple:
    """What circuits run together share: each step's kind, wires and call size."""
    return tuple((type(step), step.wires, getattr(step, "n", None)) for step in circ.steps)


def oracle_blocks(circuits, swap: SwapOracleFamily | None = None, hri: HriOracleFamily | None = None) -> dict:
    """The block map of the families' blocks the circuits call, {call key: dense unitary},
    one block per distinct key: the whole member S_n for a swap call, block m of the size-n
    rotation oracle for a rotation call. A swap call spans 2n+1 wires, so its member fits
    the budget the circuit's width was sized by."""
    blocks: dict = {}
    for circ in circuits:
        for step in circ.calls:
            if isinstance(step, OracleCall):
                if swap is None:
                    raise ValueError("a call queries the swap family but none was given")
            elif hri is None:
                raise ValueError("a call queries the rotation family but none was given")
            elif len(step.wires) != (need := 1 + hri.t_of(step.n) + step.n):
                raise ValueError(f"rotation call on n={step.n} needs {need} wires")
            if step.key not in blocks:
                block = swap.dense_oracle(step.n) if isinstance(step, OracleCall) else hri.oracle(step.n, step.m)
                blocks[step.key] = block.mat
    return blocks


def _stacked_pass(circuits: list, blocks: dict) -> np.ndarray:
    """One skeleton's circuits, each step applied once to a (circuits, 2^w, 2^w) stack."""
    n_q = circuits[0].total_qubits
    mat = np.repeat(np.eye(2**n_q, dtype=np.complex128)[None], len(circuits), axis=0)
    for steps in zip(*(circ.steps for circ in circuits)):
        if isinstance(steps[0], FixedGate):
            gates = [s.matrix for s in steps]
        else:
            for s in steps:
                if s.key not in blocks:
                    raise ValueError(f"no block given for the oracle call with key {s.key!r}")
            gates = [blocks[s.key] for s in steps]
        mat = apply_on_wires(mat, np.stack(gates), steps[0].wires, n_q)
    return mat


def circuit_unitaries(circuits, blocks: dict | None = None) -> np.ndarray:
    """The matrices of circuits of one width, as a (circuits, 2^w, 2^w) stack in their order.

    Circuits of one skeleton run as one stacked pass: each gate or oracle call is one batched
    matmul on its wires, a call applying the unitary `blocks` holds under its key (see
    `oracle_blocks`). The whole stack is checked unitary once.
    """
    circuits = list(circuits)
    n_q = circuits[0].total_qubits
    if any(circ.total_qubits != n_q for circ in circuits):
        raise ValueError("stacked circuits must share one width")
    budget.DEFAULT_BUDGET.check_dense_matrix(n_q, "circuit unitary")
    groups: dict = {}
    for i, circ in enumerate(circuits):
        groups.setdefault(_skeleton(circ), []).append(i)
    out = np.empty((len(circuits), 2**n_q, 2**n_q), dtype=np.complex128)
    for idx in groups.values():
        out[idx] = _stacked_pass([circuits[i] for i in idx], blocks or {})
    check_unitary(out)
    return out


# ------------------------------------------------------------------ candidates


@dataclass(frozen=True)
class Candidate:
    """Keyed isometry family: lam input qubits to lam + s output qubits.

    Wires: [input (lam), pad (s), work (c)]; pad and work start in zeros,
    work must return to |0^c>, the output is the leading lam + s wires.
    A keyed unitary (PRU) is the stretch s = 0 case.
    """

    lam: int
    circuits: dict
    stretch_s: int = 0
    ancilla_c: int = 0

    def __post_init__(self):
        if self.lam < 1 or self.stretch_s < 0 or self.ancilla_c < 0:
            raise ValueError(
                f"candidate needs lam >= 1 and s, c >= 0, got "
                f"lam={self.lam}, s={self.stretch_s}, c={self.ancilla_c}"
            )
        if not self.circuits:
            raise ValueError("a candidate needs at least one key")
        width = self.lam + self.stretch_s + self.ancilla_c
        for k, circ in self.circuits.items():
            if circ.total_qubits != width:
                raise ValueError(f"circuit for key {k} has the wrong width")

    @property
    def keys(self) -> tuple:
        return tuple(sorted(self.circuits))

    @property
    def query_count(self) -> int:
        return max(c.query_count for c in self.circuits.values())


def candidate_channel(cand, blocks: dict | None = None) -> np.ndarray:
    """Every key's Kraus operators, in key order: shape (keys, 2^c, 2^(s+lam), 2^lam).

    Operator j of a key is the block of its circuit unitary taking inputs with pad
    and work in zeros to outputs with the work register in |j>. Its rows put the
    pad qubits ahead of the payload, the copy order of the averaged references.
    The unitaries come from `circuit_unitaries`, at most one budget's worth at a time.
    """
    circuits = [cand.circuits[k] for k in cand.keys]
    d_in, d_pad, d_work = 2**cand.lam, 2**cand.stretch_s, 2**cand.ancilla_c
    width = cand.lam + cand.stretch_s + cand.ancilla_c
    kraus = np.empty((len(circuits), d_work, d_pad * d_in, d_in), dtype=np.complex128)
    for part in budget.DEFAULT_BUDGET.chunks(len(circuits), 4**width):
        u = circuit_unitaries(circuits[part.start : part.stop], blocks)
        # rows [payload, pad, work], columns [input, pad and work]
        u6 = u.reshape(len(part), d_in, d_pad, d_work, d_in, d_pad * d_work)
        kraus[part.start : part.stop] = u6[..., 0].transpose(0, 3, 2, 1, 4).reshape(
            len(part), d_work, d_pad * d_in, d_in
        )
    return kraus
