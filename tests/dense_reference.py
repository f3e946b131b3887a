"""Dense reference routes that only the tests use.

Each function here is an independent, slower way to compute something the
library computes another way: a Monte Carlo twirl, the dense block-encoding
unitary, explicit subsystem permutation matrices, and a circuit's unitary
evaluated one basis column at a time.
"""
from __future__ import annotations

import math

import numpy as np

from oraclebench.blockenc import BlockEncoding, complete_to_unitary
from oraclebench.budget import DEFAULT_BUDGET, Budget
from oraclebench.linalg import (
    DensityMatrix,
    PureState,
    UnitaryMatrix,
    _as_mat,
    apply_on_wires,
    random_unitary_from,
)
from oraclebench.oracles import FixedGate, OracleCall, OracleCircuit, apply_swap_call
from oraclebench.seeds import as_generator


def twirl_mc(rho, d: int, ell: int, samples: int, seed) -> DensityMatrix:
    """Finite-sample estimate of the Haar twirl, one unitary per sample."""
    mat = _as_mat(rho)
    a = d**ell
    r = mat.shape[0] // a
    rng = as_generator(seed)
    m4 = mat.reshape(a, r, a, r)
    acc = np.zeros_like(m4)
    for _ in range(samples):
        u = random_unitary_from(rng, d)
        ul = u
        for _ in range(ell - 1):
            ul = np.kron(ul, u)
        t = np.tensordot(ul, m4, axes=([1], [0]))
        t = np.tensordot(t, ul.conj(), axes=([2], [1]))
        acc += np.moveaxis(t, 3, 2)
    return DensityMatrix((acc / samples).reshape(mat.shape))


def subsystem_perm_matrix(dims: list[int], perm: list[int]) -> np.ndarray:
    """Permutation matrix P with P |x_0 x_1 ...> = |x_perm[0] x_perm[1] ...>."""
    k = len(dims)
    if sorted(perm) != list(range(k)):
        raise ValueError("perm must be a permutation of the subsystem indices")
    total = math.prod(dims)
    idx = np.arange(total)
    digits = []
    rem = idx
    for d in reversed(dims):
        digits.append(rem % d)
        rem = rem // d
    digits = digits[::-1]
    new_dims = [dims[p] for p in perm]
    new_idx = np.zeros(total, dtype=np.int64)
    for j, p in enumerate(perm):
        new_idx = new_idx * new_dims[j] + digits[p]
    mat = np.zeros((total, total), dtype=np.complex128)
    mat[new_idx, idx] = 1.0
    return mat


def block_encoding_unitary(be: BlockEncoding, budget: Budget = DEFAULT_BUDGET) -> UnitaryMatrix:
    """The full unitary of a block encoding; a purification builds W^dag (swap A A') W."""
    if be.unitary_mat is not None:
        return UnitaryMatrix(be.unitary_mat)
    n_q = be.block_dim.bit_length() - 1
    m_q = be.ancilla_qubits - n_q
    total = be.ancilla_qubits + n_q
    budget.check_dense_matrix(total, "block-encoding unitary")
    w = complete_to_unitary(be.purification)
    eye_a = np.eye(be.block_dim)
    swap = subsystem_perm_matrix([2**m_q, be.block_dim, be.block_dim], [0, 2, 1])
    return UnitaryMatrix(np.kron(w.conj().T, eye_a) @ swap @ np.kron(w, eye_a))


def per_column_circuit_unitary(
    circ: OracleCircuit, swap=None, hri=None, budget: Budget = DEFAULT_BUDGET
) -> UnitaryMatrix:
    """A circuit's unitary built column by column: every step on one basis state at a time."""
    budget.check_dense_matrix(circ.total_qubits, "circuit unitary")
    dim = 2**circ.total_qubits
    cols = np.empty((dim, dim), dtype=np.complex128)
    for j in range(dim):
        vec = np.zeros(dim, dtype=np.complex128)
        vec[j] = 1.0
        for step in circ.steps:
            if isinstance(step, FixedGate):
                vec = apply_on_wires(vec, step.matrix, step.wires, circ.total_qubits)
            elif isinstance(step, OracleCall):
                vec = apply_swap_call(
                    swap, vec, step.n, step.wires, circ.total_qubits, step.daggered
                )
            else:
                gate = hri.oracle(step.n, step.m, budget).mat
                vec = apply_on_wires(vec, gate, step.wires, circ.total_qubits)
        cols[:, j] = PureState(vec).amplitudes
    return UnitaryMatrix(cols)
