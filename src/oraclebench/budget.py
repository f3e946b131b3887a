"""Size guards for desk-scale runs.

Every routine that allocates an exponentially sized object first checks it
against DEFAULT_BUDGET, the one limit, read when the guard runs, and raises
SizingError instead of thrashing the machine. Tests swap it with monkeypatch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class SizingError(Exception):
    """A requested object exceeds the configured size budget."""


@dataclass(frozen=True)
class Budget:
    """One size limit: a dense 2^q x 2^q matrix for q up to max_dense_matrix_qubits.

    Dense builds check their qubit count against it, and a low-rank factor
    may hold as many entries as that matrix, so a factored attack is sized
    by its factor rather than by its qubit count.
    """

    max_dense_matrix_qubits: int = 12

    def check_dense_matrix(self, qubits: int, what: str) -> None:
        if qubits > self.max_dense_matrix_qubits:
            raise SizingError(
                f"{what} materializes a 2^{qubits} x 2^{qubits} matrix, "
                f"budget allows {self.max_dense_matrix_qubits} qubits"
            )

    def check_factor(self, qubits: int, cols: int, what: str, col_exp: int = 0) -> None:
        """A 2^qubits x (cols 2^col_exp) factor may hold as many entries as the largest dense matrix.
        The budget is shifted down by both exponents, so an absurd count is never formed."""
        if cols > 4**self.max_dense_matrix_qubits >> qubits >> col_exp:
            # an absurd count has too many digits to print, so past 2^64 it is a power of two
            small = cols.bit_length() + col_exp <= 64
            count = cols << col_exp if small else f"2^{math.log2(cols) + col_exp:.10g}"
            raise SizingError(
                f"{what} materializes a 2^{qubits} x {count} factor, budget allows "
                f"{4**self.max_dense_matrix_qubits} entries"
            )

    def chunks(self, n_items: int, entries: int) -> list[range]:
        """Split range(n_items) into consecutive chunks of at least one item each,
        so that a stack of `entries` entries per item holds no more entries than a factor may."""
        step = max(1, 4**self.max_dense_matrix_qubits // entries)
        return [range(lo, min(lo + step, n_items)) for lo in range(0, n_items, step)]


DEFAULT_BUDGET = Budget()
