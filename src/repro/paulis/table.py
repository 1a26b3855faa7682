"""Batched Pauli storage: many Pauli strings as word-packed bit matrices.

``PauliTable`` holds M Pauli strings on n qubits as two ``(M, ceil(n/64))``
uint64 word matrices (column ``q`` at bit ``q % 64`` of word ``q // 64``,
tail bits zero -- see :mod:`repro.paulis.bitops`) plus an ``(M,)``
phase-exponent vector, in the same ``(-i)**q Z^z X^x`` convention as
:class:`~repro.paulis.pauli.PauliString`.

All of Clapton's hot loops -- conjugating every Hamiltonian term through a
candidate Clifford circuit, evaluating noise attenuation per term -- operate
on tables, so the work per gate is a handful of vectorized word operations
over all M terms at once: popcounts for weights and phase counting,
whole-word ``any`` for Z-type detection, word-wise XOR for Pauli
multiplication.  Callers that need bit columns read them through
:meth:`PauliTable.x_column` / :meth:`PauliTable.unpack_x` (never
``.x[:, q]``, which would index word ``q``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import bitops
from ..obs.kernel import KERNEL
from .pauli import PauliString


class PauliTable:
    """A mutable batch of M Pauli strings on n qubits in uint64 words.

    Unlike :class:`PauliString`, tables are mutated in place by the Clifford
    conjugation routines (:mod:`repro.stabilizer.tableau`) for speed; use
    :meth:`copy` when the original must be preserved.

    Args:
        x: ``(M, ceil(n/64))`` uint64 matrix of packed X components.
        z: ``(M, ceil(n/64))`` uint64 matrix of packed Z components.
        num_qubits: Bit-column count n (not derivable from the word shape).
        phase_exp: ``(M,)`` integer vector of phase exponents (mod 4);
            defaults to every row's canonical (sign +1) phase.
    """

    __slots__ = ("x", "z", "phase_exp", "_num_qubits")

    def __init__(self, x, z, num_qubits: int, phase_exp=None):
        self.x = np.ascontiguousarray(x, dtype=np.uint64)
        self.z = np.ascontiguousarray(z, dtype=np.uint64)
        if self.x.shape != self.z.shape or self.x.ndim != 2:
            raise ValueError("x and z must be (M, W) word matrices of equal shape")
        if self.x.shape[1] != bitops.num_words(num_qubits):
            raise ValueError(f"need {bitops.num_words(num_qubits)} words per "
                             f"row for {num_qubits} qubits, got {self.x.shape[1]}")
        self._num_qubits = int(num_qubits)
        if phase_exp is None:
            phase_exp = bitops.popcount_rows(self.x & self.z)
        self.phase_exp = np.asarray(phase_exp, dtype=np.int64) % 4
        if self.phase_exp.shape != (self.x.shape[0],):
            raise ValueError("phase_exp must have one entry per row")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_bits(cls, x, z, phase_exp=None) -> "PauliTable":
        """Pack ``(M, n)`` boolean X and Z matrices (bit-preserving)."""
        x = np.asarray(x, dtype=bool)
        z = np.asarray(z, dtype=bool)
        if x.shape != z.shape or x.ndim != 2:
            raise ValueError("x and z must be (M, n) boolean matrices of equal shape")
        n = x.shape[1]
        return cls(bitops.pack_bits(x, n), bitops.pack_bits(z, n), n, phase_exp)

    @classmethod
    def from_paulis(cls, paulis: Sequence[PauliString],
                    num_qubits: int | None = None) -> "PauliTable":
        """Stack Pauli strings into a table.

        An empty sequence is allowed when ``num_qubits`` says how wide the
        (0-row) table should be -- empty tables are first-class citizens of
        the batched kernels (batch trimming produces them).
        """
        if not paulis:
            if num_qubits is None:
                raise ValueError("need at least one Pauli (or pass num_qubits "
                                 "to build an empty table)")
            return cls.identity(0, num_qubits)
        n = paulis[0].num_qubits
        if num_qubits is not None and num_qubits != n:
            raise ValueError("num_qubits does not match the given Paulis")
        if any(p.num_qubits != n for p in paulis):
            raise ValueError("all Paulis must act on the same number of qubits")
        return cls.from_bits(np.stack([p.x for p in paulis]),
                             np.stack([p.z for p in paulis]),
                             np.array([p.phase_exp for p in paulis],
                                      dtype=np.int64))

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "PauliTable":
        return cls.from_paulis([PauliString.from_label(s) for s in labels])

    @classmethod
    def identity(cls, num_rows: int, num_qubits: int) -> "PauliTable":
        shape = (num_rows, bitops.num_words(num_qubits))
        return cls(np.zeros(shape, dtype=np.uint64),
                   np.zeros(shape, dtype=np.uint64), num_qubits,
                   np.zeros(num_rows, dtype=np.int64))

    # ------------------------------------------------------------------
    # Views and conversions
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self.x.shape[0]

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def num_words(self) -> int:
        return self.x.shape[1]

    def copy(self) -> "PauliTable":
        return self.take(slice(None))

    def take(self, rows) -> "PauliTable":
        """A new table of the ``rows``-selected rows (index, mask or slice)."""
        return PauliTable(self.x[rows].copy(), self.z[rows].copy(),
                          self._num_qubits, self.phase_exp[rows].copy())

    def tile(self, reps: int) -> "PauliTable":
        """``reps`` stacked copies of this table, as one ``(reps*M, n)`` table.

        The population-batched Clifford losses stack one Hamiltonian table
        copy per genome; copy ``p`` occupies the contiguous row block
        ``[p*M, (p+1)*M)``.
        """
        if reps < 0:
            raise ValueError("reps must be >= 0")
        return PauliTable(np.tile(self.x, (reps, 1)),
                          np.tile(self.z, (reps, 1)),
                          self._num_qubits,
                          np.tile(self.phase_exp, reps))

    def row(self, i: int) -> PauliString:
        n = self._num_qubits
        return PauliString(bitops.unpack_bits(self.x[i:i + 1], n)[0],
                           bitops.unpack_bits(self.z[i:i + 1], n)[0],
                           int(self.phase_exp[i]))

    def to_paulis(self) -> list[PauliString]:
        x, z = self.unpack_x(), self.unpack_z()
        return [PauliString(x[i], z[i], int(q))
                for i, q in enumerate(self.phase_exp)]

    # ------------------------------------------------------------------
    # Column accessors (the conjugation kernel's contract)
    # ------------------------------------------------------------------
    def x_column(self, qubit: int) -> np.ndarray:
        """Bool ``(M,)`` X-bit column."""
        return bitops.get_bit(self.x, qubit)

    def z_column(self, qubit: int) -> np.ndarray:
        """Bool ``(M,)`` Z-bit column."""
        return bitops.get_bit(self.z, qubit)

    def codes_on(self, qubit: int,
                 rows: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Per-row sub-Pauli codes ``x + 2z`` on one qubit (row subset)."""
        return (bitops.get_bit_i64(self.x, qubit, rows)
                + 2 * bitops.get_bit_i64(self.z, qubit, rows))

    def touches_any(self, qubits: Sequence[int]) -> np.ndarray:
        """Bool ``(M,)``: rows acting non-trivially on any listed qubit."""
        acc = np.zeros(self.num_rows, dtype=np.uint64)
        for q in qubits:
            word, bit = divmod(q, bitops.WORD_BITS)
            acc |= ((self.x[:, word] | self.z[:, word])
                    >> np.uint64(bit)) & np.uint64(1)
        return acc != 0

    def unpack_x(self) -> np.ndarray:
        """The ``(M, n)`` boolean X matrix (unpacked copy for cold paths)."""
        return bitops.unpack_bits(self.x, self._num_qubits)

    def unpack_z(self) -> np.ndarray:
        """The ``(M, n)`` boolean Z matrix (unpacked copy for cold paths)."""
        return bitops.unpack_bits(self.z, self._num_qubits)

    # ------------------------------------------------------------------
    # Batched queries used by the Clapton losses
    # ------------------------------------------------------------------
    def signs(self) -> np.ndarray:
        """Real sign (+-1) of every row's canonical form.

        Raises:
            ValueError: if any row has an imaginary phase.
        """
        q_canonical = bitops.popcount_rows(self.x & self.z)
        rel = (self.phase_exp - q_canonical) % 4
        if np.any(rel % 2):
            raise ValueError("table contains rows with imaginary phase")
        return np.where(rel == 0, 1.0, -1.0)

    def z_type_mask(self) -> np.ndarray:
        """Boolean mask of rows that are diagonal (no X component)."""
        return ~self.x.any(axis=1)

    def expectation_all_zeros(self) -> np.ndarray:
        """``<0|P_i|0>`` for every row: ``sign`` for Z-type rows, else 0."""
        mask = self.z_type_mask()
        out = np.zeros(self.num_rows)
        if mask.any():
            sub = PauliTable(self.x[mask], self.z[mask],
                             self._num_qubits, self.phase_exp[mask])
            out[mask] = sub.signs()
        return out

    def weights(self) -> np.ndarray:
        """Pauli weight (non-identity factor count) of every row."""
        return bitops.popcount_rows(self.x | self.z)

    def supports_mask(self) -> np.ndarray:
        """``(M, n)`` boolean matrix: True where a row touches a qubit."""
        return bitops.unpack_bits(self.x | self.z, self._num_qubits)

    # ------------------------------------------------------------------
    # In-place batched multiplication (the workhorse of conjugation)
    # ------------------------------------------------------------------
    def mul_pauli_on_rows(self, mask: np.ndarray, other: PauliString) -> None:
        """In place, replace ``row <- row * other`` for every row in ``mask``.

        Phase rule (see :meth:`PauliString.__mul__`):
        ``q += q_other + 2 * |x_row & z_other|``, with the popcount running
        word-wise.
        """
        if not mask.any():
            return
        n = self._num_qubits
        ox = bitops.pack_bits(np.asarray(other.x, dtype=bool)[None, :], n)[0]
        oz = bitops.pack_bits(np.asarray(other.z, dtype=bool)[None, :], n)[0]
        self._mul_packed_on_rows(mask, ox, oz, other.phase_exp)

    def mul_table_row_on_rows(self, mask: np.ndarray,
                              other: "PauliTable", i: int) -> None:
        """Like :meth:`mul_pauli_on_rows` with row ``i`` of another table."""
        if not mask.any():
            return
        self._mul_packed_on_rows(mask, other.x[i], other.z[i],
                                 int(other.phase_exp[i]))

    def _mul_packed_on_rows(self, mask, other_x, other_z, other_q) -> None:
        # profile counters: rows scanned (full mask traversal) and word
        # columns touched -- shape ints only, no extra numpy passes
        # (counting the masked subset would cost a reduction per call)
        KERNEL.rows += self.x.shape[0]
        KERNEL.words += self.x.shape[0] * self.x.shape[1]
        extra = bitops.popcount_rows(self.x[mask] & other_z[None, :])
        self.phase_exp[mask] = (self.phase_exp[mask] + other_q + 2 * extra) % 4
        self.x[mask] ^= other_x[None, :]
        self.z[mask] ^= other_z[None, :]

    def __repr__(self) -> str:
        return (f"PauliTable(num_rows={self.num_rows}, "
                f"num_qubits={self.num_qubits})")
