"""Clifford tableaus: the conjugation engine behind Clapton.

A Clifford operation ``C`` is fully described by the images of the symplectic
generators, ``C X_k C†`` and ``C Z_k C†`` (Eq. 2 of the paper).  We store
those 2n images as rows of a word-packed
:class:`~repro.paulis.table.PauliTable` and conjugate arbitrary Pauli
strings -- or whole Hamiltonians at once -- by multiplying out the relevant
rows with exact phase tracking (word-wise XORs and popcounts).  Gates
applied to a whole table go through per-gate lookup tables instead
(:func:`apply_gate_to_table`), one word-level pass per gate; a whole
layer of single-qubit Cliffords -- any run of RX/RY/RZ rotations --
goes through one bit-sliced pass (:func:`pull_back_rotation_layer`),
a fixed run of gates, compiled once into a :class:`StaticBlock`, through
one table-driven pass, and a ring of two-qubit CX/SWAP slots with a
per-point gate choice (:class:`PairRing`) through one per-plane pass per
window of up to four slots.

Tableaus for individual gates are *derived from their unitaries* at import
time (:func:`tableau_from_unitary`), so the gate library's dense matrices are
the single source of truth and the symplectic rules cannot drift out of sync
with the simulators.
"""

from __future__ import annotations

import math
import sys
from collections import OrderedDict
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from ..obs.kernel import KERNEL, kernel_event
from ..paulis import bitops
from ..circuits.circuit import Circuit
from ..circuits.gates import get_gate
from ..paulis.pauli import PAULI_MATRICES, PauliString
from ..paulis.table import PauliTable

_PAULI_LABELS_1Q = ("I", "X", "Y", "Z")


def _pauli_basis(num_qubits: int) -> list[tuple[str, np.ndarray]]:
    basis = [("", np.array([[1.0 + 0j]]))]
    for _ in range(num_qubits):
        basis = [(lbl + p, np.kron(mat, PAULI_MATRICES[p]))
                 for lbl, mat in basis for p in _PAULI_LABELS_1Q]
    return basis


def tableau_from_unitary(unitary: np.ndarray) -> "CliffordTableau":
    """Build the tableau of a 1- or 2-qubit Clifford gate from its matrix.

    The image of each generator ``P`` is found by expanding ``U P U†`` in the
    Pauli basis and asserting the result is ``+-`` a single Pauli string.

    Raises:
        ValueError: if the unitary is not a Clifford operation.
    """
    dim = unitary.shape[0]
    num_qubits = int(np.log2(dim))
    if 2 ** num_qubits != dim or unitary.shape != (dim, dim):
        raise ValueError("unitary must be 2^k x 2^k")
    basis = _pauli_basis(num_qubits)
    rows = []
    generators = ([PauliString.from_sparse({k: "X"}, num_qubits) for k in range(num_qubits)]
                  + [PauliString.from_sparse({k: "Z"}, num_qubits) for k in range(num_qubits)])
    for gen in generators:
        image = unitary @ gen.to_matrix() @ unitary.conj().T
        rows.append(_match_signed_pauli(image, basis, num_qubits))
    return CliffordTableau(PauliTable.from_paulis(rows))


def _match_signed_pauli(matrix: np.ndarray, basis, num_qubits: int) -> PauliString:
    dim = matrix.shape[0]
    for label, pauli_mat in basis:
        coeff = np.trace(pauli_mat.conj().T @ matrix) / dim
        if abs(coeff) < 1e-9:
            continue
        if abs(coeff - 1) < 1e-9:
            return PauliString.from_label(label or "I")
        if abs(coeff + 1) < 1e-9:
            return -PauliString.from_label(label or "I")
        raise ValueError("matrix is not a Clifford conjugate of a Pauli")
    raise ValueError("matrix has no Pauli component")


class CliffordTableau:
    """The conjugation table of an n-qubit Clifford operation.

    Rows ``0..n-1`` are the images of ``X_k``; rows ``n..2n-1`` the images of
    ``Z_k``.  The represented map is ``P -> C P C†``.
    """

    __slots__ = ("rows", "_lut_key")

    def __init__(self, rows: PauliTable):
        if rows.num_rows != 2 * rows.num_qubits:
            raise ValueError("a tableau needs exactly 2n rows on n qubits")
        self.rows = rows
        self._lut_key = None

    @property
    def num_qubits(self) -> int:
        return self.rows.num_qubits

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, num_qubits: int) -> "CliffordTableau":
        x = np.zeros((2 * num_qubits, num_qubits), dtype=bool)
        z = np.zeros_like(x)
        idx = np.arange(num_qubits)
        x[idx, idx] = True
        z[num_qubits + idx, idx] = True
        return cls(PauliTable.from_bits(x, z))

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "CliffordTableau":
        """Tableau of a bound Clifford circuit (raises if non-Clifford)."""
        if not circuit.is_clifford():
            raise ValueError("circuit is not Clifford")
        tableau = cls.identity(circuit.num_qubits)
        for inst in circuit.instructions:
            gate = gate_tableau(inst.name, tuple(float(p) for p in inst.params))
            apply_gate_to_table(tableau.rows, gate, inst.qubits)
        return tableau

    # ------------------------------------------------------------------
    # Conjugation
    # ------------------------------------------------------------------
    def conjugate_table(self, table: PauliTable) -> PauliTable:
        """Batched ``P -> C P C†`` for every row of ``table`` (new table).

        Each input ``P = (-i)^q Z^z X^x`` maps to
        ``(-i)^q * prod_k imgZ_k^{z_k} * prod_k imgX_k^{x_k}``; the products
        are accumulated with exact Pauli multiplication (word-wise XORs with
        popcount phase tracking), vectorized over all input rows.
        """
        if table.num_qubits != self.num_qubits:
            raise ValueError("qubit-count mismatch")
        n = self.num_qubits
        with kernel_event("kernel.conjugate_table"):
            acc = PauliTable.identity(table.num_rows, n)
            acc.phase_exp = table.phase_exp.copy()
            for k in range(n):
                acc.mul_table_row_on_rows(table.z_column(k), self.rows, n + k)
            for k in range(n):
                acc.mul_table_row_on_rows(table.x_column(k), self.rows, k)
        return acc

    def conjugate_pauli(self, pauli: PauliString) -> PauliString:
        table = PauliTable.from_paulis([pauli])
        return self.conjugate_table(table).row(0)

    def then(self, later: "CliffordTableau") -> "CliffordTableau":
        """Tableau of ``later . self`` (run ``self`` first)."""
        return CliffordTableau(later.conjugate_table(self.rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return (np.array_equal(self.rows.x, other.rows.x)
                and np.array_equal(self.rows.z, other.rows.z)
                and np.array_equal(self.rows.phase_exp % 4, other.rows.phase_exp % 4))

    def __repr__(self) -> str:
        return f"CliffordTableau(num_qubits={self.num_qubits})"


@lru_cache(maxsize=256)
def gate_tableau(name: str, params: tuple = ()) -> CliffordTableau:
    """Cached tableau of a named gate at given (Clifford) parameters."""
    spec = get_gate(name)
    if not spec.is_clifford(params):
        raise ValueError(f"{name}{params} is not a Clifford gate")
    return tableau_from_unitary(spec.matrix(params))


#: code-lookup cache for small-gate conjugation: a bounded LRU keyed on the
#: gate tableau's canonical *contents* (so equal gates share one entry and a
#: long tail of distinct gates evicts one-by-one instead of wholesale).
_LUT_CACHE: OrderedDict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = \
    OrderedDict()
_LUT_CACHE_MAX = 4096


def _gate_lut_key(gate: CliffordTableau) -> tuple:
    """Content key of a gate tableau (memoized on the instance)."""
    key = gate._lut_key
    if key is None:
        rows = gate.rows
        key = (rows.num_qubits, rows.x.tobytes(), rows.z.tobytes(),
               (rows.phase_exp % 4).tobytes())
        gate._lut_key = key
    return key


def _conjugation_lut(gate: CliffordTableau
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lookup tables mapping every input sub-Pauli code to its image.

    A k-qubit sub-Pauli (k <= 2 here) is encoded as
    ``sum_j (x_j + 2 z_j) * 4^j``; the tables give the image's x bits,
    z bits, and phase-exponent increment for all 4^k codes at once, so
    conjugating M rows costs a handful of integer gathers instead of four
    masked row multiplications.
    """
    key = _gate_lut_key(gate)
    cached = _LUT_CACHE.get(key)
    if cached is not None:
        KERNEL.lut_hits += 1
        _LUT_CACHE.move_to_end(key)
        return cached
    KERNEL.lut_misses += 1
    codes = np.arange(4 ** gate.num_qubits)
    image = gate.conjugate_table(
        PauliTable.from_bits(_code_bits(codes, gate.num_qubits, 0),
                             _code_bits(codes, gate.num_qubits, 1),
                             np.zeros(len(codes), dtype=np.int64)))
    lut = (image.unpack_x(), image.unpack_z(), image.phase_exp)
    _LUT_CACHE[key] = lut
    while len(_LUT_CACHE) > _LUT_CACHE_MAX:
        _LUT_CACHE.popitem(last=False)
    return lut


def _code_bits(codes: np.ndarray, k: int, plane: int) -> np.ndarray:
    """``(len(codes), k)`` X (``plane=0``) or Z (``plane=1``) bits of codes."""
    return np.stack([(codes >> (2 * j + plane)) & 1 for j in range(k)],
                    axis=1).astype(bool)


def apply_gate_to_table(table: PauliTable, gate: CliffordTableau,
                        qubits: Sequence[int]) -> None:
    """In place, conjugate every row of ``table`` by a 1- or 2-qubit gate.

    The restriction of a row to ``qubits`` is a sub-Pauli with zero phase
    exponent (operators on disjoint qubits commute), so only the sub-bits
    change and the image's phase exponent adds to the row's global phase.
    Dispatches through per-gate code lookup tables (see
    :func:`_conjugation_lut`), read and deposited straight in the table's
    uint64 words (:func:`_apply_lut_to_words`).

    Raises:
        ValueError: if the gate acts on more than two qubits, or its arity
            does not match ``qubits``.
    """
    qubits = list(qubits)
    k = gate.num_qubits
    if len(qubits) != k:
        raise ValueError("gate arity does not match qubit list")
    if k > 2:
        raise ValueError(f"no conjugation LUT for a {k}-qubit gate")
    _apply_lut_to_words(table, _conjugation_lut(gate), qubits)


def _apply_lut_to_words(table: PauliTable, lut, columns: list[int],
                        level_of_row: np.ndarray | None = None) -> None:
    """The word-level LUT conjugation kernel shared by every LUT pass.

    Sub-Pauli codes are read straight out of the uint64 words and the
    image bits are deposited back through per-code *pre-shifted* word
    contributions aggregated per word, so a pass is a handful of O(M)
    word operations regardless of n.  With ``level_of_row`` each row's
    LUT index is offset by ``level * 4**k`` (the stacked alternatives of
    :func:`_leveled_lut`).
    """
    lut_x, lut_z, lut_dq = lut
    k = len(columns)
    KERNEL.rows += table.num_rows
    one = np.uint64(1)
    placements = [divmod(q, bitops.WORD_BITS) for q in columns]
    words: dict[int, tuple] = {}
    for word, _ in placements:
        if word not in words:
            colx = table.x[:, word]
            colz = table.z[:, word]
            words[word] = (colx, colz,
                           colx.view(np.int64), colz.view(np.int64))
    # int64 throughout: zero-copy views for bit extraction and int64
    # LUT indices (uint64 fancy indices cost a bounds conversion)
    codes = None
    for word, bit in placements:
        xi, zi = words[word][2], words[word][3]
        sub = ((xi >> bit) & 1) + 2 * ((zi >> bit) & 1)
        codes = sub if codes is None else codes + 4 * sub
    if level_of_row is not None:
        codes = codes + np.left_shift(level_of_row, 2 * k, dtype=np.int64)
    # pre-shift and OR the tiny LUT columns per touched word, then gather
    # once per word and plane -- same-word 2q gates pay 2 gathers, not 4
    # (codes were fully extracted above, so same-word qubit pairs cannot
    # corrupt each other)
    word_luts: dict[int, tuple] = {}
    for j, (word, bit) in enumerate(placements):
        shift = np.uint64(bit)
        lx = lut_x[:, j].astype(np.uint64) << shift
        lz = lut_z[:, j].astype(np.uint64) << shift
        clear, ax, az = word_luts.get(word, (np.uint64(0), None, None))
        word_luts[word] = (clear | (one << shift),
                           lx if ax is None else ax | lx,
                           lz if az is None else az | lz)
    KERNEL.words += len(word_luts) * table.num_rows
    for word, (clear, ax, az) in word_luts.items():
        colx, colz = words[word][:2]
        colx &= ~clear
        colx |= ax[codes]
        colz &= ~clear
        colz |= az[codes]
    # phases stay in [0, 4), so `& 3` is their mod 4
    phase = table.phase_exp
    np.add(phase, lut_dq[codes], out=phase)
    np.bitwise_and(phase, 3, out=phase)


def _entries_key(entries) -> tuple:
    """Content key of ``(gate, reversed)``/``None`` level entries."""
    return tuple(None if entry is None else (_gate_lut_key(entry[0]), entry[1])
                 for entry in entries)


#: combined multi-level LUT cache (same bounded-LRU policy as _LUT_CACHE)
_LEVELED_LUT_CACHE: OrderedDict[tuple, tuple] = OrderedDict()


def _leveled_lut(entries, k: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked LUT over gate alternatives sharing k target columns.

    Entry ``level * 4**k + code`` maps to the image bits and phase
    increment of conjugating the sub-Pauli ``code`` by that level's gate;
    a ``None`` entry is the identity (its rows come out untouched).  A
    ``(gate, reversed)`` entry with ``reversed=True`` applies the 2-qubit
    gate with its qubit order flipped relative to the shared columns
    (e.g. ``cx(l, k)`` on columns ``(k, l)``): the per-code rows are
    re-indexed through the symplectic code permutation and the output
    columns swapped, which is exactly the LUT of the gate applied in that
    target order.
    """
    size = 4 ** k
    key = (k, _entries_key(entries))
    cached = _LEVELED_LUT_CACHE.get(key)
    if cached is not None:
        KERNEL.lut_hits += 1
        _LEVELED_LUT_CACHE.move_to_end(key)
        return cached
    KERNEL.lut_misses += 1
    codes = np.arange(size)
    xs, zs, dqs = [], [], []
    for entry in entries:
        if entry is None:
            xs.append(_code_bits(codes, k, 0))
            zs.append(_code_bits(codes, k, 1))
            dqs.append(np.zeros(size, dtype=np.int64))
            continue
        gate, flipped = entry
        if gate.num_qubits != k:
            raise ValueError("gate arity does not match the column count")
        lut_x, lut_z, lut_dq = _conjugation_lut(gate)
        if flipped:
            if k != 2:
                raise ValueError("only 2-qubit gates can be order-flipped")
            gate_codes = (codes // 4) + 4 * (codes % 4)
            lut_x = lut_x[gate_codes][:, ::-1]
            lut_z = lut_z[gate_codes][:, ::-1]
            lut_dq = lut_dq[gate_codes]
        xs.append(lut_x)
        zs.append(lut_z)
        dqs.append(lut_dq)
    result = (np.ascontiguousarray(np.concatenate(xs)),
              np.ascontiguousarray(np.concatenate(zs)),
              np.ascontiguousarray(np.concatenate(dqs)))
    _LEVELED_LUT_CACHE[key] = result
    while len(_LEVELED_LUT_CACHE) > _LUT_CACHE_MAX:
        _LEVELED_LUT_CACHE.popitem(last=False)
    return result


def apply_gate_levels_to_table(table: PauliTable, entries,
                               columns: Sequence[int],
                               level_of_row: np.ndarray) -> None:
    """In place, conjugate each row by the gate alternative its level picks.

    The level becomes an extra LUT dimension (:func:`_leveled_lut`), so a
    population slot -- each genome's own gate choice on shared columns --
    is a single unmasked pass: extract codes from the columns, gather
    image bits at ``level * 4**k + code``, deposit.  A ``None`` entry is
    the identity, so ``[None, gate]`` with a 0/1 level applies ``gate``
    to a row subset.

    Args:
        table: Word-packed stacked table (mutated in place).
        entries: One ``(gate, reversed)`` pair or ``None`` per level.
        columns: The k table columns all alternatives act on.
        level_of_row: ``(num_rows,)`` integer level of every row.
    """
    columns = list(columns)
    lut = _leveled_lut(entries, len(columns))
    KERNEL.fused_passes += 1
    _apply_lut_to_words(table, lut, columns, level_of_row)


#: slots per pair-ring window: a window's plane LUT has 4**4 levels x
#: 2**5 codes, 64 KB of uint64
_RING_WINDOW_SLOTS = 4

#: per-plane window LUTs and compiled pair rings (bounded LRU, as the
#: other LUT caches; a compiled ring holds two pre-shifted plane LUTs of
#: at most 64 KB per window)
_PAIR_PLANE_CACHE: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = \
    OrderedDict()
_PAIR_RING_CACHE: OrderedDict[tuple, "PairRing"] = OrderedDict()
_PAIR_RING_CACHE_MAX = 32


def _pair_plane_luts(entries, local_pairs: tuple, k: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Per-plane LUTs of a window of pair slots on ``k`` local columns.

    Slot ``j`` of the window (``local_pairs[j]``, in application order)
    picks its gate from ``entries`` by the level digit ``(level >> 2j) &
    3``, as :func:`apply_gate_levels_to_table` would.  Entry ``level <<
    k | code`` of the X (Z) LUT is the X (Z) image code on the ``k``
    columns of the input ``X**code`` (``Z**code``).  The basis rows are
    pushed through :func:`apply_gate_to_table`, so the LUT kernel stays
    the one source of the gates' action.

    Raises:
        ValueError: if a gate maps an X-only input off the X plane, a
            Z-only input off the Z plane, or adds a phase -- i.e. it is
            not in the CNOT group, and a per-plane pass cannot run it.
    """
    key = (_entries_key(entries), local_pairs, k)
    cached = _PAIR_PLANE_CACHE.get(key)
    if cached is not None:
        KERNEL.lut_hits += 1
        _PAIR_PLANE_CACHE.move_to_end(key)
        return cached
    KERNEL.lut_misses += 1
    for entry in entries:
        if entry is not None and entry[0].num_qubits != 2:
            raise ValueError("pair-ring entries must be 2-qubit gates")
    size = 1 << k
    num_levels = 4 ** len(local_pairs)
    # rows (plane, level, code): X**code first, then Z**code
    level_of = np.tile(np.repeat(np.arange(num_levels), size), 2)
    bits = np.tile((np.arange(size)[:, None] >> np.arange(k)) & 1,
                   (num_levels, 1)).astype(bool)
    none = np.zeros_like(bits)
    basis = PauliTable.from_bits(np.vstack([bits, none]),
                                 np.vstack([none, bits]))
    for j, (a, b) in enumerate(local_pairs):
        digit = (level_of >> (2 * j)) & 3
        for level, entry in enumerate(entries):
            if entry is None:
                continue
            gate, flipped = entry
            rows = np.flatnonzero(digit == level)
            sub = basis.take(rows)
            apply_gate_to_table(sub, gate, (b, a) if flipped else (a, b))
            basis.x[rows] = sub.x
            basis.z[rows] = sub.z
            basis.phase_exp[rows] = sub.phase_exp
    half = num_levels * size
    if (basis.z[:half].any() or basis.x[half:].any()
            or basis.phase_exp.any()):
        raise ValueError("a pair-ring gate mixes the X and Z planes or adds "
                         "a phase; the per-plane pass needs CNOT-group gates")
    luts = (basis.x[:half, 0].copy(), basis.z[half:, 0].copy())
    _PAIR_PLANE_CACHE[key] = luts
    while len(_PAIR_PLANE_CACHE) > _LUT_CACHE_MAX:
        _PAIR_PLANE_CACHE.popitem(last=False)
    return luts


def _ring_windows(pairs: list) -> list[list[int]]:
    """Group ring slots, in order, into windows of the pair-ring pass.

    A window is up to :data:`_RING_WINDOW_SLOTS` consecutive slots on
    adjacent qubits, each one qubit below the last (the pull-back's walk
    down the chain), all inside one word; any other slot (the ring's wrap
    pair, a pair straddling a word boundary) is a window of its own.
    """
    windows = []
    j = 0
    while j < len(pairs):
        lo, hi = sorted(pairs[j])
        run = [j]
        if hi == lo + 1 and lo // bitops.WORD_BITS == hi // bitops.WORD_BITS:
            word = lo // bitops.WORD_BITS
            while len(run) < _RING_WINDOW_SLOTS and j + len(run) < len(pairs):
                c, d = sorted(pairs[j + len(run)])
                if d != lo or c != lo - 1 or c // bitops.WORD_BITS != word:
                    break
                lo = c
                run.append(j + len(run))
        windows.append(run)
        j += len(run)
    return windows


class _RingWindow(NamedTuple):
    """One pass of a :class:`PairRing`."""

    #: the ring slots it applies, in order, and its code width in bits
    slots: tuple
    code_bits: int
    #: ``(word, bit, mask, offset)`` runs of contiguous columns: code bits
    #: ``offset..`` are ``(word >> bit) & mask``
    reads: tuple
    #: ``(word, keep, lut_x, lut_z)``: the word's untouched bits and its
    #: pre-shifted uint64 image words per ``level << code_bits | code``
    deposits: tuple


class PairRing:
    """A ring of two-qubit slots with a per-point gate choice, compiled.

    Each slot picks one of ``entries`` (``None`` = identity, else
    ``(gate, reversed)`` as in :func:`apply_gate_levels_to_table`) per
    point.  With CNOT-group gates (CX, SWAP) a row ``Z**z X**x`` maps to
    ``Z**(A⁻ᵀz) X**(Ax)`` with no phase, so each plane is conjugated on
    its own: up to four slots on a contiguous qubit span inside one word
    (:func:`_ring_windows`) are one pass that reads the span's code with a
    shift and a mask, ORs in the row's level (the window's genes, packed
    once per point), gathers the image word from a pre-shifted per-plane
    LUT (:func:`_pair_plane_luts`) and deposits it with one clear-and-OR.
    Other slots gather their two code bits one by one; the phase is never
    touched.
    """

    def __init__(self, windows: list, num_slots: int, num_qubits: int):
        self.windows = windows
        self.num_slots = num_slots
        self.num_qubits = num_qubits
        # each window's genes and their level shifts, padded with slot
        # ``num_slots`` (a zero column) to the widest window
        width = max((len(win.slots) for win in windows), default=0)
        self._genes = np.full((len(windows), width), num_slots,
                              dtype=np.int64)
        self._shifts = np.zeros((len(windows), width), dtype=np.int64)
        for i, win in enumerate(windows):
            self._genes[i, :len(win.slots)] = win.slots
            self._shifts[i] = win.code_bits + 2 * np.arange(width)

    @classmethod
    def compile(cls, entries, pairs, num_qubits: int) -> "PairRing":
        """Compile the slots ``pairs`` (application order) on ``n`` qubits.

        Cached on the entries' contents and the pairs (bounded LRU).
        """
        pairs = tuple(map(tuple, pairs))
        key = (_entries_key(entries), pairs, num_qubits)
        ring = _PAIR_RING_CACHE.get(key)
        if ring is not None:
            KERNEL.lut_hits += 1
            _PAIR_RING_CACHE.move_to_end(key)
            return ring
        KERNEL.lut_misses += 1
        if any(q < 0 or q >= num_qubits for pair in pairs for q in pair) \
                or any(a == b for a, b in pairs):
            raise ValueError("a pair slot is outside the register or repeats "
                             "a qubit")
        windows = [cls._window(entries, pairs, run)
                   for run in _ring_windows(list(pairs))]
        ring = cls(windows, len(pairs), num_qubits)
        _PAIR_RING_CACHE[key] = ring
        while len(_PAIR_RING_CACHE) > _PAIR_RING_CACHE_MAX:
            _PAIR_RING_CACHE.popitem(last=False)
        return ring

    @staticmethod
    def _window(entries, pairs: tuple, run: list) -> _RingWindow:
        columns = sorted({q for j in run for q in pairs[j]})
        local = {q: i for i, q in enumerate(columns)}
        k = len(columns)
        lut_x, lut_z = _pair_plane_luts(
            entries, tuple((local[a], local[b]) for a, b in
                           (pairs[j] for j in run)), k)
        reads = []
        for i, q in enumerate(columns):
            word, bit = divmod(q, bitops.WORD_BITS)
            if reads and reads[-1][0] == word \
                    and reads[-1][1] + reads[-1][2] == bit:
                reads[-1][2] += 1
            else:
                reads.append([word, bit, 1, i])
        # per word: its window bits, and the image bits moved onto them
        deposits = {}
        one = np.uint64(1)
        for i, q in enumerate(columns):
            word, bit = divmod(q, bitops.WORD_BITS)
            if word not in deposits:
                deposits[word] = [np.uint64(0), np.zeros_like(lut_x),
                                  np.zeros_like(lut_z)]
            entry = deposits[word]
            shift = np.uint64(bit)
            entry[0] |= one << shift
            entry[1] |= ((lut_x >> np.uint64(i)) & one) << shift
            entry[2] |= ((lut_z >> np.uint64(i)) & one) << shift
        return _RingWindow(
            tuple(run), k,
            tuple((word, bit, (1 << length) - 1, offset)
                  for word, bit, length, offset in reads),
            tuple((word, ~clear, dx, dz)
                  for word, (clear, dx, dz) in deposits.items()))

    def apply(self, table: PauliTable, levels) -> None:
        """In place, conjugate each point's rows through its ring choice.

        ``table`` is ``P`` contiguous blocks of ``M`` rows, block ``p``
        belonging to point ``p``, and ``levels`` the ``(P, num_slots)``
        entry index of every point's slot.  One pass per window.
        """
        levels = np.asarray(levels, dtype=np.int64)
        num_points = len(levels)
        if levels.shape != (num_points, self.num_slots):
            raise ValueError("levels must be a (P, num_slots) matrix")
        if table.num_qubits != self.num_qubits:
            raise ValueError("qubit-count mismatch")
        num_rows = table.num_rows
        if num_rows != num_points * (num_rows // max(num_points, 1)):
            raise ValueError("the table must hold one equal row block per point")
        if not self.windows or not num_rows:
            return
        padded = np.zeros((num_points, self.num_slots + 1), dtype=np.int64)
        padded[:, :-1] = levels
        # (windows, P, 1) levels, already shifted past each window's code,
        # broadcast over each point's row block as they are ORed in
        packed = (padded[:, self._genes] << self._shifts).sum(axis=2).T
        packed = packed[:, :, None]
        planes = (table.x, table.z)
        signed = (table.x.view(np.int64), table.z.view(np.int64))
        code = np.empty(num_rows, dtype=np.int64)
        point_code = code.reshape(num_points, num_rows // num_points)
        part = np.empty(num_rows, dtype=np.int64)
        image = np.empty(num_rows, dtype=np.uint64)
        for win, level in zip(self.windows, packed):
            KERNEL.rows += num_rows
            KERNEL.words += num_rows * len(win.deposits)
            KERNEL.fused_passes += 1
            for p in (0, 1):
                words = signed[p]
                for i, (word, bit, mask, offset) in enumerate(win.reads):
                    out = part if i else code
                    np.right_shift(words[:, word], bit, out=out)
                    np.bitwise_and(out, mask, out=out)
                    if offset:
                        np.left_shift(out, offset, out=out)
                    if i:
                        np.bitwise_or(code, part, out=code)
                np.bitwise_or(point_code, level, out=point_code)
                for word, keep, *luts in win.deposits:
                    column = planes[p][:, word]
                    np.take(luts[p], code, out=image)
                    column &= keep
                    column |= image


_LITTLE_ENDIAN = sys.byteorder == "little"

#: compiled static blocks, keyed on their contents (bounded LRU; a block's
#: tables are at most ~1 MB at 100 qubits)
_BLOCK_CACHE: OrderedDict[tuple, "StaticBlock"] = OrderedDict()
_BLOCK_CACHE_MAX = 32

#: A block pass gathers at most about this many image words at a time
#: (:meth:`StaticBlock.apply`), in row chunks of one size (the last may
#: be shorter), so its buffers stay at most 128 KiB each however many
#: rows a batch stacks.  A batch whose transient heap grows past glibc's
#: trim threshold (twice the largest mmapped chunk freed so far) has its
#: heap top trimmed on free and faults the pages back in on the next
#: one: at 32 qubits and 6,300 rows, one chunk's 400 KB of buffers made
#: every steady-state Clapton batch fault ~165 pages back in
#: (``benchmarks/test_batch_faults.py``); two chunks fault none and ran
#: no slower in perfbench's searches.
_BLOCK_CELLS = 1 << 14


class StaticBlock:
    """A run of static Clifford gates, compiled into one table pass.

    Conjugation by a Clifford is GF(2)-linear on a row's ``(x, z)`` bits
    (Aaronson-Gottesman, arXiv:quant-ph/0406196), and so are the bits the
    row has on each gate's qubits just before that gate.  The phase is a
    quadratic form.  Write the generator images as
    ``(-i)**c_g Z**b_g X**a_g``, in the product order of
    :meth:`CliffordTableau.conjugate_table` (every ``Z_k``, then every
    ``X_k``).  A row ``(-i)**q Z**z X**x`` with bits ``v = (z, x)`` then
    maps to the phase

        q + sum_g v_g c_g + 2 sum_{g<k} v_g v_k (a_g . b_k)    (mod 4).

    With ``c = l + 2h`` and ``popcount(v & l) = parity + 2 C(s, 2)``
    (mod 4), that is ``q + parity(v & l) + 2 parity(v & Qv)`` for one
    upper-triangular GF(2) matrix ``Q`` with ``h`` on its diagonal.  So
    the image bits, ``Qv`` and every location's bits are GF(2) linear
    forms in ``v``, and the ``l`` parity is one AND against two fixed
    words per table word.  :meth:`compile` tabulates the linear forms per
    input byte (the Four-Russians method) in two tables: the image words
    (``x'``, ``z'``, ``Qv`` on x, ``Qv`` on z: ``4T`` uint64 per byte
    value, ``T`` being the words the block rewrites) and the location
    nibbles.  A pass (:meth:`apply`) is ``acc ^= table[c][byte_c]`` over
    the block's input bytes on the image table alone: a few ``4T``-word
    gathers, with no unpacking.  The image bits and ``Qv`` are laid out
    in the table's own words, so they are written back (and ANDed with
    the input for the phase, next to the ``l`` words) as they come out.
    The pass returns the input bytes it read, from which
    :meth:`locations` gathers the location bits of just the rows a caller
    needs (a noisy walk's live rows).

    A block reads only the bytes holding its support qubits and rewrites
    only those bits: the other qubits map to themselves and add nothing
    to the phase, as in the LUT kernel.

    Attributes:
        instructions: Each gate location's instruction, in application
            order.  Only its ``qubits`` are read here; callers key their
            per-location data (noise channels) on it.
        num_qubits: The register width the block was compiled for.
        num_locations: The locations whose bits :meth:`locations` returns
            (0 when compiled without them).
    """

    def __init__(self, instructions: tuple, num_qubits: int,
                 num_locations: int, byte_columns: np.ndarray,
                 words: np.ndarray, keep: np.ndarray | None,
                 parity: np.ndarray, tables: np.ndarray,
                 location_tables: np.ndarray | None):
        self.instructions = instructions
        self.num_qubits = num_qubits
        self.num_locations = num_locations
        #: (C,) uint8-view columns the pass reads: x bytes, then z bytes
        self._byte_columns = byte_columns
        #: (T,) table words the block rewrites, and the bits of each it
        #: keeps (``None``: it rewrites every word whole)
        self._words = words
        self._keep = keep
        #: (2, T) the ``l`` words on x and on z: bit q of plane p is
        #: ``l`` of the generator X_q (p = 0) or Z_q (p = 1)
        self._parity = parity
        #: (C, 256, 4T) image words per input byte value: x', z', Qv on
        #: x, Qv on z
        self._tables = tables
        #: (C, 256, E) location nibbles per input byte value (``None``:
        #: compiled without locations)
        self._location_tables = location_tables

    @classmethod
    def compile(cls, steps, num_qubits: int, locations: bool = True
                ) -> "StaticBlock":
        """Compile ``(instruction, gate tableau)`` steps into one block.

        ``steps`` are in application order; each gate conjugates the
        table as :func:`apply_gate_to_table` would.  The basis Paulis of
        the block's bytes are walked through the gates by that LUT
        kernel, and with ``locations`` each location's bits are recorded
        on the way, so :meth:`locations` can return them.  Blocks are
        cached on their contents (the bounded-LRU policy of the LUT
        caches), so a loss rebuilt for every search compiles its blocks
        once per process.
        """
        steps = list(steps)
        key = (num_qubits, locations,
               tuple((inst, _gate_lut_key(gate)) for inst, gate in steps))
        block = _BLOCK_CACHE.get(key)
        if block is not None:
            KERNEL.lut_hits += 1
            _BLOCK_CACHE.move_to_end(key)
            return block
        KERNEL.lut_misses += 1
        block = cls._compile(steps, num_qubits, locations)
        _BLOCK_CACHE[key] = block
        while len(_BLOCK_CACHE) > _BLOCK_CACHE_MAX:
            _BLOCK_CACHE.popitem(last=False)
        return block

    @classmethod
    def _compile(cls, steps: list, num_qubits: int, locations: bool
                 ) -> "StaticBlock":
        instructions = tuple(inst for inst, _ in steps)
        n = num_qubits
        support = {q for inst in instructions for q in inst.qubits}
        if any(q < 0 or q >= n for q in support):
            raise ValueError("a gate qubit is outside the register")
        byte_ids = sorted({q // 8 for q in support})
        words = sorted({byte // 8 for byte in byte_ids})
        qubits = np.array([q for byte in byte_ids
                           for q in range(8 * byte, min(8 * byte + 8, n))],
                          dtype=np.int64)
        nq = len(qubits)
        # the basis: Z_q for every qubit of the block's bytes, then X_q
        unit = np.zeros((nq, n), dtype=bool)
        unit[np.arange(nq), qubits] = True
        none = np.zeros_like(unit)
        basis = PauliTable.from_bits(np.vstack([none, unit]),
                                     np.vstack([unit, none]))
        num_locations = len(steps) if locations else 0
        # the basis words before each location, read out in one go below
        snapshots = np.zeros((num_locations, 2, 2 * nq, basis.num_words),
                             dtype=np.uint64)
        for j, (inst, gate) in enumerate(steps):
            if locations:
                snapshots[j, 0] = basis.x
                snapshots[j, 1] = basis.z
            apply_gate_to_table(basis, gate, inst.qubits)
        # location bit 4j + 2s + p: plane p of the j-th gate's s-th qubit
        # (a 1q gate's second qubit reads qubit 0 and is masked off)
        loc_qubits = np.zeros((num_locations, 2), dtype=np.int64)
        arity = np.zeros((num_locations, 2), dtype=bool)
        for j, inst in enumerate(instructions[:num_locations]):
            loc_qubits[j, :len(inst.qubits)] = inst.qubits
            arity[j, :len(inst.qubits)] = True
        loc_words = snapshots[np.arange(num_locations)[:, None, None],
                              np.arange(2), :,
                              (loc_qubits // 64)[:, :, None]]
        shifts = (loc_qubits % 64).astype(np.uint64)[:, :, None, None]
        loc_bits = ((loc_words >> shifts) & np.uint64(1)).astype(bool)
        loc_bits &= arity[:, :, None, None]
        loc_bits = loc_bits.transpose(3, 0, 1, 2).reshape(
            2 * nq, 4 * num_locations)
        image_x = basis.unpack_x()
        image_z = basis.unpack_z()
        low = (basis.phase_exp & 1).astype(bool)
        # beta[g, k] = a_g . b_k (mod 2); float32 products are exact here
        beta = (image_x.astype(np.float32)
                @ image_z.T.astype(np.float32)) % 2 == 1
        quad = np.triu(beta ^ np.outer(low, low), k=1)
        quad[np.diag_indices(2 * nq)] = basis.phase_exp >= 2
        # input generator g's column of Qv: bit k holds Q[k, g]
        qv_x = np.zeros((2 * nq, n), dtype=bool)
        qv_z = np.zeros((2 * nq, n), dtype=bool)
        qv_x[:, qubits] = quad[nq:].T
        qv_z[:, qubits] = quad[:nq].T
        image = np.concatenate([bitops.pack_bits(plane, n)[:, words]
                                for plane in (image_x, image_z, qv_x, qv_z)],
                               axis=1)
        # each input bit's generator row: X_q for the x bytes, Z_q for
        # the z bytes, and the zero row 2nq for bits past the register
        z_row = np.full(8 * (byte_ids[-1] + 1) if byte_ids else 0, 2 * nq,
                        dtype=np.int64)
        z_row[qubits] = np.arange(nq)
        x_row = np.where(z_row < 2 * nq, z_row + nq, 2 * nq)
        in_bytes = (8 * np.array(byte_ids, dtype=np.int64)[:, None]
                    + np.arange(8))
        rows = np.concatenate([x_row[in_bytes], z_row[in_bytes]])
        location_tables = None
        if locations:
            location_tables = _four_russians(
                bitops.pack_bits(loc_bits) if num_locations
                else np.zeros((2 * nq, 0), dtype=np.uint64), rows)
        parity = np.zeros((2, n), dtype=bool)
        parity[0, qubits] = low[nq:]
        parity[1, qubits] = low[:nq]
        byte_columns = np.tile(np.array(byte_ids, dtype=np.int64), 2)
        covered = np.zeros(64 * bitops.num_words(n), dtype=bool)
        covered[n:] = True  # the zero tail counts as covered
        for byte in byte_ids:
            covered[8 * byte:8 * byte + 8] = True
        keep = ~bitops.pack_bits(covered[None, :])[0][words]
        if len(words) == bitops.num_words(n) and not keep.any():
            keep = None
        return cls(instructions, n, num_locations, byte_columns,
                   np.array(words, dtype=np.int64), keep,
                   bitops.pack_bits(parity, n)[:, words],
                   _four_russians(image, rows), location_tables)

    def apply(self, table: PauliTable) -> np.ndarray:
        """In place, conjugate every row of ``table`` through the block.

        One pass over the block's input bytes, gathering only the image
        words.  Returns those bytes, the ``(C, M)`` uint8 matrix of what
        each row held in the block's bytes before the pass (x bytes, then
        z bytes): the input :meth:`locations` reads a row's location bits
        from.
        """
        if table.num_qubits != self.num_qubits:
            raise ValueError("qubit-count mismatch")
        num_rows = table.num_rows
        columns = self._byte_columns
        in_bytes = np.empty((len(columns), num_rows), dtype=np.uint8)
        if not len(columns):
            return in_bytes
        words = self._words
        num_words = len(words)
        KERNEL.rows += num_rows
        KERNEL.words += num_rows * num_words
        KERNEL.fused_passes += 1
        if not num_rows:
            return in_bytes
        x, z = table.x, table.z
        if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
            x, z = x.byteswap(), z.byteswap()
        half = len(columns) // 2
        in_bytes[:half] = x.view(np.uint8)[:, columns[:half]].T
        in_bytes[half:] = z.view(np.uint8)[:, columns[half:]].T
        # the rows go through in chunks of at most _BLOCK_CELLS gathered
        # words, so the pass's buffers stay small however many rows the
        # table has
        chunks = -(-num_rows * 4 * num_words // _BLOCK_CELLS)
        size = -(-num_rows // chunks)
        # one intp index buffer: take would convert each uint8 row anew
        buffers = (np.empty(size, dtype=np.intp),
                   np.empty((size, 4 * num_words), dtype=np.uint64),
                   np.empty((size, 4 * num_words), dtype=np.uint64))
        for start in range(0, num_rows, size):
            self._apply_rows(table, in_bytes, start,
                             min(start + size, num_rows), buffers)
        return in_bytes

    def _apply_rows(self, table: PauliTable, in_bytes: np.ndarray,
                    start: int, stop: int, buffers: tuple) -> None:
        """:meth:`apply` on the rows ``start:stop``, in ``buffers``."""
        count = stop - start
        index, acc, gathered = (buffer[:count] for buffer in buffers)
        for c, (table_c, bytes_c) in enumerate(
                zip(self._tables, in_bytes[:, start:stop])):
            index[...] = bytes_c
            # the indices are in range by construction; "clip" lets take
            # write into its output without an intermediate buffer
            np.take(table_c, index, axis=0, out=gathered if c else acc,
                    mode="clip")
            if c:
                acc ^= gathered
        words = self._words
        num_words = len(words)
        x, z = table.x[start:stop], table.z[start:stop]
        if self._keep is None:  # the block rewrites every word, in order
            old_x, old_z = x, z
        else:
            old_x, old_z = x[:, words], z[:, words]
        # the phase: parity(v & Qv) and parity(v & l), in gathered's room
        odd, low, part = (gathered[:, k * num_words:(k + 1) * num_words]
                          for k in range(3))
        np.bitwise_and(old_x, acc[:, 2 * num_words:3 * num_words], out=odd)
        np.bitwise_and(old_z, acc[:, 3 * num_words:], out=part)
        odd ^= part
        l_x, l_z = self._parity
        np.bitwise_and(old_x, l_x, out=low)
        np.bitwise_and(old_z, l_z, out=part)
        low ^= part
        if num_words > 1:
            odd = np.bitwise_xor.reduce(odd, axis=1)
            low = np.bitwise_xor.reduce(low, axis=1)
        else:
            odd = odd[:, 0]
            low = low[:, 0]
        dq = bitops.popcount(odd) & np.uint8(1)
        dq <<= np.uint8(1)
        dq |= bitops.popcount(low) & np.uint8(1)
        phase = table.phase_exp[start:stop]
        phase += dq
        np.bitwise_and(phase, 3, out=phase)
        if self._keep is None:
            x[...] = acc[:, :num_words]
            z[...] = acc[:, num_words:2 * num_words]
        else:
            old_x &= self._keep
            old_x |= acc[:, :num_words]
            x[:, words] = old_x
            old_z &= self._keep
            old_z |= acc[:, num_words:2 * num_words]
            z[:, words] = old_z

    def locations(self, in_bytes: np.ndarray, rows=None) -> np.ndarray:
        """The ``(L, R)`` uint8 location bits of rows ``rows`` of a table.

        ``in_bytes`` is what :meth:`apply` returned for the table, and
        ``rows`` indexes its columns (default: every row).  ``L`` is
        :attr:`num_locations`: row ``j`` holds, for location ``j`` on
        qubits ``(q0[, q1])``, each selected table row's bits on them
        just before that gate, as ``x_q0 | z_q0 << 1 | x_q1 << 2 | z_q1
        << 3`` (so a nonzero entry means the table row touches the gate,
        and ``bits & 3`` / ``bits >> 2`` are the per-qubit codes ``x +
        2z``).  One gather per input byte, over the selected rows only.

        Raises:
            ValueError: if the block was compiled without its locations,
                or ``in_bytes`` is not one of this block's byte matrices.
        """
        if self._location_tables is None:
            raise ValueError("the block was compiled without its locations")
        if in_bytes.ndim != 2 or len(in_bytes) != len(self._byte_columns):
            raise ValueError("in_bytes must be the (C, M) byte matrix the "
                             "block's apply returned")
        if rows is not None:
            in_bytes = in_bytes[:, rows]
        num_rows = in_bytes.shape[1]
        if not self.num_locations:
            return np.zeros((0, num_rows), dtype=np.uint8)
        tables = self._location_tables
        acc = tables[0].take(in_bytes[0], axis=0)
        for table_c, bytes_c in zip(tables[1:], in_bytes[1:]):
            acc ^= table_c.take(bytes_c, axis=0)
        if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
            acc = acc.byteswap()
        packed = np.ascontiguousarray(acc.view(np.uint8).T)
        nibbles = np.empty((2 * len(packed), num_rows), dtype=np.uint8)
        np.bitwise_and(packed, 15, out=nibbles[0::2])
        np.right_shift(packed, 4, out=nibbles[1::2])
        return nibbles[:self.num_locations]


def _four_russians(columns: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``(C, 256, K)`` byte tables of the ``(G, K)`` word ``columns``.

    ``rows[c, i]`` is the generator row of bit ``i`` of input byte ``c``
    (``G``, one past the last, for a bit past the register), and entry
    ``u`` of byte ``c`` is the XOR of the columns of ``u``'s set bits.
    """
    by_bit = np.concatenate(
        [columns, np.zeros((1, columns.shape[1]), dtype=np.uint64)])[rows]
    tables = np.zeros((len(by_bit), 256, columns.shape[1]), dtype=np.uint64)
    for i in range(8):
        tables[:, 1 << i:2 << i] = tables[:, :1 << i] ^ by_bit[:, i, None, :]
    return tables


class SingleQubitCliffords(NamedTuple):
    """The 24 single-qubit Clifford pull-backs, as lookup tables.

    Element ``c`` is a map ``P -> G† P G`` on one qubit; element 0 is the
    identity.  Every table is indexed by element:

    * ``bits``: ``(24, 10)`` bool -- the x bit of X's image, the x bit of
      Z's image, the z bit of X's image, the z bit of Z's image, then the
      low and high bits of the phase increment of the X-, Y- and Z-class
      sub-Paulis (codes 1, 3, 2: ``x&~z``, ``x&z``, ``z&~x``);
    * ``codes``: ``(24, 4)`` image code ``x + 2z`` of each input code;
    * ``compose``: ``(24, 24)``; ``compose[a, b]`` pulls back through
      ``a``, then through ``b``;
    * ``rotations``: ``{"rx" | "ry" | "rz": (4,)}`` -- the pull-back
      through that rotation at angle ``level·π/2``, per level.
    """

    bits: np.ndarray
    codes: np.ndarray
    compose: np.ndarray
    rotations: dict


@lru_cache(maxsize=1)
def single_qubit_cliffords() -> SingleQubitCliffords:
    """The cached 24-element pull-back tables.

    Built from the :func:`_conjugation_lut` entries of the inverse
    rotations (the tables the LUT kernel itself runs, so the layer pass
    and the LUT kernel cannot drift): the pull-backs through RY(π/2) and
    RZ(π/2) generate the group, elements numbered in breadth-first order
    from the identity.  An element is stored as the image code and the
    phase increment (mod 4) of each of X, Z and Y.
    """
    def action(luts) -> tuple:
        return tuple(_follow_codes(luts, code) for code in (1, 2, 3))

    def then(a: tuple, b: tuple) -> tuple:
        return tuple((b[img - 1][0], (dq + b[img - 1][1]) % 4)
                     for img, dq in a)

    rotation_actions = {
        kind: [action([_conjugation_lut(gate_tableau(
            kind, (-float(level * (math.pi / 2)),)))] if level else [])
            for level in range(4)]
        for kind in ("rx", "ry", "rz")}
    generators = (rotation_actions["ry"][1], rotation_actions["rz"][1])
    elements = [action([])]
    index = {elements[0]: 0}
    for element in elements:  # grows while iterating: breadth-first
        for gen in generators:
            image = then(element, gen)
            if image not in index:
                index[image] = len(elements)
                elements.append(image)
    if len(elements) != 24:
        raise AssertionError("the single-qubit Clifford group has 24 "
                             f"elements, got {len(elements)}")
    bits = np.zeros((24, 10), dtype=bool)
    codes = np.zeros((24, 4), dtype=np.int64)
    for c, ((img_x, dq_x), (img_z, dq_z), (img_y, dq_y)) in \
            enumerate(elements):
        bits[c] = [img_x & 1, img_z & 1, img_x >> 1, img_z >> 1,
                   dq_x & 1, dq_x >> 1, dq_y & 1, dq_y >> 1,
                   dq_z & 1, dq_z >> 1]
        codes[c, 1:] = (img_x, img_z, img_y)
    compose = np.array([[index[then(a, b)] for b in elements]
                        for a in elements], dtype=np.int64)
    rotations = {kind: np.array([index[a] for a in actions], dtype=np.int64)
                 for kind, actions in rotation_actions.items()}
    for table in (bits, codes, compose, *rotations.values()):
        table.flags.writeable = False
    return SingleQubitCliffords(bits, codes, compose, rotations)


def _follow_codes(luts, code: int) -> tuple[int, int]:
    """A 1q code's image and phase increment (mod 4) through LUTs in turn."""
    dq = 0
    for lut_x, lut_z, lut_dq in luts:
        dq += int(lut_dq[code])
        code = int(lut_x[code, 0]) + 2 * int(lut_z[code, 0])
    return code, dq % 4


def rotation_layer_cliffords(ry_levels, rz_levels) -> np.ndarray:
    """``(P, n)`` elements of the layer ``prod_q RZ_q(rz·π/2)·RY_q(ry·π/2)``.

    The pull-back runs through the inverse RZ first, then the inverse RY:
    the index :func:`pull_back_rotation_layer` takes for the RY/RZ layers
    of the hardware-efficient ansatz and of Clapton's transformation.
    Levels must be integers in 0..3.
    """
    group = single_qubit_cliffords()
    return group.compose[group.rotations["rz"][rz_levels],
                         group.rotations["ry"][ry_levels]]


def pull_back_rotation_layer(table: PauliTable, cliffords) -> None:
    """In place, pull every row back through its point's 1q Clifford layer.

    ``table`` is ``P`` contiguous blocks of ``M`` rows, block ``p``
    belonging to point ``p``, and ``cliffords`` is a ``(P, n)`` index
    into the 24 single-qubit Cliffords (:func:`single_qubit_cliffords`).
    Each block's rows ``P`` become ``L† P L`` for ``L = prod_q G_q``,
    ``G_q`` being the Clifford that element ``cliffords[p, q]`` pulls
    back through -- exactly what the inverse gates of any run of 1q
    rotations, applied one by one in reverse order, would leave (compose
    the run's elements with ``single_qubit_cliffords().compose``).

    Gates on different qubits commute, so one pass applies the whole
    layer: the Aaronson-Gottesman column updates (arXiv:quant-ph/0406196),
    made per-row by mask words.  Each point's elements gather their bits
    into ten ``(P, W)`` masks, and on ``(P, M, W)`` views of the words

        x' = (x & A) ^ (z & B),    z' = (x & C) ^ (z & D),

    while the phase gains ``popcount(low) + 2 popcount(high)`` mod 4,
    ``low``/``high`` being the X-, Y- and Z-class bits, each ANDed with
    its increment-bit mask.  The classes are disjoint, so with ``y = x &
    z`` that is ``(x & X) ^ (z & Z) ^ (y & (X ^ Y ^ Z))``, and the pass
    works in two ``(P, M, W)`` buffers.
    """
    cliffords = np.asarray(cliffords)
    if cliffords.ndim != 2 or not np.issubdtype(cliffords.dtype, np.integer):
        raise ValueError("cliffords must be a (P, n) integer matrix")
    num_points, n = cliffords.shape
    if n != table.num_qubits:
        raise ValueError("qubit-count mismatch")
    num_rows = table.num_rows
    if num_rows != num_points * (num_rows // max(num_points, 1)):
        raise ValueError("the table must hold one equal row block per point")
    if np.any((cliffords < 0) | (cliffords >= 24)):
        raise ValueError("Clifford indices must be in 0..23")
    words = table.num_words
    if num_points == 0:
        return
    KERNEL.rows += num_rows
    KERNEL.words += num_rows * words
    KERNEL.fused_passes += 1
    masks = bitops.pack_bits(single_qubit_cliffords().bits[cliffords]
                             .transpose(2, 0, 1).reshape(10 * num_points, n),
                             n)
    (ax, bx, az, bz, x_lo, x_hi, y_lo, y_hi, z_lo, z_hi) = masks.reshape(
        10, num_points, 1, words)
    y_lo = x_lo ^ y_lo ^ z_lo
    y_hi = x_hi ^ y_hi ^ z_hi
    shape = (num_points, num_rows // num_points, words)
    x = table.x.reshape(shape)
    z = table.z.reshape(shape)
    part = np.empty(shape, dtype=np.uint64)
    bit = np.empty(shape, dtype=np.uint64)
    # at most 64 + 2 * 64 per word, so the per-word count fits uint8
    dq = None
    for x_mask, y_mask, z_mask in ((x_hi, y_hi, z_hi), (x_lo, y_lo, z_lo)):
        np.bitwise_and(x, z, out=bit)
        bit &= y_mask
        np.bitwise_and(x, x_mask, out=part)
        bit ^= part
        np.bitwise_and(z, z_mask, out=part)
        bit ^= part
        count = bitops.popcount(bit)
        if dq is None:
            dq = count
            dq <<= np.uint8(1)
        else:
            dq += count
    # x' goes back into x once z' no longer needs the old x
    np.bitwise_and(x, ax, out=bit)
    np.bitwise_and(z, bx, out=part)
    bit ^= part
    np.bitwise_and(x, az, out=part)
    x[...] = bit
    np.bitwise_and(z, bz, out=bit)
    part ^= bit
    z[...] = part
    phase = table.phase_exp
    if words == 1:
        phase += dq.reshape(num_rows)
    else:
        phase += dq.sum(axis=2, dtype=np.int64).reshape(num_rows)
    np.bitwise_and(phase, 3, out=phase)


def conjugate_pauli_sum(circuit: Circuit, hamiltonian) -> "PauliSum":
    """``H -> C† H C`` -- the paper's anticonjugation (Eq. 6).

    Implemented by building the tableau of the *inverse* circuit, so the
    result is exactly the transformed Hamiltonian whose coefficients absorb
    the conjugation signs.
    """
    from ..paulis.pauli_sum import PauliSum

    tableau = CliffordTableau.from_circuit(circuit.inverse())
    new_table = tableau.conjugate_table(hamiltonian.table)
    return PauliSum(new_table, hamiltonian.coefficients.copy())
