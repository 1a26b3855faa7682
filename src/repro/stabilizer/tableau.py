"""Clifford tableaus: the conjugation engine behind Clapton.

A Clifford operation ``C`` is fully described by the images of the symplectic
generators, ``C X_k C†`` and ``C Z_k C†`` (Eq. 2 of the paper).  We store
those 2n images as rows of a word-packed
:class:`~repro.paulis.table.PauliTable` and conjugate arbitrary Pauli
strings -- or whole Hamiltonians at once -- by multiplying out the relevant
rows with exact phase tracking (word-wise XORs and popcounts).  Gates
applied to a whole table go through per-gate lookup tables instead
(:func:`apply_gate_to_table`), one word-level pass per gate, and a whole
layer of single-qubit Cliffords -- any run of RX/RY/RZ rotations --
goes through one bit-sliced pass (:func:`pull_back_rotation_layer`).

Tableaus for individual gates are *derived from their unitaries* at import
time (:func:`tableau_from_unitary`), so the gate library's dense matrices are
the single source of truth and the symplectic rules cannot drift out of sync
with the simulators.
"""

from __future__ import annotations

import math
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
    key_parts = []
    for entry in entries:
        if entry is None:
            key_parts.append(None)
        else:
            gate, flipped = entry
            key_parts.append((_gate_lut_key(gate), flipped))
    key = (k, tuple(key_parts))
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
    its increment-bit mask.
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
    bits = single_qubit_cliffords().bits[cliffords]
    masks = bitops.pack_bits(
        bits.transpose(2, 0, 1).reshape(10 * num_points, n), n)
    (ax, bx, az, bz, x_lo, x_hi, y_lo, y_hi, z_lo, z_hi) = masks.reshape(
        10, num_points, 1, words)
    shape = (num_points, num_rows // num_points, words)
    x = table.x.reshape(shape)
    z = table.z.reshape(shape)
    y_class = x & z
    x_class = x ^ y_class
    z_class = z ^ y_class
    low = (x_class & x_lo) | (y_class & y_lo) | (z_class & z_lo)
    high = (x_class & x_hi) | (y_class & y_hi) | (z_class & z_hi)
    new_x = (x & ax) ^ (z & bx)
    new_z = (x & az) ^ (z & bz)
    table.x[...] = new_x.reshape(num_rows, words)
    table.z[...] = new_z.reshape(num_rows, words)
    # at most 64 + 2 * 64 per word, so the per-word count fits uint8
    dq = bitops.popcount(low) + (bitops.popcount(high) << np.uint8(1))
    phase = table.phase_exp
    np.add(phase, dq.sum(axis=2, dtype=np.int64).reshape(num_rows),
           out=phase)
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
