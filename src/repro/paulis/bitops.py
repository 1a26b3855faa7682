"""Bit-packed Pauli storage primitives: 64 qubit columns per machine word.

:class:`~repro.paulis.table.PauliTable` stores its X and Z bit matrices in
uint64 words rather than one byte per bit, which cuts the conjugation hot
path's memory traffic 8-64x and carries it to the 50-100+ qubit scale
word-packed tableau codes reach routinely (Aaronson-Gottesman,
arXiv:quant-ph/0406196).  This module is that layout's toolbox:

* :func:`pack_bits` / :func:`unpack_bits` -- ``(M, n)`` bool matrices to and
  from ``(M, ceil(n/64))`` uint64 words, column ``q`` living at bit
  ``q % 64`` of word ``q // 64``.  The bit order is little-endian and every
  row is padded to whole bytes, so each direction is one flat
  ``np.packbits`` / ``np.unpackbits`` call over the whole matrix, with no
  per-row axis loop;
* :func:`word_bytes` -- the bytes of a word matrix, byte ``k`` of a row
  holding its columns ``8k .. 8k+7`` on any host (the one place byte
  order is handled), and :func:`byte_tables`, the Four-Russians tables
  that map each input byte of a GF(2)-linear row map straight to its
  image words (the static-block pass and the layout embed);
* :func:`popcount` / :func:`popcount_rows` -- per-word and per-row set-bit
  counts (``np.bitwise_count`` when available, a byte-table fallback
  otherwise);
* :func:`get_bit` / :func:`get_bit_i64` / :func:`set_bit` -- single-column
  extraction and deposit, the primitive under the LUT conjugation kernel.

All functions preserve the tail invariant: bits at columns ``>= n`` in the
last word are zero.  Word-wise XOR/AND of two valid operands keeps it, and
:func:`set_bit` only ever touches columns ``< n``, so consumers may rely on
whole-word reductions (``any``, popcounts) without masking.
"""

from __future__ import annotations

import sys

import numpy as np

WORD_BITS = 64

_LITTLE_ENDIAN = sys.byteorder == "little"


def num_words(num_qubits: int) -> int:
    """Words needed for ``num_qubits`` bit columns (0 for an empty register)."""
    if num_qubits < 0:
        raise ValueError("num_qubits must be >= 0")
    return (num_qubits + WORD_BITS - 1) // WORD_BITS


def tail_mask(num_qubits: int) -> np.uint64:
    """Mask of the valid bits in the last word (all ones when n % 64 == 0)."""
    rem = num_qubits % WORD_BITS
    if rem == 0:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << rem) - 1)


def pack_bits(bits: np.ndarray, num_qubits: int | None = None) -> np.ndarray:
    """Pack an ``(M, n)`` bool matrix into ``(M, ceil(n/64))`` uint64 words.

    The rows are padded to whole bytes (only when ``n % 8 != 0``), packed
    by one flat ``np.packbits`` call, and padded to whole words (only
    when the byte count falls short of ``8·W``).
    """
    bits = np.ascontiguousarray(bits, dtype=bool)
    if bits.ndim != 2:
        raise ValueError("bits must be an (M, n) matrix")
    rows, n = bits.shape
    if num_qubits is None:
        num_qubits = n
    elif num_qubits < n:
        raise ValueError("num_qubits smaller than the bit matrix width")
    width = 8 * num_words(num_qubits)
    row_bytes = -(-n // 8)
    if n % 8:
        padded = np.zeros((rows, 8 * row_bytes), dtype=bool)
        padded[:, :n] = bits
        bits = padded
    packed = np.packbits(bits.reshape(-1), bitorder="little").reshape(
        rows, row_bytes)
    if row_bytes != width:
        padded = np.zeros((rows, width), dtype=np.uint8)
        padded[:, :row_bytes] = packed
        packed = padded
    out = packed.view(np.uint64)
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        out = out.byteswap()
    return out


def unpack_bits(words: np.ndarray, num_qubits: int) -> np.ndarray:
    """Unpack ``(M, W)`` uint64 words back into an ``(M, num_qubits)`` bool matrix.

    One flat ``np.unpackbits`` call over the words' bytes, then the first
    ``num_qubits`` columns of each row (copied out contiguous when that
    drops any).
    """
    as_bytes = word_bytes(words)
    rows, width = as_bytes.shape
    if width < 8 * num_words(num_qubits):
        raise ValueError("word matrix too narrow for num_qubits")
    bits = np.unpackbits(as_bytes.reshape(-1), bitorder="little")
    bits = bits.view(bool).reshape(rows, 8 * width)
    return np.ascontiguousarray(bits[:, :num_qubits])


def word_bytes(words: np.ndarray) -> np.ndarray:
    """The ``(M, 8W)`` uint8 bytes of ``(M, W)`` uint64 words.

    Byte ``k`` of a row holds its columns ``8k .. 8k+7``, bit ``i`` being
    column ``8k + i``, on hosts of either byte order: a view of
    contiguous words on little-endian hosts, a byte-swapped copy on
    big-endian ones.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError("words must be an (M, W) matrix")
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        words = words.byteswap()
    return words.view(np.uint8)


def byte_tables(columns: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``(C, 256, K)`` Four-Russians byte tables of the ``(G, K)`` word ``columns``.

    ``rows[c, i]`` is the generator row of bit ``i`` of input byte ``c``
    (``G``, one past the last, for a bit past the register), and entry
    ``u`` of byte ``c`` is the XOR of the columns of ``u``'s set bits.  A
    GF(2)-linear map of a row's bits is then the XOR over its input
    bytes ``c`` of ``tables[c][byte_c]`` (read by :func:`word_bytes`).
    """
    by_bit = np.concatenate(
        [columns, np.zeros((1, columns.shape[1]), dtype=np.uint64)])[rows]
    tables = np.zeros((len(by_bit), 256, columns.shape[1]), dtype=np.uint64)
    for i in range(8):
        tables[:, 1 << i:2 << i] = tables[:, :1 << i] ^ by_bit[:, i, None, :]
    return tables


def unpack_columns(words: np.ndarray, num_qubits: int) -> np.ndarray:
    """The ``(num_qubits, M)`` bool matrix ``unpack_bits(words).T``.

    Unpacked from the transposed *bytes*, so the transpose moves 8x less
    data than transposing the unpacked bits; each bit column comes out
    contiguous.
    """
    as_bytes = word_bytes(words)
    if as_bytes.shape[1] < 8 * num_words(num_qubits):
        raise ValueError("word matrix too narrow for num_qubits")
    bits = np.unpackbits(np.ascontiguousarray(as_bytes.T), axis=0,
                         count=num_qubits, bitorder="little")
    return bits.view(bool)


if hasattr(np, "bitwise_count"):
    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-element set-bit count (uint8-valued, shape preserved)."""
        return np.bitwise_count(words)
else:  # pragma: no cover - numpy < 2.0 fallback
    _BYTE_POPCOUNT = np.array([bin(v).count("1") for v in range(256)],
                              dtype=np.uint8)

    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-element set-bit count (uint8-valued, shape preserved)."""
        words = np.ascontiguousarray(words, dtype=np.uint64)
        per_byte = _BYTE_POPCOUNT[words.view(np.uint8)]
        return per_byte.reshape(words.shape + (8,)).sum(axis=-1,
                                                        dtype=np.uint8)


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row set-bit count of an ``(M, W)`` word matrix, as int64."""
    return popcount(words).sum(axis=1, dtype=np.int64)


def get_bit(words: np.ndarray, column: int) -> np.ndarray:
    """Extract bit column ``column`` as an ``(M,)`` bool vector."""
    word, bit = divmod(column, WORD_BITS)
    return (words[:, word] >> np.uint64(bit)) & np.uint64(1) != 0


def get_bit_i64(words: np.ndarray, column: int,
                rows: np.ndarray | slice = slice(None)) -> np.ndarray:
    """Extract bit column ``column`` (row subset ``rows``) as int64 0/1."""
    word, bit = divmod(column, WORD_BITS)
    col = (words[rows, word] >> np.uint64(bit)) & np.uint64(1)
    return col.astype(np.int64)


def set_bit(words: np.ndarray, column: int, values: np.ndarray,
            rows: np.ndarray | slice = slice(None)) -> None:
    """Deposit a bool vector into bit column ``column`` (row subset ``rows``)."""
    word, bit = divmod(column, WORD_BITS)
    mask = np.uint64(1 << bit)
    col = words[rows, word]
    words[rows, word] = ((col & ~mask)
                         | (values.astype(np.uint64) << np.uint64(bit)))
