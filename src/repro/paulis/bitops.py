"""Bit-packed Pauli storage primitives: 64 qubit columns per machine word.

:class:`~repro.paulis.table.PauliTable` stores its X and Z bit matrices in
uint64 words rather than one byte per bit, which cuts the conjugation hot
path's memory traffic 8-64x and carries it to the 50-100+ qubit scale
word-packed tableau codes reach routinely (Aaronson-Gottesman,
arXiv:quant-ph/0406196).  This module is that layout's toolbox:

* :func:`pack_bits` / :func:`unpack_bits` -- ``(M, n)`` bool matrices to and
  from ``(M, ceil(n/64))`` uint64 words, column ``q`` living at bit
  ``q % 64`` of word ``q // 64`` (little-endian bit order, so packing is one
  ``np.packbits`` call);
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
    """Pack an ``(M, n)`` bool matrix into ``(M, ceil(n/64))`` uint64 words."""
    bits = np.ascontiguousarray(bits, dtype=bool)
    if bits.ndim != 2:
        raise ValueError("bits must be an (M, n) matrix")
    rows, n = bits.shape
    if num_qubits is None:
        num_qubits = n
    elif num_qubits < n:
        raise ValueError("num_qubits smaller than the bit matrix width")
    words = num_words(num_qubits)
    packed_bytes = np.packbits(bits, axis=1, bitorder="little")
    padded = np.zeros((rows, words * 8), dtype=np.uint8)
    padded[:, :packed_bytes.shape[1]] = packed_bytes
    out = padded.view(np.uint64)
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        out = out.byteswap()
    return np.ascontiguousarray(out)


def unpack_bits(words: np.ndarray, num_qubits: int) -> np.ndarray:
    """Unpack ``(M, W)`` uint64 words back into an ``(M, num_qubits)`` bool matrix."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError("words must be an (M, W) matrix")
    rows, wcount = words.shape
    if wcount < num_words(num_qubits):
        raise ValueError("word matrix too narrow for num_qubits")
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        words = words.byteswap()
    as_bytes = words.view(np.uint8).reshape(rows, wcount * 8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :num_qubits].astype(bool)


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
