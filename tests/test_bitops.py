"""Equivalence suite for the word-packed Pauli table.

:class:`~repro.paulis.table.PauliTable` (uint64 words, see
:mod:`repro.paulis.bitops`) must be **bit-identical** to the boolean-matrix
oracle (``pauli_oracle``) through every conjugation entry point.  This
suite pins that at the interesting widths -- n = 1 (single ragged word),
63/64/65 (word boundary straddles), and 100 (the large-n target) -- with
seeded randomized tables, row subsets (leveled passes against the oracle's
masked application), and the full set of named Clifford gates including
same-word and cross-word 2-qubit placements.
"""

import math

import numpy as np
import pauli_oracle as oracle
import pytest

from repro.circuits import Circuit
from repro.paulis import PauliString, PauliSum, PauliTable
from repro.paulis import bitops
from repro.stabilizer import CliffordTableau, gate_tableau
from repro.stabilizer.tableau import (
    _LEVELED_LUT_CACHE,
    _LUT_CACHE,
    _LUT_CACHE_MAX,
    _conjugation_lut,
    _gate_lut_key,
    apply_gate_levels_to_table,
    StaticBlock,
    apply_gate_to_table,
    pull_back_rotation_layer,
    rotation_layer_cliffords,
    single_qubit_cliffords,
)

SIZES = [1, 63, 64, 65, 100]
CLIFFORD_1Q = ["i", "x", "y", "z", "h", "s", "sdg", "sx", "sxdg"]
CLIFFORD_2Q = ["cx", "cz", "swap"]


def random_tables(n, num_rows, seed):
    """A random oracle table and its packed twin (independent storage)."""
    rng = np.random.default_rng(seed)
    x = rng.random((num_rows, n)) < 0.5
    z = rng.random((num_rows, n)) < 0.5
    phase = rng.integers(0, 4, num_rows)
    table = oracle.BoolTable(x, z, phase)
    return table, PauliTable.from_bits(x, z, phase.copy()), rng


assert_tables_equal = oracle.assert_equal


class TestBitops:
    def test_num_words(self):
        assert bitops.num_words(0) == 0
        assert bitops.num_words(1) == 1
        assert bitops.num_words(64) == 1
        assert bitops.num_words(65) == 2
        assert bitops.num_words(128) == 2
        with pytest.raises(ValueError):
            bitops.num_words(-1)

    def test_tail_mask(self):
        assert bitops.tail_mask(64) == np.uint64(0xFFFFFFFFFFFFFFFF)
        assert bitops.tail_mask(1) == np.uint64(1)
        assert bitops.tail_mask(65) == np.uint64(1)
        assert bitops.tail_mask(100) == np.uint64((1 << 36) - 1)

    @pytest.mark.parametrize("n", SIZES)
    def test_pack_unpack_round_trip(self, n):
        rng = np.random.default_rng(n)
        bits = rng.random((37, n)) < 0.5
        words = bitops.pack_bits(bits, n)
        assert words.shape == (37, bitops.num_words(n))
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(bitops.unpack_bits(words, n), bits)

    @pytest.mark.parametrize("n", SIZES)
    def test_tail_bits_are_zero(self, n):
        rng = np.random.default_rng(n + 1)
        bits = rng.random((20, n)) < 0.9
        words = bitops.pack_bits(bits, n)
        assert np.all(words[:, -1] & ~bitops.tail_mask(n) == 0)

    @pytest.mark.parametrize("n", SIZES)
    def test_unpack_columns_is_the_transpose(self, n):
        rng = np.random.default_rng(n + 5)
        bits = rng.random((37, n)) < 0.5
        columns = bitops.unpack_columns(bitops.pack_bits(bits, n), n)
        assert columns.dtype == bool and columns.flags.c_contiguous
        np.testing.assert_array_equal(columns, bits.T)
        empty = bitops.unpack_columns(np.zeros((0, bitops.num_words(n)),
                                               dtype=np.uint64), n)
        assert empty.shape == (n, 0)

    def test_pack_unpack_zero_rows(self):
        words = bitops.pack_bits(np.zeros((0, 65), dtype=bool), 65)
        assert words.shape == (0, 2)
        assert bitops.unpack_bits(words, 65).shape == (0, 65)

    def test_pack_wider_register(self):
        bits = np.eye(3, dtype=bool)
        words = bitops.pack_bits(bits, 100)
        assert words.shape == (3, 2)
        np.testing.assert_array_equal(bitops.unpack_bits(words, 100)[:, :3],
                                      bits)

    @pytest.mark.parametrize("n", SIZES)
    def test_popcount_matches_unpacked_sum(self, n):
        rng = np.random.default_rng(n + 2)
        bits = rng.random((25, n)) < 0.5
        words = bitops.pack_bits(bits, n)
        counts = bitops.popcount_rows(words)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, bits.sum(axis=1))

    def test_popcount_byte_table_fallback(self):
        # the pre-numpy-2.0 byte-table path must agree with the ufunc
        table = np.array([bin(v).count("1") for v in range(256)],
                         dtype=np.uint8)
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**64, size=(11, 3), dtype=np.uint64)
        per_byte = table[words.view(np.uint8)]
        fallback = per_byte.reshape(words.shape + (8,)).sum(axis=-1,
                                                            dtype=np.uint8)
        np.testing.assert_array_equal(fallback, bitops.popcount(words))

    @pytest.mark.parametrize("n", SIZES)
    def test_get_set_bit_round_trip(self, n):
        rng = np.random.default_rng(n + 3)
        bits = rng.random((30, n)) < 0.5
        words = bitops.pack_bits(bits, n)
        for q in {0, n // 2, n - 1}:
            np.testing.assert_array_equal(bitops.get_bit(words, q),
                                          bits[:, q])
            np.testing.assert_array_equal(bitops.get_bit_i64(words, q),
                                          bits[:, q].astype(np.int64))
            new = rng.random(30) < 0.5
            bitops.set_bit(words, q, new)
            bits[:, q] = new
        np.testing.assert_array_equal(bitops.unpack_bits(words, n), bits)

    def test_get_set_bit_row_subset(self):
        n = 65  # ragged last word: column 64 lives at bit 0 of word 1
        rng = np.random.default_rng(9)
        bits = rng.random((40, n)) < 0.5
        words = bitops.pack_bits(bits, n)
        idx = np.flatnonzero(rng.random(40) < 0.3)
        for q in (0, 63, 64):
            np.testing.assert_array_equal(
                bitops.get_bit_i64(words, q, idx),
                bits[idx, q].astype(np.int64))
            new = rng.random(len(idx)) < 0.5
            bitops.set_bit(words, q, new, idx)
            bits[idx, q] = new
        np.testing.assert_array_equal(bitops.unpack_bits(words, n), bits)


class TestPackedPauliTable:
    """The word-packed ``PauliTable`` against the boolean oracle."""

    @pytest.mark.parametrize("n", SIZES)
    def test_round_trip(self, n):
        table, packed, _ = random_tables(n, 23, n)
        assert packed.num_rows == 23
        assert packed.num_qubits == n
        assert packed.num_words == bitops.num_words(n)
        assert packed.x.dtype == np.uint64
        assert_tables_equal(packed, table)
        assert_tables_equal(PauliTable.from_paulis(packed.to_paulis()), table)

    @pytest.mark.parametrize("n", SIZES)
    def test_queries_match_bool_oracle(self, n):
        table, packed, rng = random_tables(n, 29, n + 10)
        # force real phases so signs() is defined (both layouts identically)
        real = (np.sum(table.x & table.z, axis=1)
                + 2 * rng.integers(0, 2, 29)) % 4
        table.phase_exp[:] = real
        packed.phase_exp[:] = real
        np.testing.assert_array_equal(packed.signs(), oracle.signs(table))
        np.testing.assert_array_equal(packed.z_type_mask(),
                                      ~table.x.any(axis=1))
        np.testing.assert_array_equal(packed.expectation_all_zeros(),
                                      oracle.expectation_all_zeros(table))
        np.testing.assert_array_equal(packed.weights(),
                                      (table.x | table.z).sum(axis=1))
        np.testing.assert_array_equal(packed.supports_mask(),
                                      table.x | table.z)
        np.testing.assert_array_equal(packed.unpack_x(), table.x)
        np.testing.assert_array_equal(packed.unpack_z(), table.z)
        for q in {0, n // 2, n - 1}:
            np.testing.assert_array_equal(packed.x_column(q), table.x[:, q])
            np.testing.assert_array_equal(packed.z_column(q), table.z[:, q])
            idx = np.flatnonzero(rng.random(29) < 0.4)
            np.testing.assert_array_equal(
                packed.codes_on(q, idx),
                table.x[idx, q] + 2 * table.z[idx, q].astype(np.int64))

    def test_signs_rejects_imaginary_phase(self):
        packed = PauliTable.from_labels(["X"])
        packed.phase_exp[0] = 1
        with pytest.raises(ValueError):
            packed.signs()

    @pytest.mark.parametrize("n", [1, 65])
    def test_mul_pauli_on_rows_matches(self, n):
        table, packed, rng = random_tables(n, 31, n + 20)
        other_x = rng.random(n) < 0.5
        other_z = rng.random(n) < 0.5
        other = PauliString(other_x, other_z, 2)
        mask = rng.random(31) < 0.5
        table.mul_pauli_on_rows(mask, other)
        packed.mul_pauli_on_rows(mask, other)
        assert_tables_equal(packed, table)

    def test_tile_and_row(self):
        packed = PauliTable.from_labels(["XZ", "YI"])
        tiled = packed.tile(3)
        assert tiled.num_rows == 6
        assert str(tiled.row(4)) == str(packed.row(0))
        assert str(tiled.row(5)) == str(packed.row(1))


class TestEmptyTables:
    """0-row tables are first class."""

    def test_from_paulis_empty_needs_width(self):
        with pytest.raises(ValueError):
            PauliTable.from_paulis([])
        packed = PauliTable.from_paulis([], num_qubits=5)
        assert packed.num_rows == 0
        assert packed.num_qubits == 5

    @pytest.mark.parametrize("n", [1, 64, 100])
    def test_tile_zero(self, n):
        table, packed, _ = random_tables(n, 7, n)
        empty = packed.tile(0)
        assert empty.num_rows == 0
        assert empty.num_qubits == n
        assert_tables_equal(empty, table.extract(slice(0, 0)))

    def test_empty_queries(self):
        empty = PauliTable.from_paulis([], num_qubits=4)
        assert empty.signs().shape == (0,)
        assert empty.expectation_all_zeros().shape == (0,)
        assert empty.weights().shape == (0,)
        assert empty.z_type_mask().shape == (0,)

    def test_empty_conjugation(self):
        rng = np.random.default_rng(5)
        circuit = _random_clifford_circuit(4, 12, rng)
        tableau = CliffordTableau.from_circuit(circuit)
        packed = PauliTable.from_paulis([], num_qubits=4)
        assert tableau.conjugate_table(packed).num_rows == 0
        apply_gate_to_table(packed, gate_tableau("h"), [1])
        assert packed.num_rows == 0

    def test_empty_pauli_sum(self):
        empty = PauliSum(PauliTable.from_paulis([], num_qubits=3),
                         np.zeros(0))
        assert empty.num_terms == 0


def _random_clifford_circuit(num_qubits, depth, rng):
    circ = Circuit(num_qubits)
    for _ in range(depth):
        choice = rng.integers(0, 3)
        if choice == 0 or num_qubits == 1:
            name = CLIFFORD_1Q[rng.integers(0, len(CLIFFORD_1Q))]
            circ.append(name, [int(rng.integers(0, num_qubits))])
        elif choice == 1:
            name = ["rx", "ry", "rz"][rng.integers(0, 3)]
            angle = int(rng.integers(0, 4)) * math.pi / 2
            circ.append(name, [int(rng.integers(0, num_qubits))], [angle])
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circ.append(CLIFFORD_2Q[rng.integers(0, 3)], [int(a), int(b)])
    return circ


def apply_both(table, packed, name, params, qubits, rows):
    """Conjugate ``rows`` (``None`` = all) in both layouts.

    The packed side applies a row subset as the leveled pass
    ``[None, gate]`` with 0/1 levels; the oracle side as its masked
    application.
    """
    gate = gate_tableau(name, params)
    if rows is None:
        oracle.apply_gate(table, name, params, qubits)
        apply_gate_to_table(packed, gate, qubits)
        return
    oracle.apply_gate_masked(table, name, params, qubits, rows)
    apply_gate_levels_to_table(packed, [None, (gate, False)], qubits,
                               rows.astype(np.int64))


class TestConjugationEquivalence:
    """Every conjugation entry point, packed vs boolean oracle."""

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("name", CLIFFORD_1Q + ["rx", "ry", "rz"])
    def test_single_qubit_gates(self, n, name):
        params = (math.pi / 2,) if name.startswith("r") else ()
        table, packed, rng = random_tables(n, 41, hash((n, name)) % 2**31)
        for q in sorted({0, n // 2, n - 1}):
            for rows in (None, rng.random(41) < 0.4,
                         np.zeros(41, dtype=bool)):
                apply_both(table, packed, name, params, [q], rows)
        assert_tables_equal(packed, table)

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 100])
    @pytest.mark.parametrize("name", CLIFFORD_2Q)
    def test_two_qubit_gates(self, n, name):
        table, packed, rng = random_tables(n, 41, hash((n, name)) % 2**31)
        pairs = [(0, n - 1), (n - 1, 0)]
        if n >= 65:
            # same-word, cross-word, and word-boundary placements
            pairs += [(3, 17), (63, 64), (64, 63), (62, 64)]
        for qubits in pairs:
            if qubits[0] == qubits[1]:
                continue
            for rows in (None, rng.random(41) < 0.4,
                         np.zeros(41, dtype=bool)):
                apply_both(table, packed, name, (), list(qubits), rows)
        assert_tables_equal(packed, table)

    @pytest.mark.parametrize("n", [3, 65, 100])
    def test_wide_gate_fallback(self, n):
        # no registered gate is wider than 2 qubits, so there is no LUT
        # (and no fallback) for one: the kernel refuses it
        rng = np.random.default_rng(n)
        gate = CliffordTableau.from_circuit(_random_clifford_circuit(3, 15,
                                                                     rng))
        _, packed, _ = random_tables(n, 33, n + 40)
        qubits = sorted({0, n // 2, n - 1})
        if len(qubits) < 3:
            qubits = [0, 1, 2]
        with pytest.raises(ValueError, match="3-qubit"):
            apply_gate_to_table(packed, gate, qubits)

    @pytest.mark.parametrize("n", [2, 64, 65, 100])
    def test_leveled_pass_matches_masked_passes(self, n):
        table, packed, rng = random_tables(n, 60, n + 50)
        levels = rng.integers(0, 4, 60)
        k, lq = 0, n - 1
        entries = [None,
                   (gate_tableau("cx"), False),
                   (gate_tableau("cx"), True),
                   (gate_tableau("swap"), False)]
        apply_gate_levels_to_table(packed, entries, [k, lq], levels)
        for level, name, qubits in ((1, "cx", [k, lq]), (2, "cx", [lq, k]),
                                    (3, "swap", [k, lq])):
            oracle.apply_gate_masked(table, name, (), qubits,
                                     levels == level)
        assert_tables_equal(packed, table)

    @pytest.mark.parametrize("n", [1, 65])
    def test_leveled_rotations_match_masked_passes(self, n):
        table, packed, rng = random_tables(n, 60, n + 60)
        levels = rng.integers(0, 4, 60)
        q = n - 1
        entries = [None] + [
            (gate_tableau("rz", (-float(level * (math.pi / 2)),)), False)
            for level in (1, 2, 3)]
        apply_gate_levels_to_table(packed, entries, [q], levels)
        for level in (1, 2, 3):
            oracle.apply_gate_masked(table, "rz",
                                     (-float(level * (math.pi / 2)),), [q],
                                     levels == level)
        assert_tables_equal(packed, table)

    @pytest.mark.parametrize("n", [1, 5, 65])
    def test_from_circuit_packed_matches_bool(self, n):
        rng = np.random.default_rng(n + 70)
        circuit = _random_clifford_circuit(n, 30, rng)
        assert_tables_equal(CliffordTableau.from_circuit(circuit).rows,
                            oracle.tableau_rows(circuit))

    @pytest.mark.parametrize("n", [1, 5, 65])
    def test_conjugate_table_packed_matches_bool(self, n):
        rng = np.random.default_rng(n + 80)
        circuit = _random_clifford_circuit(n, 25, rng)
        tableau = CliffordTableau.from_circuit(circuit)
        table, packed, _ = random_tables(n, 19, n + 81)
        assert_tables_equal(tableau.conjugate_table(packed),
                            oracle.push_forward(table, circuit))


def test_oracle_luts_match_kernel_luts():
    """The oracle's matrix-derived LUTs equal the kernel's tableau-derived
    ones for every registered Clifford gate at every Clifford parameter."""
    variants = list(oracle.clifford_gate_variants())
    assert {name for name, _ in variants} >= set(CLIFFORD_1Q + CLIFFORD_2Q
                                                 + ["rx", "ry", "rz"])
    for name, params in variants:
        expected = oracle.gate_lut(name, params)
        got = _conjugation_lut(gate_tableau(name, params))
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(have, want, err_msg=f"{name}{params}")


class TestTransformationEquivalence:
    @pytest.mark.parametrize("n", [2, 6])
    def test_transform_table(self, n):
        from repro.core.transformation import transform_table
        from repro.hamiltonians import ising_model

        from repro.circuits import num_transformation_parameters

        ham = ising_model(n, 1.0)
        rng = np.random.default_rng(n)
        gamma = rng.integers(0, 4, num_transformation_parameters(n))
        packed = transform_table(ham, gamma)
        assert isinstance(packed, PauliTable)
        assert_tables_equal(packed, oracle.transform_table(ham, gamma))

    @pytest.mark.parametrize("n", [2, 6, 65])
    def test_transform_table_many(self, n):
        from repro.core.transformation import transform_table_many
        from repro.hamiltonians import ising_model

        from repro.circuits import num_transformation_parameters

        ham = ising_model(n, 1.0)
        rng = np.random.default_rng(n + 1)
        gammas = rng.integers(0, 4,
                              size=(9, num_transformation_parameters(n)))
        packed = transform_table_many(ham, gammas)
        assert isinstance(packed, PauliTable)
        m = ham.num_terms
        for p, gamma in enumerate(gammas):
            single = packed.take(slice(p * m, (p + 1) * m))
            assert_tables_equal(single, oracle.transform_table(ham, gamma))

    @pytest.mark.parametrize("loss_name", ["clapton", "cafqa", "ncafqa"])
    def test_losses_bit_identical(self, loss_name):
        from repro.core import CafqaLoss, ClaptonLoss, NcafqaLoss, VQEProblem
        from repro.hamiltonians import ising_model
        from repro.noise import NoiseModel

        n = 5
        ham = ising_model(n, 1.0)
        noise = NoiseModel.uniform(n, depol_1q=1e-3, depol_2q=8e-3,
                                   readout=2e-2, t1=80e-6)
        problem = VQEProblem.logical(ham, noise_model=noise)
        cls = {"clapton": ClaptonLoss, "cafqa": CafqaLoss,
               "ncafqa": NcafqaLoss}[loss_name]
        dim = (problem.num_transformation_parameters
               if loss_name == "clapton" else problem.num_vqe_parameters)
        rng = np.random.default_rng(11)
        genomes = rng.integers(0, 4, size=(12, dim))
        loss = cls(problem)
        expected = [oracle.loss_value(loss, g) for g in genomes]
        np.testing.assert_array_equal(loss.evaluate_many(genomes), expected)
        assert loss(genomes[0]) == expected[0]

    @pytest.mark.parametrize("n", [8, 16, 32, 48, 64])
    def test_clapton_loss_qubit_scaling_bit_identical(self, n):
        from repro.core import ClaptonLoss, VQEProblem
        from repro.hamiltonians import ising_model
        from repro.noise import NoiseModel

        noise = NoiseModel.uniform(n, depol_1q=1e-3, depol_2q=8e-3,
                                   readout=2e-2, t1=80e-6)
        problem = VQEProblem.logical(ising_model(n, 1.0), noise_model=noise)
        loss = ClaptonLoss(problem)
        genomes = np.random.default_rng(n).integers(
            0, 4, size=(3, problem.num_transformation_parameters))
        np.testing.assert_array_equal(
            loss.evaluate_many(genomes),
            [oracle.loss_value(loss, g) for g in genomes])

    def test_embed_table_packed(self):
        from repro.core.transformation import embed_table

        table, packed, _ = random_tables(5, 13, 90)
        positions = [7, 0, 3, 9, 4]
        out_p = embed_table(packed, positions, 10)
        assert isinstance(out_p, PauliTable)
        assert_tables_equal(out_p, oracle.embed_table(table, positions, 10))
        # trivial embedding is a plain copy
        same = embed_table(packed, list(range(5)), 5)
        assert same is not packed
        assert same.x is not packed.x
        assert_tables_equal(same, table)


def oracle_rotation_layer(table, ry_levels, rz_levels):
    """The oracle's layer pull-back: every block's inverse gates one by one,
    last qubit first, each qubit's inverse RZ before its inverse RY."""
    num_points, n = ry_levels.shape
    m = table.num_rows // num_points
    for p in range(num_points):
        rows = slice(p * m, (p + 1) * m)
        block = table.extract(rows)
        for q in reversed(range(n)):
            for name, level in (("rz", rz_levels[p, q]),
                                ("ry", ry_levels[p, q])):
                if level:
                    oracle.apply_gate(block, name,
                                      (-float(level * (math.pi / 2)),), [q])
        table.scatter(rows, block)


def serial_pull_back(hamiltonian, circuit):
    """``C† P C`` of every term through the serial tableau path."""
    tableau = CliffordTableau.from_circuit(circuit.inverse())
    return tableau.conjugate_table(hamiltonian.table)


def assert_packed_equal(table, expected):
    np.testing.assert_array_equal(table.x, expected.x)
    np.testing.assert_array_equal(table.z, expected.z)
    np.testing.assert_array_equal(table.phase_exp, expected.phase_exp)


class TestRotationLayer:
    """The bit-sliced RY/RZ layer pass against gate-by-gate references."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 100])
    @pytest.mark.parametrize("num_points", [1, 7])
    def test_matches_oracle_for_every_combo(self, n, num_points):
        m = 9
        table, packed, _ = random_tables(n, num_points * m,
                                         1000 * n + num_points)
        # every phase exponent on every block
        table.phase_exp = np.arange(num_points * m) % 4
        packed.phase_exp = table.phase_exp.copy()
        combo = (np.arange(num_points)[:, None] + 5 * np.arange(n)) % 16
        # sixteen layers: every (point, qubit) runs through all 16 combos
        for shift in range(16):
            levels = (combo + shift) % 16
            pull_back_rotation_layer(
                packed, rotation_layer_cliffords(levels // 4, levels % 4))
            oracle_rotation_layer(table, levels // 4, levels % 4)
        assert_tables_equal(packed, table)

    def test_rejects_bad_shapes_and_levels(self):
        packed = PauliTable.from_labels(["XZ", "ZX", "YY"])
        zeros = np.zeros((1, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="integer matrix"):
            pull_back_rotation_layer(packed, np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="integer matrix"):
            pull_back_rotation_layer(packed, np.zeros((1, 2)))
        with pytest.raises(ValueError, match="qubit-count"):
            pull_back_rotation_layer(packed, np.zeros((1, 3), dtype=int))
        with pytest.raises(ValueError, match="row block"):
            pull_back_rotation_layer(packed, np.zeros((2, 2), dtype=int))
        with pytest.raises(ValueError, match="0..23"):
            pull_back_rotation_layer(packed, zeros + 24)
        with pytest.raises(ValueError, match="0..23"):
            pull_back_rotation_layer(packed, zeros - 1)

    def test_empty_population(self):
        packed = PauliTable.identity(0, 5)
        pull_back_rotation_layer(packed, np.zeros((0, 5), dtype=np.int64))
        assert packed.num_rows == 0

    def test_group_tables(self):
        group = single_qubit_cliffords()
        # 24 distinct signed actions on (X, Z), element 0 the identity
        assert len({row.tobytes() for row in group.bits}) == 24
        np.testing.assert_array_equal(group.codes[0], [0, 1, 2, 3])
        np.testing.assert_array_equal(group.compose[0], np.arange(24))
        np.testing.assert_array_equal(group.compose[:, 0], np.arange(24))
        for row in group.compose:  # a Latin square: a group table
            np.testing.assert_array_equal(np.sort(row), np.arange(24))
        a, b, c = np.meshgrid(*[np.arange(24)] * 3, indexing="ij")
        np.testing.assert_array_equal(
            group.compose[group.compose[a, b], c],
            group.compose[a, group.compose[b, c]])
        for kind in ("rx", "ry", "rz"):
            assert group.rotations[kind][0] == 0

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 100])
    def test_any_rotation_run_is_one_pass(self, n):
        """A run of RX/RY/RZ in any order and count, at any Clifford
        angle (negative and beyond 2*pi too), composed per qubit and
        pulled back in one pass, equals the oracle's inverse gates one by
        one in reverse order."""
        num_points, m = 5, 7
        table, packed, rng = random_tables(n, num_points * m, 77 + n)
        group = single_qubit_cliffords()
        kinds = ("rx", "ry", "rz")
        for _ in range(3):
            run = [(kinds[rng.integers(3)], int(rng.integers(n)))
                   for _ in range(3 * n + 5)]
            turns = rng.integers(-9, 9, size=(num_points, len(run)))
            cliffords = np.zeros((num_points, n), dtype=np.int64)
            for j in reversed(range(len(run))):
                kind, q = run[j]
                cliffords[:, q] = group.compose[
                    cliffords[:, q], group.rotations[kind][turns[:, j] % 4]]
            pull_back_rotation_layer(packed, cliffords)
            for p in range(num_points):
                rows = slice(p * m, (p + 1) * m)
                block = table.extract(rows)
                for j in reversed(range(len(run))):
                    kind, q = run[j]
                    oracle.apply_gate(
                        block, kind,
                        (-float(turns[p, j] * (math.pi / 2)),), [q])
                table.scatter(rows, block)
            assert_tables_equal(packed, table)

    def test_code_maps_follow_the_pass(self):
        """``codes[c]`` is the single-qubit code the pass leaves."""
        group = single_qubit_cliffords()
        packed = PauliTable.from_labels(["I", "X", "Z", "Y"] * 24)
        cliffords = np.repeat(np.arange(24), 4)[:, None]
        pull_back_rotation_layer(packed, cliffords)
        np.testing.assert_array_equal(packed.codes_on(0),
                                      group.codes[:, [0, 1, 2, 3]].ravel())

    @pytest.mark.parametrize("n", [3, 64, 65])
    @pytest.mark.parametrize("entanglement", ["circular", "linear"])
    def test_transform_table_many_matches_serial_tableau(self, n,
                                                         entanglement):
        from repro.circuits import (
            clapton_transformation_circuit,
            num_transformation_parameters,
        )
        from repro.core.transformation import transform_table_many
        from repro.hamiltonians import ising_model

        ham = ising_model(n, 1.0)
        rng = np.random.default_rng(n + 7)
        gammas = rng.integers(
            0, 4, size=(4, num_transformation_parameters(n, entanglement)))
        gammas[:, 1] = 0  # a rotation gene every genome leaves at 0
        gammas[:, -1] = 0
        stacked = transform_table_many(ham, gammas, entanglement)
        m = ham.num_terms
        for p, gamma in enumerate(gammas):
            expected = serial_pull_back(ham, clapton_transformation_circuit(
                gamma, n, entanglement))
            assert_packed_equal(stacked.take(slice(p * m, (p + 1) * m)),
                                expected)

    @pytest.mark.parametrize("n", [3, 64, 65])
    @pytest.mark.parametrize("entanglement", ["circular", "linear"])
    def test_cafqa_logical_tables_match_serial_tableau(self, n,
                                                       entanglement):
        from repro.circuits import (
            cafqa_angles,
            drop_identity_rotations,
            hardware_efficient_ansatz,
        )
        from repro.core import CafqaLoss, VQEProblem
        from repro.hamiltonians import ising_model

        ham = ising_model(n, 1.0)
        loss = CafqaLoss(VQEProblem.logical(ham, entanglement=entanglement))
        genomes = np.random.default_rng(n + 8).integers(0, 4, size=(4, 4 * n))
        genomes[:, 0] = 0
        genomes[:, 2 * n + 1] = 0
        stacked = loss.logical_tables_many(genomes)
        template = hardware_efficient_ansatz(n, entanglement)
        m = ham.num_terms
        for p, genome in enumerate(genomes):
            circuit = drop_identity_rotations(
                template.bind(cafqa_angles(genome)))
            assert_packed_equal(stacked.take(slice(p * m, (p + 1) * m)),
                                serial_pull_back(ham, circuit))


def random_block_steps(n, num_gates, rng, qubits=None):
    """Random ``(instruction, tableau)`` steps over every registered
    Clifford gate variant (``qubits``: the gates' allowed qubits)."""
    from repro.circuits.circuit import Instruction
    from repro.circuits.gates import get_gate

    qubits = np.arange(n) if qubits is None else np.asarray(qubits)
    variants = [(name, params)
                for name, params in oracle.clifford_gate_variants()
                if get_gate(name).num_qubits <= len(qubits)]
    steps = []
    for _ in range(num_gates):
        name, params = variants[rng.integers(len(variants))]
        targets = rng.choice(qubits, size=get_gate(name).num_qubits,
                             replace=False)
        inst = Instruction(name, tuple(int(q) for q in targets),
                           tuple(params))
        steps.append((inst, gate_tableau(name, tuple(params))))
    return steps


def assert_block_matches_oracle(block, steps, table, packed):
    """One block pass equals the oracle's gate-by-gate walk, and each
    location's bits are the oracle row's bits just before that gate."""
    bits = block.apply(packed)
    assert bits.shape == (len(steps), table.num_rows)
    assert bits.dtype == np.uint8
    for j, (inst, _) in enumerate(steps):
        expected = np.zeros(table.num_rows, dtype=np.uint8)
        for slot, q in enumerate(inst.qubits):
            expected |= ((table.x[:, q].astype(np.uint8) << 2 * slot)
                         | (table.z[:, q].astype(np.uint8) << 2 * slot + 1))
        np.testing.assert_array_equal(bits[j], expected)
        qubits = list(inst.qubits)
        np.testing.assert_array_equal(
            bits[j] != 0,
            (table.x[:, qubits] | table.z[:, qubits]).any(axis=1))
        oracle.apply_gate(table, inst.name, inst.params, inst.qubits)
    assert_tables_equal(packed, table)


class TestStaticBlock:
    """A compiled run of static gates against the boolean oracle."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 100])
    def test_matches_oracle(self, n):
        table, packed, rng = random_tables(n, 37, 700 + n)
        # every phase exponent, imaginary ones included
        assert set(table.phase_exp) == {0, 1, 2, 3}
        steps = random_block_steps(n, 40, rng)
        block = StaticBlock.compile(steps, n)
        assert block.num_locations == len(steps)
        assert_block_matches_oracle(block, steps, table, packed)

    @pytest.mark.parametrize("qubits", [[60, 61, 62, 63, 64, 65, 66],
                                        [3, 5], [129]])
    def test_support_restricted_block(self, qubits):
        """A block on a few qubits of a wide register rewrites only the
        bytes holding them and leaves every other bit alone."""
        from repro.obs.kernel import KERNEL

        n = 130
        table, packed, rng = random_tables(n, 29, qubits[0])
        steps = random_block_steps(n, 12, rng, qubits)
        block = StaticBlock.compile(steps, n)
        before = KERNEL.snapshot()
        assert_block_matches_oracle(block, steps, table, packed)
        touched_words = len({q // 64 for q in qubits})
        delta = KERNEL.delta(before)
        assert (delta["fused_passes"], delta["rows"], delta["words"]) \
            == (1, 29, 29 * touched_words)

    def test_zero_gate_block_and_empty_table(self):
        from repro.obs.kernel import KERNEL

        table, packed, rng = random_tables(9, 11, 5)
        empty = StaticBlock.compile([], 9)
        before = KERNEL.snapshot()
        assert empty.apply(packed).shape == (0, 11)
        assert KERNEL.delta(before)["fused_passes"] == 0
        assert_tables_equal(packed, table)
        steps = random_block_steps(9, 6, rng)
        bits = StaticBlock.compile(steps, 9).apply(packed.take(slice(0, 0)))
        assert bits.shape == (6, 0)

    def test_without_locations(self):
        table, packed, rng = random_tables(65, 13, 6)
        steps = random_block_steps(65, 10, rng)
        block = StaticBlock.compile(steps, 65, locations=False)
        assert block.num_locations == 0
        assert block.apply(packed).shape == (0, 13)
        for inst, _ in steps:
            oracle.apply_gate(table, inst.name, inst.params, inst.qubits)
        assert_tables_equal(packed, table)

    def test_rejects_bad_registers(self):
        from repro.circuits.circuit import Instruction

        with pytest.raises(ValueError):
            StaticBlock.compile([(Instruction("h", (4,)), gate_tableau("h"))],
                                4)
        block = StaticBlock.compile(
            [(Instruction("h", (1,)), gate_tableau("h"))], 4)
        with pytest.raises(ValueError):
            block.apply(PauliTable.identity(2, 5))

    def test_compiled_once_per_content(self):
        rng = np.random.default_rng(8)
        steps = random_block_steps(12, 9, rng)
        block = StaticBlock.compile(steps, 12)
        assert StaticBlock.compile(list(steps), 12) is block
        assert StaticBlock.compile(steps, 12, locations=False) is not block
        assert StaticBlock.compile(steps[1:], 12) is not block

    def test_compile_cost(self):
        """Vectorized table building: a 100-qubit, 100-gate block
        compiles in a few milliseconds (generous bound)."""
        import time

        from repro.circuits.circuit import Instruction

        rng = np.random.default_rng(9)
        steps = []
        for _ in range(100):
            a, b = rng.choice(100, size=2, replace=False)
            steps.append((Instruction("cx", (int(a), int(b))),
                          gate_tableau("cx")))
        StaticBlock._compile(steps, 100, True)  # warm the gate LUT
        start = time.perf_counter()
        block = StaticBlock._compile(steps, 100, True)
        assert time.perf_counter() - start < 0.25
        assert block._tables.nbytes < 1 << 20

    @pytest.mark.parametrize("loss_name", ["clapton", "cafqa", "ncafqa"])
    def test_losses_with_flips_and_relaxation_transpiled(self, loss_name):
        """Every loss on a transpiled problem, logical flips and twirled
        relaxation on, against the oracle's serial walk."""
        import dataclasses

        from repro.backends import FakeNairobi
        from repro.core import CafqaLoss, ClaptonLoss, NcafqaLoss, VQEProblem
        from repro.hamiltonians import ising_model
        from repro.noise import CliffordNoiseModel

        problem = VQEProblem.from_backend(ising_model(5, 0.7), FakeNairobi())
        problem = dataclasses.replace(
            problem, noise_model=problem.noise_model.with_overrides(
                logical_flip_probs=(2e-3, 1e-3, 3e-3)))
        model = CliffordNoiseModel(problem.noise_model,
                                   include_twirled_relaxation=True)
        cls = {"clapton": ClaptonLoss, "cafqa": CafqaLoss,
               "ncafqa": NcafqaLoss}[loss_name]
        dim = (problem.num_transformation_parameters
               if loss_name == "clapton" else problem.num_vqe_parameters)
        loss = cls(problem, clifford_model=model)
        genomes = np.random.default_rng(12).integers(0, 4, size=(13, dim))
        np.testing.assert_array_equal(
            loss.evaluate_many(genomes),
            [oracle.loss_value(loss, g) for g in genomes])

    def test_losses_pickle_after_a_walk(self):
        """Process pools pickle losses: the walk's caches must not stop
        that, and the copy computes the same values."""
        import pickle

        from repro.core import ClaptonLoss, NcafqaLoss, VQEProblem
        from repro.hamiltonians import ising_model
        from repro.noise import NoiseModel

        problem = VQEProblem.logical(ising_model(4, 1.0),
                                     NoiseModel.uniform(4))
        rng = np.random.default_rng(14)
        for loss, dim in ((ClaptonLoss(problem),
                           problem.num_transformation_parameters),
                          (NcafqaLoss(problem), problem.num_vqe_parameters)):
            genomes = rng.integers(0, 4, size=(5, dim))
            values = loss.evaluate_many(genomes)
            copy = pickle.loads(pickle.dumps(loss))
            np.testing.assert_array_equal(copy.evaluate_many(genomes), values)

    def test_zne_folded_estimator(self):
        """A scale-3 global fold: static blocks between rotation runs at
        negative angles, against the oracle's serial walk."""
        import dataclasses

        from repro.backends import FakeNairobi
        from repro.core import VQEProblem
        from repro.execution import make_estimator
        from repro.hamiltonians import ising_model
        from repro.mitigation.folding import fold_template_global
        from repro.noise import CliffordNoiseModel

        problem = VQEProblem.from_backend(ising_model(4, 1.0), FakeNairobi())
        problem = dataclasses.replace(
            problem, noise_model=problem.noise_model.with_overrides(
                logical_flip_probs=(1e-3, 2e-3, 1e-3)),
            eval_ansatz=fold_template_global(problem.eval_ansatz, 3))
        hamiltonian = problem.mapped_hamiltonian()
        model = CliffordNoiseModel(problem.noise_model,
                                   include_twirled_relaxation=True)
        estimator = make_estimator(problem, hamiltonian, mode="clifford",
                                   clifford_model=model)
        thetas = np.random.default_rng(13).integers(
            -4, 8, size=(7, problem.num_vqe_parameters)) * (np.pi / 2)
        batch = estimator.estimate_many(thetas)
        table = oracle.BoolTable.of(hamiltonian.table)
        np.testing.assert_array_equal(
            batch.term_expectations,
            np.stack([oracle.noisy_term_values(
                model, estimator._plan.bind(theta), table)
                for theta in thetas]))



class TestKernelAccounting:
    """Exact packed-kernel counter advances of the population passes."""

    def test_rotation_layer_counts_one_pass(self):
        from repro.obs.kernel import KERNEL

        _, packed, _ = random_tables(65, 3 * 4, 5)
        cliffords = np.ones((3, 65), dtype=np.int64)
        before = KERNEL.snapshot()
        pull_back_rotation_layer(packed, cliffords)
        delta = KERNEL.delta(before)
        assert (delta["fused_passes"], delta["rows"], delta["words"]) \
            == (1, 12, 12 * 2)

    def test_transform_table_many(self):
        from repro.circuits import (
            entanglement_pairs,
            num_transformation_parameters,
        )
        from repro.core.transformation import transform_table_many
        from repro.hamiltonians import ising_model
        from repro.obs.kernel import KERNEL

        n, num_genomes = 12, 9
        ham = ising_model(n, 1.0)
        gammas = np.random.default_rng(3).integers(
            0, 4, size=(num_genomes, num_transformation_parameters(n)))
        passes = len(entanglement_pairs(n)) + 2
        before = KERNEL.snapshot()
        transform_table_many(ham, gammas)
        delta = KERNEL.delta(before)
        assert delta["fused_passes"] == passes
        assert delta["rows"] == passes * num_genomes * ham.num_terms

    def test_cafqa_evaluate_many(self):
        from repro.core import CafqaLoss, VQEProblem
        from repro.hamiltonians import ising_model
        from repro.obs.kernel import KERNEL

        loss = CafqaLoss(VQEProblem.logical(ising_model(12, 1.0)))
        genomes = np.random.default_rng(4).integers(0, 4, size=(9, 48))
        before = KERNEL.snapshot()
        loss.evaluate_many(genomes)
        # two rotation layers and the CX ring's block
        assert KERNEL.delta(before)["fused_passes"] == 3

    @pytest.mark.parametrize("device", [False, True])
    def test_ncafqa_evaluate_many(self, device):
        """One pass per rotation layer and one per static block of the
        walk, which also yields L_0: no second pull-back."""
        from repro.backends import FakeNairobi
        from repro.core import NcafqaLoss, VQEProblem
        from repro.hamiltonians import ising_model
        from repro.obs.kernel import KERNEL

        ham = ising_model(6, 1.0)
        problem = (VQEProblem.from_backend(ham, FakeNairobi()) if device
                   else VQEProblem.logical(ham))
        loss = NcafqaLoss(problem)
        genomes = np.random.default_rng(5).integers(0, 4, size=(9, 24))
        before = KERNEL.snapshot()
        loss.evaluate_many(genomes)
        assert KERNEL.delta(before)["fused_passes"] == 2 + 1


class TestLutCache:
    """The conjugation LUT caches are bounded LRU keyed on gate contents."""

    def test_content_key_shared_between_equal_gates(self):
        a = gate_tableau("h")
        b = CliffordTableau(a.rows.copy())
        assert a is not b
        assert _gate_lut_key(a) == _gate_lut_key(b)
        # memoized on the instance after first computation
        assert a._lut_key is not None
        assert _gate_lut_key(a) is a._lut_key

    def test_distinct_gates_distinct_keys(self):
        assert _gate_lut_key(gate_tableau("h")) != _gate_lut_key(
            gate_tableau("s"))

    def test_cache_bounded_with_lru_eviction(self, monkeypatch):
        import repro.stabilizer.tableau as tableau_mod

        monkeypatch.setattr(tableau_mod, "_LUT_CACHE_MAX", 6)
        _LUT_CACHE.clear()
        try:
            first = gate_tableau("h")
            tableau_mod._conjugation_lut(first)
            first_key = _gate_lut_key(first)
            assert first_key in _LUT_CACHE
            rng = np.random.default_rng(0)
            inserted = {first_key}
            while len(inserted) < 10:
                gate = CliffordTableau.from_circuit(
                    _random_clifford_circuit(2, 10, rng))
                key = _gate_lut_key(gate)
                if key in inserted:
                    continue
                tableau_mod._conjugation_lut(gate)
                # keep the H entry hot so LRU eviction skips it
                tableau_mod._conjugation_lut(first)
                inserted.add(key)
            assert len(_LUT_CACHE) <= 6
            assert first_key in _LUT_CACHE  # hot entry survived
        finally:
            _LUT_CACHE.clear()

    def test_leveled_cache_bounded(self):
        _LEVELED_LUT_CACHE.clear()
        entries = [None, (gate_tableau("cx"), False),
                   (gate_tableau("cx"), True),
                   (gate_tableau("swap"), False)]
        packed = PauliTable.from_labels(["XZ", "ZX"])
        apply_gate_levels_to_table(packed, entries, [0, 1],
                                   np.array([0, 0]))
        assert len(_LEVELED_LUT_CACHE) == 1
        # a second identical slot reuses the entry, not a new one
        apply_gate_levels_to_table(packed, entries, [0, 1],
                                   np.array([1, 2]))
        assert len(_LEVELED_LUT_CACHE) == 1
        assert len(_LEVELED_LUT_CACHE) <= _LUT_CACHE_MAX
