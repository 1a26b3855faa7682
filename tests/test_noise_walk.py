"""The noisy walk's two passes: a table pass over every row, then a
factor pass over the rows that end Z-type (the *live* rows).

Every value is compared with the serial boolean oracle
(``pauli_oracle.noisy_term_values``: every row, gate by gate) by its
bytes, so a ``-0.0`` where the oracle has ``+0.0`` fails too
(``assert_array_equal`` alone treats them as equal).
"""

import numpy as np
import pauli_oracle as oracle
import pytest

from repro.circuits.ansatz import (
    hardware_efficient_ansatz,
    layered_hardware_efficient_ansatz,
)
from repro.core import ClaptonLoss, NcafqaLoss, VQEProblem
from repro.hamiltonians import ising_model, xxz_model
from repro.methods import get_method
from repro.mitigation.folding import fold_template_global
from repro.noise import CliffordNoiseModel, NoiseModel
from repro.noise.clifford_model import CliffordCircuitPlan
from repro.obs import (
    REGISTRY,
    RecordingTracer,
    bucket_of,
    get_tracer,
    render_prometheus,
    use_tracer,
)
from repro.paulis import PauliTable

ROWS = REGISTRY.get("repro_noise_walk_rows_total")
LIVE_ROWS = REGISTRY.get("repro_noise_walk_live_rows_total")


def clifford_model(n, flips=False, relax=False, **overrides):
    params = dict(depol_1q=1e-3, depol_2q=1e-2, readout=0.02, t1=80e-6)
    params.update(overrides)
    nm = NoiseModel.uniform(
        n, logical_flip_probs=(2e-3, 1e-3, 3e-3) if flips else None,
        **params)
    return CliffordNoiseModel(nm, include_twirled_relaxation=relax)


def random_thetas(rng, count, num_parameters):
    thetas = rng.integers(-4, 8, size=(count, num_parameters)) * (np.pi / 2)
    thetas[:, ::5] = 0  # rotations some points drop
    return thetas


def oracle_walk(model, plan, thetas, table):
    """``(P, M)`` noisy values and noiseless all-zeros values, one point
    at a time through its bound circuit."""
    bool_table = oracle.BoolTable.of(table)
    values = [oracle.noisy_term_values(model, plan.bind(theta), bool_table)
              for theta in thetas]
    zeros = [oracle.expectation_all_zeros(
        oracle.pull_back(bool_table, plan.bind(theta))) for theta in thetas]
    shape = (len(thetas), table.num_rows)
    return (np.array(values, dtype=float).reshape(shape),
            np.array(zeros, dtype=float).reshape(shape))


def assert_same_bytes(actual, expected):
    actual = np.ascontiguousarray(actual, dtype=float)
    expected = np.ascontiguousarray(expected, dtype=float)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64),
                                  expected.view(np.uint64))


def walk_counts(fn):
    """``fn()``'s result, and the rows and live rows it walked."""
    rows, live = ROWS.total(), LIVE_ROWS.total()
    result = fn()
    return result, ROWS.total() - rows, LIVE_ROWS.total() - live


class TestEdgeBatches:
    @pytest.mark.parametrize("labels, live_share", [
        (["ZZII", "IZZI", "ZIIZ", "IIIZ"], 1.0),
        (["XIII", "XXII", "IYIZ", "ZIXI"], 0.0),
    ], ids=["all-live", "all-dead"])
    @pytest.mark.parametrize("flips, relax", [(False, False), (True, True)])
    def test_matches_oracle(self, labels, live_share, flips, relax):
        """Through the CX ring alone (every point drops every rotation),
        Z-type terms stay Z-type and the others keep an X bit."""
        model = clifford_model(4, flips, relax)
        plan = CliffordCircuitPlan(hardware_efficient_ansatz(4))
        table = PauliTable.from_labels(labels)
        thetas = np.zeros((6, plan.num_parameters))
        zeros = np.empty(6 * len(labels))
        values, rows, live = walk_counts(lambda: model.noisy_term_values_many(
            plan, thetas, table, zeros_out=zeros))
        assert (rows, live) == (24, 24 * live_share)
        expected, expected_zeros = oracle_walk(model, plan, thetas, table)
        assert_same_bytes(values, expected)
        assert_same_bytes(zeros.reshape(6, 4), expected_zeros)

    def test_empty_batch(self):
        model = clifford_model(4, flips=True, relax=True)
        plan = CliffordCircuitPlan(hardware_efficient_ansatz(4))
        table = ising_model(4, 1.0).table
        zeros = np.empty(0)
        values, rows, live = walk_counts(lambda: model.noisy_term_values_many(
            plan, np.empty((0, plan.num_parameters)), table,
            zeros_out=zeros))
        assert values.shape == (0, table.num_rows)
        assert (rows, live) == (0, 0)

    def test_input_table_is_left_untouched(self):
        """The factor pass reads the measurement attenuations off the
        input table, so the table pass must walk a copy."""
        model = clifford_model(5, flips=True, relax=True)
        plan = CliffordCircuitPlan(layered_hardware_efficient_ansatz(5, 2))
        thetas = random_thetas(np.random.default_rng(3), 7,
                               plan.num_parameters)
        table = xxz_model(5, 0.5).table.tile(len(thetas))
        before = (table.x.copy(), table.z.copy(), table.phase_exp.copy())
        values = model.noisy_zero_state_term_values_steps(
            plan.reverse_schedule(thetas), table)
        for array, copy in zip((table.x, table.z, table.phase_exp), before):
            np.testing.assert_array_equal(array, copy)
        expected, _ = oracle_walk(model, plan, thetas, xxz_model(5, 0.5).table)
        assert_same_bytes(values, expected.ravel())

    def test_measured_per_row_or_per_block(self):
        model = clifford_model(4, flips=True)
        plan = CliffordCircuitPlan(hardware_efficient_ansatz(4))
        terms = xxz_model(4, 0.5).table
        thetas = random_thetas(np.random.default_rng(4), 5,
                               plan.num_parameters)
        steps = plan.reverse_schedule(thetas)
        per_term = model.measurement_attenuations(terms)
        tiled = terms.tile(len(thetas))
        by_block = model.noisy_zero_state_term_values_steps(
            steps, tiled, measured=per_term)
        by_row = model.noisy_zero_state_term_values_steps(
            steps, tiled, measured=np.tile(per_term, len(thetas)))
        computed = model.noisy_zero_state_term_values_steps(steps, tiled)
        assert_same_bytes(by_block, computed)
        assert_same_bytes(by_row, computed)
        with pytest.raises(ValueError, match="measured"):
            model.noisy_zero_state_term_values_steps(
                steps, tiled, measured=per_term[:-1])


class TestSeveralStepsMatchOracle:
    @pytest.mark.parametrize("template", [
        lambda: layered_hardware_efficient_ansatz(5, 2),
        lambda: fold_template_global(hardware_efficient_ansatz(5), 3),
    ], ids=["layered-reps2", "zne-fold3"])
    @pytest.mark.parametrize("flips, relax", [
        (False, False), (True, False), (False, True), (True, True)])
    def test_values_and_zeros(self, template, flips, relax):
        model = clifford_model(5, flips, relax)
        plan = CliffordCircuitPlan(template())
        thetas = random_thetas(np.random.default_rng(11), 9,
                               plan.num_parameters)
        steps = plan.reverse_schedule(thetas)
        kinds = [layer is None for _, layer in steps]
        assert kinds.count(True) >= 2 and kinds.count(False) >= 3
        table = xxz_model(5, 0.5).table
        zeros = np.empty(len(thetas) * table.num_rows)
        values, rows, live = walk_counts(lambda: model.noisy_term_values_many(
            plan, thetas, table, zeros_out=zeros))
        expected, expected_zeros = oracle_walk(model, plan, thetas, table)
        assert_same_bytes(values, expected)
        assert_same_bytes(zeros, expected_zeros.ravel())
        # a mixed batch: the factor pass runs on some rows, not all
        assert rows == zeros.size
        assert live == np.count_nonzero(zeros)
        assert 0 < live < rows


class TestSignedZeroGuard:
    """A factor outside ``(0, 1]`` makes every row live: a dead row's
    value is then ``factors * 0.0``, ``-0.0`` where the factors are
    negative, exactly as the all-rows oracle has it."""

    @pytest.mark.parametrize("overrides", [
        {"depol_1q": 0.9},    # rotation, location and basis-prep factors
        {"depol_2q": 0.99},   # the CX ring's block factors
        {"readout": 0.6},     # the readout factors
    ], ids=["depol_1q", "depol_2q", "readout"])
    def test_negative_factors_keep_negative_zeros(self, overrides):
        model = clifford_model(4, **overrides)
        problem = VQEProblem.logical(ising_model(4, 1.0),
                                     model.noise_model)
        loss = NcafqaLoss(problem, clifford_model=model)
        genomes = np.random.default_rng(5).integers(
            0, 4, size=(13, problem.num_vqe_parameters))
        thetas = genomes * (np.pi / 2)
        terms = loss._mapped.table
        values, rows, live = walk_counts(lambda: model.noisy_term_values_many(
            loss._eval_plan, thetas, terms))
        assert live == rows == values.size
        expected, _ = oracle_walk(model, loss._eval_plan, thetas, terms)
        assert_same_bytes(values, expected)
        dead = values == 0
        assert np.signbit(values[dead]).any()
        noisy, noiseless = loss.components_many(genomes)
        serial = np.array([oracle.cafqa_components(loss, g)
                           for g in genomes])
        assert_same_bytes(noisy, serial[:, 0])
        assert_same_bytes(noiseless, serial[:, 1])

    def test_clapton_loss_with_negative_depolarizing(self):
        model = clifford_model(4, depol_1q=0.9, depol_2q=0.99)
        problem = VQEProblem.logical(ising_model(4, 1.0),
                                     model.noise_model)
        loss = ClaptonLoss(problem, clifford_model=model)
        genomes = np.random.default_rng(6).integers(
            0, 4, size=(11, get_method("clapton").num_parameters(problem)))
        noisy, noiseless = loss.components_many(genomes)
        serial = np.array([oracle.clapton_components(loss, g)
                           for g in genomes])
        assert_same_bytes(noisy, serial[:, 0])
        assert_same_bytes(noiseless, serial[:, 1])


class TestObservability:
    def test_one_span_per_walk_with_row_counts(self):
        model = clifford_model(4, flips=True)
        plan = CliffordCircuitPlan(hardware_efficient_ansatz(4))
        thetas = random_thetas(np.random.default_rng(8), 6,
                               plan.num_parameters)
        table = xxz_model(4, 0.5).table
        zeros = np.empty(len(thetas) * table.num_rows)
        with use_tracer(RecordingTracer()) as tracer:
            _, rows, live = walk_counts(
                lambda: model.noisy_term_values_many(plan, thetas, table,
                                                     zeros_out=zeros))
        spans = [s for s in tracer.spans if s["name"] == "noise_walk"]
        assert len(spans) == 1
        assert spans[0]["tags"] == {"rows": zeros.size,
                                    "live_rows": int(np.count_nonzero(zeros))}
        assert (rows, live) == (zeros.size, np.count_nonzero(zeros))
        assert bucket_of("noise_walk") == "loss_eval"
        text = render_prometheus(REGISTRY)
        assert "repro_noise_walk_rows_total" in text
        assert "repro_noise_walk_live_rows_total" in text

    def test_tracing_leaves_values_unchanged(self):
        assert not get_tracer().enabled
        model = clifford_model(4)
        plan = CliffordCircuitPlan(hardware_efficient_ansatz(4))
        thetas = random_thetas(np.random.default_rng(9), 3,
                               plan.num_parameters)
        table = ising_model(4, 1.0).table
        untraced = model.noisy_term_values_many(plan, thetas, table)
        with use_tracer(RecordingTracer()):
            traced = model.noisy_term_values_many(plan, thetas, table)
        assert_same_bytes(untraced, traced)
