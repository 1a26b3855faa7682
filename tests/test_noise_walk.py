"""The noisy walk's two passes: a table pass over every row, then a
factor pass over the rows that end Z-type (the *live* rows).

Every value is compared with the serial boolean oracle
(``pauli_oracle.noisy_term_values``: every row, gate by gate) by its
bytes, so a ``-0.0`` where the oracle has ``+0.0`` fails too
(``assert_array_equal`` alone treats them as equal).
"""

import warnings

import numpy as np
import pauli_oracle as oracle
import pytest

from repro.circuits import Circuit, Parameter
from repro.circuits.ansatz import (
    hardware_efficient_ansatz,
    layered_hardware_efficient_ansatz,
)
from repro.circuits.gates import get_gate
from repro.core import ClaptonLoss, NcafqaLoss, VQEProblem
from repro.hamiltonians import ising_model, xxz_model
from repro.methods import get_method
from repro.mitigation.folding import fold_template_global
from repro.noise import CliffordNoiseModel, NoiseModel
from repro.noise.clifford_model import (
    CliffordCircuitPlan,
    NonCliffordError,
)
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


class TestIntegerLevels:
    """nCAFQA's integer genomes go straight into the plan as rotation
    levels (``reverse_leveled_schedule``); ``reverse_schedule`` converts
    angles to the same levels and keep flags once, in front of it."""

    def layers(self, schedule):
        return [layer for _, layer in schedule if layer is not None]

    def assert_same_schedule(self, actual, expected):
        assert [item for item, _ in actual] == [item for item, _ in expected]
        for got, want in zip(self.layers(actual), self.layers(expected),
                             strict=True):
            for field in ("kept", "gates", "cliffords"):
                np.testing.assert_array_equal(getattr(got, field),
                                              getattr(want, field))

    @pytest.mark.parametrize("n, num_points", [(12, 6), (65, 2)],
                             ids=["n12", "n65"])
    @pytest.mark.parametrize("flips, relax", [(False, False), (True, True)])
    def test_levels_match_angles_and_oracle(self, n, num_points, flips,
                                            relax):
        model = clifford_model(n, flips, relax)
        plan = CliffordCircuitPlan(hardware_efficient_ansatz(n))
        genomes = np.random.default_rng(n).integers(
            0, 4, size=(num_points, plan.num_parameters))
        genomes[:, ::5] = 0  # rotations every point drops
        thetas = genomes * (np.pi / 2)
        table = ising_model(n, 1.0).table
        leveled = plan.reverse_leveled_schedule(genomes, genomes != 0)
        self.assert_same_schedule(leveled, plan.reverse_schedule(thetas))
        zeros = np.empty(num_points * table.num_rows)
        values = model.noisy_term_values_scheduled(leveled, num_points,
                                                   table, zeros_out=zeros)
        angle_zeros = np.empty_like(zeros)
        angle_values = model.noisy_term_values_many(
            plan, thetas, table, zeros_out=angle_zeros)
        assert_same_bytes(values, angle_values)
        assert_same_bytes(zeros, angle_zeros)
        expected, expected_zeros = oracle_walk(model, plan, thetas, table)
        assert_same_bytes(values, expected)
        assert_same_bytes(zeros, expected_zeros.ravel())

    def test_ncafqa_measures_its_terms_once_per_loss(self, monkeypatch):
        """nCAFQA walks the same mapped terms under the same model every
        batch: their measurement attenuations are computed when the loss
        is built, and the walk reads the same bytes as one that computes
        them itself."""
        from repro.paulis.pauli_sum import _coefficient_dots

        n, num_points = 6, 7
        noise = clifford_model(n, flips=True).noise_model
        loss = NcafqaLoss(VQEProblem.logical(ising_model(n, 1.0),
                                             noise_model=noise))
        model = loss.clifford_model
        calls = []

        def counted(table):
            calls.append(table.num_rows)
            return CliffordNoiseModel.measurement_attenuations(model, table)

        monkeypatch.setattr(model, "measurement_attenuations", counted)
        rng = np.random.default_rng(8)
        batches = rng.integers(0, 4, size=(2, num_points, 4 * n))
        noisy = [loss.components_many(genomes)[0] for genomes in batches]
        assert calls == []
        mapped = loss.problem.mapped_hamiltonian()
        plan = CliffordCircuitPlan(loss.problem.eval_ansatz)
        for genomes, got in zip(batches, noisy):
            values = model.noisy_term_values_scheduled(
                plan.reverse_leveled_schedule(genomes, genomes != 0),
                num_points, mapped.table)
            assert_same_bytes(got, _coefficient_dots(
                values, mapped.coefficients, num_points))
        assert calls == [mapped.num_terms] * 2

    def test_angle_just_off_zero_keeps_level_zero_and_its_noise(self):
        model = clifford_model(4, flips=True, relax=True)
        plan = CliffordCircuitPlan(hardware_efficient_ansatz(4))
        thetas = np.zeros((2, plan.num_parameters))
        thetas[1, 3] = 5e-10  # not an identity to bind, yet level 0
        levels = np.zeros(thetas.shape, dtype=np.int64)
        kept = np.zeros(thetas.shape, dtype=bool)
        kept[1, 3] = True
        schedule = plan.reverse_schedule(thetas)
        self.assert_same_schedule(
            schedule, plan.reverse_leveled_schedule(levels, kept))
        assert len(self.layers(schedule)) == 1
        assert plan.keep_masks(thetas)[1].sum() == 1
        table = ising_model(4, 1.0).table
        values = model.noisy_term_values_many(plan, thetas, table)
        dropped = model.noisy_term_values_many(plan, thetas[:1], table)
        assert_same_bytes(values[0], dropped[0])
        # the kept identity rotation's noise attenuates point 1's terms
        live = values[0] != 0
        assert live.any()
        assert np.all(np.abs(values[1, live]) < np.abs(values[0, live]))

    def test_angles_fold_to_levels(self):
        plan = CliffordCircuitPlan(hardware_efficient_ansatz(4))
        thetas = np.zeros((1, plan.num_parameters))
        thetas[0, :3] = [-np.pi / 2, 4 * np.pi, 2 * np.pi + np.pi / 2]
        levels = np.zeros(thetas.shape, dtype=np.int64)
        levels[0, :3] = [3, 0, 1]
        self.assert_same_schedule(
            plan.reverse_schedule(thetas),
            plan.reverse_leveled_schedule(levels, levels != 0))

    def test_non_clifford_angle_raises(self):
        model = clifford_model(4)
        plan = CliffordCircuitPlan(hardware_efficient_ansatz(4))
        thetas = np.zeros((2, plan.num_parameters))
        thetas[1, 5] = 0.3
        with pytest.raises(ValueError, match="not a multiple of pi/2"):
            plan.reverse_schedule(thetas)
        with pytest.raises(ValueError, match="not a multiple of pi/2"):
            model.noisy_term_values_many(plan, thetas,
                                         ising_model(4, 1.0).table)

    @pytest.mark.parametrize("angle", [np.inf, -np.inf, np.nan])
    def test_non_finite_angle_raises_without_a_warning(self, angle):
        plan = CliffordCircuitPlan(hardware_efficient_ansatz(4))
        thetas = np.zeros((2, plan.num_parameters))
        thetas[1, 5] = angle
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonCliffordError,
                               match="not a multiple of pi/2"):
                plan.reverse_schedule(thetas)

    @pytest.mark.parametrize("angle", [1e20, -1e20])
    def test_huge_finite_angle_gets_a_defined_level(self, angle):
        """Every float this large is a multiple of pi/2 to the checks'
        1e-9, so it is Clifford; its level is its turns mod 4, with no
        overflowing cast."""
        assert get_gate("ry").is_clifford((angle,))
        plan = CliffordCircuitPlan(hardware_efficient_ansatz(4))
        thetas = np.zeros((2, plan.num_parameters))
        thetas[1, 5] = angle
        levels = np.zeros(thetas.shape, dtype=np.int64)
        levels[1, 5] = int(np.rint(angle / (np.pi / 2))) % 4
        kept = thetas != 0  # the angle folds to about 1.9 rad, so it is kept
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            schedule = plan.reverse_schedule(thetas)
        self.assert_same_schedule(
            schedule, plan.reverse_leveled_schedule(levels, kept))

    def test_keep_masks_fold_like_python_floats(self):
        """One vectorized fold gives, per point, the rotations a fold of
        each angle in Python floats keeps, and :meth:`bind` keeps them
        (edge angles, non-finite ones included)."""
        plan = CliffordCircuitPlan(hardware_efficient_ansatz(3))
        edge = [0.0, -0.0, 1e-13, -1e-13, 5e-10, 2 * np.pi - 1e-13,
                2 * np.pi, -2 * np.pi, np.pi, 0.3, -7.5, 1e17, np.inf,
                -np.inf, np.nan]
        rng = np.random.default_rng(6)
        thetas = rng.choice(edge, size=(40, plan.num_parameters))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            masks = plan.keep_masks(thetas)
        rotations = [index for _, index in plan.steps if index is not None]
        assert masks.shape == (40, len(rotations))

        def kept(angle):
            folded = angle % (2 * np.pi)
            return min(folded, 2 * np.pi - folded) >= plan.tol

        for theta, mask in zip(thetas, masks):
            expected = [kept(float(theta[index])) for index in rotations]
            assert list(mask) == expected
            assert len(plan.bind(theta)) == (
                len(plan.steps) - len(rotations) + sum(expected))
        with pytest.raises(ValueError, match="parameter values"):
            plan.keep_masks(thetas[:, :-1])

    def test_a_parameter_no_rotation_reads_is_not_checked(self):
        template = Circuit(2)
        template.ry(Parameter(0), 0)
        template.cx(0, 1)
        template.rz(Parameter(2), 1)
        plan = CliffordCircuitPlan(template)
        thetas = np.array([[np.pi / 2, 0.3, np.pi]])
        levels = np.array([[1, 0, 2]])
        self.assert_same_schedule(
            plan.reverse_schedule(thetas),
            plan.reverse_leveled_schedule(levels, levels != 0))

    def test_leveled_schedule_checks_shapes(self):
        plan = CliffordCircuitPlan(hardware_efficient_ansatz(4))
        levels = np.zeros((3, plan.num_parameters), dtype=np.int64)
        with pytest.raises(ValueError, match="levels"):
            plan.reverse_leveled_schedule(levels[:, 1:], levels[:, 1:] != 0)
        with pytest.raises(ValueError, match="levels"):
            plan.reverse_leveled_schedule(levels, levels[:2] != 0)
