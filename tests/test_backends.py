"""Tests for backends, calibration generation, and hardware twins."""

import networkx as nx
import numpy as np
import pytest

from repro.backends import (
    ALL_BACKENDS,
    EDGES_27Q_FALCON,
    EDGES_7Q_FALCON,
    FakeHanoi,
    FakeLine,
    FakeNairobi,
    FakeToronto,
    PROFILES,
    CouplingGraph,
    coupling_graph,
    generate_calibration,
    perturb_calibration,
)


def as_networkx(graph):
    """The same graph as a networkx ``Graph`` (the tests' oracle)."""
    copy = nx.Graph()
    copy.add_nodes_from(graph.nodes)
    copy.add_edges_from(graph.edges)
    return copy


class TestTopologies:
    def test_sizes(self):
        assert coupling_graph(EDGES_7Q_FALCON, 7).number_of_nodes() == 7
        g27 = coupling_graph(EDGES_27Q_FALCON, 27)
        assert g27.number_of_nodes() == 27
        assert g27.number_of_edges() == 28

    def test_connected(self):
        for graph in (coupling_graph(EDGES_7Q_FALCON, 7),
                      coupling_graph(EDGES_27Q_FALCON, 27)):
            assert nx.is_connected(as_networkx(graph))
            assert graph.is_connected()

    def test_adjacency_must_be_symmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            CouplingGraph({0: [1], 1: []})

    def test_heavy_hex_degree_bound(self):
        g27 = coupling_graph(EDGES_27Q_FALCON, 27)
        assert max(dict(g27.degree).values()) <= 3

    def test_27q_has_length_10_path(self):
        """The paper runs 10-qubit benchmarks on the 27-qubit machines."""
        from repro.transpiler import find_line_layout

        backend = FakeToronto()
        path = find_line_layout(backend, 10)
        assert len(path) == 10
        for a, b in zip(path, path[1:]):
            assert backend.graph.has_edge(a, b)


class TestCalibration:
    def test_deterministic(self):
        a = generate_calibration(EDGES_7Q_FALCON, 7, PROFILES["nairobi"], 1)
        b = generate_calibration(EDGES_7Q_FALCON, 7, PROFILES["nairobi"], 1)
        np.testing.assert_array_equal(a.t1, b.t1)
        assert a.error_2q == b.error_2q

    def test_physical_ranges(self):
        cal = generate_calibration(EDGES_27Q_FALCON, 27, PROFILES["toronto"], 3)
        assert (cal.t1 > 0).all() and (cal.t2 <= 2 * cal.t1 + 1e-12).all()
        assert (cal.error_1q >= 0).all() and (cal.error_1q <= 0.05).all()
        assert all(0 < v <= 0.15 for v in cal.error_2q.values())
        assert (cal.readout_p01 > 0).all() and (cal.readout_p10 > 0).all()

    def test_readout_asymmetry_direction(self):
        cal = generate_calibration(EDGES_7Q_FALCON, 7, PROFILES["hanoi"], 5)
        # decay during readout: 1->0 errors dominate
        assert (cal.readout_p10 > cal.readout_p01).all()

    def test_perturbation_changes_rates_but_not_shape(self):
        cal = generate_calibration(EDGES_7Q_FALCON, 7, PROFILES["hanoi"], 5)
        twin = perturb_calibration(cal, seed=9)
        assert twin.num_qubits == cal.num_qubits
        assert set(twin.error_2q) == set(cal.error_2q)
        assert not np.allclose(twin.t1, cal.t1)
        assert (twin.t2 <= 2 * twin.t1 + 1e-12).all()


class TestBackends:
    @pytest.mark.parametrize("name", list(ALL_BACKENDS))
    def test_construction(self, name):
        backend = ALL_BACKENDS[name]()
        assert backend.name == name
        assert not backend.is_hardware
        expected = 7 if name == "nairobi" else 27
        assert backend.num_qubits == expected

    def test_noise_model_full_register(self):
        backend = FakeNairobi()
        nm = backend.noise_model()
        assert nm.num_qubits == 7
        for a, b in backend.edges:
            assert nm.two_qubit_depol(a, b) == backend.calibration.error_2q[(a, b)]

    @pytest.mark.parametrize("backend", [f() for f in ALL_BACKENDS.values()]
                             + [FakeLine(12), FakeLine(2)],
                             ids=lambda b: b.name)
    def test_default_2q_error_is_numpy_median(self, backend):
        """Even (28 and 6) and odd (11 and 1) edge counts, bit for bit."""
        want = float(np.median(list(backend.calibration.error_2q.values())))
        got = backend.noise_model().depol_2q_default
        assert float.hex(got) == float.hex(want)

    def test_noise_model_compact_register(self):
        backend = FakeToronto()
        subset = [3, 5, 8]
        nm = backend.noise_model(subset)
        assert nm.num_qubits == 3
        np.testing.assert_allclose(nm.depol_1q,
                                   backend.calibration.error_1q[subset])
        # edge (3,5) exists on toronto -> mapped to compact (0,1)
        assert nm.two_qubit_depol(0, 1) == backend.calibration.error_2q[(3, 5)]

    def test_hardware_twin(self):
        backend = FakeHanoi()
        twin = backend.hardware_twin(seed=1)
        assert twin.is_hardware
        assert twin.graph is backend.graph
        assert not np.allclose(twin.calibration.t1, backend.calibration.t1)
        nm = twin.twin_noise_model([0, 1, 2])
        assert nm.coherent_zz_angle_2q != 0.0
        # the calibrated model of the twin has no coherent term
        assert twin.noise_model([0, 1, 2]).coherent_zz_angle_2q == 0.0

    def test_fake_line(self):
        backend = FakeLine(12)
        assert backend.num_qubits == 12
        assert nx.is_connected(as_networkx(backend.graph))
        assert backend.graph.is_connected()
        assert backend.graph.has_edge(4, 5)
        assert not backend.graph.has_edge(0, 5)

    def test_device_quality_ordering(self):
        """hanoi (newest) should be cleaner than toronto (oldest 27q)."""
        toronto = FakeToronto().calibration
        hanoi = FakeHanoi().calibration
        assert (np.median(list(hanoi.error_2q.values()))
                < np.median(list(toronto.error_2q.values())))
        assert np.median(hanoi.readout_p01) < np.median(toronto.readout_p01)

    def test_twin_model_schedules_idle_relaxation(self):
        backend = FakeHanoi()
        twin = backend.hardware_twin(seed=2)
        assert twin.twin_noise_model([0, 1]).include_idle_relaxation
        assert not backend.noise_model([0, 1]).include_idle_relaxation
