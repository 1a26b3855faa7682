"""Tests for the open method & benchmark registries.

The acceptance-critical behaviors live here: a method registered from
user code (no core edits) runs through ``Experiment.run`` and a campaign,
round-trips through ``MethodRun`` serialization, and the built-in trio's
numbers are bit-identical to pre-refactor goldens.
"""

import numpy as np
import pytest

from repro.campaigns import (
    CampaignAggregate,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    render_report,
)
from repro.core import CafqaLoss, VQEProblem
from repro.experiments import Experiment, ExperimentResult
from repro.hamiltonians import (
    expand_benchmarks,
    get_benchmark,
    ising_model,
    register_benchmark,
    register_suite,
    unregister_benchmark,
)
from repro.hamiltonians.registry import _SUITES, parse_benchmark_spec
from repro.methods import (
    DEFAULT_METHODS,
    DecodedPoint,
    InitializationMethod,
    get_method,
    method_names,
    register_method,
    resolve_methods,
    unregister_method,
)
from repro.noise import NoiseModel
from repro.optim import EngineConfig

TINY = EngineConfig(num_instances=1, generations_per_round=6, top_k=3,
                    population_size=10, retry_rounds=0, seed=0)
TINY_OVERRIDES = {"num_instances": 1, "generations_per_round": 6,
                  "top_k": 3, "population_size": 10, "retry_rounds": 0}


def tiny_problem(n=3):
    h = ising_model(n, 1.0)
    nm = NoiseModel.uniform(n, depol_1q=1e-3, depol_2q=1e-2,
                            readout=0.02, t1=80e-6)
    return h, VQEProblem.logical(h, noise_model=nm)


class EveryOtherQubit(InitializationMethod):
    """A user-defined method: X on every other qubit (no core edits)."""

    name = "every_other"
    description = "deterministic test method: pi flips on even qubits"

    def num_parameters(self, problem):
        return problem.num_vqe_parameters

    def make_loss(self, problem):
        return CafqaLoss(problem, noise_aware=False)

    def decode(self, problem, genome):
        from repro.circuits import cafqa_angles

        return DecodedPoint(vqe_hamiltonian=problem.hamiltonian,
                            initial_theta=cafqa_angles(genome))


@pytest.fixture()
def custom_method():
    register_method(EveryOtherQubit)
    yield "every_other"
    unregister_method("every_other")


class TestRegistry:
    def test_builtins_registered_in_order(self):
        names = method_names()
        assert names[:3] == DEFAULT_METHODS == ("cafqa", "ncafqa",
                                                "clapton")
        assert "vanilla" in names and "random_clifford" in names

    def test_get_method_did_you_mean(self):
        with pytest.raises(KeyError, match="did you mean 'clapton'"):
            get_method("claptn")

    def test_resolve_methods_defaults_and_errors(self):
        assert [m.name for m in resolve_methods()] == list(DEFAULT_METHODS)
        assert [m.name for m in resolve_methods("cafqa")] == ["cafqa"]
        with pytest.raises(ValueError, match="unknown methods"):
            resolve_methods(("cafqa", "bogus"))
        with pytest.raises(TypeError):
            resolve_methods([42])

    def test_duplicate_registration_rejected(self, custom_method):
        with pytest.raises(ValueError, match="already registered"):
            register_method(EveryOtherQubit)
        register_method(EveryOtherQubit(), replace=True)  # explicit wins


class TestGoldens:
    """Seeded trio numbers must not move.  Re-recorded once, on purpose,
    when GA breeding moved to whole-generation RNG draws."""

    GOLDEN = {
        # method: (loss, noiseless, clifford_model, device_model, vqe_final)
        "cafqa": (-2.0, -2.0, -1.8605342393829958, -1.855212930338041,
                  -2.028155878228601),
        "ncafqa": (-3.8605342393829956, -2.0, -1.8605342393829958,
                   -1.855212930338041, -2.028155878228601),
        "clapton": (-3.869235741582222, -2.0, -1.869235741582222,
                    -1.8695759145572604, -1.8523844998349626),
    }

    def test_builtin_trio_bit_identical(self):
        h, problem = tiny_problem()
        result = Experiment(h, problem=problem, name="golden").run(
            config=TINY, vqe_iterations=3, seed=0)
        assert result.e0 == -3.4939592074349344
        for method, (loss, noiseless, clifford, device,
                     vqe_final) in self.GOLDEN.items():
            run = result.runs[method]
            assert run.loss == loss
            assert run.evaluation.noiseless == noiseless
            assert run.evaluation.clifford_model == clifford
            assert run.evaluation.device_model == device
            assert run.vqe.final_energy == vqe_final


class TestCustomMethodEndToEnd:
    def test_runs_through_experiment_and_serializes(self, custom_method):
        h, problem = tiny_problem()
        result = Experiment(h, problem=problem, name="custom").run(
            methods=("every_other", "clapton"), config=TINY,
            vqe_iterations=2, seed=0)
        assert set(result.runs) == {"every_other", "clapton"}
        run = result.runs["every_other"]
        assert np.isfinite(run.evaluation.device_model)
        assert np.isfinite(result.eta_initial("every_other"))
        # MethodRun round trip through plain JSON
        import json

        payload = json.loads(json.dumps(result.to_dict()))
        restored = ExperimentResult.from_dict(payload)
        assert restored.runs["every_other"].loss == run.loss
        assert restored.runs["every_other"].evaluation == run.evaluation
        np.testing.assert_array_equal(
            restored.runs["every_other"].genome, run.genome)
        assert (restored.runs["every_other"].vqe.final_energy
                == run.vqe.final_energy)

    def test_runs_through_campaign(self, custom_method, tmp_path):
        spec = CampaignSpec(
            name="custom-campaign", benchmarks=["ising_J1.00"],
            qubit_sizes=[3], noise_scales=[1.0],
            methods=["every_other", "clapton"], seeds=[0],
            engine_preset="smoke", engine_overrides=TINY_OVERRIDES)
        assert spec.num_tasks == 2
        store = ResultStore.create(tmp_path / "store.campaign", spec)
        progress = CampaignRunner(spec, store).run()
        assert progress.completed == 2 and store.counts()["failed"] == 0
        aggregate = CampaignAggregate.from_store(store)
        assert {r["method"] for r in aggregate.rows} \
            == {"every_other", "clapton"}
        etas = aggregate.eta_rows(baseline="every_other")
        assert len(etas) == 1 and np.isfinite(etas[0]["eta"])
        report = render_report(store)
        assert "every_other" in report
        assert "eta(clapton vs every_other)" in report

    def test_store_readable_without_registration(self, custom_method,
                                                 tmp_path, capsys):
        """status/report must work in a process that never registered the
        campaign's custom method."""
        from repro.cli import main

        spec = CampaignSpec(
            name="orphan", benchmarks=["ising_J1.00"], qubit_sizes=[3],
            noise_scales=[1.0], methods=["every_other"], seeds=[0],
            engine_preset="smoke", engine_overrides=TINY_OVERRIDES)
        store_path = tmp_path / "orphan.campaign"
        store = ResultStore.create(store_path, spec)
        CampaignRunner(spec, store).run()
        unregister_method("every_other")  # simulate a fresh process
        reopened = ResultStore.open(store_path)
        assert reopened.counts()["done"] == 1
        assert "every_other" in render_report(reopened)
        assert main(["status", str(store_path)]) == 0
        assert main(["report", str(store_path)]) == 0
        assert "every_other" in capsys.readouterr().out
        # but declaring a *new* spec with the unregistered name still fails
        with pytest.raises(ValueError, match="unknown methods"):
            CampaignSpec(name="x", benchmarks=["ising_J1.00"],
                         methods=["every_other"])

    def test_report_rejects_typoed_improver(self, custom_method, tmp_path,
                                            capsys):
        from repro.cli import main

        spec = CampaignSpec(
            name="imp", benchmarks=["ising_J1.00"], qubit_sizes=[3],
            noise_scales=[1.0], methods=["every_other", "cafqa"],
            seeds=[0], engine_preset="smoke",
            engine_overrides=TINY_OVERRIDES)
        store_path = tmp_path / "imp.campaign"
        CampaignRunner(spec, ResultStore.create(store_path, spec)).run()
        assert main(["report", str(store_path),
                     "--improver", "every_othr"]) == 2
        assert "not a method of this campaign" in capsys.readouterr().err
        assert main(["report", str(store_path),
                     "--improver", "every_other"]) == 0
        assert "eta(every_other vs cafqa)" in capsys.readouterr().out
        # default improver absent from a grid: report still renders
        assert main(["report", str(store_path)]) == 0

    def test_runs_through_cli_run_and_sweep(self, custom_method, tmp_path,
                                            capsys, monkeypatch):
        """The acceptance flow: user registration, then the CLI verbs."""
        import json

        from repro.cli import main

        monkeypatch.setenv("CLAPTON_BENCH_PRESET", "smoke")
        assert main(["run", "ising_J1.00", "--backend", "nairobi",
                     "--qubits", "3", "--methods",
                     "every_other,clapton"]) == 0
        out = capsys.readouterr().out
        assert "-- every_other --" in out

        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps({
            "name": "custom-cli", "benchmarks": ["ising_J1.00"],
            "qubit_sizes": [3], "noise_scales": [1.0],
            "methods": ["every_other", "clapton"], "seeds": [0],
            "engine_preset": "smoke",
            "engine_overrides": TINY_OVERRIDES}))
        assert main(["sweep", str(spec_path)]) == 0
        assert main(["report",
                     str(spec_path.with_suffix(".campaign"))]) == 0
        out = capsys.readouterr().out
        assert "eta(clapton vs every_other)" in out

    def test_unregistered_name_fails_with_suggestions(self):
        h, problem = tiny_problem()
        with pytest.raises(ValueError, match="registered methods"):
            Experiment(h, problem=problem).run(methods=("every_other",),
                                               config=TINY)
        with pytest.raises(ValueError, match="unknown methods"):
            CampaignSpec(name="x", benchmarks=["ising_J1.00"],
                         methods=["every_other"])


class TestEtaImprover:
    def test_eta_with_custom_improver_and_keyerror(self):
        h, problem = tiny_problem()
        result = Experiment(h, problem=problem).run(
            methods=("cafqa", "ncafqa"), config=TINY)
        eta = result.eta_initial("cafqa", improver="ncafqa")
        assert np.isfinite(eta)
        with pytest.raises(KeyError,
                           match=r"no 'clapton' run.*available runs"):
            result.eta_initial("cafqa")  # default improver missing
        with pytest.raises(KeyError, match="available runs"):
            result.eta_final("bogus", improver="cafqa")

    def test_eta_without_evaluations_or_traces(self):
        h, problem = tiny_problem()
        result = Experiment(h, problem=problem).run(
            methods=("cafqa", "clapton"), config=TINY,
            evaluate_tiers=False)
        with pytest.raises(ValueError, match="evaluate_tiers"):
            result.eta_initial("cafqa")
        with pytest.raises(ValueError, match="vqe_iterations"):
            result.eta_final("cafqa")


class TestExtraMethods:
    def test_vanilla_is_theta_zero(self):
        h, problem = tiny_problem()
        result = Experiment(h, problem=problem).run(methods=("vanilla",),
                                                    config=TINY)
        run = result.runs["vanilla"]
        np.testing.assert_array_equal(run.genome,
                                      np.zeros_like(run.genome))
        # theta = 0 prepares |0...0>: the noiseless tier is exactly <0|H|0>
        assert run.evaluation.noiseless \
            == pytest.approx(h.expectation_all_zeros())
        assert run.engine_evaluations == 1

    def test_random_clifford_best_of_k(self):
        h, problem = tiny_problem()
        result = Experiment(h, problem=problem).run(
            methods=("random_clifford", "vanilla"), config=TINY)
        rc = result.runs["random_clifford"]
        # K = num_instances * population_size under the tiny config
        assert rc.engine_evaluations == 10
        # best-of-K screening can never lose to a single arbitrary draw's
        # loss bound; both decode through the same noiseless loss
        assert rc.loss <= result.runs["vanilla"].loss + 1e-12
        # deterministic for a fixed seed
        again = Experiment(h, problem=problem).run(
            methods=("random_clifford",), config=TINY)
        np.testing.assert_array_equal(
            again.runs["random_clifford"].genome, rc.genome)

    def test_random_clifford_parallel_matches_serial(self):
        from repro.execution import ThreadExecutor

        h, problem = tiny_problem()
        serial = Experiment(h, problem=problem).run(
            methods=("random_clifford",), config=TINY)
        with ThreadExecutor(3) as executor:
            parallel = Experiment(h, problem=problem).run(
                methods=("random_clifford",), config=TINY,
                executor=executor)
        np.testing.assert_array_equal(
            parallel.runs["random_clifford"].genome,
            serial.runs["random_clifford"].genome)
        assert parallel.runs["random_clifford"].loss \
            == serial.runs["random_clifford"].loss

    @pytest.mark.parametrize("device", (False, True))
    def test_random_clifford_batch_matches_per_genome_loop(self, device):
        """The K samples are scored by one batched ``evaluate_many``; the
        chosen genome and loss are exactly those of scoring the same
        draws one genome at a time (first minimum on ties)."""
        from repro.backends import FakeNairobi
        from repro.methods.extras import RandomCliffordMethod

        h = ising_model(6, 1.0)
        problem = (VQEProblem.from_backend(h, FakeNairobi()) if device
                   else VQEProblem.logical(h, NoiseModel.uniform(6)))
        config = EngineConfig(num_instances=3, population_size=100,
                              seed=11)
        method = RandomCliffordMethod()
        result = method.search(problem, config=config)
        genomes = np.random.default_rng(11).integers(
            0, method.num_values,
            size=(300, method.num_parameters(problem)))
        loss = CafqaLoss(problem, noise_aware=False)
        losses = np.array([float(loss(g)) for g in genomes])
        best = int(np.argmin(losses))
        np.testing.assert_array_equal(result.best_genome, genomes[best])
        assert result.best_loss == losses[best]
        assert result.num_evaluations == 300


class TestBenchmarkRegistry:
    def test_parameterized_spec_resolves(self):
        bench = get_benchmark("ising:n=4,J=0.5")
        assert bench.num_qubits == 4 and bench.kind == "physics"
        h = bench.hamiltonian()
        expected = ising_model(4, 0.5)
        assert {p.to_label(): c for c, p in h.terms()} \
            == {p.to_label(): c for c, p in expected.terms()}

    def test_bare_family_name_uses_defaults(self):
        assert get_benchmark("ising").num_qubits == 10
        assert get_benchmark("molecule").num_qubits == 10

    def test_num_qubits_flows_into_families(self):
        # bare family and n-less specs take the requested width ...
        assert get_benchmark("ising", 6).hamiltonian().num_qubits == 6
        assert get_benchmark("ising:J=0.5", 4).num_qubits == 4
        # ... but an explicit n always wins
        assert get_benchmark("ising:n=3,J=0.5", 8).num_qubits == 3

    def test_spec_parsing_and_errors(self):
        assert parse_benchmark_spec("ising:n=4,J=0.5") \
            == ("ising", {"n": 4, "J": 0.5})
        assert parse_benchmark_spec("molecule:name=LiH,l=1.5") \
            == ("molecule", {"name": "LiH", "l": 1.5})
        with pytest.raises(ValueError, match="key=value"):
            get_benchmark("ising:n4")
        with pytest.raises(ValueError, match="accepted"):
            get_benchmark("ising:qubits=4")  # unknown parameter
        with pytest.raises(KeyError, match="did you mean 'ising'"):
            get_benchmark("isng:n=4")
        with pytest.raises(KeyError, match="unknown benchmark"):
            get_benchmark("bogus_bench")

    def test_register_custom_family(self):
        @register_benchmark(name="testheis", kind="physics",
                            description="test family")
        def build(n: int = 4, J: float = 1.0):
            from repro.hamiltonians import xxz_model

            return xxz_model(n, J)

        try:
            bench = get_benchmark("testheis:n=3,J=0.25")
            assert bench.hamiltonian().num_qubits == 3
            # flows into a campaign grid
            spec = CampaignSpec(name="fam", benchmarks=["testheis:n=3"],
                                qubit_sizes=[3], methods=["cafqa"],
                                engine_preset="smoke",
                                engine_overrides=TINY_OVERRIDES)
            task = spec.tasks()[0]
            assert task.build_experiment().hamiltonian.num_qubits == 3
        finally:
            unregister_benchmark("testheis")

    def test_suites_expand_in_campaigns(self):
        assert expand_benchmarks(["suite:physics"]) \
            == list(_SUITES["physics"])
        spec = CampaignSpec(name="suite", benchmarks=["suite:physics"],
                            qubit_sizes=[3], methods=["cafqa"],
                            engine_preset="smoke",
                            engine_overrides=TINY_OVERRIDES)
        assert spec.num_tasks == 6
        assert {t.benchmark for t in spec.tasks()} \
            == set(_SUITES["physics"])
        with pytest.raises(ValueError, match="unknown suite"):
            CampaignSpec(name="x", benchmarks=["suite:bogus"],
                         methods=["cafqa"])

    def test_store_readable_without_suite_registration(self, tmp_path,
                                                       capsys):
        """status/report must work when the producer used a custom suite
        this process never registered."""
        from repro.cli import main

        register_suite("localsuite", ("ising_J1.00",))
        try:
            spec = CampaignSpec(
                name="suite-orphan", benchmarks=["suite:localsuite"],
                qubit_sizes=[3], noise_scales=[1.0], methods=["cafqa"],
                seeds=[0], engine_preset="smoke",
                engine_overrides=TINY_OVERRIDES)
            store_path = tmp_path / "so.campaign"
            store = ResultStore.create(store_path, spec)
            CampaignRunner(spec, store).run()
        finally:
            _SUITES.pop("localsuite", None)  # simulate a fresh process
        reopened = ResultStore.open(store_path)
        assert reopened.counts()["done"] == 1
        assert "ising_J1.00" in render_report(reopened)
        assert main(["status", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "not registered in this process" in out  # lower-bound note
        assert main(["report", str(store_path)]) == 0
        assert "cafqa" in capsys.readouterr().out

    def test_register_suite_and_duplicate_expansion_rejected(self):
        register_suite("testsuite", ("ising_J1.00", "xxz_J1.00"))
        try:
            assert expand_benchmarks(["suite:testsuite"]) \
                == ["ising_J1.00", "xxz_J1.00"]
            with pytest.raises(ValueError, match="duplicate"):
                CampaignSpec(name="dup",
                             benchmarks=["suite:testsuite", "ising_J1.00"],
                             methods=["cafqa"])
        finally:
            _SUITES.pop("testsuite", None)
