"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list", "--qubits", "6"]) == 0
        out = capsys.readouterr().out
        assert "ising_J0.25" in out and "H2O_l1.0" in out

    def test_ground_energy(self, capsys):
        assert main(["ground-energy", "xxz_J1.00", "--qubits", "4"]) == 0
        out = capsys.readouterr().out
        assert "E0 =" in out

    def test_run_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("CLAPTON_BENCH_PRESET", "smoke")
        assert main(["run", "ising_J1.00", "--backend", "nairobi",
                     "--method", "clapton", "--qubits", "3"]) == 0
        out = capsys.readouterr().out
        assert "device model" in out

    def test_run_rejects_unknown(self, capsys):
        assert main(["run", "ising_J1.00", "--method", "bogus"]) == 2
        assert main(["run", "ising_J1.00", "--backend", "bogus"]) == 2

    def test_methods_verb_lists_registry(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in ("cafqa", "ncafqa", "clapton", "random_clifford",
                     "vanilla"):
            assert name in out

    def test_benchmarks_verb_with_kind_filter(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "ising_J0.25" in out and "H2O_l1.0" in out
        assert "family:key=value" in out and "suite:paper" in out
        assert main(["benchmarks", "--kind", "chemistry"]) == 0
        out = capsys.readouterr().out
        assert "H2O_l1.0" in out and "ising_J0.25" not in out

    def test_run_did_you_mean_on_typoed_method(self, capsys):
        assert main(["run", "ising_J1.00", "--methods", "claptn"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'clapton'?" in err
        assert "repro methods" in err

    def test_run_multiple_methods_on_parameterized_benchmark(
            self, capsys, monkeypatch):
        monkeypatch.setenv("CLAPTON_BENCH_PRESET", "smoke")
        assert main(["run", "ising:n=3,J=0.5", "--backend", "nairobi",
                     "--methods", "vanilla,random_clifford"]) == 0
        out = capsys.readouterr().out
        assert "-- vanilla --" in out and "-- random_clifford --" in out
        assert out.count("device model") == 2

    def test_run_dedupes_repeated_methods(self, capsys, monkeypatch):
        monkeypatch.setenv("CLAPTON_BENCH_PRESET", "smoke")
        assert main(["run", "ising:n=3,J=0.5", "--backend", "nairobi",
                     "--methods", "vanilla,vanilla"]) == 0
        out = capsys.readouterr().out
        assert out.count("device model") == 1  # one run, one block

    def test_run_rejects_bad_benchmark_parameter_value(self, capsys):
        assert main(["run", "ising:n=abc"]) == 2
        assert main(["run", "ising:J=abc"]) == 2
        err = capsys.readouterr().err
        assert "cannot build benchmark" in err or "abc" in err

    def test_run_rejects_unknown_benchmark(self, capsys):
        assert main(["run", "bogus_bench"]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark 'bogus_bench'" in err
        assert "repro list" in err
        assert main(["ground-energy", "bogus_bench"]) == 2

    def test_run_seed_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("CLAPTON_BENCH_PRESET", "smoke")
        argv = ["run", "ising_J1.00", "--backend", "nairobi",
                "--qubits", "3", "--vqe-iterations", "2"]

        def final_energy(seed_args):
            assert main(argv + seed_args) == 0
            out = capsys.readouterr().out
            return [l for l in out.splitlines() if "VQE final" in l][0]

        base = final_energy([])
        assert final_energy(["--seed", "0"]) == base  # default seed is 0
        assert final_energy(["--seed", "123"]) != base

    @pytest.mark.slow
    def test_molecule_with_save(self, capsys, tmp_path):
        target = tmp_path / "lih.json"
        assert main(["molecule", "LiH", "1.5", "--save", str(target)]) == 0
        out = capsys.readouterr().out
        assert "631 terms" in out
        from repro.paulis.serialization import load_pauli_sum

        assert load_pauli_sum(target).num_terms == 631

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCampaignCLI:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        import json

        spec = {
            "name": "cli-grid",
            "benchmarks": ["ising_J1.00"],
            "qubit_sizes": [3],
            "noise_scales": [1.0],
            "methods": ["ncafqa", "clapton"],
            "seeds": [0],
            "engine_preset": "smoke",
            "engine_overrides": {"num_instances": 1,
                                 "generations_per_round": 6, "top_k": 3,
                                 "population_size": 10, "retry_rounds": 0},
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(spec))
        return path

    def test_sweep_status_report_flow(self, capsys, spec_path):
        store = str(spec_path.with_suffix(".campaign"))
        assert main(["sweep", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "2 tasks" in out and "done: 2/2" in out

        # rerunning an existing store requires --resume
        assert main(["sweep", str(spec_path)]) == 2
        assert "--resume" in capsys.readouterr().err
        assert main(["sweep", str(spec_path), "--resume"]) == 0
        assert "2 skipped" in capsys.readouterr().out

        assert main(["status", store]) == 0
        out = capsys.readouterr().out
        assert "2 done, 0 failed, 0 pending" in out

        csv_path = spec_path.parent / "rows.csv"
        assert main(["report", store, "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "# Campaign report: cli-grid" in out
        assert "eta(clapton vs ncafqa)" in out
        assert csv_path.read_text().startswith("benchmark,")

    def test_resume_rejects_edited_spec(self, capsys, spec_path):
        import json

        assert main(["sweep", str(spec_path)]) == 0
        capsys.readouterr()
        edited = json.loads(spec_path.read_text())
        edited["seeds"] = [0, 1]
        spec_path.write_text(json.dumps(edited))
        assert main(["sweep", str(spec_path), "--resume"]) == 2
        assert "no longer matches" in capsys.readouterr().err

    def test_sweep_rejects_bad_spec(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"benchmarks": ["x"]}')  # missing name
        assert main(["sweep", str(bad)]) == 2
        assert "cannot load campaign spec" in capsys.readouterr().err
        assert main(["sweep", str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()
        bad.write_text('{"name": "b", "benchmarks": ["ising_J1.0"]}')
        assert main(["sweep", str(bad)]) == 2  # typo'd registry name
        assert "unknown benchmarks" in capsys.readouterr().err
        bad.write_text('{"name": "b", "benchmarks": ["ising_J1.00"],'
                       ' "methods": ["claptn"]}')
        assert main(["sweep", str(bad)]) == 2  # typo'd method name
        assert "did you mean 'clapton'" in capsys.readouterr().err

    def test_status_and_report_reject_missing_store(self, capsys, tmp_path):
        assert main(["status", str(tmp_path / "nope")]) == 2
        assert main(["report", str(tmp_path / "nope")]) == 2

    def test_sweep_rejects_bad_retry_policy(self, capsys, spec_path):
        assert main(["sweep", str(spec_path), "--max-attempts", "0"]) == 2
        assert "bad retry policy" in capsys.readouterr().err

    def test_sweep_max_attempts_stamps_records(self, capsys, spec_path):
        from repro.campaigns import ResultStore

        store = str(spec_path.with_suffix(".campaign"))
        assert main(["sweep", str(spec_path), "--max-attempts", "3"]) == 0
        for record in ResultStore.open(store).records():
            assert record["attempt"] == 1  # nothing failed, no retries
            assert record["backoff_seconds"] == 0.0


class TestServiceCLI:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        import json

        spec = {
            "name": "svc-grid",
            "benchmarks": ["ising_J1.00"],
            "qubit_sizes": [3],
            "noise_scales": [1.0],
            "methods": ["ncafqa", "clapton"],
            "seeds": [0, 1],
            "engine_preset": "smoke",
            "engine_overrides": {"num_instances": 1,
                                 "generations_per_round": 6, "top_k": 3,
                                 "population_size": 10, "retry_rounds": 0},
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(spec))
        return path

    def test_serve_until_done_with_local_workers(self, capsys, tmp_path,
                                                 spec_path):
        root = tmp_path / "campaigns"
        assert main(["serve", "--port", "0", "--root", str(root),
                     "--spec", str(spec_path), "--until-done",
                     "--local-workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "4 tasks" in out
        assert "2 local worker(s) attached" in out
        assert "4/4 done, 0 failed" in out

        # the service left a normal store behind: status/report work on it
        stores = list(root.glob("*.campaign"))
        assert len(stores) == 1
        assert main(["status", str(stores[0])]) == 0
        assert "4 done, 0 failed, 0 pending" in capsys.readouterr().out

        # re-serving the same spec resumes the finished campaign
        assert main(["serve", "--port", "0", "--root", str(root),
                     "--spec", str(spec_path), "--until-done"]) == 0
        assert "(resumed)" in capsys.readouterr().out

    def test_serve_rejects_bad_inputs(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"benchmarks": ["x"]}')  # missing name
        assert main(["serve", "--port", "0", "--root",
                     str(tmp_path / "r"), "--spec", str(bad)]) == 2
        assert "cannot register" in capsys.readouterr().err
        assert main(["serve", "--port", "0", "--root",
                     str(tmp_path / "r"), "--max-attempts", "0"]) == 2
        assert "bad retry policy" in capsys.readouterr().err
        assert main(["serve", "--port", "0", "--root",
                     str(tmp_path / "r"),
                     "--store", str(tmp_path / "nope")]) == 2
        assert "cannot attach" in capsys.readouterr().err

    def test_submit_to_live_server(self, capsys, tmp_path, spec_path):
        from repro.campaigns.service import ServiceState, start_server

        state = ServiceState(tmp_path / "root")
        server = start_server(state, port=0)
        try:
            assert main(["submit", str(spec_path),
                         "--connect", server.url]) == 0
            out = capsys.readouterr().out
            assert "svc-grid" in out and "4 task" in out
            # idempotent: a second submit attaches, not restarts
            assert main(["submit", str(spec_path),
                         "--connect", server.url]) == 0
            assert "resumed" in capsys.readouterr().out
        finally:
            server.stop()

    def test_submit_rejected_spec(self, capsys, tmp_path, spec_path):
        """A spec the server refuses prints the server's own error and
        exits 2, like ``repro status`` on an unknown campaign."""
        import json

        from repro.campaigns.service import ServiceState, start_server

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(spec_path.read_text()),
                                   "methods": ["no-such-method"]}))
        server = start_server(ServiceState(tmp_path / "root"), port=0)
        try:
            assert main(["submit", str(bad), "--connect", server.url]) == 2
            err = capsys.readouterr().err
            assert "submit rejected: " in err and "no-such-method" in err
            assert "cannot reach" not in err
        finally:
            server.stop()

    def test_submit_unreachable_server(self, capsys, spec_path):
        assert main(["submit", str(spec_path),
                     "--connect", "http://127.0.0.1:9"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_worker_unreachable_server(self, capsys):
        assert main(["worker", "--connect", "http://127.0.0.1:9",
                     "--poll", "0.01"]) == 1
        assert "lost the scheduler" in capsys.readouterr().err
