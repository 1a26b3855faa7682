"""``import repro`` loads neither scipy nor networkx.

Every CLI command, campaign worker and benchmark run starts a fresh
interpreter, and the two packages would be most of its import time.  A
third-party package beyond numpy is imported by the function that uses
it: scipy by exact energies and chemistry integrals, networkx by the
coupling graphs, the transpiler and maxcut.  Each test runs its script in
a fresh interpreter, since this process has long since loaded both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BLOCK = 'import sys\nsys.modules["scipy"] = sys.modules["networkx"] = None\n'

LOADED = """
import json
import sys
print(json.dumps(sorted(name for name, module in sys.modules.items()
                        if name.split(".")[0] in ("scipy", "networkx")
                        and module is not None)))
"""

LOGICAL_SEARCHES = """
import repro
from repro import EngineConfig, NoiseModel, SearchBudget, VQEProblem
from repro import ising_model
from repro.methods import get_method

problem = VQEProblem.logical(ising_model(4, 1.0), NoiseModel.uniform(4))
config = EngineConfig(num_instances=1, generations_per_round=2,
                      population_size=10, max_rounds=1, retry_rounds=1,
                      seed=3)
for strategy, extra in (("multi_ga", {}),
                        ("tabu", {"budget": SearchBudget(max_rounds=2)})):
    for name in ("clapton", "cafqa", "ncafqa"):
        result = get_method(name).search(problem, config=config,
                                         strategy=strategy, **extra)
        assert result.num_evaluations > 0, (strategy, name)
"""

DEVICE_PROBLEM = """
from repro import FakeToronto, VQEProblem, ising_model

problem = VQEProblem.from_backend(ising_model(4, 1.0), FakeToronto())
"""


def run(script):
    """The loaded scipy/networkx modules a fresh interpreter lists after
    ``script``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", script + LOADED], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_repro_loads_neither_package():
    assert run("import repro\n") == []


def test_logical_searches_run_with_both_packages_blocked():
    """Any import of either package, even one a search makes at call
    time, raises ``ImportError`` here."""
    assert run(BLOCK + LOGICAL_SEARCHES) == []


def test_cli_help_runs_with_both_packages_blocked():
    script = BLOCK + """
from repro.cli import main
try:
    main(["--help"])
except SystemExit as done:
    assert done.code == 0, done.code
"""
    assert run(script) == []


def test_device_problem_loads_networkx_but_not_scipy():
    loaded = run(DEVICE_PROBLEM)
    assert "networkx" in loaded
    assert not [name for name in loaded if name.split(".")[0] == "scipy"]
