"""Neither ``import repro`` nor a search loads scipy, networkx or numpy.ma.

Every CLI command, campaign worker and benchmark run starts a fresh
interpreter, and these packages would be most of its import time.  A
third-party package beyond numpy is imported by the function that uses
it: scipy by exact energies and chemistry integrals, networkx by maxcut
(whose graphs are networkx graphs).  Device problems route on
:class:`repro.backends.CouplingGraph` and need neither.  numpy loads
``numpy.ma`` lazily from ``np.unique`` and ``np.median``, which setup and
search paths avoid.  Each test runs its script in a fresh interpreter,
since this process has long since loaded all three.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HEAVY = ("scipy", "networkx", "numpy.ma")

#: any import of a heavy package, even one made at call time, raises
#: ``ImportError`` after this
BLOCK = f"""
import sys
for name in {HEAVY!r}:
    sys.modules[name] = None
"""

LOADED = f"""
import json
import sys
print(json.dumps(sorted(
    name for name, module in sys.modules.items()
    if module is not None
    and any(name == heavy or name.startswith(heavy + ".")
            for heavy in {HEAVY!r}))))
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

DEVICE_SEARCHES = """
from repro import EngineConfig, FakeNairobi, FakeToronto, SearchBudget
from repro import VQEProblem, ising_model
from repro.methods import get_method

VQEProblem.from_backend(ising_model(12, 1.0), FakeToronto())
VQEProblem.from_backend(ising_model(7, 1.0), FakeNairobi())
problem = VQEProblem.from_backend(ising_model(4, 1.0), FakeToronto())
config = EngineConfig(num_instances=1, generations_per_round=1,
                      population_size=10, max_rounds=1, retry_rounds=1,
                      seed=3)
for strategy, extra in (("multi_ga", {}),
                        ("tabu", {"budget": SearchBudget(max_rounds=2)})):
    for name in ("clapton", "cafqa", "ncafqa"):
        result = get_method(name).search(problem, config=config,
                                         strategy=strategy, **extra)
        assert result.num_evaluations > 0, (strategy, name)
"""


def run(script):
    """The loaded heavy modules a fresh interpreter lists after
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
    """scipy and networkx, and numpy.ma too (see ``BLOCK``)."""
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


def test_device_problems_and_searches_run_with_heavy_packages_blocked():
    """FakeToronto-12 and FakeNairobi-7 transpile (the latter through the
    DFS layout fallback), and every method searches a device problem."""
    assert run(BLOCK + DEVICE_SEARCHES) == []
