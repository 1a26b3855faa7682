"""Ablation: expressiveness of the transformation ansatz (Sec. 4, Eq. 8).

The paper motivates the four-way two-qubit slot {II, CX k->l, CX l->k, SWAP}
by the conjugation structure of CX and the ability of SWAPs to move Pauli
components between qubits.  This bench restricts the slot alphabet and
measures what each option buys on the device-model initial point:

* ``full``      -- the paper's ansatz;
* ``no-swap``   -- slots limited to {II, CX k->l, CX l->k};
* ``rot-only``  -- slots forced to II (single-qubit transformation only).
"""

import numpy as np
from conftest import print_banner, run_once

from repro.backends import FakeToronto
from repro.core import ClaptonLoss, VQEProblem, evaluate_initial_point
from repro.core.clapton import InitializationResult, clapton
from repro.hamiltonians import get_benchmark, ground_state_energy
from repro.optim import multi_ga_minimize


def _restricted_clapton(problem, config, slot_values):
    """Clapton with the two-qubit slot genes mapped into ``slot_values``."""
    n = problem.num_logical_qubits
    num_pairs = problem.num_transformation_parameters - 4 * n
    loss = ClaptonLoss(problem)

    def restrict(gamma):
        gamma = np.asarray(gamma).copy()
        slots = gamma[2 * n:2 * n + num_pairs]
        gamma[2 * n:2 * n + num_pairs] = np.asarray(slot_values)[
            slots % len(slot_values)]
        return gamma

    search = multi_ga_minimize(lambda g: loss(restrict(g)),
                               problem.num_transformation_parameters,
                               num_values=4, config=config)
    gamma = restrict(search.best_genome)
    from repro.core.transformation import transform_hamiltonian

    return InitializationResult(
        method="clapton", problem=problem, genome=gamma,
        loss=search.best_loss, search=search,
        vqe_hamiltonian=transform_hamiltonian(problem.hamiltonian, gamma),
        initial_theta=np.zeros(problem.num_vqe_parameters))


def test_ablation_transform_ansatz(benchmark, bench_config):
    hamiltonian = get_benchmark("xxz_J1.00", 6).hamiltonian()
    problem = VQEProblem.from_backend(hamiltonian, FakeToronto())
    e0 = ground_state_energy(hamiltonian)

    def experiment():
        out = {}
        out["full"] = evaluate_initial_point(
            clapton(problem, config=bench_config))
        out["no-swap"] = evaluate_initial_point(
            _restricted_clapton(problem, bench_config, [0, 1, 2]))
        out["rot-only"] = evaluate_initial_point(
            _restricted_clapton(problem, bench_config, [0]))
        return out

    evaluations = run_once(benchmark, experiment)
    print_banner(f"Ablation | transformation ansatz slots | XXZ J=1.00, 6q | "
                 f"E0={e0:.4f}")
    print(f"{'variant':<10} {'noise-free':>11} {'device':>10}")
    for name, ev in evaluations.items():
        print(f"{name:<10} {ev.noiseless:>11.4f} {ev.device_model:>10.4f}")

    # two-qubit slots must help: the full alphabet should not lose to the
    # rotation-only transformation on the device tier
    assert (evaluations["full"].device_model
            <= evaluations["rot-only"].device_model + 0.02 * abs(e0))
