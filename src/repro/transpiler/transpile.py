"""The transpilation pipeline: layout -> routing -> SWAP decomposition -> compaction.

Mirrors what the paper gets from Qiskit's transpiler before handing the
ansatz to Clapton (Sec. 5.2.2): the ansatz circuit is mapped onto a
noise-aware line of physical qubits, the wrap-around CX of the circular
entangler is routed with SWAPs, SWAPs are decomposed into the 3-CX native
form, and the result is compacted onto the register of actually-used
physical qubits so downstream density-matrix simulation stays affordable.
"""

from __future__ import annotations

from dataclasses import dataclass


from ..backends.backend import Backend
from ..circuits.circuit import Circuit
from ..noise.model import NoiseModel
from ..paulis.pauli_sum import PauliSum
from .layout import find_chain_layout
from .routing import decompose_swaps, route_circuit


@dataclass
class TranspileResult:
    """A hardware-ready circuit plus everything needed to evaluate energies.

    Attributes:
        circuit: The routed circuit on the compact register (width =
            ``len(physical_qubits)``), parameters still symbolic if the
            input had symbolic parameters.
        physical_qubits: Compact index -> physical qubit id on the backend.
        initial_layout: logical qubit -> compact index at circuit start.
        final_layout: logical qubit -> compact index at circuit end (where
            measurement happens; Hamiltonians map through this).
        backend: The target device.
        num_swaps: SWAPs the router inserted (before 3-CX decomposition).
    """

    circuit: Circuit
    physical_qubits: list[int]
    initial_layout: dict[int, int]
    final_layout: dict[int, int]
    backend: Backend
    num_swaps: int

    @property
    def num_qubits(self) -> int:
        return len(self.physical_qubits)

    def noise_model(self) -> NoiseModel:
        """Calibration-derived model on the compact register."""
        return self.backend.noise_model(self.physical_qubits)

    def hardware_noise_model(self) -> NoiseModel:
        """Twin model (only meaningful when backend is a hardware twin)."""
        return self.backend.twin_noise_model(self.physical_qubits)

    def map_hamiltonian(self, hamiltonian: PauliSum) -> PauliSum:
        """Re-express a logical Hamiltonian on the compact register.

        Logical qubit ``q``'s Pauli factor lands on compact index
        ``final_layout[q]`` -- the physical residence at measurement time.
        """
        positions = [self.final_layout[q]
                     for q in range(hamiltonian.num_qubits)]
        return embed_pauli_sum(hamiltonian, positions, self.num_qubits)


def embed_pauli_sum(hamiltonian: PauliSum, positions: list[int],
                    num_qubits: int) -> PauliSum:
    """Place each logical qubit's factors at ``positions[q]`` of a wider register."""
    if len(set(positions)) != len(positions):
        raise ValueError("positions must be distinct")
    from ..core.transformation import embed_table

    table = embed_table(hamiltonian.table, positions, num_qubits)
    return PauliSum(table, hamiltonian.coefficients.copy())


def transpile(circuit: Circuit, backend: Backend,
              layout: list[int] | None = None,
              decompose_swap_gates: bool = True,
              restrict_to_layout: bool = True) -> TranspileResult:
    """Map and route a logical circuit onto a backend.

    Args:
        circuit: Logical circuit (chain-plus-wraparound ansatz or anything
            else; routing is generic).
        backend: Target device.
        layout: Optional explicit physical line (logical qubit ``q`` starts
            at ``layout[q]``); found with the noise-aware search otherwise.
        decompose_swap_gates: Lower SWAPs to 3 CX (native cost accounting).
        restrict_to_layout: Route only within the subgraph induced by the
            layout qubits (when :meth:`CouplingGraph.is_connected` holds
            for it).  This keeps the physical
            register width equal to the logical width so downstream
            density-matrix evaluation stays affordable; disable to let the
            router borrow neighbouring ancilla qubits for shortcuts.
    """
    if layout is None:
        layout = find_chain_layout(backend, circuit.num_qubits)
    if len(layout) != circuit.num_qubits:
        raise ValueError("layout length must equal the logical qubit count")
    initial = {q: p for q, p in enumerate(layout)}
    weights = {k: float(v) for k, v in backend.calibration.error_2q.items()}
    graph = backend.graph
    if restrict_to_layout:
        induced = graph.subgraph(layout)
        if induced.is_connected():
            graph = induced
    routed = route_circuit(circuit, graph, initial, edge_weight=weights)
    physical_circuit = (decompose_swaps(routed.circuit)
                        if decompose_swap_gates else routed.circuit)

    used = sorted({q for inst in physical_circuit.instructions
                   for q in inst.qubits}
                  | set(routed.final_layout.values())
                  | set(initial.values()))
    compact_of = {phys: i for i, phys in enumerate(used)}
    compact = Circuit(len(used))
    for inst in physical_circuit.instructions:
        compact.append(inst.name, [compact_of[q] for q in inst.qubits],
                       inst.params)
    return TranspileResult(
        circuit=compact,
        physical_qubits=used,
        initial_layout={q: compact_of[p] for q, p in initial.items()},
        final_layout={q: compact_of[p]
                      for q, p in routed.final_layout.items()},
        backend=backend,
        num_swaps=routed.num_swaps,
    )
