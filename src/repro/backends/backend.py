"""Backend abstraction: topology + calibration + noise-model export."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..noise.model import NoiseModel
from .calibration import CalibrationData, perturb_calibration
from .topologies import CouplingGraph


def _median(values) -> float:
    """``float(np.median(values))`` without the ``numpy.ma`` import that
    numpy's median makes: the middle value, or the mean of the middle two
    (``(a + b) / 2``, the same rounding as ``np.mean``)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


@dataclass
class Backend:
    """A quantum device as the transpiler and evaluators see it.

    Attributes:
        name: Device name (e.g. ``"toronto"``).
        graph: Undirected coupling graph on physical qubit ids; a hardware
            twin shares its parent's (graphs are immutable).
        calibration: Current snapshot of device parameters.
        is_hardware: True for "real device" twins whose parameters are *not*
            the ones optimization saw (Sec. 6.1's hanoi experiments).
    """

    name: str
    graph: CouplingGraph
    calibration: CalibrationData
    is_hardware: bool = False

    @property
    def num_qubits(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [tuple(sorted(e)) for e in self.graph.edges]

    def noise_model(self, physical_qubits: list[int] | None = None,
                    coherent_zz_angle_2q: float = 0.0) -> NoiseModel:
        """Export a :class:`NoiseModel`, optionally restricted to a subset.

        Args:
            physical_qubits: When given, build the model on the *compact*
                register ``0..len-1`` whose index ``i`` corresponds to
                physical qubit ``physical_qubits[i]`` (the register the
                transpiler produces).
            coherent_zz_angle_2q: Unmodeled coherent error for twins.
        """
        cal = self.calibration
        if physical_qubits is None:
            physical_qubits = list(range(self.num_qubits))
        index_of = {phys: i for i, phys in enumerate(physical_qubits)}
        depol_2q = {}
        for (a, b), err in cal.error_2q.items():
            if a in index_of and b in index_of:
                depol_2q[(index_of[a], index_of[b])] = err
        sel = np.asarray(physical_qubits, dtype=int)
        return NoiseModel(
            num_qubits=len(physical_qubits),
            depol_1q=cal.error_1q[sel],
            depol_2q_default=_median(cal.error_2q.values()),
            depol_2q=depol_2q,
            t1=cal.t1[sel],
            t2=cal.t2[sel],
            readout_p01=cal.readout_p01[sel],
            readout_p10=cal.readout_p10[sel],
            gate_time_1q=cal.gate_time_1q,
            gate_time_2q=cal.gate_time_2q,
            coherent_zz_angle_2q=coherent_zz_angle_2q,
        )

    def hardware_twin(self, seed: int = 2024, jitter: float = 0.25,
                      coherent_zz_angle_2q: float = 0.04) -> "Backend":
        """The 'actual device' behind this backend's calibration model.

        Same topology, recalibrated (jittered) rates, plus a coherent ZZ
        over-rotation after two-qubit gates that no calibration-derived
        model contains.  Evaluating on the twin reproduces the paper's
        hardware experiments: optimization uses ``self.noise_model()``, the
        reported energy comes from the twin.
        """
        twin_cal = perturb_calibration(self.calibration, seed, jitter)
        twin = Backend(name=f"{self.name}-hw", graph=self.graph,
                       calibration=twin_cal, is_hardware=True)
        twin._coherent_zz = coherent_zz_angle_2q
        return twin

    def twin_noise_model(self, physical_qubits: list[int] | None = None
                         ) -> NoiseModel:
        """Noise model including the twin's unmodeled device effects.

        Beyond the recalibrated rates, the twin adds the coherent ZZ
        over-rotation and schedules relaxation on idle qubits -- both real
        device behaviours absent from calibration-derived models.
        """
        angle = getattr(self, "_coherent_zz", 0.0)
        model = self.noise_model(physical_qubits, coherent_zz_angle_2q=angle)
        return model.with_overrides(include_idle_relaxation=True)

    def __repr__(self) -> str:
        return (f"Backend({self.name!r}, num_qubits={self.num_qubits}, "
                f"is_hardware={self.is_hardware})")
