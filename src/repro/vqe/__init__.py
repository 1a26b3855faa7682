"""The online VQE phase: measurement grouping and the SPSA loop."""

from .grouping import MeasurementGroup, group_qubit_wise_commuting, num_measurement_bases
from .runner import VQETrace, run_vqe

__all__ = [
    "MeasurementGroup", "VQETrace", "group_qubit_wise_commuting",
    "num_measurement_bases", "run_vqe",
]
