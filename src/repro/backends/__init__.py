"""Device backends: topologies, synthetic calibrations, hardware twins."""

from .topologies import (
    EDGES_27Q_FALCON,
    EDGES_7Q_FALCON,
    CouplingGraph,
    coupling_graph,
    line_topology,
)
from .calibration import (
    PROFILES,
    CalibrationData,
    DeviceProfile,
    generate_calibration,
    perturb_calibration,
)
from .backend import Backend
from .fake import (
    ALL_BACKENDS,
    FakeHanoi,
    FakeLine,
    FakeMumbai,
    FakeNairobi,
    FakeToronto,
)

__all__ = [
    "ALL_BACKENDS", "Backend", "CalibrationData", "CouplingGraph",
    "DeviceProfile", "EDGES_27Q_FALCON", "EDGES_7Q_FALCON", "FakeHanoi",
    "FakeLine", "FakeMumbai", "FakeNairobi", "FakeToronto", "PROFILES",
    "coupling_graph", "generate_calibration", "line_topology",
    "perturb_calibration",
]
