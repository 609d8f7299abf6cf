"""Bulgarian solitaire and friends: exact dynamics, counting, and simulation."""

from .partitions import (
    Composition,
    EnumerationBoundError,
    Partition,
    conjugate,
    enumerate_compositions,
    enumerate_montreal_compositions,
    enumerate_partitions,
    normalize,
    potential_energy,
    staircase,
    triangular_decompose,
)
from .operators import (
    AustrianState,
    MultiplayerState,
    PointerState,
    austrian_step,
    bulgarian_step,
    carolina_step,
    dual_step,
    ejs_masked_step,
    janetzko_step,
    montreal_step,
    multiplayer_step,
    popov_masked_step,
    servedio_yeh_step,
)

__version__ = "0.1.0"
