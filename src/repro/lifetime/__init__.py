"""Trace-driven lifetime simulation of the four evaluated systems."""

from .checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    latest_checkpoint,
    list_checkpoints,
    read_checkpoint,
    write_checkpoint,
)
from .results import (
    PAPER_TOTAL_LINES,
    LifetimeResult,
    lifetime_months,
    merge_results,
    normalized_lifetime,
)
from .simulator import (
    DEAD_CAPACITY_THRESHOLD,
    DEFAULT_CHECKPOINT_INTERVAL,
    DEFAULT_HEARTBEAT_INTERVAL,
    LifetimeSimulator,
)
from .systems import (
    build_simulator,
    normalized_against_baseline,
    scaled_intra_counter_limit,
)
from .telemetry import (
    HeartbeatEvent,
    JsonlObserver,
    ProgressObserver,
    RunObserver,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "DEAD_CAPACITY_THRESHOLD",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "PAPER_TOTAL_LINES",
    "Checkpoint",
    "HeartbeatEvent",
    "JsonlObserver",
    "LifetimeResult",
    "LifetimeSimulator",
    "ProgressObserver",
    "RunObserver",
    "build_simulator",
    "latest_checkpoint",
    "lifetime_months",
    "list_checkpoints",
    "merge_results",
    "normalized_against_baseline",
    "normalized_lifetime",
    "read_checkpoint",
    "scaled_intra_counter_limit",
    "write_checkpoint",
]
