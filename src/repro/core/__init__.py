"""The paper's core contribution: the compression-aware PCM controller."""

from .config import (
    DEFAULT_THRESHOLD1,
    DEFAULT_THRESHOLD2,
    EVALUATED_SYSTEMS,
    SystemConfig,
    baseline,
    comp,
    comp_w,
    comp_wf,
)
from .controller import CompressedPCMController, ControllerStats, WriteResult
from .heuristic import BitFlipHeuristic, HeuristicDecision
from .metadata import METADATA_BITS, SC_MAX, LineMetadata
from .window import (
    LINE_BYTES,
    clear_window_caches,
    extract_bytes,
    faults_in_window,
    find_window,
    place_bytes,
    window_mask,
)

__all__ = [
    "DEFAULT_THRESHOLD1",
    "DEFAULT_THRESHOLD2",
    "EVALUATED_SYSTEMS",
    "LINE_BYTES",
    "METADATA_BITS",
    "SC_MAX",
    "BitFlipHeuristic",
    "CompressedPCMController",
    "ControllerStats",
    "HeuristicDecision",
    "LineMetadata",
    "SystemConfig",
    "WriteResult",
    "baseline",
    "clear_window_caches",
    "comp",
    "comp_w",
    "comp_wf",
    "extract_bytes",
    "faults_in_window",
    "find_window",
    "place_bytes",
    "window_mask",
]
