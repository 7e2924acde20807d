"""Reproduction of "Exploring the Potential for Collaborative Data
Compression and Hard-Error Tolerance in PCM Memories" (DSN 2017).

Quick tour of the public API::

    from repro.compression import BestOfCompressor
    from repro.core import comp_wf, CompressedPCMController
    from repro.engine import SweepRunner
    from repro.faultinjection import tolerable_faults
    from repro.traces import get_profile, SyntheticWorkload

See README.md for a walkthrough and DESIGN.md for the system inventory
and the per-figure experiment index.
"""

__version__ = "1.0.0"

from . import (
    analysis,
    compression,
    core,
    correction,
    engine,
    faultinjection,
    lifetime,
    pcm,
    perf,
    rng,
    traces,
    wearleveling,
)

__all__ = [
    "__version__",
    "analysis",
    "compression",
    "core",
    "correction",
    "engine",
    "faultinjection",
    "lifetime",
    "pcm",
    "perf",
    "rng",
    "traces",
    "wearleveling",
]
