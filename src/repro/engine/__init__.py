"""The composable write-path engine (refactor of the 2017 controller).

Three layers:

* **Stages + pipeline** -- the write path as explicit, swappable
  stages (compress / placement / program / correction / remap) over a
  shared :class:`EngineState`, sequenced by :class:`WritePipeline`.
  :class:`repro.core.CompressedPCMController` is a thin facade over
  this machinery with identical semantics.
* **Registry** -- one table of named :class:`SystemSpec`\\ s for the
  paper's evaluated systems and the repo's ablation/extension
  variants; :func:`resolve_config` turns a name (plus knob overrides)
  into a config for ``lifetime``, the CLI, benchmarks and examples.
* **SweepRunner** -- the one driver of (profile x system) lifetime
  grids, in-process or fanned out across worker processes.
"""

from .address_space import AddressRange, ShardMap, shard_seeds
from .context import ControllerStats, EngineState, WriteContext, WriteResult
from .pipeline import WritePipeline
from .registry import (
    SystemSpec,
    get_system,
    resolve_config,
    system_names,
)
from .stages import (
    CompressStage,
    CorrectionStage,
    EncodingStage,
    PlacementStage,
    ProgramStage,
    RemapStage,
    Stage,
)
from .sweep import (
    SweepError,
    SweepReport,
    SweepRunner,
    SweepTask,
    TaskFailure,
    quarantine_attempt,
    quarantine_run_dir,
    run_task,
)

__all__ = [
    "AddressRange",
    "CompressStage",
    "ControllerStats",
    "CorrectionStage",
    "EncodingStage",
    "EngineState",
    "PlacementStage",
    "ProgramStage",
    "RemapStage",
    "ShardMap",
    "Stage",
    "SweepError",
    "SweepReport",
    "SweepRunner",
    "SweepTask",
    "SystemSpec",
    "TaskFailure",
    "WriteContext",
    "WritePipeline",
    "WriteResult",
    "get_system",
    "quarantine_attempt",
    "quarantine_run_dir",
    "resolve_config",
    "run_task",
    "shard_seeds",
    "system_names",
]
