"""PCM device, wear, and DIMM-organization substrate."""

from .bank import PCMBankArray
from .bits import bits_to_bytes, bytes_to_bits
from .block import BLOCK_BITS, WriteOutcome, apply_write
from .cell import CellState, PCMCell
from .device import PCMEnergy, PCMTimings
from .organization import (
    CHIPS_PER_RANK,
    DATA_CHIPS_PER_RANK,
    ECC_BITS_PER_LINE,
    MemoryOrganization,
    PhysicalLocation,
)
from .variation import (
    HIGH_VARIATION_COV,
    PAPER_ENDURANCE_COV,
    PAPER_ENDURANCE_MEAN,
    EnduranceModel,
)

__all__ = [
    "BLOCK_BITS",
    "CHIPS_PER_RANK",
    "DATA_CHIPS_PER_RANK",
    "ECC_BITS_PER_LINE",
    "HIGH_VARIATION_COV",
    "PAPER_ENDURANCE_COV",
    "PAPER_ENDURANCE_MEAN",
    "CellState",
    "EnduranceModel",
    "MemoryOrganization",
    "PCMBankArray",
    "PCMCell",
    "PCMEnergy",
    "PCMTimings",
    "PhysicalLocation",
    "WriteOutcome",
    "apply_write",
    "bits_to_bytes",
    "bytes_to_bits",
]

from .mlc import (  # noqa: E402  (MLC extension, paper footnote 1)
    MLC_BITS_PER_CELL,
    MLC_CELLS_PER_BLOCK,
    MLC_ENDURANCE_MEAN,
    MLCBankArray,
    MLCWriteOutcome,
    mlc_endurance_model,
)

__all__ += [
    "MLC_BITS_PER_CELL",
    "MLC_CELLS_PER_BLOCK",
    "MLC_ENDURANCE_MEAN",
    "MLCBankArray",
    "MLCWriteOutcome",
    "mlc_endurance_model",
]
