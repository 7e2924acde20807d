"""Write-energy-reducing line encoders: WIRE and restricted coset coding.

Both encoders are per-word XOR transforms chosen write-by-write to
minimize the *energy* of the differential write (SET and RESET pulses
priced separately, unlike Flip-N-Write's flip-count objective):

* :class:`WireEncoder` -- WIRE-style: every word may be stored direct
  or complemented, one flag bit per word, picked by energy-weighted
  cost against the currently stored cells.
* :class:`CosetEncoder` -- fine-grain *restricted* coset coding: each
  word is XORed with one of ``2**r`` coset masks, the ``r``-bit
  selector living in the slack bits word-level compression frees up.
  The restriction is the point: on an uncompressed write there is no
  slack, so the selector is forced to the identity coset -- only
  compressed writes can spend slack on energy reduction.

Every transform is an XOR with a fixed mask, so ``decode`` is the same
XOR again (an involution) and a word whose selector is *not* re-chosen
re-encodes to exactly its stored cells.  That involution property is
what lets the engine's window discipline survive encoding: bits outside
the compression window re-encode to their stored values bit-for-bit,
so the differential write programs nothing outside it (pinned by
``tests/energy/test_encoders.py``).

Selector/flag cells are modelled like the engine's 13-bit line
metadata: a reliable side array (no stuck-at faults), but their
*programming* energy is real -- flag-bit flips are counted separately
(``encoding_flag_set_flips`` / ``encoding_flag_reset_flips``) and
priced by :class:`repro.energy.model.EnergyModel` at the same per-cell
pulse costs as data cells.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..core.window import LINE_BITS, LINE_BYTES, window_mask
from ..pcm.device import PCMEnergy

#: Transform-name -> mask builder (word_bits -> 0/1 uint8 mask).
_TRANSFORMS = {
    "identity": lambda n: np.zeros(n, dtype=np.uint8),
    "invert": lambda n: np.ones(n, dtype=np.uint8),
    # Alternating masks (0xAAAA... / 0x5555...): the classic biased-coset
    # pair, cheap to generate in hardware and effective on the
    # run-of-identical-bytes patterns BDI-compressible data is full of.
    "alt10": lambda n: (np.arange(n, dtype=np.uint8) + 1) % 2,
    "alt01": lambda n: np.arange(n, dtype=np.uint8) % 2,
}

#: Word sizes the kernel supports: whole bytes, so a word's selector
#: mask is a byte string and a line mask is a join of them.
_WORD_BITS = (8, 16, 32, 64)

#: All 512 cells set: the line as one Python int.
_LINE_ONES = (1 << LINE_BITS) - 1


class EncodeOutcome(NamedTuple):
    """One ``encode`` call's result: the cell image plus flag accounting."""

    target: np.ndarray
    flag_set_flips: int
    flag_reset_flips: int
    encoded_words: int


def _line_int(bits: np.ndarray) -> int:
    """Cell bits -> one 512-bit int (cell ``i`` is bit ``i``)."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _line_bits(line: int) -> np.ndarray:
    """512-bit int -> cell bits (inverse of :func:`_line_int`)."""
    return np.unpackbits(
        np.frombuffer(line.to_bytes(LINE_BYTES, "little"), dtype=np.uint8),
        bitorder="little",
    )


class LineEncoder:
    """Per-word XOR-family encoder with per-line selector state.

    Subclasses fix the transform set and the restriction policy; this
    base owns the mechanics: mask tables, selector storage, the
    energy-weighted per-word choice, and the involution decode.

    The kernel works on Python ints: the line's 512 cells are one int
    (cell ``i`` is bit ``i``), a selector image is a join of per-word
    mask bytes, and a word is a shift and a mask, so a candidate's SET
    and RESET cell counts are ``int.bit_count`` of two masked words --
    exact integer counts.  Only ``flags`` and the defining parameters
    are pickled; the derived tables are rebuilt on unpickle.
    """

    #: Registry name of the encoding family (``SystemConfig.encoding``).
    name = "xor"
    #: Whether non-identity selectors require a compressed write (the
    #: "restricted" in restricted coset coding).
    restricted = False

    #: Attributes :meth:`_build_tables` derives; never pickled.
    _DERIVED = (
        "masks", "_word_masks", "_mask_bytes", "_set_pj", "_reset_pj",
        "_flag_set", "_flag_reset", "_flag_cost", "_window_words",
    )

    def __init__(
        self,
        n_lines: int,
        word_bits: int = 32,
        transforms: tuple[str, ...] = ("identity", "invert"),
        energy: PCMEnergy | None = None,
    ) -> None:
        if n_lines < 1:
            raise ValueError("need at least one line")
        if word_bits <= 0 or LINE_BITS % word_bits:
            raise ValueError(
                f"word size must divide the {LINE_BITS}-bit line, "
                f"got {word_bits}"
            )
        if word_bits not in _WORD_BITS:
            raise ValueError(
                f"word size must be one of {_WORD_BITS} bits (a whole "
                f"number of bytes up to 64 bits), got {word_bits}"
            )
        if not transforms or transforms[0] != "identity":
            raise ValueError(
                "transform 0 must be 'identity' (the no-slack selector)"
            )
        unknown = [t for t in transforms if t not in _TRANSFORMS]
        if unknown:
            raise ValueError(
                f"unknown transforms {unknown}; choose from "
                f"{sorted(_TRANSFORMS)}"
            )
        self.word_bits = word_bits
        self.n_words = LINE_BITS // word_bits
        self.transforms = tuple(transforms)
        self.energy = energy or PCMEnergy()
        #: Selector width in cells (1 transform -> 0 bits: pure identity
        #: encoders store nothing and flip nothing).
        self.flag_bits = (
            (len(transforms) - 1).bit_length() if len(transforms) > 1 else 0
        )
        #: Per-line, per-word selector state (the flag/selector cells).
        self.flags = np.zeros((n_lines, self.n_words), dtype=np.uint8)
        self._build_tables()

    def __getstate__(self):
        state = self.__dict__.copy()
        for name in self._DERIVED:
            del state[name]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._build_tables()

    def _build_tables(self) -> None:
        """Derive the mask, selector and price tables and the window cache."""
        n_transforms = len(self.transforms)
        #: (n_transforms, word_bits) mask table, row t = transform t.
        self.masks = np.stack(
            [_TRANSFORMS[t](self.word_bits) for t in self.transforms]
        )
        #: Entry t = transform t's word mask as bytes (cell order) and
        #: as an int.
        self._mask_bytes = tuple(
            np.packbits(mask, bitorder="little").tobytes() for mask in self.masks
        )
        self._word_masks = tuple(
            int.from_bytes(mask, "little") for mask in self._mask_bytes
        )
        # Python floats, so each int count times a price is the float64
        # product the per-bit reference forms (an int or float32 price
        # would otherwise keep its own type).
        self._set_pj = float(self.energy.set_pj_per_bit)
        self._reset_pj = float(self.energy.reset_pj_per_bit)
        # [old][new] selector tables: flag-cell SET flips, RESET flips,
        # and their energy at the data cells' pulse prices.  Selector
        # patterns are the binary numbers 0..n_transforms-1.
        self._flag_set = tuple(
            tuple((new & ~old).bit_count() for new in range(n_transforms))
            for old in range(n_transforms)
        )
        self._flag_reset = tuple(
            tuple((old & ~new).bit_count() for new in range(n_transforms))
            for old in range(n_transforms)
        )
        self._flag_cost = tuple(
            tuple(
                sets * self._set_pj + resets * self._reset_pj
                for sets, resets in zip(set_row, reset_row)
            )
            for set_row, reset_row in zip(self._flag_set, self._flag_reset)
        )
        #: ``(start, size)`` -> indices of the words the window fully
        #: covers, filled on demand.
        self._window_words: dict[tuple[int, int], tuple[int, ...]] = {}

    def _line_mask(self, flags: list[int]) -> int:
        """The selector image of a line: word ``w`` holds ``flags[w]``'s mask."""
        mask_bytes = self._mask_bytes
        return int.from_bytes(
            b"".join([mask_bytes[flag] for flag in flags]), "little"
        )

    def _covered_words(self, start: int, size: int) -> tuple[int, ...]:
        """Indices of the words the ``[start, start+size)`` window covers."""
        key = (start, size)
        words = self._window_words.get(key)
        if words is None:
            in_window = window_mask(start, size).reshape(
                self.n_words, self.word_bits
            )
            words = tuple(np.flatnonzero(in_window.all(axis=1)).tolist())
            self._window_words[key] = words
        return words

    # -- involution core -------------------------------------------------

    def decode(self, physical: int, stored: np.ndarray) -> np.ndarray:
        """Stored cell image -> logical bits (XOR is its own inverse).

        Per-bit rather than on ints: a lone decode is one gather and
        one XOR, and the bit form skips the pack and unpack.
        """
        words = stored.reshape(self.n_words, self.word_bits)
        return (words ^ self.masks[self.flags[physical]]).reshape(-1)

    def encode(
        self,
        physical: int,
        stored: np.ndarray,
        logical: np.ndarray,
        start: int,
        size: int,
        compressed: bool,
    ) -> EncodeOutcome:
        """Logical line bits -> cell image, re-choosing in-window selectors.

        ``stored`` is the line's current cell image (the differential
        write's reference).  Only words *fully* inside the
        ``[start, start+size)`` byte window get a fresh selector (their
        cells are all writable); every other word keeps its current
        selector, so its encoded bits equal its stored bits wherever
        the logical bits are unchanged -- which is everywhere outside
        the window, so the differential write stays inside the window.
        """
        flags = self.flags[physical].tolist()
        return self._encode_line(
            physical, _line_int(stored), _line_int(logical),
            self._line_mask(flags), flags, start, size, compressed,
        )

    def encode_payload(
        self,
        physical: int,
        stored: np.ndarray,
        payload: bytes,
        start: int,
        size: int,
        compressed: bool,
    ) -> EncodeOutcome:
        """:meth:`encode` of ``payload`` laid at byte ``start`` (wrapping)
        into the decoded line -- decode, placement and encoding in one
        pass over the line int."""
        stored_line = _line_int(stored)
        flags = self.flags[physical].tolist()
        shift = 8 * start
        placed = int.from_bytes(payload, "little") << shift
        window = ((1 << 8 * len(payload)) - 1) << shift
        if start + len(payload) > LINE_BYTES:  # wraps past byte 63
            placed = (placed | placed >> LINE_BITS) & _LINE_ONES
            window = (window | window >> LINE_BITS) & _LINE_ONES
        mask = self._line_mask(flags)
        logical = stored_line ^ mask
        logical ^= (logical ^ placed) & window
        return self._encode_line(
            physical, stored_line, logical, mask, flags, start, size,
            compressed,
        )

    def _encode_line(
        self,
        physical: int,
        stored: int,
        logical: int,
        mask: int,
        flags: list[int],
        start: int,
        size: int,
        compressed: bool,
    ) -> EncodeOutcome:
        """The kernel behind :meth:`encode` and :meth:`encode_payload`.

        ``flags`` is the line's selector row as a list and ``mask`` its
        selector image; each re-chosen selector is written back to
        :attr:`flags` and its word's mask swapped in ``mask``.
        """
        chosen = self._covered_words(start, size)
        set_flips = reset_flips = encoded_words = 0
        if chosen and self.flag_bits:
            old = [flags[word] for word in chosen]
            if self.restricted and not compressed:
                # No compression slack -> no selector storage: the
                # re-written words fall back to the identity coset.
                new = [0] * len(chosen)
            else:
                new = self._choose(stored, logical, chosen, old)
            row = self.flags[physical]
            word_masks = self._word_masks
            for word, was, now in zip(chosen, old, new):
                if now != was:
                    row[word] = now
                    set_flips += self._flag_set[was][now]
                    reset_flips += self._flag_reset[was][now]
                    mask ^= (word_masks[was] ^ word_masks[now]) << (
                        word * self.word_bits
                    )
            encoded_words = len(new) - new.count(0)
        return EncodeOutcome(
            _line_bits(logical ^ mask), set_flips, reset_flips, encoded_words
        )

    # -- selector choice -------------------------------------------------

    def _choose(
        self,
        stored: int,
        logical: int,
        words: tuple[int, ...],
        old_flags: list[int],
    ) -> list[int]:
        """Energy-minimizing transform per word, deterministic ties.

        Cost of transform ``t`` for a word = SET energy x (stored 0
        cells driven to 1) + RESET energy x (stored 1 cells driven
        to 0), for data and selector cells alike.  The cost is the
        same float expression, term for term, as the per-bit reference
        (``tests/energy/reference_encoder.py``): float sums depend on
        their grouping, and a regrouped sum can break or make a tie.
        Only a strictly lower cost replaces the best so far, so ties
        break toward the lowest selector (identity first) -- the
        property the identity-parameter bit-identity tests rely on.
        """
        word_bits = self.word_bits
        ones = (1 << word_bits) - 1
        set_pj = self._set_pj
        reset_pj = self._reset_pj
        masks = tuple(enumerate(self._word_masks))
        choices = []
        for word, old in zip(words, old_flags):
            shift = word * word_bits
            cells = (stored >> shift) & ones
            data = (logical >> shift) & ones
            flag_cost = self._flag_cost[old]
            best = best_cost = 0
            for t, mask in masks:
                candidate = data ^ mask
                cost = (
                    (candidate & ~cells).bit_count() * set_pj
                    + (cells & ~candidate).bit_count() * reset_pj
                    + flag_cost[t]
                )
                if t == 0 or cost < best_cost:
                    best, best_cost = t, cost
            choices.append(best)
        return choices

    # -- reporting -------------------------------------------------------

    @property
    def overhead_bits_per_line(self) -> int:
        """Selector storage per 512-bit line (0 for pure identity)."""
        return self.n_words * self.flag_bits

    def describe(self) -> str:
        masks = "/".join(self.transforms)
        slack = ", selectors in compression slack" if self.restricted else ""
        return (
            f"{self.name}: {self.word_bits}-bit words, cosets {masks} "
            f"({self.overhead_bits_per_line}b/line){slack}"
        )


class WireEncoder(LineEncoder):
    """WIRE-style energy-weighted inversion coding.

    Flip-N-Write's circuit with WIRE's objective: each 32-bit word is
    stored direct or complemented (one flag cell per word), chosen to
    minimize SET/RESET-weighted programming energy instead of raw flip
    count -- with asymmetric pulse costs the cheapest image is not the
    fewest-flips image.  Unrestricted: the flag cell is dedicated, so
    uncompressed writes encode too.

    ``transforms=("identity",)`` degenerates to a pure pass-through
    (zero flag bits, zero extra flips) -- the identity-parameter safety
    rail the bit-identity tests pin.
    """

    name = "wire"
    restricted = False

    def __init__(
        self,
        n_lines: int,
        word_bits: int = 32,
        transforms: tuple[str, ...] = ("identity", "invert"),
        energy: PCMEnergy | None = None,
    ) -> None:
        super().__init__(n_lines, word_bits, transforms, energy)


class CosetEncoder(LineEncoder):
    """Fine-grain restricted coset coding through word-level compression.

    Each word is XORed with one of four coset masks (identity, invert,
    0xAA.., 0x55..; 2-bit selector per word).  *Restricted*: selectors
    are stored in the slack bytes compression frees inside the line, so
    a write stored uncompressed has nowhere to put them and falls back
    to the identity coset for every word it touches.  Compressible data
    thus gets the full 4-coset energy reduction while incompressible
    data pays no storage overhead -- the collaborative-compression
    trade the paper's window machinery already exploits for lifetime.
    """

    name = "coset"
    restricted = True

    def __init__(
        self,
        n_lines: int,
        word_bits: int = 32,
        transforms: tuple[str, ...] = ("identity", "invert", "alt10", "alt01"),
        energy: PCMEnergy | None = None,
    ) -> None:
        super().__init__(n_lines, word_bits, transforms, energy)


#: ``SystemConfig.encoding`` values accepted by :func:`make_encoder`.
ENCODING_CHOICES = ("none", "wire", "coset")


def make_encoder(
    encoding: str, n_lines: int, energy: PCMEnergy | None = None
) -> LineEncoder | None:
    """Build the configured line encoder (None when encoding is off)."""
    if encoding == "none":
        return None
    if encoding == "wire":
        return WireEncoder(n_lines, energy=energy)
    if encoding == "coset":
        return CosetEncoder(n_lines, energy=energy)
    raise ValueError(
        f"unknown encoding {encoding!r}; choose from {ENCODING_CHOICES}"
    )
