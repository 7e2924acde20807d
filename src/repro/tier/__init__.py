"""Content-aware DRAM front tier over a PCM controller (CARAM-style).

A production deployment fronts PCM with DRAM.  CARAM's observation is
that the two media want *different* lines: compressible data is cheap
for PCM (small windows, few programmed cells, easy correction), while
incompressible data -- which is also statistically the hot, frequently
rewritten data -- wears PCM hardest and gains nothing from the
compression window.  The tier therefore routes by content:

* **Write-through** -- a line whose compressibility probe (the
  controller's own uncached best-of-FPC/BDI compressor) lands at or
  under the admission threshold goes straight to PCM.  The probe's
  result is handed to the controller's compression cache for the PCM
  write, so a line is compressed once on its way to the medium.
* **Admission** -- an incompressible line becomes DRAM-resident; the
  PCM write is deferred until eviction, so re-writes of hot lines are
  coalesced into (at most) one PCM write.
* **Dedup** -- residents are reference-counted by content, and
  capacity is charged per *unique* content, so identical lines extend
  the tier's effective reach (each logical line still keeps its own
  entry -- dedup can never alias two lines that later diverge).
* **Eviction** -- when unique contents exceed capacity, least recently
  used lines are flushed to PCM.  Flushes travel through the inner
  controller's batched ``write_batch`` path together with the same
  batch's write-throughs, so they ride the out-of-order wave scheduler.

:class:`HybridController` is the facade: it exposes the
``CompressedPCMController`` surface (``write``/``write_batch``/``read``
plus the stats and death telemetry the simulator reads) and owns one
:class:`DramTier` of ``config.tier_lines`` lines.  ``tier_lines == 0``
means no tier at all: the simulator, the service and the fuzzer then
build no facade, which keeps golden traces, fuzz corpora, and
checkpoint digests bit-identical -- the safety rail the hybrid work
hangs on.  Both classes pickle cleanly, so
lifetime checkpoints carry the tier's residents, refcounts, and
counters and resume bit-identically.
"""

from __future__ import annotations

from collections import OrderedDict

from ..compression import CachingCompressor, CompressionResult, Compressor
from ..core.window import LINE_BYTES
from ..engine.context import ControllerStats, WriteResult

__all__ = ["DEFAULT_ADMIT_THRESHOLD", "DramTier", "HybridController", "with_tier"]

#: A line whose best-of-FPC/BDI probe compresses to at most this many
#: bytes is "compressible": cheap to store in PCM, so it writes
#: through.  Larger probe results mark the line incompressible/hot and
#: it stays DRAM-resident, per CARAM's fixed placement rule.
DEFAULT_ADMIT_THRESHOLD = LINE_BYTES // 2

#: Synthetic result for a write the DRAM tier absorbed: no PCM line was
#: touched, so there is no physical target (-1) and no programmed cell.
ABSORBED = WriteResult(
    physical=-1, compressed=False, size_bytes=LINE_BYTES,
    window_start=0, flips=0,
)


class DramTier:
    """A bounded, deduplicating, content-aware DRAM line store.

    Pure routing state -- the tier never touches PCM itself.  Its write
    path classifies one request and either appends the PCM operations
    it implies (the write-through, or any eviction flushes) to the
    caller's op list, or absorbs the write entirely.  Capacity is
    charged per unique resident content (dedup makes identical lines
    free); eviction order is least-recently-used over lines, where
    reads and coalesced writes both refresh recency.

    Counters live on a :class:`ControllerStats` overlay that uses only
    the ``tier_*`` fields, so a facade can merge it with the inner
    controller's stats through the ordinary monoid.

    ``compressor`` is the probe: :class:`HybridController` passes the
    inner controller's own uncached best-of compressor, so a shard
    runs one.  The tier holds the probe result of each resident
    content until that content is released, and reports the results
    of the contents it sends to PCM (see :meth:`route`), so the PCM
    write can reuse them instead of compressing again.
    """

    def __init__(self, capacity_lines: int, compressor: Compressor) -> None:
        if capacity_lines < 1:
            raise ValueError("tier capacity must be >= 1 line")
        self.capacity_lines = capacity_lines
        self.compressor = compressor
        #: line -> content, in LRU order (oldest first).
        self._resident: OrderedDict[int, bytes] = OrderedDict()
        #: content -> number of resident lines holding it.
        self._refs: dict[bytes, int] = {}
        #: resident content -> its probe result (derived, never pickled;
        #: a content that was not probed, e.g. a coalesced rewrite, has
        #: no entry).
        self._held: dict[bytes, CompressionResult] = {}
        self.stats = ControllerStats()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_held", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # A tier pickled before the probe was shared carries a private
        # one; the facade rebinds ``compressor`` on unpickling.
        self.__dict__.pop("_probe", None)
        self._held = {}

    def __len__(self) -> int:
        return len(self._resident)

    @property
    def unique_contents(self) -> int:
        """Distinct resident contents -- what capacity is charged for."""
        return len(self._refs)

    def resident(self, line: int) -> bool:
        return line in self._resident

    # -- read path -------------------------------------------------------

    def lookup(self, line: int) -> bytes | None:
        """The resident content of a line (refreshing recency), or None."""
        data = self._resident.get(line)
        if data is not None:
            self._resident.move_to_end(line)
            self.stats.tier_hits += 1
        return data

    # -- write path ------------------------------------------------------

    def write(
        self,
        line: int,
        data: bytes,
        pcm_ops: list[tuple[int, bytes]],
    ) -> WriteResult | None:
        """Route one write-back; absorbed or appended to ``pcm_ops``.

        Returns :data:`ABSORBED` when the tier kept the write (the
        caller owes PCM nothing for it now), or ``None`` after
        appending exactly one write-through op for it to ``pcm_ops``.
        Either way any eviction flushes the write forced are appended
        too, in eviction order (see :meth:`route`).
        """
        (entry,) = self.route([(line, data)], pcm_ops)
        return entry if isinstance(entry, WriteResult) else None

    def route(
        self,
        requests: list[tuple[int, bytes]],
        pcm_ops: list[tuple[int, bytes]],
        results: dict[bytes, CompressionResult] | None = None,
    ) -> list[WriteResult | int]:
        """Route write-backs in stream order; the tier's one write loop.

        Returns one entry per request: :data:`ABSORBED`, or the index in
        ``pcm_ops`` of the request's write-through op.  Eviction flushes
        are appended as they are forced, so one inner ``write_batch``
        call over ``pcm_ops`` preserves the stream's PCM-visible
        ordering.  When ``results`` is given, the probe result of every
        content appended to ``pcm_ops`` that the tier has one for is
        recorded in it.

        The compressibility probe runs before the loop, as one batched
        call over the distinct contents of requests whose line is not
        resident (a resident line coalesces and needs no probe).  The
        probe is a pure function of the content, so routing with the
        precomputed results decides exactly what probing each request
        in turn would.  A line that was resident when the batch began
        but is evicted and rewritten within it is probed when reached.
        """
        requests = [(line, bytes(data)) for line, data in requests]
        probed = self._probe(dict.fromkeys(
            data for line, data in requests if line not in self._resident
        ))
        routed: list[WriteResult | int] = []
        for line, data in requests:
            result = probed.get(data)
            held = self._resident.get(line)
            if held is not None:
                # Coalesce: the pending PCM write this line owed is
                # folded into the new content; only the eviction pays.
                self._release(held)
                self.stats.tier_hits += 1
                self.stats.tier_coalesced_writes += 1
            else:
                if result is None:
                    probed.update(self._probe([data]))
                    result = probed[data]
                if result.size_bytes <= DEFAULT_ADMIT_THRESHOLD:
                    routed.append(len(pcm_ops))
                    pcm_ops.append((line, data))
                    if results is not None:
                        results[data] = result
                    continue
                if data in self._refs:
                    self.stats.tier_dedup_hits += 1
            if result is not None:
                self._held[data] = result
            self._charge(data)
            self._resident[line] = data
            self._resident.move_to_end(line)
            self.stats.tier_pcm_writes_avoided += 1
            self._evict_over_capacity(pcm_ops, results)
            routed.append(ABSORBED)
        return routed

    def drain(
        self, results: dict[bytes, CompressionResult] | None = None
    ) -> list[tuple[int, bytes]]:
        """Flush everything: all residents, oldest first, tier emptied.

        When ``results`` is given, the held probe results of the
        drained contents are recorded in it.
        """
        ops = list(self._resident.items())
        if results is not None:
            results.update(self._held)
        self._resident.clear()
        self._refs.clear()
        self._held.clear()
        return ops

    # -- internals -------------------------------------------------------

    def _probe(self, contents) -> dict[bytes, CompressionResult]:
        """Best-of compression of each content, in one ``compress_batch``
        call (which itself loops ``compress`` over a few lines)."""
        contents = list(contents)
        return dict(zip(contents, self.compressor.compress_batch(contents)))

    def _charge(self, data: bytes) -> None:
        self._refs[data] = self._refs.get(data, 0) + 1

    def _release(self, data: bytes) -> None:
        remaining = self._refs[data] - 1
        if remaining:
            self._refs[data] = remaining
        else:
            del self._refs[data]
            self._held.pop(data, None)

    def _evict_over_capacity(
        self,
        pcm_ops: list[tuple[int, bytes]],
        results: dict[bytes, CompressionResult] | None,
    ) -> None:
        while len(self._refs) > self.capacity_lines:
            victim, data = self._resident.popitem(last=False)
            if results is not None and data in self._held:
                results[data] = self._held[data]
            self._release(data)
            self.stats.tier_evictions += 1
            pcm_ops.append((victim, data))


class HybridController:
    """A DRAM front tier in front of a PCM controller, one write surface.

    Drop-in for :class:`~repro.core.CompressedPCMController` wherever
    the simulator, the sharded service, or the differential-fuzz
    harness drive one: writes route through the tier (which may absorb
    them, write them through, or force eviction flushes), reads hit
    DRAM first and fall through to PCM, and every PCM operation --
    write-throughs and flushes alike -- flows through the inner
    controller's ``write_batch`` so batched streams keep their wave
    scheduling.  The oracle therefore validates the *post-tier* PCM
    write stream: wrap a ``ValidatingController`` and the lockstep
    comparison covers exactly what the tier lets reach the medium.

    The tier holds ``inner.config.tier_lines`` lines, so a facade is
    only built for a config with a tier.  Delegation is explicit -- no
    ``__getattr__`` magic -- so pickling (checkpoints carry the whole
    facade) and attribute errors stay predictable.

    The tier probes with the inner controller's own uncached best-of
    compressor (its public ``compressor``, unwrapped from the
    compression cache), and the probe results of the contents a batch
    sends to PCM are handed to that cache for the one inner call, so
    the controller does not compress them a second time.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.tier = DramTier(
            inner.config.tier_lines, _uncached(inner.compressor)
        )

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Covers tiers pickled before the probe was shared, too.
        self.tier.compressor = _uncached(self.inner.compressor)

    @property
    def tier_lines(self) -> int:
        return self.tier.capacity_lines

    # -- write path ------------------------------------------------------

    def write(self, logical: int, data: bytes) -> WriteResult:
        """One demand write-back, routed through the tier."""
        return self.write_batch([(logical, data)])[0]

    def write_batch(
        self, requests: list[tuple[int, bytes]]
    ) -> list[WriteResult]:
        """A batch of write-backs; PCM ops ride one inner batch call.

        The tier routes every request in stream order first, then the
        surviving PCM operations (write-throughs interleaved with the
        eviction flushes they forced) go to the inner controller as a
        single ``write_batch`` -- so coalesced streams still reach the
        out-of-order wave scheduler as one batch.  The result list is
        aligned with ``requests``: absorbed writes report the
        synthetic :data:`ABSORBED` outcome.
        """
        requests = list(requests)
        for _, data in requests:
            if len(data) != LINE_BYTES:
                raise ValueError(f"write data must be {LINE_BYTES} bytes")
        pcm_ops: list[tuple[int, bytes]] = []
        results: dict[bytes, CompressionResult] = {}
        routed = self.tier.route(requests, pcm_ops, results)
        flushed = self._write_pcm(pcm_ops, results) if pcm_ops else []
        return [
            entry if isinstance(entry, WriteResult) else flushed[entry]
            for entry in routed
        ]

    def flush(self) -> int:
        """Flush every DRAM-resident line to PCM; returns lines flushed.

        Used before state verification (the oracle compares PCM state,
        so pending residents must land first) and by callers that want
        PCM to hold the complete image, e.g. before decommissioning
        the tier.
        """
        results: dict[bytes, CompressionResult] = {}
        ops = self.tier.drain(results)
        if ops:
            self._write_pcm(ops, results)
        return len(ops)

    def _write_pcm(self, ops, results) -> list[WriteResult]:
        """One inner ``write_batch``, its cache lent the probe results.

        A cache miss on a handed content takes the handed result
        instead of recompressing (still counted as a miss), so every
        result and counter is what recompressing would give.
        """
        cache = self.inner.compressor
        if not results or not isinstance(cache, CachingCompressor):
            return self.inner.write_batch(ops)
        cache.hand_off(results)
        try:
            return self.inner.write_batch(ops)
        finally:
            cache.drop_handed()

    # -- read path -------------------------------------------------------

    def read(self, logical: int) -> bytes | None:
        """DRAM hit, else PCM read-through."""
        data = self.tier.lookup(logical)
        if data is not None:
            return data
        return self.inner.read(logical)

    # -- passthroughs the simulator / service / fuzzer consume -----------

    @property
    def config(self):
        return self.inner.config

    @property
    def n_lines(self) -> int:
        return self.inner.n_lines

    @property
    def engine(self):
        return self.inner.engine

    @property
    def memory(self):
        return self.inner.memory

    @property
    def dead(self):
        return self.inner.dead

    @property
    def death_fault_counts(self) -> dict[int, int]:
        return self.inner.death_fault_counts

    @property
    def dead_fraction(self) -> float:
        return self.inner.dead_fraction

    def average_faults_per_dead_block(self) -> float:
        return self.inner.average_faults_per_dead_block()

    @property
    def stats(self) -> ControllerStats:
        """Inner PCM counters plus the tier overlay, one merged view."""
        return self.inner.stats.merge(self.tier.stats)

    def verify_state(self) -> None:
        """Lockstep hook: flush pending residents, then verify PCM.

        Only meaningful when the inner controller is a
        ``ValidatingController``; the flush itself runs through the
        validated write path, so eviction flushes are diffed too.
        """
        self.flush()
        self.inner.verify_state()


def with_tier(controller):
    """``controller`` behind its config's DRAM tier, or bare without one:
    every builder (simulator, service shard, fuzz campaign) wraps here."""
    if controller.config.tier_lines:
        return HybridController(controller)
    return controller


def _uncached(compressor):
    """The compressor a compression cache wraps, or ``compressor``."""
    if isinstance(compressor, CachingCompressor):
        return compressor.inner
    return compressor
