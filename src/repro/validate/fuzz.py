"""Randomized differential-fuzzing campaigns over the system registry.

:func:`run_fuzz` drives a :class:`~repro.validate.lockstep.ValidatingController`
per (system, correction scheme) pair with a deterministic, seeded write
stream designed to exercise the whole write path: the payload palette
mixes zero lines, repeated-word lines, BDI-friendly base+delta ramps,
FPC-friendly small words, incompressible noise, and byte mutations of
earlier payloads, while the address stream skews hot so wear (and
therefore fault handling, window slides, deaths, revival, and FREE-p
remaps) accumulates fast at tiny endurance.

A divergence is shrunk with a ddmin-style chunk-removal pass over the
write sequence -- each candidate prefix is replayed from scratch, so the
shrunk recipe is self-contained -- and written to the corpus directory
as a JSON repro seed.  ``python -m repro fuzz`` is the CLI entry point;
``--replay`` re-runs a corpus entry.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..engine.address_space import ShardMap, shard_seeds
from ..engine.context import ControllerStats
from ..engine.registry import resolve_config, system_names
from ..tier import with_tier
from .lockstep import DivergenceError, ValidatingController, replay_recipe

#: The paper's three fine-grained correction schemes (acceptance set).
DEFAULT_SCHEMES = ("ecp6", "safer32", "aegis17x31")

#: Short aliases accepted anywhere a scheme name is (CLI convenience).
SCHEME_ALIASES = {"aegis": "aegis17x31"}

#: Bound on from-scratch replays one shrink pass may spend.
DEFAULT_SHRINK_REPLAYS = 60

#: Campaign-manifest JSON schema version.
CAMPAIGN_MANIFEST_VERSION = 1


@dataclass
class CampaignResult:
    """Outcome of one (system, scheme) differential campaign."""

    system: str
    scheme: str
    seed: int
    writes_planned: int
    writes_run: int
    divergence: DivergenceError | None = None
    corpus_path: Path | None = None
    skipped: bool = False

    @property
    def ok(self) -> bool:
        return self.divergence is None and not self.skipped


@dataclass
class FuzzReport:
    """Everything one :func:`run_fuzz` invocation did."""

    campaigns: list[CampaignResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def failures(self) -> list[CampaignResult]:
        return [campaign for campaign in self.campaigns if campaign.divergence]

    @property
    def skipped(self) -> list[CampaignResult]:
        return [campaign for campaign in self.campaigns if campaign.skipped]


def normalize_scheme(name: str) -> str:
    """Resolve CLI scheme aliases (``aegis`` -> ``aegis17x31``)."""
    return SCHEME_ALIASES.get(name, name)


class _PayloadPalette:
    """Deterministic write-stream generator for one campaign."""

    def __init__(self, rng: np.random.Generator, n_lines: int) -> None:
        self._rng = rng
        self._n_lines = n_lines
        # A quarter of the address space takes ~70 % of the writes, so
        # per-cell wear concentrates and faults appear within a short
        # campaign even at moderate endurance.
        hot_count = max(1, n_lines // 4)
        self._hot = rng.permutation(n_lines)[:hot_count]
        self._recent: list[bytes] = []

    def next_op(self) -> tuple[int, bytes]:
        rng = self._rng
        if rng.random() < 0.7:
            logical = int(rng.choice(self._hot))
        else:
            logical = int(rng.integers(self._n_lines))
        payload = self._next_payload()
        self._recent.append(payload)
        if len(self._recent) > 8:
            self._recent.pop(0)
        return logical, payload

    def _next_payload(self) -> bytes:
        rng = self._rng
        kind = rng.integers(7)
        if kind == 0:  # all zeros (BDI zeros / FPC zero runs)
            return bytes(64)
        if kind == 1:  # repeated 8-byte word (BDI rep8)
            return bytes(rng.integers(256, size=8, dtype=np.uint8)) * 8
        if kind == 2:  # base + small deltas (BDI b8d1-style)
            base = int(rng.integers(1 << 48))
            deltas = rng.integers(-100, 100, size=8)
            words = [(base + int(delta)) % (1 << 64) for delta in deltas]
            return b"".join(word.to_bytes(8, "little") for word in words)
        if kind == 3:  # small 32-bit words (FPC sign-extension prefixes)
            words = rng.integers(-128, 128, size=16)
            return b"".join(
                int(word).to_bytes(4, "little", signed=True) for word in words
            )
        if kind == 4:  # sparse noise: mostly zero with a few hot bytes
            line = bytearray(64)
            for position in rng.integers(64, size=int(rng.integers(1, 6))):
                line[int(position)] = int(rng.integers(1, 256))
            return bytes(line)
        if kind == 5 and self._recent:  # mutate an earlier payload
            line = bytearray(self._recent[int(rng.integers(len(self._recent)))])
            line[int(rng.integers(64))] ^= int(rng.integers(1, 256))
            return bytes(line)
        # incompressible noise
        return bytes(rng.integers(256, size=64, dtype=np.uint8))


def shrink_recipe(
    recipe: dict, max_replays: int = DEFAULT_SHRINK_REPLAYS
) -> tuple[dict, DivergenceError]:
    """ddmin-style minimization of a divergence recipe's write sequence.

    Replays candidate subsequences from scratch and keeps any removal
    that still diverges.  Returns the smallest reproducing recipe found
    (taken from the replay's own :class:`DivergenceError`, so its op
    list is exactly what was issued) and the corresponding error.
    Raises ``ValueError`` if the input recipe does not reproduce at all.
    """
    replays = 0

    def reproduces(ops: list) -> DivergenceError | None:
        nonlocal replays
        replays += 1
        trial = dict(recipe)
        trial["ops"] = [[logical, payload] for logical, payload in ops]
        return replay_recipe(trial)

    best_error = reproduces(recipe["ops"])
    if best_error is None:
        raise ValueError("recipe does not reproduce; nothing to shrink")
    best_ops = best_error.recipe["ops"]

    chunk = max(1, len(best_ops) // 2)
    while chunk >= 1 and replays < max_replays:
        index = 0
        removed_any = False
        while index < len(best_ops) and replays < max_replays:
            candidate = best_ops[:index] + best_ops[index + chunk :]
            if not candidate:
                index += chunk
                continue
            error = reproduces(candidate)
            if error is not None:
                best_ops = error.recipe["ops"]
                best_error = error
                removed_any = True
                # Do not advance: the chunk now at `index` is new.
            else:
                index += chunk
        if chunk == 1 and not removed_any:
            break
        chunk = max(1, chunk // 2)
    return best_error.recipe, best_error


def write_corpus_entry(
    corpus_dir: str | Path, campaign: str, recipe: dict, diffs: list[str],
    shrunk_from: int,
) -> Path:
    """Persist one failing repro seed; returns the file path."""
    directory = Path(corpus_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for counter in range(10_000):
        path = directory / f"divergence-{campaign}-{counter:03d}.json"
        if not path.exists():
            break
    entry = {
        "campaign": campaign,
        "recipe": recipe,
        "diffs": diffs[:40],
        "ops_shrunk_from": shrunk_from,
        "ops_shrunk_to": len(recipe["ops"]),
    }
    path.write_text(json.dumps(entry, indent=2, sort_keys=True))
    return path


def write_campaign_manifest(
    corpus_dir: str | Path, report: FuzzReport, params: dict
) -> Path:
    """Append one run's summary to the corpus campaign ledger.

    The manifest is the "we looked and found nothing" artifact: corpus
    entries only exist for divergences, so a clean campaign would leave
    no trace of how much fuzzing the checked-in corpus actually
    represents.  Each :func:`run_fuzz` invocation appends one record
    (parameters, outcome counts, and the corpus entry of every
    divergence) to ``campaign-manifest.json`` under ``corpus_dir``.
    """
    directory = Path(corpus_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "campaign-manifest.json"
    if path.exists():
        manifest = json.loads(path.read_text())
    else:
        manifest = {"version": CAMPAIGN_MANIFEST_VERSION, "runs": []}
    ran = [c for c in report.campaigns if not c.skipped]
    manifest["runs"].append({
        **params,
        "campaigns": len(ran),
        "writes_run": sum(c.writes_run for c in ran),
        "skipped": len(report.skipped),
        "elapsed_seconds": round(report.elapsed_seconds, 1),
        "divergences": [
            {
                "system": c.system,
                "scheme": c.scheme,
                "corpus_entry": (
                    c.corpus_path.name if c.corpus_path else None
                ),
            }
            for c in report.failures
        ],
    })
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def replay_corpus_entry(path: str | Path) -> DivergenceError | None:
    """Re-run a corpus entry (or bare recipe) file; returns the divergence."""
    entry = json.loads(Path(path).read_text())
    recipe = entry.get("recipe", entry)
    return replay_recipe(recipe)


def assert_fleet_view(shard_stats: list[ControllerStats]) -> ControllerStats:
    """Check the merged fleet view of a sharded campaign; returns it.

    Asserts the two structural properties the service relies on: the
    merge is reduction-order independent (forward fold == reverse
    fold), and the pipeline write-accounting invariant survives
    aggregation (fleet ``demand + gap_move == stored + lost``).
    """
    merged = ControllerStats.merge_all(shard_stats)
    reversed_merge = ControllerStats.merge_all(reversed(shard_stats))
    if merged != reversed_merge:
        raise AssertionError(
            "fleet stats merge is order-dependent: "
            f"forward={merged} reversed={reversed_merge}"
        )
    issued = merged.demand_writes + merged.gap_move_writes
    settled = merged.stored_writes + merged.lost_writes
    if issued != settled:
        raise AssertionError(
            "fleet write accounting broken: "
            f"demand+gap={issued} != stored+lost={settled}"
        )
    return merged


def _accepts(system: str, overrides: dict) -> bool:
    """Whether ``system``'s config takes ``overrides`` without error."""
    try:
        resolve_config(system, **overrides)
    except ValueError:
        return False
    return True


def run_fuzz(
    systems: tuple[str, ...] | None = None,
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    writes: int = 2000,
    seed: int = 0,
    lines: int = 24,
    banks: int = 4,
    endurance_mean: float = 32.0,
    endurance_cov: float = 0.2,
    corpus_dir: str | Path | None = None,
    time_budget: float | None = None,
    check_state_every: int = 64,
    shrink: bool = True,
    progress=None,
    shards: int = 1,
    batch: int = 1,
    config_overrides: dict[str, object] | None = None,
) -> FuzzReport:
    """Differential campaigns over ``systems`` x ``schemes``.

    Every campaign is deterministic in (``seed``, campaign index): the
    write stream comes from ``SeedSequence([seed, index])``, so a rerun
    with the same arguments replays identical campaigns.  On divergence
    the campaign stops, the failing sequence is shrunk, and -- when
    ``corpus_dir`` is given -- a JSON repro seed is written.

    ``time_budget`` (seconds) bounds the whole run: campaigns that
    would start after the budget is spent are marked ``skipped`` (for
    the nightly CI job; a skipped campaign is not a pass).

    ``shards > 1`` partitions each campaign memory with a
    :class:`~repro.engine.address_space.ShardMap` and runs one lockstep
    oracle *per shard* over its routed sub-stream (the address stream
    stays global, so routing itself is under test), then asserts the
    merged fleet view via :func:`assert_fleet_view`.  ``shards=1`` is
    exactly the historical unsharded campaign, seeds included.

    ``batch > 1`` groups every ``batch`` stream ops into one
    ``write_batch`` call per shard (order preserved within each
    shard), so the out-of-order scheduler's wave execution runs under
    the lockstep oracle; the stream itself is identical to the
    ``batch=1`` campaign.  Note a batch-only divergence need not
    reproduce under the (serial) recipe replay used for shrinking --
    in that case the unshrunk recipe is kept.

    ``lines`` and ``banks`` shape every campaign memory; ``banks``
    reaches it as the config's ``n_banks``.

    ``config_overrides`` replaces config knobs in every campaign's
    system (an absent knob keeps the system's own value), e.g.
    ``{"wl_backend": "wolfram"}`` re-runs the matrix against the PAD
    path and its reference model.  A config with ``tier_lines > 0``
    (``comp_wf_hybrid``'s own, or overridden) fronts every shard's
    lockstep pair with a DRAM tier (:mod:`repro.tier`), so the oracle
    validates exactly the *post-tier* PCM stream; verification flushes
    each tier first, so the full-state sweep covers every line.  The
    default system set drops systems whose config rejects the
    overrides (multi-region Start-Gap under ``wolfram``); listed
    systems are not filtered, so a rejection raises.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    if batch < 1:
        raise ValueError("batch must be positive")
    overrides = dict(config_overrides or {})
    report = FuzzReport()
    started = time.monotonic()
    if systems:
        names = tuple(systems)
    else:
        # Default set: every registered system the lockstep oracle can
        # model.  Energy-encoded variants store XOR-transformed cells,
        # which the reference model would flag as divergence -- their
        # read-back correctness is pinned by tests/energy instead.
        names = tuple(
            name for name in system_names()
            if resolve_config(name).encoding == "none"
            and _accepts(name, overrides)
        )
        if not names:
            raise ValueError(
                f"no registered system accepts the overrides {overrides}"
            )
    schemes = tuple(normalize_scheme(scheme) for scheme in schemes)
    shard_map = ShardMap(lines, shards)

    campaign_index = 0
    for system in names:
        for scheme in schemes:
            campaign_index += 1
            campaign = CampaignResult(
                system=system, scheme=scheme, seed=seed,
                writes_planned=writes, writes_run=0,
            )
            report.campaigns.append(campaign)
            if time_budget is not None and time.monotonic() - started > time_budget:
                campaign.skipped = True
                continue

            config = resolve_config(system, **{
                "n_banks": banks, **overrides, "correction_scheme": scheme,
            })
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, campaign_index])
            )
            # One lockstep oracle per shard; shard_seeds keeps a 1-shard
            # campaign's seed (and thus its whole replay) unchanged.
            controllers = [
                with_tier(ValidatingController(
                    config, shard_map.lines_of(shard),
                    endurance_mean=endurance_mean,
                    endurance_cov=endurance_cov,
                    seed=shard_seed,
                    check_state_every=check_state_every,
                ))
                for shard, shard_seed in enumerate(
                    shard_seeds(seed + campaign_index, shards)
                )
            ]
            palette = _PayloadPalette(rng, lines)
            try:
                for _ in range(0, writes, batch):
                    chunk = [
                        palette.next_op()
                        for _ in range(min(batch, writes - campaign.writes_run))
                    ]
                    if batch == 1:
                        logical, payload = chunk[0]
                        shard, local = shard_map.to_local(logical)
                        controllers[shard].write(local, payload)
                    else:
                        for shard, bucket in enumerate(
                            shard_map.partition(chunk)
                        ):
                            if bucket:
                                controllers[shard].write_batch(bucket)
                    campaign.writes_run += len(chunk)
                    if (
                        time_budget is not None
                        and (batch > 1 or campaign.writes_run % 256 == 0)
                        and time.monotonic() - started > time_budget
                    ):
                        break
                else:
                    for controller in controllers:
                        # HybridController.verify_state flushes its
                        # tier first, so pending residents are diffed.
                        controller.verify_state()
                    assert_fleet_view([
                        (controller.inner if config.tier_lines else controller)
                        .fast.stats
                        for controller in controllers
                    ])
            except DivergenceError as error:
                if shrink:
                    try:
                        recipe, shrunk_error = shrink_recipe(error.recipe)
                    except ValueError:
                        # Batch-only divergence: the serial replay used
                        # for shrinking does not reproduce it.
                        recipe, shrunk_error = error.recipe, error
                else:
                    recipe, shrunk_error = error.recipe, error
                campaign.divergence = shrunk_error
                if corpus_dir is not None:
                    campaign.corpus_path = write_corpus_entry(
                        corpus_dir, f"{system}-{scheme}", recipe,
                        shrunk_error.diffs, shrunk_from=len(error.recipe["ops"]),
                    )
            if progress is not None:
                progress(campaign)
    report.elapsed_seconds = time.monotonic() - started
    return report
