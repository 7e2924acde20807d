"""Shared infrastructure for the per-figure benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
reports the series next to the paper's reference values.  Because
pytest captures stdout, reports are (a) accumulated and printed in the
terminal summary, and (b) at the default scale, written to
``benchmarks/results/<name>.txt`` so the numbers survive the run.

Scale knobs (environment variables):

======================  =======  =========================================
variable                default  meaning
======================  =======  =========================================
``REPRO_BENCH_LINES``   128      memory size (lines) for lifetime studies
``REPRO_BENCH_END``     60       mean cell endurance (writes) for lifetime
``REPRO_BENCH_TRIALS``  150      Monte Carlo trials per Figure 9 point
``REPRO_BENCH_WRITES``  12000    write-back samples for statistics figures
``REPRO_BENCH_WORKERS`` 1        worker processes for the lifetime grids
======================  =======  =========================================

The defaults finish the whole harness in tens of minutes on a laptop;
raise them for tighter confidence intervals.  A run that sets any scale
variable here (or the perf benchmarks' ``REPRO_HOTPATH_*``,
``REPRO_CARAM_*`` and ``REPRO_SERVICE_*``) is a smoke run: its reports
are printed but leave the committed ``.txt`` results, and the records a
benchmark writes only at the ``default_scale`` (``BENCH_wolfram.json``,
``BENCH_caram.json``, ``BENCH_service.json``, ``BENCH_hotpath.json``),
alone.
``REPRO_BENCH_WORKERS`` changes no result, so it does not count.  Figure 10's lifetime study
is the expensive piece and is shared with Figure 12 and Table IV through
the ``shared_cache`` fixture; set ``REPRO_BENCH_WORKERS`` to fan its
(workload x system) grid across processes via
:class:`repro.engine.SweepRunner` -- every run keeps the same seed, so
results are identical to the serial run; only wall-clock changes.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

_REPORTS: list[tuple[str, str]] = []
_SHARED_CACHE: dict[str, object] = {}

#: Variables that change what a report measures (smoke scale).
SCALE_VARIABLES = (
    "REPRO_BENCH_LINES",
    "REPRO_BENCH_END",
    "REPRO_BENCH_TRIALS",
    "REPRO_BENCH_WRITES",
    "REPRO_HOTPATH_WRITES",
    "REPRO_HOTPATH_REPS",
    "REPRO_CARAM_REQUESTS",
    "REPRO_CARAM_MAX_WRITES",
    "REPRO_SERVICE_REQUESTS",
    "REPRO_SERVICE_REPS",
)


def env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


@pytest.fixture(scope="session")
def bench_scale():
    """Simulation-scale knobs, overridable via environment."""
    return {
        "n_lines": env_int("REPRO_BENCH_LINES", 128),
        "endurance_mean": env_int("REPRO_BENCH_END", 60),
        "trials": env_int("REPRO_BENCH_TRIALS", 150),
        "writes": env_int("REPRO_BENCH_WRITES", 12000),
        "workers": env_int("REPRO_BENCH_WORKERS", 1),
    }


@pytest.fixture(scope="session")
def default_scale() -> bool:
    """Whether no scale variable is set: only such a run rewrites the
    committed results."""
    return not any(name in os.environ for name in SCALE_VARIABLES)


@pytest.fixture()
def report(default_scale):
    """Record a named report: shown in the summary and, at the default
    scale, saved to disk."""

    def _report(name: str, text: str) -> None:
        _REPORTS.append((name, text))
        if default_scale:
            RESULTS_DIR.mkdir(exist_ok=True)
            (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _report


@pytest.fixture(scope="session")
def shared_cache():
    """Cross-benchmark result cache (Figure 10 feeds 12 and Table IV)."""
    return _SHARED_CACHE


def pytest_terminal_summary(terminalreporter):
    for name, text in _REPORTS:
        terminalreporter.write_sep("=", name)
        terminalreporter.write_line(text)
