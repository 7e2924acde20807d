"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.traces import load_trace


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["compress", "--workloads", "perlbench"])


def test_compress_command(capsys):
    assert main(["compress", "--workloads", "milc", "--writes", "300"]) == 0
    out = capsys.readouterr().out
    assert "milc" in out
    assert "BEST" in out


def test_flips_command(capsys):
    assert main(["flips", "--workloads", "zeusmp", "--writes", "400"]) == 0
    out = capsys.readouterr().out
    assert "zeusmp" in out


def test_perf_command(capsys):
    assert main(["perf", "--workloads", "milc", "--samples", "100"]) == 0
    assert "%" in capsys.readouterr().out


def test_montecarlo_command(capsys):
    assert main(["montecarlo", "--sizes", "32", "--trials", "10",
                 "--schemes", "ecp6"]) == 0
    assert "ecp6" in capsys.readouterr().out


def test_trace_command(tmp_path, capsys):
    path = tmp_path / "out.trace"
    assert main(["trace", "milc", str(path), "--lines", "16",
                 "--writes", "50"]) == 0
    trace = load_trace(path)
    assert len(trace) == 50
    assert trace.workload == "milc"


def test_workload_command_saves_a_trace(tmp_path, capsys):
    path = tmp_path / "fleet.trace"
    assert main(["workload", "memcached", "--lines", "32",
                 "--requests", "80", "--out", str(path)]) == 0
    assert "80 memcached requests" in capsys.readouterr().out
    trace = load_trace(path)
    assert len(trace) == 80
    assert trace.workload == "memcached"
    assert trace.n_lines == 32


def test_workload_command_runs_in_process(capsys):
    assert main(["workload", "nginx", "--lines", "32", "--requests", "150",
                 "--shards", "2", "--endurance", "40"]) == 0
    out = capsys.readouterr().out
    assert "fleet: 2 shard(s), 32 lines" in out
    assert "shard 1:" in out


def test_serve_command_inline_json(capsys):
    import json

    assert main(["serve", "--inline", "--json", "--shards", "2",
                 "--lines", "32", "--requests", "200",
                 "--workload", "memcached", "--endurance", "40",
                 "--banks", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shards"] == 2
    assert payload["requests_routed"] == 200
    assert payload["recoveries"] == 0
    assert len(payload["shard_stats"]) == 2
    assert payload["stats"]["demand_writes"] == 200


def test_serve_command_multiprocess_with_telemetry(tmp_path, capsys):
    telemetry = tmp_path / "svc"
    assert main(["serve", "--shards", "2", "--lines", "32",
                 "--requests", "200", "--workload", "high-reuse",
                 "--endurance", "40", "--banks", "4",
                 "--heartbeat-interval", "50", "--fleet-interval", "50",
                 "--telemetry-dir", str(telemetry)]) == 0
    out = capsys.readouterr().out
    assert "fleet: 2 shard(s)" in out
    assert "telemetry:" in out
    assert (telemetry / "fleet.jsonl").exists()
    assert (telemetry / "shard-0" / "events.jsonl").exists()
    assert (telemetry / "shard-1" / "events.jsonl").exists()


def _serve_json(capsys, *flags):
    import json

    assert main(["serve", *flags, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_serve_inline_matches_multiprocess(capsys):
    flags = ["--shards", "2", "--lines", "32", "--requests", "150",
             "--workload", "memcached", "--endurance", "40",
             "--banks", "4", "--seed", "3"]
    assert _serve_json(capsys, "--inline", *flags) == _serve_json(capsys, *flags)


def test_serve_inline_matches_multiprocess_with_tiers(capsys):
    flags = ["--system", "comp_wf_hybrid", "--shards", "2", "--lines", "64",
             "--requests", "2000"]
    inline = _serve_json(capsys, "--inline", *flags)
    assert inline["stats"]["tier_hits"] > 0
    assert inline == _serve_json(capsys, *flags)


def test_lifetime_command(capsys):
    assert main([
        "lifetime", "--workloads", "milc", "--lines", "32",
        "--endurance", "15", "--systems", "baseline", "comp_wf",
    ]) == 0
    out = capsys.readouterr().out
    assert "milc" in out
    assert "months" in out


def test_lifetime_command_with_workers(capsys):
    assert main([
        "lifetime", "--workloads", "milc", "--lines", "24",
        "--endurance", "12", "--systems", "baseline", "comp_wf",
        "--workers", "2",
    ]) == 0
    assert "milc" in capsys.readouterr().out


def test_systems_command(capsys):
    assert main(["systems"]) == 0
    out = capsys.readouterr().out
    for name in ("baseline", "comp", "comp_w", "comp_wf"):
        assert name in out
    assert "[paper]" in out


def test_systems_command_with_stages(capsys):
    assert main(["systems", "--tag", "paper", "--stages"]) == 0
    out = capsys.readouterr().out
    assert "compress:" in out
    assert "placement:" in out
    assert "ablation" not in out


def test_systems_command_tag_filter(capsys):
    assert main(["systems", "--tag", "ablation"]) == 0
    out = capsys.readouterr().out
    assert "comp_wf_no_heuristic" in out
    assert "baseline" not in out


def test_systems_command_accepts_every_registered_tag(capsys):
    assert main(["systems", "--tag", "energy"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == [
        "baseline_wire", "comp_wf_wire", "comp_coset", "comp_wf_coset",
    ]


def test_lifetime_rejects_unregistered_system():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["lifetime", "--systems", "comp_xyz"])


def test_lifetime_rejects_nonpositive_workers():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["lifetime", "--workers", "0"])


@pytest.mark.parametrize("argv", [
    ["lifetime", "--lines", "0"],
    ["lifetime", "--lines", "-8"],
    ["compress", "--writes", "0"],
    ["compress", "--writes", "-1"],
    ["flips", "--writes", "-200"],
    ["perf", "--samples", "0"],
    ["montecarlo", "--trials", "-5"],
    ["trace", "milc", "out.trace", "--lines", "0"],
    ["trace", "milc", "out.trace", "--writes", "-1"],
    ["lifetime", "--checkpoint-interval", "0"],
])
def test_nonpositive_counts_rejected(argv, capsys):
    """Zero/negative counts must die in argparse, not deep in numpy."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2  # clean usage error, not a traceback
    assert "must be >= 1" in capsys.readouterr().err


def test_resume_requires_checkpoint_dir(capsys):
    with pytest.raises(SystemExit):
        main(["lifetime", "--workloads", "milc", "--resume"])
    assert "--resume requires --checkpoint-dir" in capsys.readouterr().err


def test_checkpoint_interval_requires_checkpoint_dir(capsys):
    with pytest.raises(SystemExit):
        main(["lifetime", "--workloads", "milc",
              "--checkpoint-interval", "500"])
    err = capsys.readouterr().err
    assert "--checkpoint-interval requires --checkpoint-dir" in err


def test_lifetime_checkpoint_resume_round_trip(tmp_path, capsys):
    """The CLI writes checkpoints + telemetry and --resume reuses them."""
    base = [
        "lifetime", "--workloads", "milc", "--lines", "24",
        "--endurance", "12", "--systems", "comp_wf",
        "--checkpoint-dir", str(tmp_path), "--checkpoint-interval", "2000",
    ]
    assert main(base) == 0
    first = capsys.readouterr().out
    run_dir = tmp_path / "milc-comp_wf"
    assert (run_dir / "events.jsonl").exists()
    assert any(run_dir.glob("checkpoint-*.pkl"))
    assert main(base + ["--resume"]) == 0
    assert capsys.readouterr().out == first


def test_report_command(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    (results / "demo.txt").write_text("hello world\n")
    assert main(["report", "--results-dir", str(results)]) == 0
    out = capsys.readouterr().out
    assert "demo" in out and "hello world" in out


def test_report_command_missing_dir(tmp_path, capsys):
    assert main(["report", "--results-dir", str(tmp_path / "nope")]) == 0
    assert "no results" in capsys.readouterr().out
