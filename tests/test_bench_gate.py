"""The `cli bench --baseline` regression gate."""

from __future__ import annotations

import json

import pytest

from repro.tools import bench
from repro.tools.bench import (
    DEFAULT_TOLERANCE,
    DELTA_GATE_METRICS,
    GATE_METRICS,
    IO_GATE_METRICS,
    compare_to_baseline,
    find_inversions,
)
from repro.tools.cli import main


def synthetic(devices=50, image_bytes=24576, serial=14.0, fast=1.8,
              parallel=2.0):
    return {"campaign": {
        "devices": devices,
        "image_bytes": image_bytes,
        "reference_serial_seconds": serial,
        "fast_serial_seconds": fast,
        "fast_parallel_seconds": parallel,
    }}


def synthetic_full(io_serial=4.0, io_parallel=1.5, delta_total=0.15,
                   **kwargs):
    """A document with the optional campaign_io + delta sections."""
    doc = synthetic(**kwargs)
    doc["campaign_io"] = {
        "devices": doc["campaign"]["devices"],
        "image_bytes": doc["campaign"]["image_bytes"],
        "host_rtt_seconds": 0.05,
        "fast_serial_seconds": io_serial,
        "fast_parallel_seconds": io_parallel,
    }
    doc["delta_generation"] = {
        "firmware_bytes": 49152,
        "bsdiff_seconds": delta_total * 0.8,
        "lzss_seconds": delta_total * 0.2,
        "total_seconds": delta_total,
    }
    return doc


def test_identical_runs_pass_the_gate():
    assert compare_to_baseline(synthetic(), synthetic()) == []


def test_getting_faster_never_trips_the_gate():
    fresh = synthetic(serial=7.0, fast=0.9, parallel=1.0)
    assert compare_to_baseline(fresh, synthetic()) == []


def test_small_slowdowns_within_tolerance_pass():
    fresh = synthetic(serial=14.0 * 1.19)
    assert compare_to_baseline(fresh, synthetic()) == []


def test_regression_beyond_tolerance_is_named():
    fresh = synthetic(parallel=2.0 * 1.25)
    problems = compare_to_baseline(fresh, synthetic())
    assert len(problems) == 1
    assert "fast_parallel_seconds regressed" in problems[0]
    assert "+25%" in problems[0]
    # A looser tolerance lets the same run through.
    assert compare_to_baseline(fresh, synthetic(), tolerance=0.3) == []


def test_every_gated_metric_is_checked():
    for metric in GATE_METRICS:
        fresh = synthetic()
        fresh["campaign"][metric] *= 2.0
        problems = compare_to_baseline(fresh, synthetic())
        assert any(metric in problem for problem in problems)


def test_workload_mismatch_demands_a_fresh_baseline():
    problems = compare_to_baseline(synthetic(devices=10), synthetic())
    assert len(problems) == 1
    assert "regenerate the baseline" in problems[0]
    problems = compare_to_baseline(synthetic(image_bytes=8192),
                                   synthetic())
    assert "regenerate the baseline" in problems[0]


def test_unusable_baselines_are_reported_not_crashed():
    assert compare_to_baseline({}, synthetic()) \
        == ["baseline or current results carry no campaign section"]
    broken = synthetic()
    del broken["campaign"]["fast_serial_seconds"]
    problems = compare_to_baseline(synthetic(), broken)
    assert problems == ["baseline has no usable 'fast_serial_seconds'"]
    with pytest.raises(ValueError):
        compare_to_baseline(synthetic(), synthetic(), tolerance=-0.1)


def test_default_tolerance_is_twenty_percent():
    assert DEFAULT_TOLERANCE == pytest.approx(0.20)


# -- optional campaign_io / delta_generation gating ---------------------------


def test_optional_sections_are_skipped_when_absent():
    # Old baseline (campaign only) vs new run with the extra sections —
    # and the reverse — must both gate cleanly on the shared section.
    assert compare_to_baseline(synthetic_full(), synthetic()) == []
    assert compare_to_baseline(synthetic(), synthetic_full()) == []


def test_io_profile_regression_is_named():
    fresh = synthetic_full(io_parallel=1.5 * 1.5)
    problems = compare_to_baseline(fresh, synthetic_full())
    assert len(problems) == 1
    assert "campaign_io fast_parallel_seconds regressed" in problems[0]


def test_every_io_metric_is_checked():
    for metric in IO_GATE_METRICS:
        fresh = synthetic_full()
        fresh["campaign_io"][metric] *= 2.0
        problems = compare_to_baseline(fresh, synthetic_full())
        assert any("campaign_io " + metric in p for p in problems)


def test_io_rtt_mismatch_demands_a_fresh_baseline():
    fresh = synthetic_full()
    fresh["campaign_io"]["host_rtt_seconds"] = 0.1
    problems = compare_to_baseline(fresh, synthetic_full())
    assert len(problems) == 1
    assert "campaign_io baseline" in problems[0]
    assert "regenerate the baseline" in problems[0]


def test_delta_generation_regression_is_named():
    fresh = synthetic_full(delta_total=0.15 * 2)
    problems = compare_to_baseline(fresh, synthetic_full())
    assert len(problems) == len(DELTA_GATE_METRICS)
    assert all("delta_generation " in p for p in problems)


def test_delta_workload_mismatch_demands_a_fresh_baseline():
    fresh = synthetic_full()
    fresh["delta_generation"]["firmware_bytes"] = 8192
    problems = compare_to_baseline(fresh, synthetic_full())
    assert len(problems) == 1
    assert "delta_generation baseline ran firmware_bytes" in problems[0]


def test_baseline_from_another_host_demands_a_fresh_baseline():
    base = synthetic()
    base["host"] = {"python": "3.11.7", "cpu_count": 1}
    fresh = synthetic()
    fresh["host"] = {"python": "3.11.7", "cpu_count": 2}
    problems = compare_to_baseline(fresh, base)
    assert len(problems) == 1
    assert "baseline ran on host cpu_count=1" in problems[0]
    assert "regenerate the baseline" in problems[0]


def test_baseline_from_the_same_host_is_gated_normally():
    base = synthetic()
    base["host"] = {"python": "3.11.7", "cpu_count": 2}
    fresh = synthetic(parallel=2.0 * 1.25)
    fresh["host"] = dict(base["host"])
    assert compare_to_baseline(synthetic(), base) == []
    problems = compare_to_baseline(fresh, base)
    assert len(problems) == 1
    assert "fast_parallel_seconds regressed" in problems[0]


def synthetic_scale(devices=10_000, image_bytes=24576,
                    devices_per_s=5000.0, peak_rss_kb=250_000, **kwargs):
    """A document carrying the columnar fleet_scale section."""
    doc = synthetic_full(**kwargs)
    doc["fleet_scale"] = {
        "devices": devices,
        "image_bytes": image_bytes,
        "devices_per_s": devices_per_s,
        "peak_rss_kb": peak_rss_kb,
        "columnar_bytes_per_row": 86,
        "sampled_parity": True,
    }
    return doc


def test_fleet_scale_section_skipped_when_absent():
    assert compare_to_baseline(synthetic_scale(), synthetic_full()) == []
    assert compare_to_baseline(synthetic_full(), synthetic_scale()) == []


def test_fleet_scale_throughput_drop_is_named():
    """devices_per_s gates in the *inverted* direction: higher is
    better, so a >20% drop fails."""
    fresh = synthetic_scale(devices_per_s=5000.0 * 0.7)
    problems = compare_to_baseline(fresh, synthetic_scale())
    assert len(problems) == 1
    assert "fleet_scale devices_per_s regressed" in problems[0]
    assert "-30%" in problems[0]
    # Within tolerance (or faster) passes.
    assert compare_to_baseline(synthetic_scale(devices_per_s=5000 * 0.85),
                               synthetic_scale()) == []
    assert compare_to_baseline(synthetic_scale(devices_per_s=9999.0),
                               synthetic_scale()) == []


def test_fleet_scale_rss_growth_is_named():
    """peak_rss_kb gates lower-is-better like the wall-clock metrics."""
    fresh = synthetic_scale(peak_rss_kb=int(250_000 * 1.5))
    problems = compare_to_baseline(fresh, synthetic_scale())
    assert len(problems) == 1
    assert "fleet_scale peak_rss_kb regressed" in problems[0]
    assert compare_to_baseline(synthetic_scale(peak_rss_kb=100_000),
                               synthetic_scale()) == []


def test_fleet_scale_workload_mismatch_demands_a_fresh_baseline():
    problems = compare_to_baseline(synthetic_scale(devices=500),
                                   synthetic_scale())
    assert len(problems) == 1
    assert "fleet_scale baseline" in problems[0]
    assert "regenerate the baseline" in problems[0]


def test_fleet_scale_missing_metrics_are_reported():
    broken = synthetic_scale()
    del broken["fleet_scale"]["devices_per_s"]
    problems = compare_to_baseline(synthetic_scale(), broken)
    assert problems == ["baseline has no usable fleet_scale "
                        "'devices_per_s'"]


# -- the swarm-bench `server` section (bench schema v5) -----------------------


def synthetic_server(sessions=1000, req_per_s=900.0, p99=120.0,
                     rss=180_000):
    """A server-only artifact, as `cli swarm` writes it."""
    return {"server": {
        "sessions": sessions,
        "image_bytes": 8192,
        "chunk_bytes": 2048,
        "endpoint_mix": {"register": 1, "token": 1, "manifest": 1,
                         "chunk": 5, "report": 1},
        "req_per_s": req_per_s,
        "p99_session_ms": p99,
        "peak_rss_kb": rss,
    }}


def test_server_only_artifacts_gate_each_other():
    assert compare_to_baseline(synthetic_server(),
                               synthetic_server()) == []


def test_server_p99_and_rss_gate_lower_is_better():
    slow = synthetic_server(p99=120.0 * 1.5)
    problems = compare_to_baseline(slow, synthetic_server())
    assert len(problems) == 1
    assert "server p99_session_ms regressed" in problems[0]
    fat = synthetic_server(rss=int(180_000 * 1.5))
    problems = compare_to_baseline(fat, synthetic_server())
    assert "server peak_rss_kb regressed" in problems[0]
    # Leaner/faster passes.
    assert compare_to_baseline(synthetic_server(p99=60.0, rss=90_000),
                               synthetic_server()) == []


def test_server_throughput_gates_higher_is_better():
    slow = synthetic_server(req_per_s=900.0 * 0.7)
    problems = compare_to_baseline(slow, synthetic_server())
    assert len(problems) == 1
    assert "server req_per_s regressed" in problems[0]
    assert "-30%" in problems[0]
    assert compare_to_baseline(synthetic_server(req_per_s=2000.0),
                               synthetic_server()) == []


def test_server_workload_mismatch_demands_a_fresh_baseline():
    other = synthetic_server(sessions=500)
    problems = compare_to_baseline(other, synthetic_server())
    assert len(problems) == 1
    assert "server baseline ran sessions" in problems[0]
    assert "regenerate the baseline" in problems[0]
    mixed = synthetic_server()
    mixed["server"]["endpoint_mix"] = {"register": 1}
    problems = compare_to_baseline(mixed, synthetic_server())
    assert "endpoint_mix" in problems[0]


def test_server_section_gates_inside_full_documents():
    """A future combined artifact (campaign + server) gates both."""
    base = synthetic()
    base.update(synthetic_server())
    fresh = synthetic()
    fresh.update(synthetic_server(req_per_s=900.0 * 0.5))
    problems = compare_to_baseline(fresh, base)
    assert len(problems) == 1
    assert "server req_per_s regressed" in problems[0]
    # Server section on one side only: campaign still gates cleanly.
    assert compare_to_baseline(base, synthetic()) == []


def test_server_missing_metrics_are_reported():
    broken = synthetic_server()
    del broken["server"]["req_per_s"]
    problems = compare_to_baseline(synthetic_server(), broken)
    assert problems == ["baseline has no usable server 'req_per_s'"]


def test_mixed_kind_artifacts_keep_the_legacy_error():
    assert compare_to_baseline(synthetic_server(), synthetic()) \
        == ["baseline or current results carry no campaign section"]
    assert compare_to_baseline(synthetic(), synthetic_server()) \
        == ["baseline or current results carry no campaign section"]


# -- executor inversion detection ---------------------------------------------


def test_find_inversions_flags_pooled_slower_than_serial():
    doc = synthetic()  # parallel 2.0 > fast 1.8: an inversion
    inversions = find_inversions(doc)
    assert len(inversions) == 1
    assert "campaign: fast_parallel" in inversions[0]


def test_find_inversions_covers_both_profiles_and_pools():
    doc = synthetic_full(io_serial=1.0, io_parallel=1.5)
    inversions = find_inversions(doc)
    assert len(inversions) == 2  # the thread pool x 2 profiles
    assert any("campaign_io: fast_parallel" in i for i in inversions)


def test_find_inversions_tolerates_sparse_documents():
    assert find_inversions({}) == []
    assert find_inversions({"campaign": {"fast_serial_seconds": 0}}) == []
    fast = synthetic(fast=2.0, parallel=1.0)
    assert find_inversions(fast) == []


# -- the CLI wiring (satellite: exit status gates CI) -------------------------


@pytest.fixture()
def fake_bench_run(monkeypatch):
    """Stub the expensive harness; ``cli bench`` still writes/gates."""
    def run_all(device_count, image_size, max_workers, io_rtt_seconds=0.05,
                scale_devices=None):
        return synthetic(devices=device_count, image_bytes=image_size)

    def write_results(results, path):
        with open(path, "w") as fh:
            json.dump(results, fh)
        return path

    def run_delta(image_size):
        return {"delta_fastpath": {"firmware_bytes": image_size,
                                   "byte_identical": True}}

    monkeypatch.setattr(bench, "run_all", run_all)
    monkeypatch.setattr(bench, "write_results", write_results)
    monkeypatch.setattr(bench, "format_summary",
                        lambda results: "(stubbed bench)")
    monkeypatch.setattr(bench, "run_delta", run_delta)
    monkeypatch.setattr(bench, "write_delta_results", write_results)
    monkeypatch.setattr(bench, "format_delta_summary",
                        lambda results: "(stubbed delta)")


def write_baseline(path, results):
    from repro.tools.report import write_report
    write_report(dict(results), str(path), "bench")


def test_cli_bench_passes_against_matching_baseline(tmp_path,
                                                    fake_bench_run):
    baseline = tmp_path / "baseline.json"
    write_baseline(baseline, synthetic())
    rc = main(["bench", "--out", str(tmp_path / "fresh.json"),
               "--baseline", str(baseline)])
    assert rc == 0


def test_cli_bench_fails_on_regression(tmp_path, fake_bench_run,
                                       capsys):
    baseline = tmp_path / "baseline.json"
    write_baseline(baseline, synthetic(serial=14.0 / 2, fast=1.8 / 2,
                                       parallel=2.0 / 2))
    rc = main(["bench", "--out", str(tmp_path / "fresh.json"),
               "--baseline", str(baseline)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "REGRESSION:" in out


def test_cli_bench_rejects_a_non_bench_baseline(tmp_path,
                                                fake_bench_run, capsys):
    baseline = tmp_path / "trace.json"
    baseline.write_text(json.dumps(
        {"report_kind": "trace", "schema_version": 1}))
    rc = main(["bench", "--out", str(tmp_path / "fresh.json"),
               "--baseline", str(baseline)])
    assert rc == 1
    assert "not bench" in capsys.readouterr().out


def test_cli_bench_rejects_a_missing_baseline(tmp_path, fake_bench_run,
                                              capsys):
    rc = main(["bench", "--out", str(tmp_path / "fresh.json"),
               "--baseline", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "UNUSABLE" in capsys.readouterr().out


def test_cli_bench_warns_on_inversion_without_strict(tmp_path,
                                                     fake_bench_run,
                                                     capsys):
    # synthetic() has fast_parallel (2.0 s) slower than fast_serial
    # (1.8 s) — an inversion, but only a warning without --strict.
    rc = main(["bench", "--out", str(tmp_path / "fresh.json")])
    assert rc == 0
    assert "WARNING: executor inversion" in capsys.readouterr().out


def test_cli_bench_strict_fails_on_inversion(tmp_path, fake_bench_run,
                                             capsys):
    rc = main(["bench", "--out", str(tmp_path / "fresh.json"),
               "--strict"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "WARNING: executor inversion" in out
    assert "STRICT:" in out


def test_cli_bench_delta_out_writes_an_artifact(tmp_path, fake_bench_run,
                                                capsys):
    delta_path = tmp_path / "delta.json"
    rc = main(["bench", "--out", str(tmp_path / "fresh.json"),
               "--delta-out", str(delta_path)])
    assert rc == 0
    assert delta_path.exists()
    assert "(stubbed delta)" in capsys.readouterr().out
