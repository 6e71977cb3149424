"""End-to-end `cli trace` / `cli report` tests (the acceptance gate)."""

import json

import pytest

from repro.tools import report
from repro.tools.cli import main


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """Run ``cli trace`` once (both slot configs) for the whole module."""
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    rc = main(["trace", "--image-size", "8192", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def trace_doc(trace_path):
    with open(trace_path) as fh:
        return json.load(fh)


def test_trace_covers_both_slot_configurations(trace_doc):
    labels = [record["label"]
              for record in trace_doc["configurations"]]
    assert labels == ["config-a/push", "config-b/push"]
    for record in trace_doc["configurations"]:
        assert record["booted_version"] == 2
        assert record["spans"] > 0
    pids = {event["pid"] for event in trace_doc["traceEvents"]}
    assert pids == {1, 2}


def test_trace_spans_nest_correctly(trace_doc):
    """Acceptance: load the exported JSON and check parent/child
    containment explicitly (independent of the library's checker)."""
    spans = {}
    for event in trace_doc["traceEvents"]:
        if event["ph"] != "X":
            continue
        key = (event["pid"], event["tid"], event["args"]["span_id"])
        spans[key] = event
    assert spans, "trace exported no complete spans"
    checked = 0
    for (pid, tid, _), event in spans.items():
        parent_id = event["args"]["parent_id"]
        if parent_id is None:
            continue
        parent = spans[(pid, tid, parent_id)]  # KeyError = broken trace
        assert parent["ts"] - 0.5 <= event["ts"]
        assert (event["ts"] + event["dur"]
                <= parent["ts"] + parent["dur"] + 0.5), \
            "span %r escapes parent %r" % (event["name"], parent["name"])
        checked += 1
    assert checked > 100  # per-block + pipeline spans, not a toy trace


def test_trace_covers_the_update_lifecycle(trace_doc):
    names = {event["name"] for event in trace_doc["traceEvents"]
             if event["ph"] == "X"}
    expected = {"generation", "token_exchange", "transfer.payload",
                "block", "buffer", "flash.write", "verify.manifest",
                "verify.firmware", "loading", "bootloader", "update"}
    assert expected <= names
    instants = {event["name"] for event in trace_doc["traceEvents"]
                if event["ph"] == "i"}
    assert {"token_issued", "firmware_verified", "boot_selected"} \
        <= instants


def test_trace_artifact_carries_metrics(trace_doc):
    assert trace_doc["report_kind"] == "trace"
    assert trace_doc["schema_version"] == report.SCHEMA_VERSIONS["trace"]
    for label, snapshot in trace_doc["metrics"].items():
        assert snapshot["net.bytes_over_air"] > 0, label
        assert snapshot["update.latency_seconds"]["count"] == 1


def test_cli_report_validates_the_trace(trace_path, capsys):
    assert main(["report", "--validate", str(trace_path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_report_flags_drift(tmp_path, trace_doc, capsys):
    broken = dict(trace_doc)
    del broken["metrics"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    assert main(["report", "--validate", str(path)]) == 1
    assert "DRIFT" in capsys.readouterr().out


def test_cli_report_flags_unrecognised_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"hello": 1}')
    assert main(["report", str(path)]) == 1


def test_write_report_round_trips_every_kind(tmp_path):
    for kind in report.SCHEMA_VERSIONS:
        path = tmp_path / ("%s.json" % kind)
        report.write_report({"payload": kind}, str(path), kind)
        loaded_kind, version, data = report.load_report(str(path))
        assert loaded_kind == kind
        assert version == report.SCHEMA_VERSIONS[kind]
        assert data["payload"] == kind


def test_load_report_rejects_unstamped_bench(tmp_path):
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps({"schema": 1, "campaign": {},
                                "sha256": {}}))
    with pytest.raises(report.ReportError):
        report.load_report(str(path))


def test_load_report_detects_legacy_chaos(tmp_path):
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps({"calibration": {}, "results": []}))
    kind, version, _ = report.load_report(str(path))
    assert (kind, version) == ("chaos", 1)


def test_write_report_rejects_unknown_kind(tmp_path):
    with pytest.raises(report.ReportError):
        report.write_report({}, str(tmp_path / "x.json"), "nonsense")


def test_validate_rejects_future_schema():
    errors = report.validate_data("bench", 99, {})
    assert errors and "newer" in errors[0]


def test_validate_rejects_older_bench_schema():
    errors = report.validate_data("bench", 5, {"campaign": {}})
    assert len(errors) == 1
    assert "regenerate" in errors[0]


@pytest.mark.trace
def test_trace_pull_transport_nests_too(tmp_path):
    """Heavier opt-in run: the pull transport on a larger image."""
    path = tmp_path / "trace-pull.json"
    rc = main(["trace", "--slots", "b", "--transport", "pull",
               "--image-size", str(32 * 1024), "--out", str(path)])
    assert rc == 0
    assert main(["report", "--validate", str(path)]) == 0
