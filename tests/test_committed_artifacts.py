"""The artifacts committed at the repository root validate as they are.

``BENCH_*.json``, ``CHAOS_report.json`` and ``trace.json`` are read by
dashboards and by the ``--baseline`` gates long after the run that
wrote them.  Each must pass ``cli report --validate`` at the schema
this tree understands; the files are only read, never rewritten.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.tools.report import validate_file

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ARTIFACTS = sorted(
    [os.path.basename(path)
     for path in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))]
    + ["CHAOS_report.json", "trace.json"])


def test_every_expected_artifact_is_committed():
    for name in ("BENCH_delta.json", "BENCH_fleet.json",
                 "BENCH_server.json", "CHAOS_report.json", "trace.json"):
        assert name in ARTIFACTS
        assert os.path.isfile(os.path.join(REPO_ROOT, name))


@pytest.mark.parametrize("name", ARTIFACTS)
def test_committed_artifact_validates(name):
    assert validate_file(os.path.join(REPO_ROOT, name)) == []
