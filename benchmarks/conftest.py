"""Shared helpers for the evaluation benchmarks.

Every file here regenerates one table or figure of the UpKit paper
(or an ablation DESIGN.md calls out).  Each benchmark prints the
paper-style rows (paper value vs. this reproduction) and asserts the
*shape* claims — who wins, by roughly what factor — per the
reproduction rubric.  Results are also written to
``benchmarks/results/`` so EXPERIMENTS.md can reference them.
"""

from __future__ import annotations

import os
from typing import Iterable

import pytest

from repro.footprint import format_table
from repro.workload import FirmwareGenerator

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def render(title: str, header: Iterable[str],
           rows: Iterable[Iterable[object]]) -> str:
    """The text of one ``results/<name>.txt``."""
    return "%s\n%s\n" % (title, format_table(header, rows))


@pytest.fixture(scope="session")
def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def firmware_gen() -> FirmwareGenerator:
    return FirmwareGenerator(seed=b"upkit-benchmarks")


@pytest.fixture()
def report(results_dir):
    """Print a result table and persist it under benchmarks/results/."""

    def _report(name: str, title: str, header: Iterable[str],
                rows: Iterable[Iterable[object]]) -> str:
        text = render(title, header, rows)
        print("\n" + text)
        path = os.path.join(results_dir, "%s.txt" % name)
        with open(path, "w") as fh:
            fh.write(text)
        return text

    return _report


def pct(value: float) -> str:
    return "%.1f%%" % (100.0 * value)
