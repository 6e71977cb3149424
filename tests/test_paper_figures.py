"""The paper's tables, figures and ablations, pinned byte for byte.

Each ``benchmarks/test_<figure>.py`` (the perf benchmarks aside)
regenerates one table, figure or ablation of the paper and writes it to
``benchmarks/results/<name>.txt``.  Here every one of them runs with
its ``report`` captured instead of written, and each text must equal
the committed file: a change to the model cannot move a paper number
unnoticed, and the committed results are never rewritten by tier-1.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

import pytest

from repro.workload import FirmwareGenerator

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
RESULTS = BENCHMARKS / "results"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(
        "paper_figures_" + path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


render = _load(BENCHMARKS / "conftest.py").render


def _figures() -> Iterator[Tuple[str, Callable[..., None]]]:
    for path in sorted(BENCHMARKS.glob("test_*.py")):
        if path.stem.startswith("test_perf_"):
            continue
        module = _load(path)
        for name, function in sorted(vars(module).items()):
            if name.startswith("test_") and callable(function):
                yield name, function


FIGURES = list(_figures())


class _RunOnce:
    """Stands in for pytest-benchmark's fixture: one plain call."""

    def __call__(self, function, *args, **kwargs):
        return function(*args, **kwargs)

    def pedantic(self, function, args=(), kwargs=None, **_timing):
        return function(*args, **(kwargs or {}))


def test_every_figure_is_collected():
    assert len(FIGURES) == 15


@pytest.mark.parametrize("figure", [f for _name, f in FIGURES],
                         ids=[name for name, _f in FIGURES])
def test_figure_matches_committed_result(figure):
    written: Dict[str, str] = {}

    def report(name, title, header, rows) -> str:
        text = render(title, header, rows)
        assert name not in written, "%s reported twice" % name
        written[name] = text
        return text

    fixtures = {"benchmark": _RunOnce(), "report": report,
                "firmware_gen": FirmwareGenerator(seed=b"upkit-benchmarks"),
                "results_dir": str(RESULTS)}
    figure(**{name: fixtures[name]
              for name in inspect.signature(figure).parameters})
    assert written, "the figure reported nothing"
    mismatched: List[str] = [
        name for name, text in sorted(written.items())
        if (RESULTS / ("%s.txt" % name)).read_text() != text]
    assert not mismatched, "differs from benchmarks/results: %s" % mismatched
