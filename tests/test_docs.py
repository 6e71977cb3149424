"""Documentation health checks."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PACKAGES = [
    "repro", "repro.core", "repro.crypto", "repro.compression",
    "repro.delta", "repro.memory", "repro.net", "repro.sim",
    "repro.platform", "repro.footprint", "repro.baselines",
    "repro.workload", "repro.fleet", "repro.suit", "repro.analysis",
    "repro.tools", "repro.obs", "repro.faults",
]


@pytest.mark.parametrize("dotted", PACKAGES)
def test_every_package_has_a_docstring(dotted):
    module = importlib.import_module(dotted)
    assert module.__doc__, "%s lacks a module docstring" % dotted


@pytest.mark.parametrize("dotted", PACKAGES)
def test_every_export_resolves_and_is_documented(dotted):
    module = importlib.import_module(dotted)
    exported = getattr(module, "__all__", [])
    assert exported, "%s exports nothing" % dotted
    for name in exported:
        obj = getattr(module, name)  # raises if __all__ lies
        if isinstance(obj, type):
            assert obj.__doc__, "%s.%s lacks a docstring" % (dotted, name)


def test_api_generator_runs():
    result = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "docs",
                                      "generate_api.py")],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr
    api_path = os.path.join(REPO_ROOT, "docs", "API.md")
    assert os.path.exists(api_path)
    content = open(api_path).read()
    assert "## `repro.core`" in content
    assert "UpdateAgent" in content


def test_api_reference_does_not_depend_on_hash_seed():
    """Set defaults render sorted, so two hash seeds (which order
    ``{'retry-storm', 'crash-loop'}`` differently) agree byte for
    byte and a test run never rewrites docs/API.md."""
    script = ("import sys; sys.path.insert(0, %r); import generate_api; "
              "sys.stdout.write(generate_api.render())"
              % os.path.join(REPO_ROOT, "docs"))
    renders = []
    for seed in ("4", "8"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True,
                                cwd=REPO_ROOT, env=env)
        assert result.returncode == 0, result.stderr
        renders.append(result.stdout)
    assert "quarantine_kinds" in renders[0]
    assert renders[0] == renders[1]


@pytest.mark.parametrize("name", ["README.md", "DESIGN.md",
                                  "EXPERIMENTS.md"])
def test_top_level_docs_exist(name):
    path = os.path.join(REPO_ROOT, name)
    assert os.path.exists(path)
    assert len(open(path).read()) > 1000
