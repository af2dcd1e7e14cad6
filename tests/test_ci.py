"""The CI workflow against the files it must follow, read as plain text."""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()


def test_smoke_loop_names_the_benchmark_workloads():
    loops = re.findall(r"^\s*for w in ([^;\n]*); do$", WORKFLOW, re.MULTILINE)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert len(loops) == 1
    assert sorted(loops[0].split()) == sorted(w["name"] for w in declared)


def test_numpy_floor_matches_pyproject():
    floors = re.findall(r'"numpy>=([0-9.]+)"', (ROOT / "pyproject.toml").read_text())
    pins = re.findall(r'numpy: "numpy==([0-9.]+)\.\*"', WORKFLOW)
    assert len(floors) == 1
    assert pins == floors


def test_python_floor_matches_pyproject():
    floors = re.findall(r'^requires-python = ">=([0-9.]+)"$', (ROOT / "pyproject.toml").read_text(),
                        re.MULTILINE)
    # Numbered versions only: "3.x" is the newest release, never the oldest.
    pythons = re.findall(r'^\s*(?:- )?python: "([0-9.]+)"$', WORKFLOW, re.MULTILINE)
    assert len(floors) == 1 and pythons
    assert min(pythons, key=lambda v: tuple(map(int, v.split(".")))) == floors[0]


def test_pip_install_names_the_test_extras():
    extras = re.findall(r'^test = \[(.*)\]$', (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    installs = re.findall(r'pip install "\$\{\{ matrix\.numpy \}\}" (.*)$', WORKFLOW, re.MULTILINE)
    assert len(extras) == 1 and len(installs) == 1
    assert sorted(installs[0].split()) == sorted(re.findall(r'"([^"]+)"', extras[0]))
