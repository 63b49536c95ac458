"""Every example script runs to completion.

Each ``examples/*.py`` is a user-facing walkthrough with its own assertions,
so it runs here as a subprocess, from a scratch directory (temporary files
included), and must exit 0.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_collected():
    assert [path.name for path in EXAMPLES] == [
        "area_report.py",
        "attack_campaign.py",
        "policy_reconfiguration.py",
        "quickstart.py",
        "scenario_matrix.py",
        "secure_firmware_update.py",
        "sweep_and_compare.py",
    ]


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
