"""The strict-typing surface: mypy gate (when available) + config pins.

CI installs mypy via the dev extra and runs the strict surface; locally the
gate degrades to a skip when mypy is not importable, but the pyproject
configuration itself is always validated so the CI job cannot silently
diverge from the repo.
"""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent

#: The modules held to --strict (keep in sync with pyproject + CI).
STRICT_TARGETS = [
    "src/repro/sweep/spec.py",
    "src/repro/staticcheck/findings.py",
]


def _mypy_available() -> bool:
    try:
        import mypy  # noqa: F401
    except ImportError:
        return False
    return True


@pytest.mark.skipif(not _mypy_available(), reason="mypy not installed (CI runs it)")
def test_strict_surface_passes_mypy():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--strict", *STRICT_TARGETS],
        capture_output=True, text=True, cwd=str(ROOT),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_pyproject_declares_the_mypy_config():
    import tomllib

    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    mypy_cfg = config["tool"]["mypy"]
    assert "repro.staticcheck" in mypy_cfg["packages"]
    overrides = config["tool"]["mypy"]["overrides"]
    strict_modules = set()
    for block in overrides:
        if block.get("disallow_untyped_defs"):
            strict_modules.update(block["module"])
    assert {"repro.sweep.spec", "repro.staticcheck.*"} <= strict_modules
    assert "mypy>=1.8" in config["project"]["optional-dependencies"]["dev"]


def test_ci_runs_the_same_strict_targets():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    assert "mypy --strict" in workflow
    for target in STRICT_TARGETS:
        assert target in workflow, f"CI must type-check {target}"


def test_strict_targets_exist():
    for target in STRICT_TARGETS:
        assert (ROOT / target).exists(), target
