"""The CI workflow runs exactly the steps of tools/ci.sh, in its order."""

import pathlib
import re
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_workflow_runs_every_ci_step_in_order():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    called = re.findall(r"run: bash tools/ci\.sh (\S+)", workflow)
    listed = subprocess.run(["bash", str(ROOT / "tools" / "ci.sh"), "list"],
                            capture_output=True, text=True,
                            check=True).stdout.split()
    assert called == listed
    assert workflow.count("run:") == len(called)
