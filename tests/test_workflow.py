"""The CI workflow's shell step that runs the installed ``dessins``
console script, run here from the checkout: a shim named ``dessins``
stands in for the installed script, so a broken step fails the tests
before it fails on CI."""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def step_script(workflow: str, name: str) -> str:
    """The ``run: |`` block of the step ``name``, dedented: the lines
    after ``run: |`` that are blank or indented deeper than ``run:``.
    Plain text search, so the tests need no YAML parser."""
    lines = workflow.splitlines()
    start = next(k for k, line in enumerate(lines)
                 if line.strip() == f"- name: {name}")
    for i in range(start + 1, len(lines) + 1):
        key = lines[i].strip() if i < len(lines) else "- name:"
        assert not key.startswith("- name:"), f"step {name!r} has no run: |"
        if key == "run: |":
            break
    indent = len(lines[i]) - len(lines[i].lstrip())
    block = []
    for line in lines[i + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return textwrap.dedent("\n".join(block)).strip() + "\n"


def test_step_script_reads_only_its_block():
    workflow = textwrap.dedent("""\
        steps:
          - name: First
            run: |
              echo one
                | cat

              echo two
          - name: Second
            run: echo three
        """)
    assert step_script(workflow, "First") == "echo one\n  | cat\n\necho two\n"
    with pytest.raises(AssertionError, match="has no run"):
        step_script(workflow + "  - name: Third\n", "Second")


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_installed_entry_point_step(tmp_path):
    """The step under ``bash -e -o pipefail``, as CI's ``shell: bash``
    runs it, from the repository root, with ``src`` on PYTHONPATH and
    shims first on PATH: ``dessins`` for the console script and
    ``python`` for the interpreter running these tests."""
    script = step_script(WORKFLOW.read_text(encoding="utf-8"),
                         "Installed dessins entry point")
    assert script.startswith("dessins subdivide")
    shims = tmp_path / "bin"
    shims.mkdir()
    for name, command in (("dessins", "-m dessins"), ("python", "")):
        shim = shims / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {command} "$@"\n')
        shim.chmod(0o755)
    env = dict(os.environ,
               PATH=os.pathsep.join((str(shims), os.environ.get("PATH", ""))),
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"),
                               os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run(["bash", "-e", "-o", "pipefail", "-c", script],
                            cwd=ROOT, env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-4000:]
