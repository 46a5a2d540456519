"""README examples: its ```python blocks run, in order, in one
namespace, and its `$ dessins ...` transcripts print what they show."""

import io
import re
import sys
from pathlib import Path

import pytest

from dessins.cli import main

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def transcripts():
    """(command line, expected output lines) per `$ ` line of the
    README's plain code blocks; the output runs to the next blank line."""
    out = []
    for lang, body in BLOCKS:
        for chunk in body.split("\n\n"):
            lines = chunk.strip("\n").splitlines()
            if lang == "" and lines and lines[0].startswith("$ dessins "):
                out.append((lines[0][2:], lines[1:]))
    return out


def test_python_blocks_run():
    blocks = [body for lang, body in BLOCKS if lang == "python"]
    assert len(blocks) == 3
    namespace = {}
    for body in blocks:
        exec(compile(body, "README.md", "exec"), namespace)


@pytest.mark.parametrize("command, expected", transcripts())
def test_shell_transcript(monkeypatch, capsys, command, expected):
    """Each stage of a `|` pipeline reads the stdout of the one before;
    the transcript shows the stderr of every stage, then the stdout of
    the last."""
    monkeypatch.chdir(ROOT)
    stdout = ""
    errors = []
    for stage in command.split(" | "):
        argv = stage.split()
        assert argv[0] == "dessins"
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdout))
        assert main(argv[1:]) == 0
        captured = capsys.readouterr()
        stdout = captured.out
        errors += captured.err.splitlines()
    assert errors + stdout.splitlines() == expected


def test_two_transcripts_found():
    assert [c for c, _ in transcripts()] == [
        "dessins info tests/fixtures/one_square_torus.dessin",
        "dessins subdivide tests/fixtures/one_square_torus.dessin"
        " | dessins passport -",
    ]
