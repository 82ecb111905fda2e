"""Every CLI command's standard output and exit code, pinned.

`tests/data/cli-transcripts.json` maps each command line below to its exit
code and its standard output, line by line, in text and in `--json`, with
the elapsed-time lines left out.  Regenerate it, after a deliberate change
of output, from the root of a checkout with

    PYTHONPATH=src python tests/test_transcripts.py
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from evalcodes.cli import main

PATH = Path(__file__).parent / "data" / "cli-transcripts.json"
FIXTURES = ["five-points-f3", "hypersimplex-f3-s4", "torus-f5-sharp-gap"]
ELAPSED = re.compile(r'elapsed: |\s*"elapsed_seconds": ')


def command_lines():
    """The command lines that are pinned, each in text and in --json."""
    lines = [
        [*command, fixture, "--order", order]
        for fixture in FIXTURES
        for command in (["rghw"], ["rghw", "--validate"], ["weights"], ["vanishing-ideal"])
        for order in ("lex", "grlex", "grevlex")
    ]
    lines += [["toric-table", "3", "4"], ["toric-table", "5", "3"], ["toric-table", "2", "3"]]
    lines += [
        ["rghw", "torus-f5-sharp-gap", "--budget", "3"],
        ["weights", "hypersimplex-f3-s4", "--budget", "3"],
        ["toric-table", "3", "10", "--budget", "1"],
    ]
    return [" ".join(argv + fmt) for argv in lines for fmt in ([], ["--json"])]


def transcript(line):
    """{"exit": code, "stdout": lines} of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(line.split())
    kept = [text for text in out.getvalue().splitlines() if not ELAPSED.match(text)]
    return {"exit": code, "stdout": kept}


# Absent only before the first recording; the test below then fails.
TRANSCRIPTS = json.loads(PATH.read_text()) if PATH.exists() else {}


def test_every_command_line_is_pinned():
    assert sorted(TRANSCRIPTS) == sorted(command_lines())


@pytest.mark.parametrize("line", sorted(TRANSCRIPTS))
def test_transcript_unchanged(line):
    assert transcript(line) == TRANSCRIPTS[line]


if __name__ == "__main__":
    recorded = {line: transcript(line) for line in command_lines()}
    PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
