"""Every `rwrc` line of the README's command-line block, pinned to stored outputs.

Each line runs in-process in a fresh directory beside the ldp.json the README
shows.  Every file it writes, sidecars included, is compared with
tests/readme_golden.json: strings, integers and booleans exactly, floats to
rel 1e-9 and abs 1e-12; the wall time is dropped.  To rewrite the goldens from
the rwrc on the path (only when a change of output is intended):

    PYTHONPATH=src python tests/test_readme.py
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import shlex
import sys
from pathlib import Path

import pytest

from rwrc.experiments import run_cli

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().with_name("readme_golden.json")


def readme_commands() -> tuple[list[str], str]:
    """The rwrc lines of the command-line block, and the ldp.json beside them."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", section, flags=re.M | re.S)
    lines = [line for line in blocks[0][1].splitlines() if line.startswith("rwrc ")]
    ldp = next(body for lang, body in blocks if lang == "json")
    return lines, ldp


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def run_line(line: str, ldp: str, directory: Path) -> dict:
    """Run one README line in ``directory``; return every file it wrote, parsed."""
    (directory / "ldp.json").write_text(ldp)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run_cli(shlex.split(line)[1:])
    finally:
        os.chdir(cwd)
    assert code == 0, f"exit {code}: {line}"
    outputs = {}
    for path in sorted(directory.iterdir()):
        if path.name == "ldp.json":
            continue
        if path.suffix == ".json":
            doc = json.loads(path.read_text())
            doc.pop("wall_time_s", None)
            outputs[path.name] = doc
        else:
            with open(path, newline="") as fh:
                outputs[path.name] = [[_cell(c) for c in row] for row in csv.reader(fh)]
    return outputs


def assert_matches(got, want, where: str) -> None:
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        same = (math.isnan(want) and math.isnan(got)) or math.isclose(
            got, want, rel_tol=1e-9, abs_tol=1e-12
        )
        assert same, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), f"{where}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


LINES, LDP = readme_commands()


def test_readme_has_command_lines():
    assert len(LINES) >= 10
    assert set(json.loads(GOLDEN.read_text())) == set(LINES)


@pytest.mark.parametrize("line", LINES, ids=[f"{i}-{line.split()[1]}" for i, line in enumerate(LINES)])
def test_readme_line_matches_golden(tmp_path, line):
    want = json.loads(GOLDEN.read_text())[line]
    assert_matches(run_line(line, LDP, tmp_path), want, line)


if __name__ == "__main__":
    import tempfile

    golden = {}
    for line in LINES:
        with tempfile.TemporaryDirectory() as tmp:
            golden[line] = run_line(line, LDP, Path(tmp))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden)} lines to {GOLDEN}", file=sys.stderr)
