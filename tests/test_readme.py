"""The README's examples still run: the Python quick tour and every CLI line."""

import re
import shlex
from pathlib import Path

import pytest

from cubestats import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)


CLI_LINES = [
    line
    for block in _blocks("sh")
    for line in block.splitlines()
    if line.startswith("cubestats ")
]


def test_quick_tour_runs():
    (tour,) = _blocks("python")
    exec(compile(tour, "README.md", "exec"), {})


def test_every_cli_example_is_found():
    assert len(CLI_LINES) >= 9


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_parses(line):
    # argparse exits 2 on an unknown flag or a bad value, which fails the test
    argv = shlex.split(line, comments=True)[1:]
    args = cli._build_parser().parse_args(argv)
    assert args.command == argv[0]
