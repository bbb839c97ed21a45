"""The README holds: its examples run, its shared flags are the parser's,
and every name its Layout gives exists."""

import argparse
import importlib
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
    args = cli._parse_args(argv)
    assert args.command == argv[0]


def test_shared_flags_are_the_parsers():
    # the flags every command takes are the shared parser's
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    shared = set.intersection(
        *({opt for a in p._actions for opt in a.option_strings} for p in sub.choices.values())
    ) - {"-h", "--help"}
    (sentence,) = re.findall(r"^Shared flags: (.*?)\.\s", README, flags=re.DOTALL | re.MULTILINE)
    assert set(re.findall(r"`(--[\w-]+)", sentence)) == shared


LAYOUT = re.findall(
    r"^- `src/cubestats/(\w+)\.py` - (.*?)(?=^- |^#|\Z)",
    README.split("\n## Layout\n", 1)[1],
    flags=re.DOTALL | re.MULTILINE,
)


def test_every_layout_module_is_found():
    assert len(LAYOUT) >= 12


@pytest.mark.parametrize("module, text", LAYOUT, ids=[m for m, _ in LAYOUT])
def test_layout_names_resolve(module, text):
    # a name the docs give a module must be an attribute of it, or of a class
    # defined there; the package name itself is exempt
    mod = importlib.import_module(f"cubestats.{module}")
    owners = [mod] + [
        v for v in vars(mod).values() if isinstance(v, type) and v.__module__ == mod.__name__
    ]
    names = set(re.findall(r"`([A-Za-z_]\w*)`", text)) - {"cubestats"}
    missing = {name for name in names if not any(hasattr(o, name) for o in owners)}
    assert not missing, f"{module}.py: {sorted(missing)}"
