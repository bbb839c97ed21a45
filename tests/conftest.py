"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

from cubestats import cli

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def src_env() -> dict[str, str]:
    """This environment with src first on PYTHONPATH, for child interpreters.

    pytest's ``pythonpath`` setting reaches only its own process, so a
    subprocess would otherwise import cubestats only from an install.
    """
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, rest] if rest else [SRC])}


def render_json(node) -> str:
    """The text ``cli._render_json`` writes for node: its pieces joined and decoded."""
    return b"".join(cli._render_json(node, [])).decode()
