"""The package's names: each resolves to its module's object on first use,
and the numbers-only entries run without loading numpy."""

import importlib
import subprocess
import sys

import pytest

import cubestats

# best_bounds at every s for d <= 6 and at (10, 1), and each other entry once
NUMBERS_ONLY = """
import sys
from fractions import Fraction

from cubestats import (
    approx_construct, best_bounds, check_approx, lambda_d2_closed_form,
    third_layer_check, turan_density, verify_prop31,
)
from cubestats.approx import approx_worst

for d in range(1, 7):
    for s in range((1 << d) + 1):
        best_bounds(d, s)
best_bounds(10, 1)
spec = approx_construct(0.3, 0.1)
assert check_approx(spec, spec.d_min).bound_ok
assert approx_worst(7, 30) == (211263392, True)
assert verify_prop31(5, 9) and third_layer_check(20)
assert turan_density(6, 3) == lambda_d2_closed_form(4, 1) == Fraction(4, 5)
{tail}
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "tail, loaded",
    [("", "False"), ("import cubestats.cli", "True")],
    ids=["numbers-only", "control-cli"],
)
def test_numbers_only_calls_load_no_numpy(tail, loaded, src_env):
    proc = subprocess.run(
        [sys.executable, "-c", NUMBERS_ONLY.format(tail=tail)],
        capture_output=True,
        text=True,
        env=src_env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == loaded


def test_every_name_is_its_modules_object():
    for module, names in cubestats._NAMES.items():
        mod = importlib.import_module(f"cubestats.{module}")
        assert getattr(cubestats, module) is mod
        for name in names.split():
            obj = getattr(mod, name)
            assert getattr(cubestats, name) is obj, name
            assert getattr(obj, "__module__", mod.__name__) == mod.__name__, name
    assert len(cubestats._NAMES) == 12
    assert set(cubestats.__all__) <= set(dir(cubestats))
    assert set(cubestats._NAMES) <= set(dir(cubestats))
    with pytest.raises(AttributeError, match="no_such_name"):
        cubestats.no_such_name  # noqa: B018


def test_a_fresh_process_resolves_a_submodule_by_attribute(src_env):
    # before any name is resolved: dir lists them all, and a submodule that
    # no import has reached yet is found as an attribute
    code = (
        "import cubestats; print(set(cubestats.__all__) <= set(dir(cubestats)),"
        " cubestats.stats.__name__, cubestats.bounds.__name__)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env, timeout=60
    )
    assert proc.stdout.split() == ["True", "cubestats.stats", "cubestats.bounds"], proc.stderr
