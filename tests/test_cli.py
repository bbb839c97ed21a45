"""Command-line interface: envelopes, determinism, exit codes."""

import csv
import dataclasses
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubestats import (
    MASK_CAP,
    CertificateError,
    LayeredSpec,
    VertexSet,
    __version__,
    approx,
    best_bounds,
    bounds,
    cli,
    constructions,
    distribution_fast,
    residues,
    subcube_count,
)
from cubestats.bounds import c_d
from cubestats.cli import VERIFY_SUITES, main
from cubestats.residues import Thm32Case, Thm32Report
from conftest import render_json

PARITY6 = '{"kind": "parity", "n": 6, "d": 3}'

# one argv per command, and one per verify suite
EVERY_COMMAND = [
    ["dist", "--construct", PARITY6, "-d", "3", "-s", "4"],
    ["exhaustive", "3", "2", "1"],
    ["bounds", "2", "1"],
    ["omega", "2"],
    ["construct", PARITY6],
    ["approx", "0.25", "0.01"],
] + [["verify", suite] for suite in VERIFY_SUITES]


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_traced(capsys, *argv):
    """run, and the tracemalloc peak in bytes of the main call."""
    tracemalloc.start()
    try:
        rc = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr()
    return rc, out.out, out.err, peak


# one spec of each kind whose set lives in Q_n at n = MASK_CAP + 1
PAST_THE_MASK_CAP = [
    {"kind": "bernoulli", "n": MASK_CAP + 1, "d": 3},
    {"kind": "layered", "n": MASK_CAP + 1, "k": 3, "T": [0]},
    {"kind": "parity", "n": MASK_CAP + 1},
    {"kind": "mod_weight", "n": MASK_CAP + 1, "d": 2},
    {"kind": "perturbed_parity", "n": MASK_CAP + 1, "d": 2, "cubes": [{"free": 7, "base": 0}]},
    {"kind": "weight_top_bottom", "d": MASK_CAP - 1},
    {
        "kind": "syndrome",
        "matrix": {"rows": 1, "cols": MASK_CAP + 1, "data": ["1" * (MASK_CAP + 1)]},
        "colors": [0],
        "d": 1,
    },
    {
        "kind": "turan_extremal",
        "d": MASK_CAP - 1,
        "s": 1,
        "clique": {"s": 1, "members": [[0, 1], [0, 2], [0, 3]]},
    },
]


def count_leaves(node) -> int:
    """Scalars and empty containers in a parsed JSON value."""
    if isinstance(node, (dict, list)) and node:
        children = node.values() if isinstance(node, dict) else node
        return sum(count_leaves(child) for child in children)
    return 1


def lookup(node, path: str):
    for part in path.split("."):
        node = node[int(part)] if isinstance(node, list) else node[part]
    return node


class TestEnvelope:
    def test_bounds_report(self, capsys):
        rc, out, _ = run(capsys, "bounds", "2", "1")
        assert rc == 0
        report = json.loads(out)
        assert report["version"] == __version__
        assert report["config"]["command"] == "bounds"
        assert report["bounds"]["lower"] == "2/3"
        assert report["bounds"]["upper"] == "17143/25000"
        assert any("reference-constant" in tag for tag in report["provenance"])

    def test_identical_config_gives_identical_bytes(self, capsys):
        a = run(capsys, "dist", "--construct", PARITY6, "-d", "3", "--seed", "5")
        b = run(capsys, "dist", "--construct", PARITY6, "-d", "3", "--seed", "5")
        assert a == b and a[0] == 0

    def test_parser_is_built_once_and_keeps_no_options(self, capsys):
        cli._command_parser.cache_clear()
        argv = ["dist", "--construct", PARITY6, "-d", "3"]
        first = run(capsys, *argv)
        assert run(capsys, *argv, "-s", "4")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--construct", PARITY6, "-d", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        again = run(capsys, *argv)
        assert cli._command_parser("dist") is cli._command_parser("dist")
        assert again == first and again[0] == 0
        assert "s" not in json.loads(again[1])["config"]["parameters"]

    def test_config_echoes_parameters(self, capsys):
        rc, out, _ = run(capsys, "exhaustive", "4", "2", "1")
        cfg = json.loads(out)["config"]
        assert cfg == {
            "command": "exhaustive",
            "parameters": {"d": 2, "n": 4, "s": 1},
            "seed": 0,
            "format": "json",
            "out": None,
            "workers": 1,
        }


# argv for the parse of main against the full parser tree: help, version,
# no or an unknown command, bad types and choices, leftover and missing
# arguments, "--", abbreviated, joined and ambiguous flags
PARSE_TABLE = [
    [],
    ["-h"],
    ["--version"],
    ["nope"],
    ["dis", "-d", "3"],
    ["--seed", "3", "bounds", "2", "1"],
    *[[command, "-h"] for command in cli._COMMANDS],
    *EVERY_COMMAND,
    ["dist", "--construct", PARITY6, "-d", "3", "--seed", "5", "--format", "csv", "--out", "r"],
    ["dist", "--cons", PARITY6, "-d3"],
    ["dist", f"--construct={PARITY6}", "-d=3", "--work", "2"],
    ["dist", "--set-file", "a.json", "-d", "x"],
    ["dist", "--construct", PARITY6],
    ["dist", "-d"],
    ["dist", "--se", "a.json", "-d", "1"],
    ["dist", "-d", "3", "--version"],
    ["dist", "-d", "3", "extra"],
    ["dist", "-d", "3", "--", "extra"],
    ["dist", "--=x"],
    ["dist", "-h", "--=x"],
    ["dist", "-d", "x", "-h"],
    ["exhaustive", "4", "2"],
    ["exhaustive", "4", "2", "1", "9"],
    ["exhaustive", "four", "2", "1"],
    ["exhaustive", "--", "-4", "2", "1"],
    ["bounds", "-3", "2", "--workers=0"],
    ["bounds", "3", "2", "--seed"],
    ["bounds", "3", "2", "--format", "xml"],
    ["omega", "3", "--pol", "search"],
    ["omega", "3", "--policy", "exact"],
    ["construct"],
    ["construct", PARITY6, PARITY6],
    ["verify", "mystery"],
    ["verify", "prop31", "--seed", "-1"],
    ["approx", "0.25", "x"],
    ["approx", "-0.5", "0.01", "--check-d", "3"],
    ["approx", "0.25", "0.01", "--check-d"],
]


def parse_outcome(capsys, parse, argv):
    """The namespace parse gives argv, or its exit code, stdout and stderr."""
    try:
        return parse(argv)
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err


class TestParse:
    @pytest.mark.parametrize("argv", PARSE_TABLE, ids=lambda argv: " ".join(argv) or "no arguments")
    def test_matches_the_full_tree(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        want = parse_outcome(capsys, cli._build_parser().parse_args, argv)
        assert parse_outcome(capsys, cli._parse_args, argv) == want

    def test_a_command_builds_only_its_own_parser(self, capsys):
        cli._build_parser.cache_clear()
        cli._command_parser.cache_clear()
        assert run(capsys, "bounds", "3", "2")[0] == 0
        assert cli._build_parser.cache_info().currsize == 0
        assert cli._command_parser.cache_info().currsize == 1
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0 and capsys.readouterr().out == f"{__version__}\n"
        assert cli._build_parser.cache_info().currsize == 1


# a Bernoulli set drawn from --seed, so that the seed shows in the report
BERNOULLI_DIST = ["dist", "--construct", '{"kind":"bernoulli","n":8,"d":2}', "-d", "2", "--seed", "7"]

# sha256 of the JSON and the CSV report of each argv, in the order of
# EVERY_COMMAND + [BERNOULLI_DIST]; a refactor of the front end keeps them all
PINNED_DIGESTS = {
    "dist parity": (
        "c8983781dbca2042624d6aa389eeb7254a96df3677c5c0415c4d25049bda57d5",
        "415133186e20d90fe37d6ea0bcdde79ccd2ab27f4f099c8b14cb9b0822fb2cb3",
    ),
    "exhaustive": (
        "9a97d7050a2676d1d0190fac65c7d381954acfc4bfbfbceff131825aa529d1e2",
        "e56aea5538a69962adae3a3a2d046cc504d40744f9afb11347aa4e0d75acfeb5",
    ),
    "bounds": (
        "a36ccb0772cdb150ae0d7139d39befd84d2c6993b5cf5beef92791748963dcdb",
        "57c6649a100f32a8374779b7dc75ceac1cd33ab7970aee7f94b798eb69ef1eba",
    ),
    "omega": (
        "b6e1e26fb0f02865a86d2540d82f364a61d9b4c4bd27d81d57e1ee6641388e48",
        "c3091719a0bd1c381d8888d6fdf1f3fc30bd739962c1cbba8fc27d592403be52",
    ),
    "construct parity": (
        "9aa808bea591c4019e60320fe6fbf049327a36f0c279012f965bf76360e096aa",
        "a07edc3464d4d7a60ccbf8513d6cdf9062eb77ee569a3c9c6ad1027726366fe3",
    ),
    "approx": (
        "12cdcfb8fcacb82cb6e5f3d54a91933c3c8910798912d87a3e475c657b14e152",
        "451d47d2cc28475786da2a1131458f53bdaf70d2b4b6a6ca74bacf2dbc53ea80",
    ),
    "verify prop31": (
        "47a0a24e2c3fc81d7b65d79b7856f57d3f5aedb5d820bd7f105994e161566054",
        "043c27f29796d9d94791ac8586a49174e8b4e5f8c62ce33f79cba65c7ca996f5",
    ),
    "verify thm32": (
        "fd2532c0459d97d456ad1adb66bfeb0c60d000762dc02dfc88c20951d9431d63",
        "e5b505762cdd376d5f5abf8e03c8a0dd5a3c73fae4a893ce4e281d9c6452683a",
    ),
    "verify approx": (
        "e40d4e52d185ca6a1376bbf16808861887a9be59486ef85eb79665cdd43c1bc2",
        "9225b3245646a4af82a171feff34a65582c455bc62466b6498464cca03d70d84",
    ),
    "verify third-layer": (
        "7bbcfd1f25271ec72366317771a87253ba28ccaf4e6ff2fcf66225671ef1ab2e",
        "6b8df352bb5ee7d8ec0f0c5f3599d0a115ff3fd00006eb5379b2164a15f73aec",
    ),
    "verify clique-certs": (
        "b9f9adf67a848e2c39ff5ffe9ed3243fe674aac8b38e916df5578711392f81d9",
        "ba83c4f5a455dd1d00e108fd18d86551ec12d640a77ee759f11793abffb9dd18",
    ),
    "verify oracle-equivalence": (
        "51f0fbcda800444728255ff67c1fff99be62ba34bf571a060956cae4915b5244",
        "080df757d3ad4e7d1cdb9dcccdf72c8836df96759da2d2999721fc1f00f2b7b4",
    ),
    "verify bounds": (
        "2889f575cd26cfb74df59f32b7f09d36f70d8e0e1a4c967909eb09f9c1f17a1c",
        "3cf5bd7fff94943638dbf45d881e6646a822927313339e788e492527f1044f1a",
    ),
    "seeded bernoulli dist": (
        "ef564cb6c8cb42d06bb2e77ac4340fd22025e4de27aa83759dec2e37c7d178b7",
        "7a146524feb8aa143718401b42c3a85c2123a308ee88b28de88c57c934af25f3",
    ),
}


class TestPinnedReports:
    @pytest.mark.parametrize(
        "argv, digests",
        zip(EVERY_COMMAND + [BERNOULLI_DIST], PINNED_DIGESTS.values(), strict=True),
        ids=list(PINNED_DIGESTS),
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_report_bytes(self, capsys, argv, digests, fmt):
        rc, out, _ = run(capsys, *argv, "--format", fmt)
        assert rc == 0
        digest = hashlib.sha256(out.encode("utf-8", "surrogateescape")).hexdigest()
        assert digest == digests[fmt == "csv"]

    def test_out_report_bytes(self, capsys, monkeypatch, tmp_path):
        # a relative --out path, since the path is part of the report's config
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "bounds", "3", "2", "--out", "report.json")[:2] == (0, "")
        digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == "2e9c5321466f629a1e05ac8eaaf8dafe2505fd32e5a50de124b37c04381edba8"


class TestDist:
    def test_parity_counts(self, capsys):
        rc, out, _ = run(capsys, "dist", "--construct", PARITY6, "-d", "3")
        report = json.loads(out)
        dist = report["distribution"]
        assert set(dist["counts"]) == {"4"}
        assert dist["counts"]["4"] == dist["total"]

    def test_lambda_at_requested_occupancy(self, capsys):
        rc, out, _ = run(capsys, "dist", "--construct", PARITY6, "-d", "3", "-s", "4")
        assert json.loads(out)["lambda"]["value"] == "1"

    def test_set_file_input(self, capsys, tmp_path):
        f = tmp_path / "set.json"
        f.write_text('{"n": 2, "vertices": [0, 3]}')
        rc, out, _ = run(capsys, "dist", "--set-file", str(f), "-d", "1", "-s", "1")
        assert rc == 0
        assert json.loads(out)["lambda"]["value"] == "1"

    def test_construct_from_at_file(self, capsys, tmp_path):
        f = tmp_path / "spec.json"
        f.write_text(PARITY6)
        rc, out, _ = run(capsys, "dist", "--construct", f"@{f}", "-d", "3")
        assert rc == 0

    @pytest.mark.parametrize("argv, wrong", [(["-d", "3"], 1), (["-d", "2"], 0), (["-d", "3"], 0)])
    def test_a_claim_off_by_one_subcube_exits_1(self, capsys, monkeypatch, argv, wrong):
        # the mod_weight claim (d = 3) raised by 1/total: checked at -d 3, not
        # at -d 2; the third case raises it too, but with a warning
        build = constructions._BUILDERS["mod_weight"]
        spec = '{"kind": "mod_weight", "n": 8, "d": 3}'
        honest = run(capsys, "dist", "--construct", spec, *argv)
        assert honest[0] == 0

        def off(params):
            r = build(params)
            total = subcube_count(r.vertex_set.n, r.claim_d)
            value = r.claim_value + Fraction(1, total)
            return dataclasses.replace(r, claim_value=value, warning=not wrong)

        monkeypatch.setitem(constructions._BUILDERS, "mod_weight", off)
        rc, out, _ = run(capsys, "dist", "--construct", spec, *argv)
        assert rc == wrong
        report, want = json.loads(out), json.loads(honest[1])
        assert report["distribution"] == want["distribution"]  # the report is still written
        claim = Fraction(want["construction"]["claim"]["lambda"]) + Fraction(1, subcube_count(8, 3))
        assert report["construction"]["claim"]["lambda"] == str(claim)

    @pytest.mark.parametrize("colors, d, value, rc_want", [
        ([0, 1], 1, "1/3", 0),  # every vertex: λ(3, 1, 2) = 1, above the claim
        ([0], 1, "1/3", 0),  # x0 = 0: exactly the claim
        ([0], None, "1/3", 0),  # d = rows = 1
        ([0, 1], 2, "2/3", 0),  # λ(3, 2, 4) = 1: the 2-subsets with column 0 span
    ])
    def test_a_syndrome_claim_that_holds_exits_0(self, capsys, colors, d, value, rc_want):
        spec = {"kind": "syndrome", "matrix": {"rows": 1, "cols": 3, "data": ["100"]},
                "colors": colors, **({} if d is None else {"d": d})}
        rc, out, _ = run(capsys, "dist", "--construct", json.dumps(spec), "-d", str(d or 1))
        claim = json.loads(out)["construction"]["claim"]
        assert (rc, claim["relation"], claim["lambda"]) == (rc_want, "ge", value)

    def test_a_syndrome_claim_above_the_count_exits_1(self, capsys, monkeypatch):
        # x0 = 0 meets 1/3 of the 1-subcubes in one vertex; a "ge" 1/2 fails
        monkeypatch.setattr(constructions, "spanning_fraction", lambda B, d: Fraction(1, 2))
        spec = '{"kind": "syndrome", "matrix": {"rows": 1, "cols": 3, "data": ["100"]}, "colors": [0]}'
        rc, out, _ = run(capsys, "dist", "--construct", spec, "-d", "1")
        assert rc == 1
        assert json.loads(out)["distribution"]["counts"] == {"0": "4", "1": "4", "2": "4"}

    def test_exactly_one_input_required(self, capsys, tmp_path):
        f = tmp_path / "set.json"
        f.write_text('{"n": 2, "vertices": [0]}')
        rc, _, err = run(capsys, "dist", "-d", "1")
        assert rc == 2
        rc, _, err = run(
            capsys, "dist", "--set-file", str(f), "--construct", PARITY6, "-d", "1"
        )
        assert rc == 2

    def test_set_file_past_the_mask_cap_exits_three_before_the_set_is_built(
        self, capsys, tmp_path
    ):
        f = tmp_path / "set.json"
        f.write_text('{"n": %d, "vertices": [0]}' % (MASK_CAP + 1))
        rc, out, err, peak = run_traced(capsys, "dist", "--set-file", str(f), "-d", "1")
        assert rc == 3
        assert out == "" and f"n={MASK_CAP + 1} exceeds" in err and err.count("\n") == 1
        assert peak < 1 << 20
        # a malformed vertex list is still a domain error, whatever n is
        f.write_text('{"n": %d, "vertices": ["a"]}' % (MASK_CAP + 1))
        rc, _, err = run(capsys, "dist", "--set-file", str(f), "-d", "1")
        assert rc == 2 and "must be a list of integers" in err

    @pytest.mark.parametrize("command", [["construct"], ["dist", "-d", "1", "--construct"]])
    @pytest.mark.parametrize("spec", PAST_THE_MASK_CAP, ids=lambda spec: spec["kind"])
    def test_spec_past_the_mask_cap_exits_three_before_the_set_is_built(
        self, capsys, command, spec
    ):
        start = time.perf_counter()
        rc, out, err, peak = run_traced(capsys, *command, json.dumps(spec))
        assert rc == 3
        assert out == "" and f"n={MASK_CAP + 1} exceeds" in err and err.count("\n") == 1
        assert peak < 1 << 20 and time.perf_counter() - start < 1

    def test_every_spec_kind_is_tried_past_the_mask_cap(self):
        assert {spec["kind"] for spec in PAST_THE_MASK_CAP} == set(constructions._BUILDERS)

    def test_bernoulli_inherits_cli_seed(self, capsys):
        spec = '{"kind": "bernoulli", "n": 6, "d": 2}'
        a = run(capsys, "dist", "--construct", spec, "-d", "2", "--seed", "7")
        b = run(capsys, "dist", "--construct", spec, "-d", "2", "--seed", "8")
        assert a[1] != b[1]


class TestCommands:
    def test_bounds_prints_its_witnesses_as_data(self, capsys):
        rc, out, _ = run(capsys, "bounds", "5", "18")
        cell = json.loads(out)["bounds"]
        assert rc == 0
        assert cell["lower_witness"] == {
            "family": "complement",
            "of": {"family": "syndrome", "rows": 4},
        }
        assert cell["upper_source"] == {"family": "turan", "n": 7, "parts": 55}
        rc, out, _ = run(capsys, "bounds", "3", "1", "--format", "csv")
        rows = dict(csv.reader(io.StringIO(out)))
        assert rows["bounds.lower_witness.T.0"] == "0"
        assert rows["bounds.upper_source.family"] == "reference"

    def test_a_layered_witness_with_n_is_a_construct_spec(self, capsys):
        # the weights divisible by 4 meet 1/2 of the 3-subcubes in one vertex as n grows
        witness = json.loads(run(capsys, "bounds", "3", "1")[1])["bounds"]["lower_witness"]
        assert witness.pop("family") == "layered"
        spec = json.dumps({"kind": "layered", "n": 20, **witness})
        rc, out, _ = run(capsys, "dist", "--construct", spec, "-d", "3", "-s", "1")
        value = Fraction(json.loads(out)["lambda"]["value"])
        assert rc == 0 and abs(value - Fraction(1, 2)) < Fraction(1, 256)

    def test_exhaustive_value(self, capsys):
        rc, out, _ = run(capsys, "exhaustive", "4", "2", "1")
        report = json.loads(out)
        assert rc == 0
        assert report["lambda"] == "5/6"
        assert report["witness"]["vertices"] == [0, 3, 13, 14]

    def test_exhaustive_at_n5(self, capsys):
        rc, out, _ = run(capsys, "exhaustive", "5", "2", "1")
        report = json.loads(out)
        assert rc == 0
        assert report["lambda"] == "4/5"
        assert report["witness"]["vertices"] == [0, 3, 12, 15, 21, 22, 25, 26]

    def test_exhaustive_refuses_n6(self, capsys):
        rc, out, err = run(capsys, "exhaustive", "6", "2", "1")
        assert rc == 3
        assert out == "" and "n=6" in err

    def test_omega(self, capsys):
        rc, out, _ = run(capsys, "omega", "2")
        report = json.loads(out)
        assert report["omega"]["lower"] == 7
        assert report["omega"]["source"] == "hadamard"

    def test_clique_certificate_verifies(self, capsys):
        rc, out, _ = run(capsys, "omega", "3")
        report = json.loads(out)
        members = report["omega"]["certificate"]["members"]
        assert len(members) == report["omega"]["lower"] == 11
        assert all(len(m) == 6 for m in members)

    def test_construct(self, capsys):
        rc, out, _ = run(capsys, "construct", PARITY6)
        report = json.loads(out)
        assert rc == 0
        assert report["construction"]["claim"]["lambda"] == "1"

    def test_approx_auto_check(self, capsys):
        rc, out, _ = run(capsys, "approx", "0.25", "0.01")
        report = json.loads(out)
        assert rc == 0
        assert (report["spec"]["q"], report["spec"]["p"]) == (4, 1)
        assert report["check"]["bound_ok"] is True

    @pytest.mark.parametrize(
        "x, eps, check_d, max_error",
        [
            # q = 10,000 and q = 10^6: one q_binsum call per residue and
            # window member would take seconds and hours
            ("0.3333", "1e-9", "10", "426688/625"),
            ("0.333333", "1e-12", "1", "666667/500000"),
        ],
    )
    def test_approx_check_at_large_modulus(self, capsys, x, eps, check_d, max_error):
        start = time.perf_counter()
        rc, out, _ = run(capsys, "approx", x, eps, "--check-d", check_d)
        assert time.perf_counter() - start < 5
        assert rc == 0
        assert json.loads(out)["check"]["max_error"] == max_error

    def test_csv_output(self, capsys):
        # the CSV report holds exactly the leaves of the JSON report
        for argv in EVERY_COMMAND:
            rc, out, _ = run(capsys, *argv)
            report = json.loads(out)
            report["config"]["format"] = "csv"
            rc_csv, out_csv, _ = run(capsys, *argv, "--format", "csv")
            rows = list(csv.reader(out_csv.splitlines()))
            assert rc == rc_csv == 0, argv
            assert rows[0] == ["key", "value"], argv
            for path, value in rows[1:]:
                leaf = lookup(report, path)
                assert leaf in ([], {}) or not isinstance(leaf, (dict, list)), path
                assert value == (leaf if isinstance(leaf, str) else json.dumps(leaf)), path
            paths = [path for path, _ in rows[1:]]
            assert len(set(paths)) == len(paths) == count_leaves(report), argv

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        rc, out, _ = run(capsys, "bounds", "3", "2", "--out", str(target))
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["bounds"]["lower"] == "8/9"


_TEXT = st.text(max_size=6) | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\n\t\x7f", "é ☃ 𝔸", "\ud800", '"]},\n  ']
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(1 << 64, 1 << 200)
    | st.floats()
    | st.sampled_from([-0.0, 1e308, -1e308, 5e-324])
    | _TEXT
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=24,
)


# the first item of each digit width, and the last of the one before
_EVERY_WIDTH = [0, *(10**k + j for k in range(1, 10) for j in (-1, 0)), (1 << 32) - 1]


class TestRenderJson:
    @settings(max_examples=300, deadline=None)
    @given(_JSON_VALUES)
    def test_matches_indented_dumps(self, value):
        want = json.dumps(value, sort_keys=True, indent=2) + "\n"
        assert render_json(value) + "\n" == want

    @pytest.mark.parametrize(
        "value, encoded",
        [
            (np.array(_EVERY_WIDTH, np.uint32), True),
            (np.arange(0, 1 << 32, 4_294_967, dtype=np.uint32), True),
            (np.array([0], np.uint32), True),
            (np.array([(1 << 32) - 1], np.uint32), True),
            (np.array([7, 7, 7, 12, 12], np.uint32), True),
            ([0, 5, 1 << 32], False),
            ([1 << 32], False),
            ([3, 1 << 63], False),
            ([1 << 70], False),
            ([2, 1], False),
            ([-1, 0, 1], False),
            ([0, True, 2], False),
            ([0, 1.5, 2], False),
            ((0, 1, 2), False),
            (
                {
                    "set": {"n": 4, "vertices": np.array([1, 10, 100, 1000], np.uint32)},
                    "a": [[3, 30], [5]],
                },
                True,
            ),
            # arrays that are not nondecreasing in [0, 2^32) render as their tolist()
            (np.array([], np.uint32), False),
            (np.array([[1, 2], [3, 4]], np.uint32), False),
            (np.array([-1, 0, 5], np.int64), False),
            (np.array([0, 5, 1 << 32], np.int64), False),
            (np.array([2, 1], np.uint32), False),
            (np.array([0.5, 1.5]), False),
            (np.array([False, True]), False),
            ([np.array([3, 4], np.uint64), np.array([1 << 63], np.uint64)], True),
        ],
    )
    def test_integer_lists_match_indented_dumps(self, monkeypatch, value, encoded):
        # nondecreasing integer arrays in [0, 2^32) go through _render_ints;
        # lists never do, and every report renders as its tolist() form would
        bodies = []
        render = cli._render_ints

        def spy(*args):
            bodies.append(render(*args))
            return bodies[-1]

        monkeypatch.setattr(cli, "_render_ints", spy)
        want = json.dumps(value, sort_keys=True, indent=2, default=np.ndarray.tolist)
        assert render_json(value) == want
        assert any(body is not None for body in bodies) == encoded

    def test_main_writes_indented_dumps_bytes(self, capsys, monkeypatch):
        reports = record_reports(monkeypatch)
        # a 16,384-vertex list, long enough for every digit width up to 5
        big = ["construct", '{"kind": "mod_weight", "n": 16, "d": 3}']
        for argv in EVERY_COMMAND + [big]:
            rc, out, _ = run(capsys, *argv)
            assert rc == 0, argv
            want = json.dumps(reports[-1], sort_keys=True, indent=2, default=np.ndarray.tolist)
            assert out == want + "\n", argv

    @pytest.mark.parametrize(
        "argv, members",
        [
            (["construct", '{"kind": "mod_weight", "n": 16, "d": 3}'], "construction.set"),
            (
                ["dist", "--construct", '{"kind": "parity", "n": 14}', "-d", "5"],
                "construction.set",
            ),
            (["exhaustive", "4", "2", "1"], "witness"),
        ],
    )
    def test_vertex_sets_render_from_members_without_lists(
        self, capsys, monkeypatch, argv, members
    ):
        # no report converts a vertex set to a Python list, and each one
        # reads as the rendering of its tolist() form
        def refuse(self):
            raise AssertionError("a report built a vertex list")

        monkeypatch.setattr(VertexSet, "vertices", refuse)
        reports = record_reports(monkeypatch)
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        want = json.dumps(reports[-1], sort_keys=True, indent=2, default=np.ndarray.tolist)
        assert out == want + "\n"
        assert lookup(reports[-1], members)["vertices"].dtype == np.uint32
        rc, out, _ = run(capsys, *argv, "--format", "csv")
        assert rc == 0
        assert out == cli._render_csv(_as_lists(reports[-1]))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_file_bytes_match_stdout(self, capsys, monkeypatch, tmp_path, fmt):
        # the --out file holds the stdout bytes, but for the config's own out field
        reports = record_reports(monkeypatch)
        target = tmp_path / f"report.{fmt}"
        null, named = {
            "json": ('  "out": null,\n', f'  "out": {json.dumps(str(target))},\n'),
            "csv": ("\nconfig.out,null\n", f"\nconfig.out,{target}\n"),
        }[fmt]
        big = ["construct", '{"kind": "mod_weight", "n": 16, "d": 3}']
        for argv in EVERY_COMMAND + [big]:
            rc, stdout, _ = run(capsys, *argv, "--format", fmt)
            assert rc == 0 and stdout.count(null) == 1, argv
            rc, out, _ = run(capsys, *argv, "--format", fmt, "--out", str(target))
            assert rc == 0 and out == "", argv
            assert target.read_bytes() == stdout.replace(null, named).encode(), argv
            if fmt == "json":
                want = json.dumps(reports[-1], sort_keys=True, indent=2, default=np.ndarray.tolist)
                assert target.read_bytes() == (want + "\n").encode(), argv

    def test_csv_out_keeps_undecodable_argument_bytes(self, capsys, tmp_path):
        # a path argument that is not UTF-8 reaches the CSV report as its own bytes
        set_file = tmp_path / os.fsdecode(b"\xff.json")
        set_file.write_text('{"n": 2, "vertices": [0, 3]}')
        target = tmp_path / "report.csv"
        argv = ["dist", "--set-file", str(set_file), "-d", "1", "--format", "csv"]
        rc, out, _ = run(capsys, *argv, "--out", str(target))
        assert rc == 0 and out == ""
        row = b"\nconfig.parameters.set_file," + os.fsencode(set_file) + b"\n"
        assert target.read_bytes().count(row) == 1

    def test_strict_stdout_that_cannot_write_a_path_is_a_usage_error(
        self, capsys, monkeypatch, tmp_path
    ):
        # the CSV holds the path's byte 0xff, which strict UTF-8 cannot encode
        set_file = tmp_path / os.fsdecode(b"\xff.json")
        set_file.write_text('{"n": 2, "vertices": [0, 3]}')
        strict = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdout", strict)
        rc = main(["dist", "--set-file", str(set_file), "-d", "1", "--format", "csv"])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("cubestats: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "spec",
        ['{"kind": "mod_weight", "n": 18, "d": 3}', '{"kind": "parity", "n": 16}'],
    )
    def test_out_report_peaks_below_three_times_its_size(self, capsys, tmp_path, spec):
        # the report is written as pieces of the rendering, not copied whole
        target = str(tmp_path / "report.json")
        assert main(["construct", spec, "--out", target]) == 0  # warm caches first
        tracemalloc.start()
        try:
            rc = main(["construct", spec, "--out", target])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0 and capsys.readouterr().out == ""
        assert peak < 3 * os.path.getsize(target)


def record_reports(monkeypatch) -> list[dict]:
    """The list that the report of each later run is appended to, where main builds it."""
    reports = []
    build = cli._envelope

    def envelope(*args):
        reports.append(build(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "_envelope", envelope)
    return reports


def _as_lists(node):
    """The report with every numpy array replaced by its tolist()."""
    if isinstance(node, np.ndarray):
        return node.tolist()
    if isinstance(node, dict):
        return {key: _as_lists(child) for key, child in node.items()}
    if isinstance(node, (list, tuple)):
        return type(node)(_as_lists(child) for child in node)
    return node


class TestVerifySuites:
    @pytest.mark.parametrize(
        "suite",
        ["prop31", "third-layer", "oracle-equivalence", "approx", "clique-certs", "bounds"],
    )
    def test_fast_suites_pass(self, capsys, suite):
        rc, out, _ = run(capsys, "verify", suite)
        report = json.loads(out)
        assert rc == 0
        assert report["pass"] is True
        assert all(c["pass"] for c in report["checks"])

    def test_clique_certs_reports_its_negative_control(self, capsys):
        rc, out, _ = run(capsys, "verify", "clique-certs")
        controls = [c for c in json.loads(out)["checks"] if c.get("control")]
        assert rc == 0
        assert [c["pass"] for c in controls] == [True]
        assert controls[0]["name"].startswith("control: ")

    def test_clique_certs_fails_when_verify_clique_accepts_anything(
        self, capsys, monkeypatch
    ):
        # every certificate check passes; only the negative control fails
        monkeypatch.setattr("cubestats.cli.verify_clique", lambda cert: True)
        rc, out, _ = run(capsys, "verify", "clique-certs")
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
        assert rc == 1
        assert len(failed) == 1 and failed[0].startswith("control: ")

    @pytest.mark.parametrize(
        "suite", ["prop31", "thm32", "approx", "third-layer", "oracle-equivalence", "bounds"]
    )
    def test_suite_reports_its_negative_control(self, capsys, suite):
        # oracle-equivalence has one control for the mirror, two for the layered
        # check; approx has one for a deviation far above the bound, one just above
        controls = {"oracle-equivalence": 3, "approx": 2}.get(suite, 1)
        rc, out, _ = run(capsys, "verify", suite)
        checks = json.loads(out)["checks"]
        assert rc == 0
        flags = [c.get("control", False) for c in checks]
        assert flags[-controls - 1 :] == [False] + [True] * controls
        assert sum(flags) == controls
        for check in checks[-controls:]:
            assert check["pass"] is True and check["name"].startswith("control: ")

    @pytest.mark.parametrize(
        "suite, targets",
        [
            ("prop31", [(residues, "prop31_holds"), (cli, "prop31_holds")]),
            ("thm32", [(residues, "thm32_admissible"), (cli, "thm32_admissible")]),
            ("approx", [(approx, "_bound_test"), (cli, "_bound_test")]),
            ("third-layer", [(approx, "_splits_evenly"), (cli, "_splits_evenly")]),
            ("oracle-equivalence", [(cli, "_mirrors")]),
        ],
        ids=["prop31", "thm32", "approx", "third-layer", "oracle-equivalence"],
    )
    def test_suite_fails_when_its_check_accepts_anything(
        self, capsys, monkeypatch, suite, targets
    ):
        # every regular check passes; only the negative controls fail, which
        # are both of approx's and one of the others'
        for module, name in targets:
            monkeypatch.setattr(module, name, lambda *args: True)
        rc, out, _ = run(capsys, "verify", suite)
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
        assert rc == 1
        assert len(failed) == (2 if suite == "approx" else 1)
        assert all(name.startswith("control: ") for name in failed)

    def test_clique_certs_fails_when_a_certificate_cannot_be_built(
        self, capsys, monkeypatch
    ):
        def corrupt(H):
            raise CertificateError("corrupted certificate")

        monkeypatch.setattr("cubestats.cli.hadamard_to_clique", corrupt)
        rc, out, _ = run(capsys, "verify", "clique-certs")
        assert rc == 1
        assert json.loads(out)["pass"] is False

    @pytest.mark.parametrize(
        "suite, name, wrong",
        [
            ("prop31", "verify_prop31", lambda k, d: False),
            (
                "thm32",
                "verify_thm32",
                lambda k, dims: Thm32Report(
                    k, tuple(dims), (), (Thm32Case(1, (0,), (1,) * k),)
                ),
            ),
            ("approx", "approx_worst", lambda q, d: (q << d, False)),
            ("third-layer", "third_layer_check", lambda d_max: False),
            (
                "oracle-equivalence",
                "distribution_fast",
                lambda A, d: distribution_fast(A.complement(), d),
            ),
            ("clique-certs", "verify_clique", lambda cert: False),
            ("clique-certs", "hadamard_matrix", lambda order: None),
        ],
    )
    def test_suite_fails_when_its_check_is_wrong(
        self, capsys, monkeypatch, suite, name, wrong
    ):
        monkeypatch.setattr(f"cubestats.cli.{name}", wrong)
        rc, out, _ = run(capsys, "verify", suite)
        assert rc == 1
        assert json.loads(out)["pass"] is False

    def test_bounds_fails_only_its_syndrome_checks_when_the_syndrome_value_moves(
        self, capsys, monkeypatch
    ):
        value, text = bounds._FAMILIES["syndrome"]
        moved = (lambda d, s, rows: value(d, s, rows) + Fraction(1, 1 << 20), text)
        monkeypatch.setitem(bounds._FAMILIES, "syndrome", moved)
        rc, out, _ = run(capsys, "verify", "bounds")
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
        assert rc == 1
        assert failed == ["syndrome lower bounds d<=10 recomputed"]

    def test_the_syndrome_value_is_its_rank_chain_at_every_rows(self):
        # the family's Möbius sum against the suite's second route, exactly
        for d in range(1, 57):
            for rows in range(1, d + 1):
                witness = bounds.Witness.make("syndrome", rows=rows)
                assert witness.value(d, 1) == cli._recompute(witness, d, 1)[1], (d, rows)

    def test_bounds_fails_only_its_control_when_every_recompute_agrees(
        self, capsys, monkeypatch
    ):
        def agree(witness, d, s):  # the printed lower, under the family's name
            while witness.family == "complement":
                witness = dict(witness.params)["of"]
            return witness.family, best_bounds(d, s).lower

        monkeypatch.setattr(cli, "_recompute", agree)
        rc, out, _ = run(capsys, "verify", "bounds")
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
        assert rc == 1
        assert len(failed) == 1 and failed[0].startswith("control: ")

    def test_bounds_fails_when_a_lower_bound_passes_its_upper_end(self, capsys, monkeypatch):
        def shrunk(d, s):  # the upper end of (5, 3) just below its lower end
            b = best_bounds(d, s)
            if (d, s) != (5, 3):
                return b
            return SimpleNamespace(**{**vars(b), "upper": b.lower - Fraction(1, 1 << 20)})

        monkeypatch.setattr(cli, "best_bounds", shrunk)
        rc, out, _ = run(capsys, "verify", "bounds")
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
        assert rc == 1 and failed == ["recomputed lower <= upper d<=10"]

    def test_bounds_fails_when_a_lower_bound_passes_the_maximum_at_small_n(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "exhaustive_lambda", lambda n, d, s: (Fraction(0), None))
        rc, out, _ = run(capsys, "verify", "bounds")
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
        assert rc == 1 and failed == ["lower <= exhaustive_lambda(n, d, s) n<=4"]

    def test_oracle_equivalence_draws_its_sets_from_the_seed(self, capsys, monkeypatch):
        seen = []  # the (set, d) pairs that reach the slow oracle
        real = cli.distribution
        monkeypatch.setattr(cli, "distribution", lambda A, d: seen.append((A, d)) or real(A, d))

        def drawn(seed: int) -> list:
            seen.clear()
            assert run(capsys, "verify", "oracle-equivalence", "--seed", str(seed))[0] == 0
            return list(seen)

        first = drawn(1)
        assert len(first) == 25
        assert drawn(1) == first
        assert drawn(2) != first

    def test_oracle_equivalence_fails_when_the_complement_does_not_mirror(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(VertexSet, "complement", lambda self: self)
        rc, out, _ = run(capsys, "verify", "oracle-equivalence")
        assert rc == 1
        passes = [c["pass"] for c in json.loads(out)["checks"]]
        assert passes == [True, False, True, True, True, True]

    @pytest.mark.parametrize("T, failed", [({0}, 4), ({1}, 2)])
    def test_oracle_equivalence_layered_check_and_its_control(
        self, capsys, monkeypatch, T, failed
    ):
        # layered_distribution that ignores T: with T = {0} only the control
        # sees it, with T = {1} only the check against the fast kernel does
        real = cli.layered_distribution
        monkeypatch.setattr(
            cli,
            "layered_distribution",
            lambda n, d, spec: real(n, d, LayeredSpec(spec.k, frozenset(T))),
        )
        rc, out, _ = run(capsys, "verify", "oracle-equivalence")
        passes = [c["pass"] for c in json.loads(out)["checks"]]
        assert rc == 1
        assert passes == [i != failed for i in range(6)]

    @pytest.mark.parametrize(
        "name, failed", [("_fold_distribution", 2), ("_weight_distribution", 5)]
    )
    def test_oracle_equivalence_checks_the_fold_and_the_closed_form(
        self, capsys, monkeypatch, name, failed
    ):
        # a fold that counts the complement fails only the layered check, and
        # a closed form that ignores W, giving the mod_weight set's counts,
        # only the flipped-class control
        fold, closed = cli._fold_distribution, cli._weight_distribution
        mod_weight = sum(1 << w for w in range(0, 17, 4))
        wrong = {
            "_fold_distribution": lambda A, d: fold(A.complement(), d),
            "_weight_distribution": lambda n, d, layers: closed(n, d, mod_weight),
        }
        monkeypatch.setattr(cli, name, wrong[name])
        rc, out, _ = run(capsys, "verify", "oracle-equivalence")
        passes = [c["pass"] for c in json.loads(out)["checks"]]
        assert rc == 1
        assert passes == [i != failed for i in range(6)]

    def test_thm32_fails_when_the_scan_misses_a_case(self, capsys, monkeypatch):
        # no violations, but none of the admissible families found either
        monkeypatch.setattr(
            "cubestats.cli.verify_thm32",
            lambda k, dims: Thm32Report(k, tuple(dims), (), ()),
        )
        rc, out, _ = run(capsys, "verify", "thm32")
        assert rc == 1
        assert json.loads(out)["pass"] is False

    def test_thm32_fails_when_the_kernel_drops_a_case(self, capsys, monkeypatch):
        # negative control below the report: the true scan, less T = {} at d = 1
        scan = residues._constant_cases
        monkeypatch.setattr(
            residues,
            "_constant_cases",
            lambda k, dims: [c for c in scan(k, dims) if (c.d, c.subset) != (1, ())],
        )
        rc, out, _ = run(capsys, "verify", "thm32")
        assert rc == 1
        report = json.loads(out)
        assert report["pass"] is False
        *scans, control = report["checks"]
        assert not any(check["pass"] or check["violations"] for check in scans)
        assert control["control"] and control["pass"]

    def test_prop31_suite_checks_every_k_of_every_row(self, capsys, monkeypatch):
        calls = []

        def record(k, d):
            calls.append((k, d))
            return residues.verify_prop31(k, d)

        monkeypatch.setattr("cubestats.cli.verify_prop31", record)
        rc, out, _ = run(capsys, "verify", "prop31")
        assert rc == 0
        assert calls == [(k, d) for d in range(3, 17) for k in range(3, d + 1)]
        assert json.loads(out)["checks"] == [
            *({"name": f"prop31 d={d} (all 2<k<=d)", "pass": True} for d in range(3, 17)),
            {
                "name": "control: a row with equal residue sums is reported constant",
                "pass": True,
                "control": True,
            },
        ]

    def test_approx_suite_checks_the_worst_p_of_every_cell(self, capsys, monkeypatch):
        calls = []

        def record(q, d):
            calls.append((q, d))
            return approx.approx_worst(q, d)

        monkeypatch.setattr("cubestats.cli.approx_worst", record)
        rc, out, _ = run(capsys, "verify", "approx")
        assert rc == 0
        assert calls == [(q, d) for q in range(2, 13) for d in range(1, 65)]
        assert json.loads(out)["pass"] is True

    def test_third_layer_suite_checks_up_to_the_dimension_it_names(self, capsys, monkeypatch):
        calls = []

        def record(d_max):
            calls.append(d_max)
            return approx.third_layer_check(d_max)

        monkeypatch.setattr(cli, "third_layer_check", record)
        rc, out, _ = run(capsys, "verify", "third-layer")
        assert rc == 0 and calls == [30]
        assert json.loads(out)["checks"][0]["name"] == "third layer floor/ceil d<=30"

    def test_thm32_suite_scans_every_k(self, capsys, monkeypatch):
        calls = []

        def record(k, dims):
            calls.append((k, list(dims)))
            return residues.verify_thm32(k, dims)

        monkeypatch.setattr("cubestats.cli.verify_thm32", record)
        rc, out, _ = run(capsys, "verify", "thm32")
        assert rc == 0
        assert calls == [(k, list(range(1, 17))) for k in range(1, 9)]
        assert json.loads(out)["checks"] == [
            *({"name": f"thm32 k={k} d<=16", "pass": True, "violations": []} for k in range(1, 9)),
            {
                "name": "control: a non-admissible residue set is classified as a violation",
                "pass": True,
                "control": True,
            },
        ]

    def test_thm32_control_fails_a_classifier_that_reads_only_the_size(
        self, capsys, monkeypatch
    ):
        # a classifier that takes any half of Z_k with the parity classes'
        # value 2^(d-1) for a parity class; the control plants such a half
        monkeypatch.setattr(
            cli,
            "thm32_admissible",
            lambda k, case: 2 * len(set(case.subset)) == k and case.values[0] == 1 << (case.d - 1),
        )
        rc, out, _ = run(capsys, "verify", "thm32")
        checks = json.loads(out)["checks"]
        assert rc == 1
        assert [c["pass"] for c in checks] == [True] * 8 + [False]

    def test_thm32_suite(self, capsys):
        rc, out, _ = run(capsys, "verify", "thm32", "--workers", "2")
        assert rc == 0
        assert json.loads(out)["pass"] is True


class TestErrors:
    def test_bad_seed(self, capsys):
        rc, _, err = run(capsys, "bounds", "2", "1", "--seed", str(1 << 64))
        assert rc == 2
        assert err

    def test_domain_error_is_usage(self, capsys):
        rc, _, err = run(capsys, "exhaustive", "3", "2", "9")
        assert rc == 2

    def test_malformed_construct_json(self, capsys):
        rc, _, err = run(capsys, "construct", "{not json")
        assert rc == 2

    @pytest.mark.parametrize("vertices", ['["a"]', "5", "[1.5]", "[true]"])
    def test_non_integer_vertices_are_usage_errors(self, capsys, tmp_path, vertices):
        f = tmp_path / "set.json"
        f.write_text('{"n": 3, "vertices": %s}' % vertices)
        rc, _, err = run(capsys, "dist", "--set-file", str(f), "-d", "1")
        assert rc == 2
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", '{"kind": "mod_weight", "n": 60, "d": 2}'],
        ],
    )
    def test_construct_caps_exit_three(self, capsys, argv):
        rc, out, err = run(capsys, *argv)
        assert rc == 3
        assert out == "" and "cap" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", '{"kind": "parity", "n": "x"}'],
            ["construct", '{"kind": "mod_weight", "n": 6, "d": "x"}'],
            ["construct", '{"kind": "layered", "n": 6, "k": 2, "T": 5}'],
            ["construct", '{"kind": "bernoulli", "n": 6, "d": 2, "seed": -1}'],
            ["construct", '{"kind": "parity", "n": 6, "d": 7}'],
            [
                "construct",
                '{"kind": "syndrome", "colors": [0], "d": 4,'
                ' "matrix": {"rows": 1, "cols": 3, "data": ["111"]}}',
            ],
            ["construct", '{"kind": "perturbed_parity", "n": 4, "d": 3, "cubes": [5]}'],
            ["approx", "0.3", "inf"],
            ["approx", "0.3", "nan"],
            ["approx", "inf", "0.1"],
            ["approx", "nan", "0.1"],
            [
                "construct",
                '{"kind": "turan_extremal", "d": 2, "s": 1,'
                ' "clique": {"s": 1, "members": [[-1, 0]]}}',
            ],
            [
                "construct",
                '{"kind": "syndrome", "colors": [0],'
                ' "matrix": {"rows": 1, "cols": 2, "data": [11]}}',
            ],
            [
                "construct",
                '{"kind": "syndrome", "colors": [0],'
                ' "matrix": {"rows": 1.0, "cols": 2.0, "data": ["11"]}}',
            ],
            ["construct", '{"kind": "mod_weight", "n": 4, "d": 1000000000000}'],
            [
                "construct",
                '{"kind": "turan_extremal", "d": 2, "s": 1,'
                ' "clique": {"s": 1, "members": [[0, 1], [0, 2], [0, 0, 0, 0, 1]]}}',
            ],
            [
                "construct",
                '{"kind": "turan_extremal", "d": 2, "s": 1,'
                ' "clique": {"s": 100000000000000000000,'
                ' "members": [[10000000000000000000]]}}',
            ],
            ["construct", '{"kind": "parity", "n": 6, "D": 3}'],
            ["construct", '{"kind": "bernoulli", "n": 6, "d": 2, "sed": 5}'],
            ["construct", '{"kind": "parity", "n": %s}' % ("1" * 5000)],
        ],
    )
    def test_invalid_parameters_are_usage_errors(self, capsys, argv):
        start = time.perf_counter()
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == "" and "Traceback" not in err and err.count("\n") == 1
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["approx", "0.5", "0.1", "--check-d", "10001"],
            ["approx", "0.5", "0.1", "--check-d", "100000000000"],
            [
                "construct",
                json.dumps(
                    {
                        "kind": "syndrome",
                        "matrix": {"rows": 65, "cols": 2, "data": ["11"] * 65},
                        "colors": [1 << 64],
                        "d": 2,
                    }
                ),
            ],
            [
                "construct",
                '{"kind": "turan_extremal", "d": 1000000000, "s": 1,'
                ' "clique": {"s": 1, "members": [[1, 3], [2, 3], [1, 2]]}}',
            ],
            ["construct", '{"kind": "weight_top_bottom", "d": 1000000000000}'],
            [
                "construct",
                '{"kind": "perturbed_parity", "n": 1000000000000, "d": 2,'
                ' "cubes": [{"free": 3, "base": 0}]}',
            ],
            [
                "construct",
                '{"kind": "syndrome", "colors": [0], "d": 10,'
                ' "matrix": {"rows": 1, "cols": 20, "data": ["%s"]}}' % ("1" * 20),
            ],
            ["omega", "101"],
            ["omega", "1000000"],
            ["omega", "100000", "--policy", "search"],
            [
                "construct",
                '{"kind": "syndrome", "colors": [0], "d": 1,'
                ' "matrix": {"rows": 1, "cols": 1000000, "data": ["%s"]}}' % ("1" * 10**6),
            ],
            [
                "construct",
                '{"kind": "syndrome", "colors": [0],'
                ' "matrix": {"rows": 0, "cols": 134217728, "data": []}}',
            ],
        ],
    )
    def test_oversized_inputs_exit_three(self, capsys, argv):
        start = time.perf_counter()
        rc, out, err = run(capsys, *argv)
        assert rc == 3
        assert out == "" and "Traceback" not in err and err.count("\n") == 1
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("d, s", [(11, 1), (130, 3), (100, 1), (10**11, 1)])
    def test_unprintable_bounds_exit_three(self, capsys, d, s):
        # (2^d - 1)^(2^d - 1) at d = 100 would never finish, and 2^d alone at
        # d = 10^11 needs 12.5 GB; the cap comes first
        rc, out, err = run(capsys, "bounds", str(d), str(s))
        assert rc == 3
        assert out == "" and "Traceback" not in err and err.count("\n") == 1

    def test_bounds_below_the_digit_cap_still_print(self, capsys):
        rc, out, _ = run(capsys, "bounds", "10", "1")
        assert rc == 0
        assert json.loads(out)["bounds"]["lower"] == str(Fraction(1023, 1024) ** 1023)
        rc, out, _ = run(capsys, "bounds", "64", "3")
        assert rc == 0
        assert json.loads(out)["bounds"]["lower"] == str(c_d(64))

    def test_trivial_bounds_at_huge_d(self, capsys):
        rc, out, _ = run(capsys, "bounds", str(10**11), "0")
        assert rc == 0
        bounds = json.loads(out)["bounds"]
        assert bounds["lower"] == bounds["upper"] == "1"

    def test_bounds_at_huge_s_builds_no_turan_parts(self, capsys):
        # the Turán upper bound has 4s - 1 ≈ 4.4·10^12 parts, all but 62 empty
        rc, out, err = run(capsys, "bounds", "60", "1099511627777")
        assert rc == 0 and err == ""
        assert json.loads(out)["bounds"]["upper"] == "1"

    def test_exhaustive_at_huge_d_hits_the_cap(self, capsys):
        # the range check must not build 2^d, which at d = 10^11 needs 12.5 GB
        rc, out, err = run(capsys, "exhaustive", str(10**11), str(10**11), "1")
        assert rc == 3
        assert out == "" and "Traceback" not in err and err.count("\n") == 1

    def test_exhaustive_out_of_range_s_is_usage_error(self, capsys):
        rc, out, err = run(capsys, "exhaustive", "4", "2", "5")
        assert rc == 2
        assert out == "" and "outside" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv", [["-d", "3", "-s", "99"], ["-d", "3", "-s", "-1"], ["-d", "7"]]
    )
    def test_dist_refuses_bad_d_or_s_before_the_fold(self, capsys, monkeypatch, argv):
        def fold(A, d):
            raise AssertionError("the fold ran on a request it should refuse")

        monkeypatch.setattr(cli, "distribution_fast", fold)
        rc, out, err = run(capsys, "dist", "--construct", PARITY6, *argv)
        assert rc == 2
        assert out == "" and "outside" in err and err.count("\n") == 1

    def test_a_huge_bad_matrix_row_is_named_not_quoted(self, capsys):
        spec = '{"kind": "syndrome", "colors": [0], "d": 1, "matrix":'
        spec += ' {"rows": 1, "cols": 1000000, "data": ["%s"]}}' % ("2" * 10**6)
        rc, out, err = run(capsys, "construct", spec)
        assert rc == 2
        assert out == "" and err.count("\n") == 1 and len(err.encode()) < 200
        assert "row 0" in err and "1000000" in err and "'2'" in err

    @pytest.mark.parametrize("where", ["missing/report.json", "."])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, where):
        rc, out, err = run(capsys, "bounds", "2", "1", "--out", str(tmp_path / where))
        assert rc == 2
        assert out == "" and "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, capsys, workers):
        rc, out, err = run(capsys, "verify", "thm32", "--workers", workers)
        assert rc == 2
        assert out == "" and "--workers" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        [b'{"n": 2, "vertices": [0, 3], "extra": 0}', b"[0, 3]", b"\xff"],
    )
    def test_malformed_set_files_are_usage_errors(self, capsys, tmp_path, content):
        f = tmp_path / "set.json"
        f.write_bytes(content)
        rc, out, err = run(capsys, "dist", "--set-file", str(f), "-d", "1")
        assert rc == 2
        assert out == "" and "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["clique", "2"],
            ["omega", "2", "--time-budget", "1"],
            ["omega", "2", "--policy", "hadamard"],
        ],
    )
    def test_removed_omega_options_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_missing_set_file(self, capsys):
        rc, _, err = run(capsys, "dist", "--set-file", "/nonexistent.json", "-d", "1")
        assert rc == 2

    def test_internal_error_exits_four_with_its_traceback(self, capsys, monkeypatch):
        # an exception outside the named ones is a fault, not a failed check
        def boom(args):
            return 1 // 0

        monkeypatch.setitem(cli._COMMANDS, "bounds", (boom, "broken"))
        rc, out, err = run(capsys, "bounds", "2", "1")
        assert rc == 4 and out == ""
        first, *rest = err.splitlines()
        assert first == (
            "cubestats: internal error: ZeroDivisionError: integer division or modulo by zero"
        )
        assert rest[0] == "Traceback (most recent call last):" and "in boom" in err


class TestEntryPoint:
    def test_module_invocation(self, src_env):
        proc = subprocess.run(
            [sys.executable, "-m", "cubestats.cli", "--version"],
            capture_output=True,
            text=True,
            env=src_env,
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout

    @staticmethod
    def fresh_cpu(src_env, *argv):
        """The finished fresh process of ``cubestats argv`` and its CPU seconds,
        start-up and imports included."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(
            [sys.executable, "-m", "cubestats.cli", *argv],
            capture_output=True,
            text=True,
            env=src_env,
            timeout=60,
        )
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        return proc, after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime

    def test_verify_bounds_passes_in_under_a_cpu_second(self, src_env):
        proc, cpu = self.fresh_cpu(src_env, "verify", "bounds")
        assert proc.returncode == 0 and json.loads(proc.stdout)["pass"] is True
        assert cpu < 1

    def test_bounds_at_the_largest_reported_d_runs_in_under_a_cpu_second(self, src_env):
        # d = 120 is the last the denominator cap admits at s = 2
        proc, cpu = self.fresh_cpu(src_env, "bounds", "120", "2")
        assert proc.returncode == 0 and json.loads(proc.stdout)["bounds"]["d"] == 120
        assert cpu < 1

    def test_unknown_suite_exits_two(self, src_env):
        proc = subprocess.run(
            [sys.executable, "-m", "cubestats.cli", "verify", "mystery"],
            capture_output=True,
            text=True,
            env=src_env,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize(
        "argv, read",
        [(["bounds", "2", "1"], 0), (["construct", '{"kind": "parity", "n": 20}'], 1)],
    )
    def test_closed_stdout_is_usage_error(self, src_env, argv, read, unbuffered):
        # the reader is gone before a small report, which buffered stdout holds
        # until a flush, or leaves after one byte of a multi-megabyte one:
        # exit 2 with one stderr line, and nothing from the exit flush
        env = {k: v for k, v in src_env.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        r, w = os.pipe()
        if not read:
            os.close(r)
        with subprocess.Popen(
            [sys.executable, "-m", "cubestats.cli", *argv],
            stdout=w,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            os.close(w)
            if read:
                assert len(os.read(r, read)) == read
                os.close(r)
            err = proc.stderr.read().decode()
            rc = proc.wait(timeout=120)
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("cubestats: ")
        assert "internal error" not in err
        assert "Traceback" not in err and "Exception ignored" not in err


# Fuzzing: every input below must end in exit 0, 2 or 3, with one stderr line
# exactly when the exit is nonzero.  The strategies keep valid sets small
# (n <= 8, exhaustive n <= 4) so that each call takes milliseconds.
SMALL = st.integers(-2, 8)
HUGE = st.sampled_from([10**12, 2**64, -(2**70)])
INT = st.integers(0, 3).flatmap(lambda roll: SMALL if roll else HUGE)
INTS = st.lists(INT, max_size=4)
ANY_JSON = st.one_of(
    INT,
    st.booleans(),
    st.none(),
    st.floats(),
    st.text(max_size=3),
    INTS,
    st.dictionaries(st.text(max_size=2), SMALL, max_size=2),
)


@st.composite
def json_object(draw, **members):
    """Objects whose members are mostly well formed, sometimes absent or of
    any JSON kind, with now and then a stray or typo'd member."""
    obj = {}
    for name, good in members.items():
        roll = draw(st.integers(0, 9))
        if roll:
            obj[name] = draw(good if roll > 1 else ANY_JSON)
    if draw(st.integers(0, 4)) == 0:
        obj[draw(st.sampled_from(["D", "sed", "N", "kind "]))] = draw(ANY_JSON)
    return obj


SPEC_MEMBERS = {
    "syndrome": dict(
        matrix=json_object(
            rows=SMALL, cols=SMALL, data=st.lists(st.text("01", max_size=6), max_size=4)
        ),
        colors=INTS,
        d=INT,
    ),
    "layered": dict(n=INT, k=INT, T=INTS),
    "turan_extremal": dict(
        d=INT,
        s=INT,
        clique=st.one_of(
            json_object(s=INT, members=st.lists(INTS, max_size=4)),
            st.just({"s": 1, "members": [[0, 1], [0, 2], [0, 3]]}),  # a triangle
        ),
    ),
    "parity": dict(n=INT, d=INT),
    "perturbed_parity": dict(
        n=INT, d=INT, cubes=st.lists(json_object(free=INT, base=INT), max_size=3)
    ),
    "weight_top_bottom": dict(d=INT),
    "mod_weight": dict(n=INT, d=INT),
    "bernoulli": dict(n=INT, d=INT, seed=INT),
}
SPECS = st.sampled_from(sorted(SPEC_MEMBERS)).flatmap(
    lambda kind: json_object(kind=st.just(kind), **SPEC_MEMBERS[kind])
)


@st.composite
def deeply_nested(draw, objects):
    """The JSON text of a drawn object with one member, its own or a new
    one, replaced by a value nested 900 to 2,000 levels deep: about where
    json.loads starts to raise RecursionError, and past it."""
    obj = draw(objects)
    name = draw(st.sampled_from(sorted(obj) + ["N"]))
    depth = draw(st.integers(900, 2000))
    opening, closing = draw(st.sampled_from([("[", "]"), ('{"a": ', "}")]))
    deep = opening * depth + json.dumps(draw(ANY_JSON)) + closing * depth
    return json.dumps({**obj, name: "@DEEP@"}).replace('"@DEEP@"', deep)


def mostly_flat(objects):
    """JSON texts of drawn objects, one in five with a deeply nested member."""
    return st.integers(0, 4).flatmap(
        lambda roll: objects.map(json.dumps) if roll else deeply_nested(objects)
    )


def run_fuzzed(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    err = err.getvalue()
    assert rc in (0, 2, 3), (argv, rc, err)
    assert "Traceback" not in err and err.count("\n") == (rc != 0), (argv, err)
    return rc, err


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(mostly_flat(SPECS), INT, st.one_of(st.none(), INT))
    def test_construction_specs(self, text, d, s):
        run_fuzzed(["construct", text])
        argv = ["dist", "--construct", text, "-d", str(d)]
        run_fuzzed(argv if s is None else argv + ["-s", str(s)])

    @settings(max_examples=100, deadline=None)
    @given(
        mostly_flat(
            json_object(
                n=INT,
                vertices=st.one_of(
                    st.lists(st.integers(0, 7), unique=True).map(sorted), INTS
                ),
            )
        ),
        INT,
    )
    def test_set_files(self, text, d):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "set.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            run_fuzzed(["dist", "--set-file", path, "-d", str(d)])

    @pytest.mark.parametrize("depth", [1000, 10**5])
    def test_deeply_nested_json_is_bad_input(self, tmp_path, depth):
        # json.loads recurses once per level, and raises RecursionError past the limit
        path = tmp_path / "deep.json"
        path.write_text("[" * depth + "]" * depth)
        for argv in (
            ["construct", f"@{path}"],
            ["dist", "--construct", f"@{path}", "-d", "1"],
            ["dist", "--set-file", str(path), "-d", "1"],
        ):
            rc, err = run_fuzzed(argv)
            assert rc == 2 and "nested too deeply" in err, (argv, err)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_numeric_commands(self, data):
        commands = ["exhaustive", "bounds", "omega", "approx"]
        command = data.draw(st.sampled_from(commands))
        options = []
        if command == "exhaustive":  # n <= 4: the n = 5 build takes about 19 s
            n = data.draw(st.one_of(st.integers(-1, 4), HUGE))
            args = [n, data.draw(st.integers(-1, 4)), data.draw(INT)]
        elif command == "bounds":
            args = [data.draw(INT), data.draw(INT)]
        elif command == "omega":
            policy = data.draw(st.sampled_from(["auto", "search"]))
            options = ["--policy", policy]
            s = st.one_of(st.integers(-2, 3), st.sampled_from([101, 10**6]), HUGE)
            args = [data.draw(s)]
        else:
            floats = st.one_of(st.floats(0, 1), st.floats())
            args = [data.draw(floats), data.draw(floats)]
            check_d = data.draw(st.one_of(st.none(), st.integers(-2, 64), HUGE))
            if check_d is not None:
                options = ["--check-d", str(check_d)]
        # "--" keeps argparse from reading a negative number as an option
        run_fuzzed([command, *options, "--", *map(str, args)])
