"""The command line: options, exit codes and error lines, the sweep's output and the work its kernel
does, the check bounds of tables and oracle-check, and the request cap.

A sweep that fails on a later pair of a 3x3x4 sweep writes nothing, to stdout or to --out, in CSV
and JSON. The sweep kernel's work is bounded, not counted: a one-pair sweep of 10,001 angles makes
at most 30 ewl._side calls, and three pairs over n angles take at most 1.5 n sines. An all-quantity
sweep calls ewl._pure_payoffs once per row for its payoffs group (and once per ewl._pure_ne call),
never hands that group to the renderer, and calls quantum_rde._select_rde once per transitional
row and once per other run; sensitivity_partials and sensitivity_indices call it once per point. It
renders each distinct NE group, pure RDE and blank sensitivity group once, keeps at most
cli._TEXTS texts in its cache (the 81x81x8 JSON cube renders each of its 22 shared texts once),
builds no PayoffMatrix2x2 and never calls SensitivityReport._replace; a --quantities rde sweep
renders no class or thresholds group. The rows of a sweep inside one two-NE phase, across gamma*
and across p* values, are its one-row sweeps. The sha256 of an all-quantity 9x9x7 sweep of the
whole cube is pinned in both formats, and planted infinite and NaN cells print as json.dumps and
csv.writer print them. The payoffs templates, cli._PAYOFFS_CSV and cli._TEMPLATES["payoffs"],
give _csv_text's text for any two floats and _json_text's for any two finite ones, and
ewl._pure_payoffs returns two finite floats over the cube.

oracle-check's report is pinned by sha256 for --grid 31, --grid 11 on two seeds and --grid 5
--tampered-gate, and a 1e-11 fault planted in ewl._joint fails it whether it reaches only the grid
or only the seeded points. Each reachable check bound of tables and oracle-check gets an input
exactly on it, which passes: a grid pair that deviates by exactly 1e-12 (1 ulp more fails), a
Table 5 grid gain of exactly TIE_EPS (1 ulp more fails every Table 5 line) and a Table 6 index whose
finite difference lies exactly 1e-6 * |index| away. Oversized sweeps and oracle grids are refused with ewl._linspace replaced by a
function that fails if called, and a request of exactly the cap runs. argparse reads the parser's
negative-number matcher.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qpd_rde
from qpd_rde import cli, ewl, game_core, quantum_rde, risk_dominance
from qpd_rde.cli import build_parser, main
from qpd_rde.ewl import thresholds
from qpd_rde.game_core import DilemmaParams, PayoffMatrix2x2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--dg", "0.5", "--dr", "0.5")
    assert code == 0
    assert "class: PD" in out
    assert "(D,D)" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--dg", "-0.5", "--dr", "0.5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "SH"
    assert set(payload["pure_ne"]) == {"(C,C)", "(D,D)"}


def test_classify_rejects_out_of_range(capsys):
    code, _, err = run(capsys, "classify", "--dg", "1.5", "--dr", "0.0")
    assert code == 1
    assert "error" in err


def test_ne_classical_and_quantum(capsys):
    code, out, _ = run(capsys, "ne", "--dg", "0.5", "--dr", "-0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "classical"
    assert set(payload["pure_ne"]) == {"(C,D)", "(D,C)"}

    code, out, _ = run(capsys, "ne", "--dg", "0.9", "--dr", "0.2",
                       "--gamma", "0.5", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["phase"] == "transitional"
    assert set(payload["pure_ne"]) == {"(Q,D)", "(D,Q)"}


def test_ne_degrees_flag(capsys):
    _, out_rad, _ = run(capsys, "ne", "--dg", "0.9", "--dr", "0.2",
                        "--gamma", str(math.pi / 6), "--format", "json")
    _, out_deg, _ = run(capsys, "ne", "--dg", "0.9", "--dr", "0.2",
                        "--gamma", "30", "--degrees", "--format", "json")
    a, b = json.loads(out_rad), json.loads(out_deg)
    assert a["gamma"] == pytest.approx(b["gamma"], abs=1e-12)
    assert a["pure_ne"] == b["pure_ne"]


def test_gamma_out_of_range(capsys):
    code, _, err = run(capsys, "ne", "--dg", "0.9", "--dr", "0.2", "--gamma", "2.0")
    assert code == 1
    assert "gamma" in err


@pytest.mark.parametrize("command", ["ne", "rde", "sensitivity"])
def test_gamma_domain_is_checked_in_radians_on_every_quantum_path(capsys, command):
    code, out, err = run(capsys, command, "--dg", "0.9", "--dr", "0.2", "--gamma", "100",
                         "--degrees")
    assert (code, out) == (1, "")
    assert err == f"error: gamma must lie in [0, pi/2], got {math.radians(100)!r}\n"


@pytest.mark.parametrize("argv, echoed", [
    (("ne", "--dg", "-1e-07", "--dr", "0.5"), "d_g: -1e-07"),
    (("sweep", "--dg-range", "-1e-07", "1", "3", "--dr", "0.5"), "-1e-07,0.5,0,SH,0,"),
], ids=["ne", "sweep"])
def test_negative_numbers_in_exponent_form_are_values(capsys, argv, echoed):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[1 if argv[0] == "sweep" else 0].startswith(echoed)


def test_rde_classical_branches(capsys):
    code, out, _ = run(capsys, "rde", "--dg", "0.5", "--dr", "0.5", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["rde_label"] == "(D,D)"
    assert payload["payoff_a"] == 0.0

    _, out, _ = run(capsys, "rde", "--dg", "0.9", "--dr", "-0.3", "--format", "json")
    payload = json.loads(out)
    assert payload["rde_kind"] == "mixed"
    assert payload["p"] == pytest.approx(0.25, abs=1e-12)
    assert payload["delta_cd"] == pytest.approx(payload["delta_dc"], abs=1e-12)

    _, out, _ = run(capsys, "rde", "--dg", "-0.6", "--dr", "0.3", "--format", "json")
    payload = json.loads(out)
    assert payload["rde_label"] == "(C,C)"
    assert payload["delta_cc"] > payload["delta_dd"]


def test_rde_quantum(capsys):
    code, out, _ = run(capsys, "rde", "--dg", "0.9", "--dr", "0.2",
                       "--gamma", str(math.pi / 6), "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["phase"] == "transitional"
    assert payload["p"] == pytest.approx(13 / 28, abs=1e-12)
    assert payload["delta_qd"] == pytest.approx(0.121875, abs=1e-12)
    thr = thresholds(DilemmaParams(0.9, 0.2))
    assert payload["gamma1"] == pytest.approx(thr.gamma1, abs=1e-12)
    assert payload["gamma2"] == pytest.approx(thr.gamma2, abs=1e-12)

    _, out, _ = run(capsys, "rde", "--dg", "0.2", "--dr", "0.9",
                    "--gamma", "0.6", "--format", "json")
    payload = json.loads(out)
    assert payload["phase"] == "coexistence"
    assert payload["rde_label"] == "(Q,Q)"
    assert payload["delta_qq"] > payload["delta_dd"]


def test_sensitivity_requires_gamma(capsys):
    code, _, err = run(capsys, "sensitivity", "--dg", "0.9", "--dr", "0.2")
    assert code == 1
    assert "gamma" in err


def test_sensitivity_reference_values(capsys):
    code, out, _ = run(capsys, "sensitivity", "--dg", "0.9", "--dr", "0.2",
                       "--gamma", str(math.pi / 6), "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["p_star"] == pytest.approx(13 / 28, abs=1e-12)
    assert payload["index_dg"] == pytest.approx(-0.593, abs=0.005)
    assert payload["semi_elasticity_gamma"] == pytest.approx(5.596, abs=0.01)
    assert payload["gamma_g"] == pytest.approx(0.387597, abs=1e-5)
    assert payload["gamma_r"] == pytest.approx(0.602798, abs=1e-5)


def test_sensitivity_json_keys_follow_the_record_fields(capsys):
    code, out, _ = run(capsys, "sensitivity", "--dg", "0.9", "--dr", "0.2", "--gamma", "0.5",
                       "--format", "json")
    assert code == 0
    assert list(json.loads(out)) == [
        "d_g", "d_r", "gamma", "p_star", "partial_dg", "partial_dr", "partial_gamma",
        "index_dg", "index_dr", "index_gamma", "semi_elasticity_gamma", "gamma_g", "gamma_r"]


def test_sweep_row_count_and_header(capsys):
    code, out, _ = run(capsys, "sweep", "--dg", "0.9", "--dr", "0.2",
                       "--gamma-range", "0", "1.5", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 8
    header = lines[0].split(",")
    assert header[:3] == ["d_g", "d_r", "gamma"]
    assert "class" in header and "rde_label" in header


def test_sweep_deterministic(capsys):
    args = ("sweep", "--dg-range", "-0.5", "0.9", "4", "--dr-range", "-0.5", "0.9", "3",
            "--gamma-range", "0", "1.2", "5",
            "--quantities", "class,ne,rde,payoffs,sensitivity,thresholds")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert code == 0
    assert out1 == out2
    assert len(out1.strip().split("\n")) == 1 + 4 * 3 * 5


def test_sweep_csv_json_equivalence(capsys):
    base = ("sweep", "--dg", "0.9", "--dr", "0.2", "--gamma-range", "0.2", "0.8", "3",
            "--quantities", "rde,thresholds")
    _, csv_out, _ = run(capsys, *base, "--format", "csv")
    _, json_out, _ = run(capsys, *base, "--format", "json")
    rows = json.loads(json_out)
    header, *records = list(csv.reader(io.StringIO(csv_out)))
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        cells = dict(zip(header, record))
        assert cells["rde_label"] == (row["rde_label"] or "")
        for key in ("rde_p", "rde_payoff_a", "gamma1", "gamma_star"):
            assert float(cells[key]) == pytest.approx(row[key], rel=1e-11)


GOLDEN_SWEEP = ("sweep", "--dg-range", "-1", "1", "9", "--dr-range", "-1", "1", "9",
                "--gamma-range", "0", "1.5707963267948966", "7",
                "--quantities", "class,ne,rde,payoffs,sensitivity,thresholds")


@pytest.mark.parametrize("fmt, digest", [
    ("json", "d6df11407cafaf7dff726b953acbcfa4020e4bcd4731d2dfd82622b32b2c4ddd"),
    ("csv", "c10bddaef57d60387744380657a0fe296321bb7c92afc3af91cb6f56dc8e00c6"),
])
def test_sweep_bytes_are_pinned(capsys, fmt, digest):
    """The all-quantity 9x9x7 sweep of the whole cube, byte for byte, as a sha256.

    The CSV cells hold 12 significant digits. The JSON floats are at full repr, so the
    JSON digest also pins this platform's libm (sin, cos, asin and sqrt to the last bit).
    """
    code, out, err = run(capsys, *GOLDEN_SWEEP, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, exit_code, digest", [
    (("--grid", "31", "--seed", "0"), 0,
     "9e8dcc88cd04164e68b8ef983a133c783a2d9686d91344a980bd8cf3ed7dc655"),
    (("--grid", "11", "--seed", "0"), 0,
     "bae6c2c23db0098974be9b0b2072d89e309ba4ea413bd0f8144e4379a5e39cc2"),
    (("--grid", "11", "--seed", "1"), 0,
     "bae6c2c23db0098974be9b0b2072d89e309ba4ea413bd0f8144e4379a5e39cc2"),
    (("--grid", "5", "--tampered-gate"), 2,
     "82ac3970b5eeaaa186e9f82ac2222947b1387d201fa769b8d9bea9a0088da6e3"),
])
def test_oracle_bytes_are_pinned(capsys, argv, exit_code, digest):
    """oracle-check's report, byte for byte, as a sha256: the %.3e deviations a user reads
    pin the last bits of the state-vector amplitudes and of the closed form they meet."""
    code, out, err = run(capsys, "oracle-check", *argv)
    assert (code, err) == (exit_code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


PLANTED = ((math.inf, math.nan), (math.inf, 0.5), (0.5, math.nan), (-math.inf, -0.0))


@pytest.mark.parametrize("fmt, planted", [
    pytest.param(fmt, planted, id=fmt if planted is PLANTED[0] else f"{fmt}-{planted[0]!r}-{planted[1]!r}")
    for planted in PLANTED for fmt in ("csv", "json")])
def test_sweep_writes_non_finite_cells_as_its_writers_do(capsys, monkeypatch, fmt, planted):
    """Infinite and NaN cells print as json.dumps(indent=2) and csv.writer print them. One such
    cell sends its whole JSON group to the encoder, so the group's finite cell prints as
    json.dumps writes it too. JSON payoffs are always finite and fill their template, so in JSON
    the cells are planted in a group the renderer writes: sensitivity on the transitional band."""
    if fmt == "json":  # three angles inside the band [0.350, 0.573] of (0.5, 0.2)
        cells, angles, quantities = planted * 4, ("0.4", "0.55"), "class,sensitivity"
        monkeypatch.setattr(quantum_rde, "_indices", lambda params, gamma, phase: cells)
    else:
        angles, quantities = ("0", "1.5"), "class,payoffs"
        monkeypatch.setattr(cli.ewl, "_pure_payoffs", lambda params, s2: planted)
    code, out, err = run(capsys, "sweep", "--dg", "0.5", "--dr", "0.2",
                         "--gamma-range", *angles, "3", "--quantities", quantities,
                         "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        members = json.dumps([dict(zip(cli._KEYS["sensitivity"], cells))], indent=2).splitlines()[2:10]
        assert out.count("\n".join(members) + "\n") == 3
    else:
        assert [line.split(",")[-2:] for line in out.splitlines()[1:]] == [[f"{x:.12g}" for x in planted]] * 3


def test_sweep_thresholds_values(capsys):
    _, out, _ = run(capsys, "sweep", "--dg", "0.9", "--dr", "0.2", "--gamma", "0.5",
                    "--quantities", "thresholds", "--format", "json")
    (row,) = json.loads(out)
    assert row["gamma1"] == pytest.approx(0.3137278864615954, abs=1e-12)
    assert row["gamma2"] == pytest.approx(0.7137243789447656, abs=1e-12)
    assert row["gamma_star"] == pytest.approx(0.537239482334715, abs=1e-12)


def test_sweep_empty_cells_outside_transitional(capsys):
    # sensitivity quantities are undefined at gamma=0; CSV cells stay empty
    _, out, _ = run(capsys, "sweep", "--dg", "0.9", "--dr", "0.2", "--gamma", "0",
                    "--quantities", "sensitivity")
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    cells = dict(zip(header, lines[1].split(",")))
    assert cells["p_star"] == ""
    assert cells["s_gamma"] == ""


def test_sweep_blanks_sensitivity_only_for_the_documented_reasons(capsys, monkeypatch):
    # Off the band, at p* = 0 or with (d_g - d_r)^2 underflowing the cells are blank;
    # any other domain error on a transitional row fails the sweep.
    def broken(params, gamma, phase):
        raise qpd_rde.errors.NotAnEquilibrium("planted")

    monkeypatch.setattr(quantum_rde, "_indices", broken)
    code, out, err = run(capsys, "sweep", "--dg", "0.9", "--dr", "0.2", "--gamma", "0.5",
                         "--quantities", "sensitivity")
    assert (code, out, err) == (1, "", "error: planted\n")


def test_sweep_unknown_quantity(capsys):
    code, _, err = run(capsys, "sweep", "--dg", "0.5", "--dr", "0.5",
                       "--quantities", "bogus")
    assert code == 1
    assert "unknown quantity" in err


def test_sweep_range_validation(capsys):
    code, out, err = run(capsys, "sweep", "--dg-range", "-2", "1", "5", "--dr", "0.5")
    assert (code, out, err) == (1, "", "error: d_g must lie in [-1, 1], got -2.0\n")


def test_sweep_rejects_a_single_value_out_of_range(capsys):
    code, out, err = run(capsys, "sweep", "--dg", "2", "--dr", "0.5")
    assert (code, out, err) == (1, "", "error: d_g must lie in [-1, 1], got 2.0\n")


def test_sweep_degree_range_is_bounded_in_degrees(capsys):
    code, out, err = run(capsys, "sweep", "--dg", "0.9", "--dr", "0.2",
                         "--gamma-range", "0", "90", "3", "--degrees")
    assert code == 0, err
    gammas = [row["gamma"] for row in csv.DictReader(io.StringIO(out))]
    assert gammas == [f"{math.radians(d):.12g}" for d in (0, 45, 90)]

    code, out, err = run(capsys, "sweep", "--dg", "0.9", "--dr", "0.2",
                         "--gamma-range", "0", "91", "3", "--degrees")
    assert (code, out, err) == (1, "", f"error: gamma must lie in [0, pi/2], got {math.radians(91)}\n")


@pytest.mark.parametrize("axis", ["dg", "dr", "gamma"])
def test_sweep_takes_a_value_or_a_range_of_an_axis_not_both(capsys, axis):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--dg", "0.5", "--dr", "0.2", "--gamma", "0.3",
              f"--{axis}-range", "0.1", "0.4", "2"])
    out, err = capsys.readouterr()
    assert (excinfo.value.code, out) == (1, "")
    assert err.startswith("usage: qpd-rde sweep ")
    assert err.endswith(f"error: argument --{axis}-range: not allowed with argument --{axis}\n")


def test_a_sweep_with_a_bad_range_end_computes_no_pair(tmp_path, capsys, monkeypatch):
    calls = []
    pair_rows = cli._pair_rows
    monkeypatch.setattr(cli, "_pair_rows", lambda *a: calls.append(a) or pair_rows(*a))
    target = tmp_path / "rows.csv"
    code, out, err = run(capsys, "sweep", "--dg-range", "0", "2", "3", "--dr", "0.5",
                         "--out", str(target))
    assert (code, out, err) == (1, "", "error: d_g must lie in [-1, 1], got 2.0\n")
    assert calls == [] and not target.exists()


@pytest.mark.parametrize("steps", ["2.5", "inf", "nan", "1e300"])
def test_sweep_rejects_step_counts_that_are_not_whole(capsys, steps):
    code, out, err = run(capsys, "sweep", "--dg", "0.9", "--dr", "0.2",
                         "--gamma-range", "0", "1", steps)
    assert code == 1
    assert out == ""
    assert err.startswith("error: gamma steps")
    assert "Traceback" not in err


def test_classical_rde_at_d_r_zero_prints_positive_zero(capsys):
    code, out, _ = run(capsys, "rde", "--dg", "0.5", "--dr", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["p"].hex(), payload["q"].hex()) == ("0x0.0p+0", "0x0.0p+0")

    code, out, _ = run(capsys, "sweep", "--dg-range", "0.5", "1", "2", "--dr", "0",
                       "--quantities", "rde")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(row["rde_p"], row["rde_q"]) for row in rows] == [("0", "0")] * 2


@pytest.mark.parametrize("dr", ["0", "-0.0"])
def test_classical_losses_and_ne_payoffs_at_d_r_zero_are_positive_zero(capsys, dr):
    code, out, _ = run(capsys, "rde", "--dg", "0.5", f"--dr={dr}", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["delta_cd"].hex(), payload["delta_dc"].hex()) == ("0x0.0p+0", "0x0.0p+0")
    code, out, _ = run(capsys, "rde", "--dg", "0.5", f"--dr={dr}")
    assert code == 0
    assert "delta_cd: 0\ndelta_dc: 0\n" in out
    for command in ("classify", "ne"):
        code, out, _ = run(capsys, command, "--dg", "0.5", f"--dr={dr}", "--format", "json")
        assert code == 0
        cells = [x for pair in json.loads(out)["pure_ne_payoffs"] for x in pair]
        assert 0.0 in cells and all(math.copysign(1.0, x) == 1.0 for x in cells)


@pytest.mark.parametrize("dg, dr, products", [
    (1e-17, -0.5, {"delta_cd": 1e-17 * 0.5, "delta_dc": 1e-17 * 0.5}),
    (1e-5, -0.5, {"delta_cd": 1e-5 * 0.5, "delta_dc": 1e-5 * 0.5}),
    (-1e-5, 0.5, {"delta_cc": 1e-5 * 1e-5, "delta_dd": 0.5 * 0.5}),
])
def test_classical_losses_are_exact_where_1_plus_d_g_rounds(capsys, dg, dr, products):
    # The losses are -d_r, d_g and -d_g themselves, not (1 + d_g) - 1, which is 1e-17 -> 0
    # and 1e-5 -> 1.00000000000655e-05.
    code, out, _ = run(capsys, "rde", f"--dg={dg!r}", f"--dr={dr!r}", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert {key: payload[key].hex() for key in products} == {
        key: value.hex() for key, value in products.items()}
    code, out, _ = run(capsys, "rde", f"--dg={dg!r}", f"--dr={dr!r}")
    assert code == 0
    assert "".join(f"{key}: {cli._fmt(value)}\n" for key, value in products.items()) in out


@pytest.mark.parametrize("dg, dr", [("-0.0", "-0.5"), ("0", "-0.5"), ("-0.5", "-0.0"), ("-0.5", "0")])
def test_classical_losses_at_a_zero_strength_are_positive_zero(capsys, dg, dr):
    code, out, _ = run(capsys, "rde", f"--dg={dg}", f"--dr={dr}", "--format", "json")
    assert code == 0
    deltas = [value for key, value in json.loads(out).items() if key.startswith("delta_")]
    assert len(deltas) == 2 and 0.0 in deltas
    assert all(math.copysign(1.0, x) == 1.0 for x in deltas)


def test_sweep_thresholds_at_negative_zero_strengths_are_positive_zero(capsys):
    code, out, _ = run(capsys, "sweep", "--dg=-0.0", "--dr=-0.0", "--quantities", "thresholds",
                       "--format", "json")
    assert code == 0
    (row,) = json.loads(out)
    assert [row[key].hex() for key in ("gamma1", "gamma2", "gamma_star")] == ["0x0.0p+0"] * 3


@pytest.mark.parametrize("dg, dr, delta", [("-0.5", "0.5", "delta_cc"),
                                           ("0.5", "-0.5", "delta_cd"),
                                           ("0.5", "0", "delta_dc")])
def test_classical_sweep_row_computes_no_deviation_losses(capsys, monkeypatch, dg, dr, delta):
    calls = []
    # From a matrix, and in closed form, where risk_dominance and select_rde read it.
    for module, name in ((risk_dominance, "_losses"), (risk_dominance, "_layout_losses"),
                         (quantum_rde, "_layout_losses")):
        monkeypatch.setattr(module, name, lambda *args, losses=getattr(module, name):
                            calls.append(args) or losses(*args))
    code, _, err = run(capsys, "sweep", f"--dg={dg}", "--dr", dr, "--gamma", "0.5",
                       "--quantities", "class,ne,rde,payoffs,sensitivity,thresholds")
    assert code == 0, err
    assert calls == []

    code, out, _ = run(capsys, "rde", f"--dg={dg}", "--dr", dr, "--format", "json")
    assert code == 0
    assert len(calls) == 1
    assert delta in json.loads(out)


@pytest.mark.parametrize("dg, dr, gamma, deltas", [
    ("0.9", "0.2", "0.5", ("delta_qd", "delta_dq")),      # transitional
    ("0.2", "0.9", "0.45", ("delta_qq", "delta_dd")),     # coexistence
    ("0.9", "0.2", "0.1", ()),                            # classical-like
    ("0.9", "0.2", repr(thresholds(DilemmaParams(0.9, 0.2)).gamma2), ()),  # upper seam
])
def test_quantum_rde_resolves_the_phase_once(capsys, monkeypatch, dg, dr, gamma, deltas):
    # The phase cache is cleared before each command, so each one resolves its phase afresh.
    calls = []
    pair_thresholds = ewl.thresholds
    monkeypatch.setattr(ewl, "thresholds", lambda params: calls.append(params) or pair_thresholds(params))
    for fmt in ("text", "json"):
        calls.clear()
        ewl._resolved.cache_clear()
        code, out, err = run(capsys, "rde", "--dg", dg, "--dr", dr, f"--gamma={gamma}", "--format", fmt)
        assert (code, err) == (0, "")
        assert len(calls) == 1
    assert tuple(key for key in json.loads(out) if key.startswith("delta_")) == deltas


def test_classical_stag_hunt_ties_pay_both_players_alike(capsys):
    # On the 81-point axis -d_g and d_r differ in the last bits at 27 of its 40 ties; the
    # payoff at U(0.5) x U(0.5) is one closed form, the same for both players.
    code, out, err = run(capsys, "sweep", "--dg-range", "-1", "1", "81", "--dr-range", "-1", "1", "81",
                         "--quantities", "class,rde", "--format", "json")
    assert (code, err) == (0, "")
    ties = [row for row in json.loads(out) if row["class"] == "SH" and row["rde_kind"] == "mixed"]
    assert len(ties) == 40
    assert sum(row["d_g"] != -row["d_r"] for row in ties) == 27
    assert all(row["rde_payoff_a"] == row["rde_payoff_b"] for row in ties)


def test_sweep_blanks_the_undefined_rde_and_prints_every_row(capsys):
    # The second angle lies within PHASE_TOL of pi/6, the common threshold of (0.5, 0.5).
    code, out, err = run(capsys, "sweep", "--dg", "0.5", "--dr", "0.5",
                         "--gamma-range", "0", "1.5707963267948966", "4",
                         "--quantities", "class,ne,rde")
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert [row["ne_phase"] for row in rows] == ["classical-like", "boundary",
                                                 "fully-quantum", "fully-quantum"]
    assert [row["rde_label"] for row in rows] == ["(D,D)", "", "(Q,Q)", "(Q,Q)"]
    assert all(value == "" for key, value in rows[1].items() if key.startswith("rde_"))

    seam = ewl._linspace(0.0, math.pi / 2, 4)[1]
    code, out, err = run(capsys, "rde", "--dg", "0.5", "--dr", "0.5", f"--gamma={seam!r}")
    assert (code, out) == (1, "")
    assert err == "error: RDE undefined at the common threshold when d_g equals d_r\n"


def test_sweep_rows_on_a_two_ne_band_are_their_one_row_sweeps(capsys):
    # Three angles in one phase each: on the coexistence band of (0.2, 0.9) one below
    # gamma*, one on it and one above, and on the transitional band of (0.9, 0.2) three
    # between gamma1 and gamma*, where p* moves with gamma. Reusing cells inside a phase
    # or a side of the three thresholds would merge their rows.
    star = thresholds(DilemmaParams(0.2, 0.9)).gamma_star
    labels = {}
    for dg, dr, lo, hi in (("0.2", "0.9", star - 0.01, star + 0.01), ("0.9", "0.2", 0.35, 0.5)):
        argv = ("sweep", "--dg", dg, "--dr", dr, "--quantities", "ne,rde,sensitivity")
        code, out, err = run(capsys, *argv, "--gamma-range", repr(lo), repr(hi), "3")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [run(capsys, *argv, f"--gamma={gamma!r}")[1].splitlines()[1]
                                         for gamma in ewl._linspace(lo, hi, 3)]
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len({(row["rde_label"], row["rde_p"], row["p_star"]) for row in rows}) == 3
        labels[dg, dr] = [row["rde_label"] for row in rows]
    assert labels == {("0.2", "0.9"): ["(D,D)", "U(0.5)xU(0.5)", "(Q,Q)"], ("0.9", "0.2"): [""] * 3}


def test_sweep_computes_thresholds_once_per_pair_and_builds_no_matrix(capsys, monkeypatch):
    calls = {"thresholds": 0, "PayoffMatrix2x2": 0}
    pair_thresholds, init = ewl.thresholds, PayoffMatrix2x2.__init__

    def counted_thresholds(params):
        calls["thresholds"] += 1
        return pair_thresholds(params)

    def counted_init(self, *args, **kwargs):
        calls["PayoffMatrix2x2"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ewl, "thresholds", counted_thresholds)
    monkeypatch.setattr(PayoffMatrix2x2, "__init__", counted_init)
    code, out, err = run(capsys, "sweep", "--dg-range", "0.2", "0.9", "3",
                         "--dr-range", "0.3", "0.8", "3", "--gamma-range", "0", "1.5", "5",
                         "--quantities", "class,ne,rde,payoffs,sensitivity,thresholds")
    assert code == 0, err
    assert len(out.splitlines()) == 1 + 3 * 3 * 5
    assert calls == {"thresholds": 9, "PayoffMatrix2x2": 0}

    # A cube of all four classes builds none either: a stag hunt's tie, |d_g| - d_r within
    # TIE_EPS at (-1, 1) and (-0.5, 0.5), takes its (0.5, 0.5) payoff in closed form.
    calls.update(thresholds=0, PayoffMatrix2x2=0)
    code, out, err = run(capsys, "sweep", "--dg-range", "-1", "1", "5", "--dr-range", "-1", "1", "5",
                         "--gamma-range", "0", "1.5", "3",
                         "--quantities", "class,ne,rde,payoffs,sensitivity,thresholds")
    assert code == 0, err
    ties = [(dg, dr) for dg in (-1.0, -0.5, 0.0, 0.5, 1.0) for dr in (-1.0, -0.5, 0.0, 0.5, 1.0)
            if game_core.classify_dilemma(DilemmaParams(dg, dr)).kind is game_core.DilemmaKind.SH
            and abs(abs(dg) - dr) <= game_core.TIE_EPS]
    assert ties == [(-1.0, 1.0), (-0.5, 0.5)]
    assert calls == {"thresholds": 25, "PayoffMatrix2x2": 0}


@pytest.mark.parametrize("dg, dr", [("0.9", "0.2"), ("0.2", "0.9"), ("0.5", "0.5")])
@pytest.mark.parametrize("ends", [("0", "1.5707963267948966"), ("1.5707963267948966", "0")])
def test_sweep_finds_side_changes_by_bisection(capsys, monkeypatch, dg, dr, ends):
    # A few ewl._side calls per pair, however long the axis: a float bisection finds where each
    # side may change, and _side is read at the two angles around it and bisected further only
    # within the angle tolerance. The count includes the _phase and _pure_ne reads per run.
    calls = []
    side = ewl._side
    for module in (ewl, quantum_rde):
        monkeypatch.setattr(module, "_side", lambda gamma, angle: calls.append(gamma) or side(gamma, angle))
    code, out, err = run(capsys, "sweep", "--dg", dg, "--dr", dr, "--gamma-range", *ends, "10001",
                         "--quantities", "class,ne,rde,payoffs,sensitivity,thresholds")
    assert code == 0, err
    assert len(out.splitlines()) == 1 + 10001
    assert 0 < len(calls) <= 30


def test_sweep_takes_sin_squared_once_per_angle(capsys, monkeypatch):
    # Three PD pairs over n angles: about n sines, not one per row. rde and sensitivity are left
    # out, as the transitional RDE and its partials take sin(gamma) per row on that band.
    calls = []
    sin = math.sin
    monkeypatch.setattr(math, "sin", lambda x: calls.append(x) or sin(x))
    n = 300
    code, out, err = run(capsys, "sweep", "--dg", "0.6", "--dr-range", "0.2", "0.9", "3",
                         "--gamma-range", "0", "1.5707963267948966", str(n),
                         "--quantities", "class,ne,payoffs,thresholds")
    assert code == 0, err
    assert len(out.splitlines()) == 1 + 3 * n
    assert n <= len(calls) <= 1.5 * n


@pytest.mark.parametrize("fmt, renderer", [("csv", "_csv_text"), ("json", "_json_text")])
def test_sweep_renders_each_side_level_group_once_per_sweep(capsys, monkeypatch, fmt, renderer):
    # Trivial, stag-hunt, chicken and PD pairs on both bands and d_g == d_r, at angles off
    # the transitional seams, where a pure RDE is a row-level cell.
    renders = []
    render = getattr(cli, renderer)
    monkeypatch.setattr(cli, renderer,
                        lambda group, cells: renders.append((group, tuple(cells))) or render(group, cells))
    code, out, err = run(capsys, "sweep", "--dg-range", "-0.5", "0.9", "3",
                         "--dr-range", "-0.5", "0.9", "3", "--gamma-range", "0", "1.5", "7",
                         "--quantities", "class,ne,rde,payoffs,sensitivity,thresholds",
                         "--format", fmt)
    assert code == 0, err
    side_level = [(group, cells) for group, cells in renders
                  if group == "ne" or group == "rde" and cells[0] == "pure"
                  or (group, cells) == ("sensitivity", (None,) * 8)]
    assert len(side_level) == len(set(side_level))
    assert {cells[1] for group, cells in side_level if group == "rde"} == {
        "(C,C)", "(D,D)", "(Q,Q)"}
    assert {cells[0] for group, cells in side_level if group == "ne"} == {
        "classical", "classical-like", "transitional", "coexistence", "fully-quantum"}
    assert ("sensitivity", (None,) * 8) in side_level


@pytest.mark.parametrize("fmt, renderer", [("csv", "_csv_text"), ("json", "_json_text")])
def test_sweep_renders_no_group_it_does_not_print(capsys, monkeypatch, fmt, renderer):
    groups = set()
    render = getattr(cli, renderer)
    monkeypatch.setattr(cli, renderer, lambda group, cells: groups.add(group) or render(group, cells))
    code, _, err = run(capsys, "sweep", "--dg-range", "-0.5", "0.9", "3",
                       "--dr-range", "-0.5", "0.9", "3", "--gamma-range", "0", "1.5", "7",
                       "--quantities", "rde", "--format", fmt)
    assert code == 0, err
    assert groups == {"strengths", "gamma", "rde"}


def test_sweep_cache_is_bounded_and_renders_each_shared_text_once(capsys, monkeypatch):
    # The one-call 81x81x8 all-quantity JSON cube ends with at most cli._TEXTS texts in its cache,
    # and _TEXTS is large enough to render each text that pairs share above row scope once: every
    # class, NE group and pure RDE, and the blank sensitivity and thresholds groups.
    caches, misses = [], []
    lru_cache = cli.functools.lru_cache

    def spy(maxsize):
        def wrap(render):
            caches.append(lru_cache(maxsize=maxsize)(lambda *entry: misses.append(entry) or render(*entry)))
            return caches[-1]
        return wrap

    monkeypatch.setattr(cli, "functools", types.SimpleNamespace(lru_cache=spy))
    code, _, err = run(capsys, "sweep", "--dg-range", "-1", "1", "81", "--dr-range", "-1", "1", "81",
                       "--gamma-range", "0", repr(math.pi / 2), "8", "--format", "json",
                       "--quantities", "class,ne,rde,payoffs,sensitivity,thresholds")
    assert code == 0, err
    (cached,) = caches
    assert cached.cache_info().currsize <= cli._TEXTS
    shared = [(group, cells) for group, cells in misses
              if group in ("class", "ne") or group == "rde" and cells[0] == "pure"
              or group in ("sensitivity", "thresholds") and cells == cli._BLANK[group]]
    assert len(shared) == len(set(shared)) == 22
    assert {cells[0] for group, cells in shared if group == "class"} == {"PD", "CH", "SH", "TRIVIAL"}
    assert {group for group, _ in shared} == {"class", "ne", "rde", "sensitivity", "thresholds"}


ODD_CELLS = (-0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0, math.inf, -math.inf, math.nan)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.floats() | st.sampled_from(ODD_CELLS), st.floats() | st.sampled_from(ODD_CELLS))
@example(-0.0, 5e-324)
@example(math.inf, math.nan)
@example(1.0, -1.0)
@example(-0.0, -0.0)
@example(-math.inf, math.inf)
@example(math.nan, -math.inf)
def test_csv_payoffs_template_is_the_csv_renderer_on_two_floats(pi_q, pi_d):
    # The template takes the tuple ewl._pure_payoffs returns.
    assert cli._PAYOFFS_CSV((pi_q, pi_d)) == cli._csv_text("payoffs", (pi_q, pi_d))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.0, 1.0) | st.sampled_from((0.0, 1.0, 5e-324)))
@example(5e-324, -5e-324, 5e-324)
@example(-0.0, 0.0, 0.0)
@example(1.0, -1.0, 1.0)
@example(1.0, 1.0, 0.0)
@example(1.0, 1.0, 1.0)
@example(1.0, -1.0, 0.0)
@example(-1.0, 1.0, 0.0)
@example(-1.0, 1.0, 1.0)
@example(-1.0, -1.0, 0.0)
@example(-1.0, -1.0, 1.0)
def test_pure_payoffs_are_two_floats_on_the_cube(dg, dr, s2):
    # The CSV template prints any float as _csv_text does, but writes no other type; the JSON
    # template writes a float as repr, which is json's text only for a finite one.
    cells = ewl._pure_payoffs(DilemmaParams(dg, dr), s2)
    assert type(cells) is tuple and [type(x) for x in cells] == [float, float]
    assert all(map(math.isfinite, cells))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(ODD_CELLS[:6]),
       st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(ODD_CELLS[:6]))
@example(-0.0, 5e-324)
@example(-5e-324, 0.0)
@example(1.0, -1.0)
def test_json_payoffs_template_is_the_json_renderer_on_two_finite_floats(pi_q, pi_d):
    assert cli._TEMPLATES["payoffs"] % (pi_q, pi_d) == cli._json_text("payoffs", (pi_q, pi_d))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_takes_each_rows_payoffs_once_without_the_csv_renderer(capsys, monkeypatch, fmt):
    # Every phase of a few PD pairs, d_g == d_r included: ewl._pure_payoffs runs once
    # per row for the payoffs group, and once more per ewl._pure_ne call, which reads it for the NE
    # set. The payoffs group never goes through the renderer, _csv_text or _json_text. The rde and
    # sensitivity cells are made once per row on the transitional band and once per run elsewhere.
    payoffs, pure_ne, groups = [], [], []
    cells = {"rde": [], "sensitivity": []}
    pure_payoffs, core = ewl._pure_payoffs, ewl._pure_ne
    renderer = {"csv": "_csv_text", "json": "_json_text"}[fmt]
    render = getattr(cli, renderer)
    monkeypatch.setattr(ewl, "_pure_payoffs", lambda params, s2: payoffs.append(s2) or pure_payoffs(params, s2))
    monkeypatch.setattr(ewl, "_pure_ne", lambda *a: pure_ne.append(a) or core(*a))
    monkeypatch.setattr(cli, renderer, lambda group, cells: groups.append(group) or render(group, cells))
    for group, calls in cells.items():
        make = cli._CELLS[group]
        monkeypatch.setitem(cli._CELLS, group, lambda *a, calls=calls, make=make: calls.append(a) or make(*a))
    code, out, err = run(capsys, "sweep", "--dg-range", "0.2", "0.9", "3", "--dr-range", "0.2", "0.9", "3",
                         "--gamma-range", "0", repr(math.pi / 2), "41", "--format", fmt,
                         "--quantities", "class,ne,rde,payoffs,sensitivity,thresholds")
    assert code == 0, err
    rows = 3 * 3 * 41
    assert len(json.loads(out) if fmt == "json" else out.splitlines()[1:]) == rows
    assert len(payoffs) == rows + len(pure_ne)
    assert {phase.name for _, _, phase in pure_ne} >= {
        "classical-like", "transitional", "coexistence", "fully-quantum"}
    assert "payoffs" not in groups and "sensitivity" in groups  # the spy sees the other groups
    strengths, gammas = ewl._linspace(0.2, 0.9, 3), ewl._linspace(0.0, math.pi / 2, 41)
    runs = [(stop - start, quantum_rde._on_band(phase, "transitional")) for dg in strengths for dr in strengths
            for start, stop, phase in ewl._runs(DilemmaParams(dg, dr), gammas, thresholds(DilemmaParams(dg, dr)))]
    band_rows = sum(length for length, transitional in runs if transitional)
    assert band_rows > len([run for run in runs if run[1]])  # some transitional run has several rows
    per_row_or_run = band_rows + sum(not transitional for _, transitional in runs)
    assert len(cells["rde"]) == len(cells["sensitivity"]) == per_row_or_run
    assert [a[1] for a in cells["rde"]] == [a[1] for a in cells["sensitivity"]]


def test_the_sweep_selects_one_rde_per_transitional_row_and_one_per_other_run(capsys, monkeypatch):
    # Classical pairs, both bands and d_g == d_r, over every phase: the rde and sensitivity
    # groups read one selection, made per row on the transitional band and per run elsewhere.
    calls = []
    select = quantum_rde._select_rde
    monkeypatch.setattr(quantum_rde, "_select_rde",
                        lambda params, gamma, phase: calls.append((params, gamma)) or select(params, gamma, phase))
    code, out, err = run(capsys, "sweep", "--dg-range", "-0.5", "0.9", "3", "--dr-range", "0.2", "0.9", "3",
                         "--gamma-range", "0", repr(math.pi / 2), "41",
                         "--quantities", "class,ne,rde,payoffs,sensitivity,thresholds")
    assert code == 0, err
    gammas, expected, names, longest = ewl._linspace(0.0, math.pi / 2, 41), [], set(), 0
    for dg in ewl._linspace(-0.5, 0.9, 3):
        for dr in ewl._linspace(0.2, 0.9, 3):
            params = DilemmaParams(dg, dr)
            for start, stop, phase in ewl._runs(params, gammas, thresholds(params)):
                transitional = quantum_rde._on_band(phase, "transitional")
                names.add(phase.name)
                longest = max(longest, (stop - start) * transitional)
                expected += [(params, gamma) for gamma in gammas[start:stop if transitional else start + 1]]
    assert names >= {"classical", "classical-like", "transitional", "coexistence", "fully-quantum"}
    assert longest > 1  # some transitional run has several rows
    assert calls == expected

    # The public sensitivity functions select once per point, inside the band and on its seams.
    params = DilemmaParams(0.9, 0.2)
    for gamma in (0.5, *thresholds(params)[:2]):
        for entry in (quantum_rde.sensitivity_partials, quantum_rde.sensitivity_indices):
            calls.clear()
            try:
                entry(params, gamma)
            except qpd_rde.errors.DegenerateBase:  # p* is 0 at the lower seam
                pass
            assert calls == [(params, gamma)]


def test_sensitivity_indices_and_the_sweep_build_no_record_twice(capsys, monkeypatch):
    # One SensitivityReport per transitional row, built from its partials: never _replace'd.
    def planted(self, **fields):
        raise AssertionError("SensitivityReport._replace called")

    monkeypatch.setattr(quantum_rde.SensitivityReport, "_replace", planted)
    report = quantum_rde.sensitivity_indices(DilemmaParams(0.9, 0.2), 0.5)
    assert None not in report
    code, out, err = run(capsys, "sweep", "--dg", "0.9", "--dr", "0.2", "--gamma-range", "0.32", "0.7", "20",
                         "--quantities", "sensitivity", "--format", "json")  # inside the band [0.314, 0.714]
    assert code == 0, err
    assert all(None not in row.values() for row in json.loads(out))


@pytest.mark.parametrize("dg, dr", [("0.5", "-0.5"), ("-0.5", "0.5"), ("0.5", "0")])
def test_classical_rde_classifies_the_pair_once(capsys, monkeypatch, dg, dr):
    calls = []
    classify = game_core.classify_dilemma
    for module in (game_core, risk_dominance, quantum_rde):
        monkeypatch.setattr(module, "classify_dilemma",
                            lambda params: calls.append(params) or classify(params))
    code, _, err = run(capsys, "rde", f"--dg={dg}", "--dr", dr)
    assert code == 0, err
    assert calls == [DilemmaParams(float(dg), float(dr))]


def test_sweep_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "sweep", "--dg", "0.5", "--dr", "0.5",
                       "--gamma", "0.3", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("d_g,d_r,gamma")


@pytest.mark.parametrize("argv", [("sweep", "--dg", "0.5", "--dr", "0.5", "--gamma", "0.3"),
                                  ("tables",)])
def test_an_unwritable_out_file_is_one_error_line(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert "Traceback" not in err and not target.parent.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("to_file", [False, True])
def test_a_sweep_that_fails_on_a_later_pair_writes_nothing(tmp_path, capsys, monkeypatch,
                                                            fmt, to_file):
    pairs = []
    select = quantum_rde._select_rde

    def planted(params, gamma, phase):
        if params not in pairs:
            pairs.append(params)
        if len(pairs) == 7:
            raise qpd_rde.errors.NotAnEquilibrium("planted")
        return select(params, gamma, phase)

    monkeypatch.setattr(quantum_rde, "_select_rde", planted)
    target = tmp_path / f"rows.{fmt}"
    code, out, err = run(capsys, "sweep", "--dg-range", "0.2", "0.9", "3",
                         "--dr-range", "0.3", "0.8", "3", "--gamma-range", "0", "1.5", "4",
                         "--quantities", "class,ne,rde,payoffs,sensitivity,thresholds",
                         "--format", fmt, *(["--out", str(target)] if to_file else []))
    assert (code, out, err) == (1, "", "error: planted\n")
    assert len(pairs) == 7
    assert not target.exists()


def test_tables_pass_with_documented_deviations(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    assert "[FAIL]" not in out
    assert out.count("[DOCUMENTED-DEVIATION]") == 2
    assert "[PASS] Table2 class(0.5,0.5)" in out
    assert "Table5" in out and "Table6" in out


TABLES = """\
[PASS] Table2 class(0.5,0.5): computed PD, expected PD
[PASS] Table2 NE(0.5,0.5): computed ['(D,D)'], expected ['(D,D)']
[PASS] Table2 class(0.5,-0.5): computed CH, expected CH
[PASS] Table2 NE(0.5,-0.5): computed ['(C,D)', '(D,C)'], expected ['(C,D)', '(D,C)']
[PASS] Table2 class(-0.5,0.5): computed SH, expected SH
[PASS] Table2 NE(-0.5,0.5): computed ['(C,C)', '(D,D)'], expected ['(C,C)', '(D,D)']
[PASS] Table5 NE set (0.9,0.2) at gamma=0.15: computed ['(D,D)'], expected ['(D,D)']
[PASS] Table5 NE set (0.9,0.2) at gamma=0.5: computed ['(D,Q)', '(Q,D)'], expected ['(D,Q)', '(Q,D)']
[PASS] Table5 NE set (0.9,0.2) at gamma=1.2: computed ['(Q,Q)'], expected ['(Q,Q)']
[PASS] Table5 NE set (0.5,0.5) at gamma=0.3: computed ['(D,D)'], expected ['(D,D)']
[PASS] Table5 NE set (0.5,0.5) at gamma=1.0: computed ['(Q,Q)'], expected ['(Q,Q)']
[PASS] Table5 NE set (0.2,0.9) at gamma=0.2: computed ['(D,D)'], expected ['(D,D)']
[PASS] Table5 NE set (0.2,0.9) at gamma=0.45: computed ['(D,D)', '(Q,Q)'], expected ['(D,D)', '(Q,Q)']
[PASS] Table5 NE set (0.2,0.9) at gamma=1.0: computed ['(Q,Q)'], expected ['(Q,Q)']
[PASS] Table6 S_Dg(pi/6): computed -0.593406593407
[PASS] Table6 S_Dr(pi/5): computed 0.0366301945386
[PASS] Table6 S_gamma(pi/6) as semi-elasticity: computed 5.59585645522
[DOCUMENTED-DEVIATION] Table6 S_Dg(pi/9): computed 1.02036042341 vs printed 1.029; finite-difference confirmed
[DOCUMENTED-DEVIATION] Table6 S_Dr(pi/6): computed -0.175824175824 vs printed -0.173; finite-difference confirmed
"""


def test_tables_stdout_is_pinned(capsys):
    assert run(capsys, "tables") == (0, TABLES, "")


def test_tables_print_fail_and_exit_2_when_a_check_fails(capsys, monkeypatch):
    indices = quantum_rde.sensitivity_indices
    monkeypatch.setattr(quantum_rde, "sensitivity_indices", lambda params, gamma: indices(
        params, gamma)._replace(index_dg=0.0, index_dr=0.0))
    code, out, _ = run(capsys, "tables")
    assert code == 2
    assert out.splitlines() == TABLES.splitlines()[:14] + [
        "[FAIL] Table6 S_Dg(pi/6): computed 0",
        "[FAIL] Table6 S_Dr(pi/5): computed 0",
        "[PASS] Table6 S_gamma(pi/6) as semi-elasticity: computed 5.59585645522",
        "[FAIL] Table6 S_Dg(pi/9): computed 0 vs printed 1.029; finite-difference confirmed",
        "[FAIL] Table6 S_Dr(pi/6): computed 0 vs printed -0.173; finite-difference confirmed",
    ]


def test_tables_fail_a_documented_deviation_on_its_finite_difference_alone(capsys, monkeypatch):
    """Only the finite-difference oracle reads the public mixing probability: shifting it
    leaves every computed value in range but fails both documented deviations."""
    p_star = quantum_rde.transitional_mixing_probability
    monkeypatch.setattr(quantum_rde, "transitional_mixing_probability", lambda params, gamma: (
        p_star(params, gamma) + 1e-3 * (params.d_g + params.d_r)))
    code, out, _ = run(capsys, "tables")
    assert code == 2
    assert out.splitlines() == [line.replace("[DOCUMENTED-DEVIATION]", "[FAIL]")
                                for line in TABLES.splitlines()]


# Each check bound of tables and oracle-check is closed: an input exactly on it passes. Of the
# five, these three are reachable; oracle-check's normalization bound and Table 6's entry tolerance
# are not, since the difference each tests is exact there and its bound is not a double it can reach.
def test_table5_certification_is_closed_at_tie_eps(capsys, monkeypatch):
    monkeypatch.setattr(ewl, "grid_best_response_gain", lambda *args: (game_core.TIE_EPS, 0.0))
    assert run(capsys, "tables") == (0, TABLES, "")
    above = math.nextafter(game_core.TIE_EPS, 1.0)
    monkeypatch.setattr(ewl, "grid_best_response_gain", lambda *args: (above, 0.0))
    code, out, _ = run(capsys, "tables")
    table5 = [line for line in out.splitlines() if "Table5" in line]
    assert code == 2 and len(table5) == 8
    assert all(line.startswith("[FAIL]") and line.endswith("; grid certification failed") for line in table5)


def test_table6_finite_difference_bound_is_closed(capsys, monkeypatch):
    # S_Dg(pi/9) planted 368,481 ulps above its index, still within 1.020 +- 0.005, where the
    # finite difference planted 1e-6 of it below lies exactly on the bound.
    value = 1.0203604234870767
    bound = 1e-6 * abs(value)
    assert abs(value - (value - bound)) == bound and abs(value - 1.020) <= 0.005
    indices, fd_index = quantum_rde.sensitivity_indices, cli._fd_index
    monkeypatch.setattr(quantum_rde, "sensitivity_indices", lambda params, gamma: indices(params, gamma)._replace(
        **({"index_dg": value} if gamma == math.pi / 9 else {})))
    monkeypatch.setattr(cli, "_fd_index", lambda params, gamma, strength: (
        value - bound if gamma == math.pi / 9 else fd_index(params, gamma, strength)))
    assert run(capsys, "tables") == (0, TABLES.replace("S_Dg(pi/9): computed 1.02036042341",
                                                       "S_Dg(pi/9): computed 1.02036042349"), "")


@pytest.mark.parametrize("deviation, exit_code", [(1e-12, 0), (math.nextafter(1e-12, 1.0), 2)])
def test_oracle_check_deviation_bound_is_closed(capsys, monkeypatch, deviation, exit_code):
    pair = ((1.0, deviation, 0.0, 0.0), (1.0 + 0j, 0j, 0j, 0j))
    monkeypatch.setattr(ewl, "_grid_pairs", lambda weights, angles, tampered=False: iter([pair]))
    code, out, err = run(capsys, "oracle-check", "--grid", "2")
    assert (code, err) == (exit_code, "")
    assert "max |state-vector - closed-form| deviation: 1.000e-12\n" in out
    assert out.endswith(f"result: {'PASS' if exit_code == 0 else 'FAIL'}\n")


def test_oracle_check_passes(capsys):
    code, out, _ = run(capsys, "oracle-check", "--grid", "5", "--seed", "3")
    assert code == 0
    assert "result: PASS" in out


def test_oracle_check_tampered_gate_fails(capsys):
    code, out, _ = run(capsys, "oracle-check", "--grid", "5", "--tampered-gate")
    assert code == 2
    assert "result: FAIL" in out


def test_oracle_check_builds_each_gate_once_per_angle_and_each_operator_once_per_weight(
        capsys, monkeypatch):
    calls = {"entangling_gate": 0, "strategy_operator": 0}

    def counting(name):
        build = getattr(ewl, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return build(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(ewl, name, counting(name))
    code, out, _ = run(capsys, "oracle-check", "--grid", "5")
    assert code == 0 and "points: 225" in out
    # The 100 seeded points still build their gate and both operators each.
    assert calls == {"entangling_gate": 5 + 100, "strategy_operator": 5 + 200}


@pytest.mark.parametrize("planted_on", ["grid", "seeded"])
def test_oracle_check_meets_every_point_with_the_one_closed_form(capsys, monkeypatch, planted_on):
    """A fault planted in ewl._joint fails the check whether it reaches only the grid points
    or only the 100 seeded points (through joint_distribution): both meet the one formula."""
    joint, calls = ewl._joint, []

    def planted(p, q, c2, s2):
        calls.append((p, q))
        eps1, *rest = joint(p, q, c2, s2)
        return (eps1 + 1e-11 * ((len(calls) <= 27) == (planted_on == "grid")), *rest)

    monkeypatch.setattr(ewl, "_joint", planted)
    code, out, err = run(capsys, "oracle-check", "--grid", "3")
    assert (code, err) == (2, "")
    assert "result: FAIL" in out
    assert len(calls) == 3 ** 3 + 100


def test_oracle_check_rejects_negative_seed(capsys):
    code, out, err = run(capsys, "oracle-check", "--grid", "2", "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--seed" in err


def test_oracle_check_rejects_a_grid_below_two(capsys):
    code, out, err = run(capsys, "oracle-check", "--grid", "1")
    assert (code, out, err) == (1, "", "error: --grid must be >= 2\n")


def refuse_to_build_an_axis(*args):
    raise AssertionError("an oversized request built an axis")


@pytest.mark.parametrize("argv, message", [
    (("oracle-check", "--grid", "100"), "--grid 100 checks 1000100 points, above 1000000"),
    (("oracle-check", "--grid", "1000000"),
     "--grid 1000000 checks 1000000000000000100 points, above 1000000"),
    (("sweep", "--dg-range", "-1", "1", "101", "--dr-range", "-1", "1", "100",
      "--gamma-range", "0", "1.5", "100"), "a sweep of 1010000 rows is above 1000000"),
    (("sweep", "--dg", "0.5", "--dr", "0.5", "--gamma-range", "0", "1", "1e9"),
     "a sweep of 1000000000 rows is above 1000000"),
    (("sweep", "--dg-range", "0", "1", "9.2e18", "--dr-range", "0", "1", "9.2e18"),
     "a sweep of 84640000000000000000000000000000000000 rows is above 1000000"),
], ids=["oracle", "oracle-huge", "sweep", "sweep-mistyped-steps", "sweep-maximal-steps"])
def test_an_oversized_request_is_refused_before_any_axis_is_built(capsys, monkeypatch, argv,
                                                                   message):
    monkeypatch.setattr(ewl, "_linspace", refuse_to_build_an_axis)
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_the_size_limit_admits_a_request_of_exactly_its_size(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_ITEMS", 2 ** 3 + 100)
    assert run(capsys, "oracle-check", "--grid", "2")[0] == 0
    assert run(capsys, "oracle-check", "--grid", "3")[::2] == (
        1, "error: --grid 3 checks 127 points, above 108\n")
    monkeypatch.setattr(cli, "MAX_ITEMS", 12)
    code, out, _ = run(capsys, "sweep", "--dg-range", "0.1", "0.9", "2", "--dr", "0.2",
                       "--gamma-range", "0", "1", "6")
    assert code == 0 and len(out.splitlines()) == 1 + 12
    assert run(capsys, "sweep", "--dg-range", "0.1", "0.9", "13", "--dr", "0.2")[::2] == (
        1, "error: a sweep of 13 rows is above 12\n")


def test_a_closed_stdout_pipe_is_one_error_line():
    """A reader that stops after one line ends the sweep with exit 1 and no traceback."""
    src = str(Path(qpd_rde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # About 1 MB of rows: more than a pipe holds, so the write meets the closed end.
    argv = ["sweep", "--dg-range", "-1", "1", "60", "--dr-range", "-1", "1", "60",
            "--gamma-range", "0", "1.5", "4", "--quantities", "class,thresholds"]
    with subprocess.Popen([sys.executable, "-m", "qpd_rde.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"d_g,d_r,gamma,")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=300)
    assert (code, err) == (1, "error: cannot write stdout: Broken pipe\n")


def test_cli_runs_without_numpy(tmp_path):
    """With numpy blocked from import, the commands give their usual exit codes."""
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from qpd_rde.cli import main\n"
        "out = sys.argv[1]\n"
        "print(main(['tables', '--out', out]),\n"
        "      main(['oracle-check', '--grid', '3', '--out', out]),\n"
        "      main(['oracle-check', '--grid', '3', '--tampered-gate', '--out', out]),\n"
        "      main(['sweep', '--dg-range', '-1', '1', '5', '--dr-range', '-1', '1', '5',\n"
        "            '--gamma-range', '0', '1.5', '3', '--out', out,\n"
        "            '--quantities', 'class,ne,rde,payoffs,sensitivity,thresholds']))\n"
        "print('numpy' in sys.modules and sys.modules['numpy'] is not None)\n")
    src = str(Path(qpd_rde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out.txt")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "2", "0", "False"]


def test_main_reuses_one_parser_without_leaking_options(capsys, monkeypatch):
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        code, out, _ = run(capsys, "sweep", "--dg", "0.5", "--dr", "0.2", "--gamma", "0.3",
                           "--quantities", "class,thresholds")
        assert code == 0 and out.startswith("d_g,d_r,gamma,class,boundary,gamma1,")
        code, out, _ = run(capsys, "sweep", "--dg", "0.5", "--dr", "0.2", "--gamma", "0.3")
        assert code == 0
        assert out.splitlines()[0] == ("d_g,d_r,gamma,class,boundary,rde_kind,rde_label,"
                                       "rde_p,rde_q,rde_payoff_a,rde_payoff_b")
        with pytest.raises(SystemExit) as excinfo:
            main(["classify", "--dg", "0.5"])
        assert excinfo.value.code == 1
        # A command rebound after the parser was built, as a tracer does, is the one that runs.
        classify = cli.cmd_classify
        monkeypatch.setattr(cli, "cmd_classify", lambda args: builds.append(2) or classify(args))
        assert run(capsys, "classify", "--dg", "0.5", "--dr", "0.5")[0] == 0
        assert builds == [1, 2]
    finally:
        cli._parser.cache_clear()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["classify", "--dg", "0.5"])
    assert excinfo.value.code == 1


def test_argparse_reads_the_negative_number_matcher_the_parser_sets():
    """The parser replaces argparse's private _negative_number_matcher. On this Python that
    attribute decides whether "-inf" is an option or a value: a plain parser reads it as an
    option, and the same parser with the matcher swapped in reads it as the value."""
    plain = argparse.ArgumentParser(exit_on_error=False)
    plain.add_argument("--x", type=float)
    with pytest.raises(argparse.ArgumentError, match="expected one argument"):
        plain.parse_args(["--x", "-inf"])
    matcher = cli._Parser()._negative_number_matcher
    plain._negative_number_matcher = matcher
    assert plain.parse_args(["--x", "-inf"]).x == -math.inf
    for text in ("-1e-07", "-.5", "-5.", "-1E+300", "-inf", "-INF", "-Infinity", "-nan", "-NaN",
                 "-1_000", "-1_0.2_5e-0_7", "-.5_5", "-5_5.", "-1e1_0"):
        assert matcher.match(text), text
        float(text)
    for text in ("-x", "-info", "-nanx", "-e5", "-.", "--dg", "-1e",
                 "-_1", "-1_", "-1__0", "-1_.5", "-1._5", "-._5", "-1e_5", "-1_e5", "-in_f"):
        assert not matcher.match(text), text
        with pytest.raises(ValueError):
            float(text)
