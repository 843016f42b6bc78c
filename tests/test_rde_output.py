"""Exact `qpd-rde rde` output on every branch: each classical class, a
zero-strength boundary, and each quantum phase, both seams included, as text
and as JSON; and the common threshold of d_g == d_r, where the RDE is
undefined and the command exits 1."""

import pytest

from qpd_rde.cli import main

# (argv, text output, JSON output)
CASES = [
    # PD
    (("--dg", "0.5", "--dr", "0.5"), """\
d_g: 0.5
d_r: 0.5
mode: classical
rde_kind: pure
rde_label: (D,D)
p: 0
q: 0
payoff_a: 0
payoff_b: 0
""", """\
{
  "d_g": 0.5,
  "d_r": 0.5,
  "mode": "classical",
  "rde_kind": "pure",
  "rde_label": "(D,D)",
  "p": 0.0,
  "q": 0.0,
  "payoff_a": 0.0,
  "payoff_b": 0.0
}
"""),
    # CH
    (("--dg", "0.9", "--dr", "-0.3"), """\
d_g: 0.9
d_r: -0.3
mode: classical
rde_kind: mixed
rde_label: None
p: 0.25
q: 0.25
payoff_a: 0.475
payoff_b: 0.475
delta_cd: 0.27
delta_dc: 0.27
""", """\
{
  "d_g": 0.9,
  "d_r": -0.3,
  "mode": "classical",
  "rde_kind": "mixed",
  "rde_label": null,
  "p": 0.25,
  "q": 0.25,
  "payoff_a": 0.475,
  "payoff_b": 0.475,
  "delta_cd": 0.27,
  "delta_dc": 0.27
}
"""),
    # SH
    (("--dg", "-0.6", "--dr", "0.3"), """\
d_g: -0.6
d_r: 0.3
mode: classical
rde_kind: pure
rde_label: (C,C)
p: 1
q: 1
payoff_a: 1
payoff_b: 1
delta_cc: 0.36
delta_dd: 0.09
""", """\
{
  "d_g": -0.6,
  "d_r": 0.3,
  "mode": "classical",
  "rde_kind": "pure",
  "rde_label": "(C,C)",
  "p": 1.0,
  "q": 1.0,
  "payoff_a": 1.0,
  "payoff_b": 1.0,
  "delta_cc": 0.36,
  "delta_dd": 0.09
}
"""),
    # TRIVIAL
    (("--dg", "-0.5", "--dr", "-0.2"), """\
d_g: -0.5
d_r: -0.2
mode: classical
rde_kind: pure
rde_label: (C,C)
p: 1
q: 1
payoff_a: 1
payoff_b: 1
""", """\
{
  "d_g": -0.5,
  "d_r": -0.2,
  "mode": "classical",
  "rde_kind": "pure",
  "rde_label": "(C,C)",
  "p": 1.0,
  "q": 1.0,
  "payoff_a": 1.0,
  "payoff_b": 1.0
}
"""),
    # SH boundary
    (("--dg", "0", "--dr", "0.5"), """\
d_g: 0
d_r: 0.5
mode: classical
rde_kind: pure
rde_label: (D,D)
p: 0
q: 0
payoff_a: 0
payoff_b: 0
delta_cc: 0
delta_dd: 0.25
""", """\
{
  "d_g": 0.0,
  "d_r": 0.5,
  "mode": "classical",
  "rde_kind": "pure",
  "rde_label": "(D,D)",
  "p": 0.0,
  "q": 0.0,
  "payoff_a": 0.0,
  "payoff_b": 0.0,
  "delta_cc": 0.0,
  "delta_dd": 0.25
}
"""),
    # classical-like
    (("--dg", "0.9", "--dr", "0.2", "--gamma", "0.15"), """\
d_g: 0.9
d_r: 0.2
gamma: 0.15
mode: quantum
phase: classical-like
gamma1: 0.313727886462
gamma2: 0.713724378945
gamma_star: 0.537239482335
rde_kind: pure
rde_label: (D,D)
p: 0
q: 0
payoff_a: 0
payoff_b: 0
""", """\
{
  "d_g": 0.9,
  "d_r": 0.2,
  "gamma": 0.15,
  "mode": "quantum",
  "phase": "classical-like",
  "gamma1": 0.3137278864615954,
  "gamma2": 0.7137243789447656,
  "gamma_star": 0.537239482334715,
  "rde_kind": "pure",
  "rde_label": "(D,D)",
  "p": 0.0,
  "q": 0.0,
  "payoff_a": 0.0,
  "payoff_b": 0.0
}
"""),
    # transitional
    (("--dg", "0.9", "--dr", "0.2", "--gamma", "0.5235987755982988"), """\
d_g: 0.9
d_r: 0.2
gamma: 0.523598775598
mode: quantum
phase: transitional
gamma1: 0.313727886462
gamma2: 0.713724378945
gamma_star: 0.537239482335
rde_kind: mixed
rde_label: None
p: 0.464285714286
q: 0.464285714286
payoff_a: 0.638392857143
payoff_b: 0.638392857143
delta_qd: 0.121875
delta_dq: 0.121875
""", """\
{
  "d_g": 0.9,
  "d_r": 0.2,
  "gamma": 0.5235987755982988,
  "mode": "quantum",
  "phase": "transitional",
  "gamma1": 0.3137278864615954,
  "gamma2": 0.7137243789447656,
  "gamma_star": 0.537239482334715,
  "rde_kind": "mixed",
  "rde_label": null,
  "p": 0.4642857142857142,
  "q": 0.4642857142857142,
  "payoff_a": 0.638392857142857,
  "payoff_b": 0.638392857142857,
  "delta_qd": 0.121875,
  "delta_dq": 0.121875
}
"""),
    # coexistence
    (("--dg", "0.2", "--dr", "0.9", "--gamma", "0.6"), """\
d_g: 0.2
d_r: 0.9
gamma: 0.6
mode: quantum
phase: coexistence
gamma1: 0.713724378945
gamma2: 0.313727886462
gamma_star: 0.537239482335
rde_kind: pure
rde_label: (Q,Q)
p: 1
q: 1
payoff_a: 1
payoff_b: 1
delta_qq: 0.220453122567
delta_dd: 0.0531190216477
""", """\
{
  "d_g": 0.2,
  "d_r": 0.9,
  "gamma": 0.6,
  "mode": "quantum",
  "phase": "coexistence",
  "gamma1": 0.7137243789447656,
  "gamma2": 0.3137278864615954,
  "gamma_star": 0.537239482334715,
  "rde_kind": "pure",
  "rde_label": "(Q,Q)",
  "p": 1.0,
  "q": 1.0,
  "payoff_a": 1.0,
  "payoff_b": 1.0,
  "delta_qq": 0.22045312256702615,
  "delta_dd": 0.053119021647736214
}
"""),
    # lower seam
    (("--dg", "0.9", "--dr", "0.2", "--gamma", "0.3137278864615954"), """\
d_g: 0.9
d_r: 0.2
gamma: 0.313727886462
mode: quantum
phase: boundary
gamma1: 0.313727886462
gamma2: 0.713724378945
gamma_star: 0.537239482335
rde_kind: pure
rde_label: (D,D)
p: 0
q: 0
payoff_a: 0
payoff_b: 0
""", """\
{
  "d_g": 0.9,
  "d_r": 0.2,
  "gamma": 0.3137278864615954,
  "mode": "quantum",
  "phase": "boundary",
  "gamma1": 0.3137278864615954,
  "gamma2": 0.7137243789447656,
  "gamma_star": 0.537239482334715,
  "rde_kind": "pure",
  "rde_label": "(D,D)",
  "p": 0.0,
  "q": 0.0,
  "payoff_a": 0.0,
  "payoff_b": 0.0
}
"""),
    # upper seam
    (("--dg", "0.9", "--dr", "0.2", "--gamma", "0.7137243789447656"), """\
d_g: 0.9
d_r: 0.2
gamma: 0.713724378945
mode: quantum
phase: boundary
gamma1: 0.313727886462
gamma2: 0.713724378945
gamma_star: 0.537239482335
rde_kind: pure
rde_label: (Q,Q)
p: 1
q: 1
payoff_a: 1
payoff_b: 1
""", """\
{
  "d_g": 0.9,
  "d_r": 0.2,
  "gamma": 0.7137243789447656,
  "mode": "quantum",
  "phase": "boundary",
  "gamma1": 0.3137278864615954,
  "gamma2": 0.7137243789447656,
  "gamma_star": 0.537239482334715,
  "rde_kind": "pure",
  "rde_label": "(Q,Q)",
  "p": 1.0,
  "q": 1.0,
  "payoff_a": 1.0,
  "payoff_b": 1.0
}
"""),
    # fully-quantum
    (("--dg", "0.9", "--dr", "0.2", "--gamma", "1.2"), """\
d_g: 0.9
d_r: 0.2
gamma: 1.2
mode: quantum
phase: fully-quantum
gamma1: 0.313727886462
gamma2: 0.713724378945
gamma_star: 0.537239482335
rde_kind: pure
rde_label: (Q,Q)
p: 1
q: 1
payoff_a: 1
payoff_b: 1
""", """\
{
  "d_g": 0.9,
  "d_r": 0.2,
  "gamma": 1.2,
  "mode": "quantum",
  "phase": "fully-quantum",
  "gamma1": 0.3137278864615954,
  "gamma2": 0.7137243789447656,
  "gamma_star": 0.537239482334715,
  "rde_kind": "pure",
  "rde_label": "(Q,Q)",
  "p": 1.0,
  "q": 1.0,
  "payoff_a": 1.0,
  "payoff_b": 1.0
}
"""),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, text, json_text", CASES, ids=[
    "PD", "CH", "SH", "TRIVIAL", "SH-boundary", "classical-like", "transitional",
    "coexistence", "lower-seam", "upper-seam", "fully-quantum"])
def test_rde_output_is_pinned(capsys, argv, text, json_text):
    assert run(capsys, "rde", *argv) == (0, text, "")
    assert run(capsys, "rde", *argv, "--format", "json") == (0, json_text, "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_rde_at_the_common_threshold_exits_1(capsys, fmt):
    # gamma1 == gamma2 == pi/6 for d_g == d_r == 0.5
    assert run(capsys, "rde", "--dg", "0.5", "--dr", "0.5", "--gamma", "0.5235987755982989",
               "--format", fmt) == (
        1, "", "error: RDE undefined at the common threshold when d_g equals d_r\n")
