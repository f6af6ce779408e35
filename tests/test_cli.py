import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import charcalc
from charcalc import bundlecalc, cli, equivariant, exactring, flagcoh, paper, symfun

LONG = "9" * 5000

def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chern_sphere_eval_golden(capsys):
    code, out, _ = run_cli(capsys, "chern", "--expr", "lambda2(E4)", "--k", "4", "--eval", "sphere")
    assert code == 0
    assert out.strip() == '{"value":"-24"}'


def test_equi_mu_golden(capsys):
    code, out, _ = run_cli(capsys, "equi", "mu", "--n", "2", "--weights", "1,-1,0", "--k", "1")
    assert code == 0
    assert out.strip() == '{"normalization":"unit-volume","value":"0"}'
    code, out, _ = run_cli(capsys, "equi", "mu", "--n", "2", "--weights", "1,-1,0", "--k", "2")
    assert json.loads(out) == {"normalization": "unit-volume", "value": "1"}


def test_flag_dims_golden(capsys):
    code, out, _ = run_cli(capsys, "flag", "--dims", "2,2", "--emit", "dims")
    assert code == 0
    assert out.strip() == '{"dim_by_degree":[1,1,2,1,1],"total":6}'


def test_flag_relations_and_basis(capsys):
    code, out, _ = run_cli(capsys, "flag", "--dims", "2,1", "--emit", "relations")
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == ["y1"]
    assert payload["dim_by_degree"] == [1, 1, 1]
    code, out, _ = run_cli(capsys, "flag", "--dims", "1,1", "--emit", "basis")
    assert json.loads(out)["basis"] == ["1", "y1"]


def test_flag_inverse_series(capsys):
    code, out, _ = run_cli(capsys, "flag", "--inverse-series", "1", "--degree", "3")
    assert code == 0
    assert json.loads(out)["series"] == ["-1*y1", "1*y1^2", "-1*y1^3"]


def test_sym_subcommand(capsys):
    code, out, _ = run_cli(capsys, "sym", "--op", "sigma-top", "--partition", "(2,1,1)",
                           "--vars", "4", "--k", "4")
    assert code == 0
    assert json.loads(out)["value"] == "-4"
    code, out, _ = run_cli(capsys, "sym", "--op", "elementary", "--vars", "3", "--k", "2")
    assert json.loads(out)["poly"] == "1*t1*t2 + 1*t1*t3 + 1*t2*t3"


def test_poly_subcommand(capsys):
    code, out, _ = run_cli(capsys, "poly", "--gens", "y0:2,y1:2", "--a", "y0 + y1",
                           "--b", "y0 - y1", "--op", "mul")
    assert code == 0
    assert json.loads(out)["result"] == "1*y0^2 + -1*y1^2"
    code, out, _ = run_cli(capsys, "poly", "--gens", "y0:2", "--a", "1 + y0",
                           "--op", "pow", "--e", "3", "--component", "4")
    assert json.loads(out)["result"] == "3*y0^2"


def test_bundle_subcommand(capsys):
    code, out, _ = run_cli(capsys, "bundle", "--phi", "2")
    assert json.loads(out)["class"] == "4*y0*y1*y2"
    code, out, _ = run_cli(capsys, "bundle", "--space", "pe:1,2", "--integrate", "c^3")
    assert json.loads(out)["class"] == "-1*b"
    code, out, _ = run_cli(capsys, "bundle", "--space", "pe:1,2", "--normal", "c^3")
    assert json.loads(out)["normal_form"] == "-1*c*b"
    code, out, _ = run_cli(capsys, "bundle", "--space", "sphere:2,2", "--emit", "dims")
    assert json.loads(out) == {"dim_by_degree": [1, 2, 1], "total": 4}
    code, out, _ = run_cli(capsys, "bundle", "--space", "cp2", "--coefficient", "c^2",
                           "--basis-element", "c^2")
    assert json.loads(out)["class"] == "1"


def test_mu_subcommand(capsys):
    code, out, _ = run_cli(capsys, "mu", "--space", "pcn-bundle", "--base", "s4",
                           "--n", "1", "--k", "2")
    assert code == 0
    assert json.loads(out) == {"class": "-1*b", "degree": 4}
    code, out, _ = run_cli(capsys, "mu", "--space", "pcn-bundle", "--base", "s2",
                           "--n", "1", "--emit", "coupling")
    assert json.loads(out)["class"] == "1*c + 1/2*b"
    code, out, _ = run_cli(capsys, "mu", "--space", "pcn-bundle", "--base", "s2",
                           "--n", "1", "--k", "1", "--nu")
    assert json.loads(out)["class"] == "-1*b"
    code, out, _ = run_cli(capsys, "mu", "--space", "trivial", "--base", "s2",
                           "--n", "1", "--k", "2")
    assert json.loads(out)["class"] == "0"
    code, out, _ = run_cli(capsys, "mu", "--space", "pcn-bundle", "--base", "s2",
                           "--n", "1", "--kappa", "2")
    assert json.loads(out)["class"] == "0"


def test_chern_emit_modes_golden(capsys):
    code, out, _ = run_cli(capsys, "chern", "--expr", "E2", "--k", "1", "--emit", "roots")
    assert code == 0
    assert out.strip() == '{"rank":2,"roots":["1*t1","1*t2"]}'
    code, out, _ = run_cli(capsys, "chern", "--expr", "lambda2(E3)", "--k", "2",
                           "--emit", "monomial-symmetric")
    assert code == 0
    assert out.strip() == '{"monomial_symmetric":"3*s(1,1) + 1*s(2)"}'
    code, out, _ = run_cli(capsys, "chern", "--expr", "sum(E2,dual(E2))", "--k", "2",
                           "--emit", "class")
    assert code == 0
    assert out.strip() == '{"class":"-1*t1^2 + -1*t2^2","degree":4}'


def test_sym_monomial_and_to_elementary_golden(capsys):
    code, out, _ = run_cli(capsys, "sym", "--op", "monomial", "--partition", "2,1",
                           "--vars", "3")
    assert code == 0
    assert json.loads(out)["poly"] == (
        "1*t1^2*t2 + 1*t1^2*t3 + 1*t1*t2^2 + 1*t1*t3^2 + 1*t2^2*t3 + 1*t2*t3^2"
    )
    code, out, _ = run_cli(capsys, "sym", "--op", "to-elementary", "--partition", "(2,1)",
                           "--vars", "3")
    assert code == 0
    assert out.strip() == '{"elementary":"1*sigma1*sigma2 + -3*sigma3"}'


def test_flag_three_blocks_golden(capsys):
    code, out, _ = run_cli(capsys, "flag", "--dims", "2,1,1", "--emit", "dims")
    assert code == 0
    assert out.strip() == '{"dim_by_degree":[1,2,3,3,2,1],"total":12}'
    code, out, _ = run_cli(capsys, "flag", "--dims", "1,1,1", "--emit", "relations")
    assert code == 0
    assert json.loads(out) == {
        "dim_by_degree": [1, 2, 2, 1],
        "generators": ["y2_1", "y3_1"],
        "relations": [
            "-1*y2_1^2 + -1*y2_1*y3_1 + -1*y3_1^2",
            "-1*y2_1^2*y3_1 + -1*y2_1*y3_1^2",
        ],
    }


def test_bundle_named_spaces_golden(capsys):
    code, out, _ = run_cli(capsys, "bundle", "--space", "point")
    assert code == 0
    assert out.strip() == '{"dim_by_degree":[1],"total":1}'
    code, out, _ = run_cli(capsys, "bundle", "--space", "cpn:2", "--emit", "relations")
    assert code == 0
    assert out.strip() == '{"dim_by_degree":[1,1,1],"generators":["c"],"relations":["1*c^3"]}'
    code, out, _ = run_cli(capsys, "bundle", "--space", "cpn:2", "--emit", "basis")
    assert json.loads(out) == {"basis": ["1", "c", "c^2"]}
    code, out, _ = run_cli(capsys, "bundle", "--space", "flag:1,1,1", "--emit", "dims")
    assert code == 0
    assert out.strip() == '{"dim_by_degree":[1,2,2,1],"total":6}'


def test_equi_other_ops(capsys):
    code, out, _ = run_cli(capsys, "equi", "simplex", "--alpha", "2,0", "--n", "2")
    assert json.loads(out)["value"] == "1/12"
    code, out, _ = run_cli(capsys, "equi", "su-product", "--ell", "3", "--k", "3")
    assert json.loads(out)["value"] == "1/15"
    code, out, _ = run_cli(capsys, "equi", "nu1", "--n", "1", "--weights", "1,0", "--vertex", "1")
    assert json.loads(out)["value"] == "1/2"
    code, out, _ = run_cli(capsys, "equi", "moment", "--n", "2", "--weights", "1,-1,0")
    assert json.loads(out)["moment"] == "1 + -2*x1 + -1*x2"
    code, out, _ = run_cli(capsys, "equi", "integral", "--poly", "x1^2", "--n", "2")
    assert json.loads(out)["value"] == "1/6"


def test_obstruct_subcommand(capsys):
    code, out, _ = run_cli(capsys, "obstruct", "square", "--space", "cp2", "--alpha", "line")
    assert json.loads(out) == {
        "criterion": False, "degree_checked": 4, "hypothesis_checked": "none",
    }
    code, out, _ = run_cli(capsys, "obstruct", "square", "--space", "s2xs2",
                           "--alpha", "s1=1", "--class", "s1")
    assert json.loads(out)["criterion"] is True
    code, out, _ = run_cli(capsys, "obstruct", "cube", "--space", "cp2", "--alpha", "line")
    payload = json.loads(out)
    assert payload["criterion"] is True
    assert payload["hypothesis_checked"] == "none"
    code, out, _ = run_cli(capsys, "obstruct", "hl", "--space", "gr:2,2", "--class", "y1")
    assert json.loads(out)["criterion"] is True
    code, out, _ = run_cli(capsys, "obstruct", "dims", "--space", "gr:2,2", "--degree", "4")
    assert json.loads(out)["dimension"] == 2
    code, out, _ = run_cli(capsys, "obstruct", "member", "--space", "s2xs2",
                           "--z", "s1*s2", "--gens", "s2")
    assert json.loads(out)["member"] is True


def test_signed_weights(capsys):
    code, out, _ = run_cli(capsys, "equi", "mu", "--n", "1", "--weights=-1,0", "--k", "2")
    assert code == 0
    assert json.loads(out)["value"] == "1/4"
    code, out, _ = run_cli(capsys, "equi", "mu", "--n", "1", "--weights=+1, 0", "--k", "2")
    assert code == 0
    assert json.loads(out)["value"] == "1/4"


# Inputs that must exit 2 with a diagnostic naming the flag (README, exit codes);
# tests/golden/make_cli_corpus.py also records each one's output.
VALIDATION_CASES = (
    (("obstruct", "square", "--space", "cpn:"), "--space"),
    (("obstruct", "square", "--space", "cp2", "--alpha", "c=abc"), "--alpha"),
    (("obstruct", "square", "--space", "cp2", "--alpha", "c=1/0"), "--alpha"),
    (("obstruct", "square", "--space", "cp2", "--alpha", "c=0"), "--alpha"),
    (("obstruct", "square", "--space", "cp2", "--alpha", "zz=1"), "--alpha"),
    (("obstruct", "square", "--space", "cp2", "--alpha", "=1"), "--alpha"),
    (("obstruct", "cube", "--space", "gr:2,2", "--alpha", "y2=1"), "--alpha"),
    (("obstruct", "cube", "--space", "gr:2,2", "--class", "y2"), "--class"),
    (("obstruct", "square", "--space", "gr:2,2", "--class", "zz"), "--class"),
    (("obstruct", "hl", "--space", "gr:2,2", "--class", "y1^2"), "--class"),
    (("obstruct", "square", "--space", "s2xs2", "--alpha", "s1=1", "--class", "s2"),
     "--class"),
    (("obstruct", "square", "--space", "cp2", "--alpha", "c=1.5"), "--alpha"),
    (("obstruct", "square", "--space", "cp2", "--alpha", "c=1e4000000"), "--alpha"),
    (("obstruct", "square", "--space", "cp²"), "--space"),
    (("obstruct", "square", "--space", "cp" + LONG), "--space"),
    (("obstruct", "member", "--space", "gr:2,2", "--z", "zz"), "--z"),
    (("obstruct", "member", "--space", "gr:2,2", "--z", "y1", "--gens", "y1;zz"), "--gens"),
    (("mu", "--space", "pcn-bundle", "--base", "s²", "--n", "1", "--k", "2"), "--base"),
    (("poly", "--gens", "y:2", "--a", "y^²"), "--a"),
    (("poly", "--gens", "y:2", "--a", "y^" + LONG), "--a"),
    (("poly", "--gens", "y:2", "--a", "y", "--op", "add", "--b", "zz"), "--b"),
    (("poly", "--gens", "y:²", "--a", "y"), "--gens"),
    (("poly", "--gens", "1y:2", "--a", "y"), "--gens"),
    (("chern", "--expr", "E²", "--k", "1"), "--expr"),
    (("chern", "--expr", "triv(²)", "--k", "1"), "--expr"),
    (("chern", "--expr", "E" + LONG, "--k", "1"), "--expr"),
    (("sym", "--op", "monomial", "--partition", "(²)", "--vars", "3"), "--partition"),
    (("bundle", "--space", "cp2", "--integrate", "c^²"), "--integrate"),
    (("bundle", "--space", "cp2", "--normal", "zz"), "--normal"),
    (("bundle", "--space", "cp2", "--coefficient", "c.", "--basis-element", "c"),
     "--coefficient"),
    (("bundle", "--space", "cp2", "--coefficient", "c", "--basis-element", "zz"),
     "--basis-element"),
    (("equi", "integral", "--poly", "x1^" + LONG, "--n", "2"), "--poly"),
    (("chern", "--expr", "E٢", "--k", "1"), "--expr"),
    (("obstruct", "dims", "--space", "flag:1,2", "--degree", "2"), "--space"),
    (("obstruct", "dims", "--space", "gr:0,2", "--degree", "2"), "--space"),
    # integer flags read decimal digits through parse_int, as text does
    (("equi", "mu", "--n", "٢", "--weights=1,-1,0", "--k", "2"), "--n"),
    (("equi", "su-product", "--ell", "2", "--k", "+1"), "--k"),
    (("obstruct", "dims", "--space", "cp2", "--degree=-2"), "--degree"),
    (("poly", "--gens", "y:2", "--a", "y", "--op", "pow", "--e", "1_0"), "--e"),
    (("sym", "--op", "monomial", "--partition", "2", "--vars", LONG), "--vars"),
    # integer lists and partitions read each entry through parse_int too
    (("flag", "--dims", "٢,1", "--emit", "dims"), "--dims"),
    (("flag", "--dims", "+2,1", "--emit", "dims"), "--dims"),
    (("obstruct", "dims", "--space", "gr:٢,2", "--degree", "2"), "--space"),
    (("poly", "--gens", "y:٢", "--a", "y"), "--gens"),
    (("sym", "--op", "monomial", "--partition", "٢", "--vars", "2"), "--partition"),
    (("equi", "mu", "--n", "1", "--weights=-٢,0", "--k", "2"), "--weights"),
    (("equi", "simplex", "--alpha", "1,-2,0", "--n", "2"), "--alpha"),
    (("flag", "--inverse-series", "0", "--degree", "1"), "--inverse-series"),
    (("flag", "--inverse-series", "2", "--degree", "0"), "--degree"),
    # an empty list entry is an error, not skipped
    (("flag", "--dims", "2,,1", "--emit", "dims"), "--dims"),
    (("flag", "--dims", "2,1,", "--emit", "dims"), "--dims"),
    (("bundle", "--space", "gr:2,,2"), "--space"),
    (("bundle", "--space", "sphere:2,"), "--space"),
    (("bundle", "--space", "sphere:"), "--space"),
    (("equi", "simplex", "--alpha", "1,,2", "--n", "3"), "--alpha"),
    (("equi", "mu", "--n", "1", "--weights=1,,0", "--k", "2"), "--weights"),
    # errors raised below the CLI name the flag whose value caused them
    (("equi", "mu", "--n", "1", "--weights", "1,1", "--k", "2"), "--weights"),
    (("equi", "mu", "--n", "1", "--weights=", "--k", "2"), "--weights"),
    (("equi", "nu1", "--n", "2", "--weights", "1,2", "--vertex", "0"), "--weights"),
    (("equi", "moment", "--n", "1", "--weights", "2,2"), "--weights"),
    (("equi", "mu", "--n", "0", "--weights", "1", "--k", "2"), "--n"),
    (("equi", "simplex", "--alpha", "1", "--n", "0"), "--n"),
    (("equi", "integral", "--poly", "x1", "--n", "0"), "--n"),
    (("equi", "nu1", "--n", "2", "--weights", "1,2,3", "--vertex", "5"), "--vertex"),
    (("equi", "su-product", "--ell", "3", "--k", "5"), "--k"),
    (("equi", "simplex", "--alpha", "1,2,3", "--n", "2"), "--alpha"),
    (("equi", "mu", "--n", "2", "--weights", "1,2,3", "--k", "0"), "--k"),
    (("sym", "--op", "elementary", "--k", "3", "--vars", "0"), "--vars"),
    (("sym", "--op", "monomial", "--partition", "3,2,1", "--vars", "2"), "--partition"),
    (("chern", "--expr", "sum(E2,E3)", "--k", "2", "--eval", "sphere"), "--expr"),
    (("chern", "--expr", "E2", "--k", "0", "--eval", "sphere"), "--k"),
    (("mu", "--space", "pcn-bundle", "--base", "s4", "--n", "0", "--k", "1"), "--base"),
    (("mu", "--space", "trivial", "--base", "s0", "--n", "1", "--k", "1"), "--base"),
    (("mu", "--space", "trivial", "--base", "s2", "--n", "1", "--k", "0"), "--k"),
    (("bundle", "--phi", "0"), "--phi"),
    (("bundle", "--space", "cp2", "--coefficient", "c", "--basis-element", "c^3"),
     "--basis-element"),
    (("obstruct", "member", "--space", "gr:2,2", "--z", "y1+y2", "--gens", "y1"), "--z"),
    (("obstruct", "member", "--space", "gr:2,2", "--z", "y1", "--gens", "y1+y2"), "--gens"),
    # the generators are checked even when z reduces to zero
    (("obstruct", "member", "--space", "gr:2,2", "--z", "0", "--gens", "y1+y2"), "--gens"),
    (("obstruct", "member", "--space", "gr:2,2", "--z", "y1^5", "--gens", "y1+y2"), "--gens"),
    # projective space stays within its budget of n <= 10000
    (("obstruct", "square", "--space", "cp" + "9" * 100), "--space"),
    (("obstruct", "square", "--space", "cp10001"), "--space"),
    (("obstruct", "square", "--space", "cpn:10001"), "--space"),
    # sym conversions stay within their partition weight budget of 16
    (("sym", "--op", "to-elementary", "--partition", "9,8", "--vars", "2"), "--partition"),
    (("sym", "--op", "sigma-top", "--partition", "17", "--vars", "1", "--k", "1"),
     "--partition"),
)


def test_validation_exit_codes(capsys):
    code, _, err = run_cli(capsys, "equi", "mu", "--n", "2", "--weights", "1,-1", "--k", "2")
    assert code == 2
    assert "weights" in err
    code, _, err = run_cli(capsys, "equi", "mu", "--n", "2", "--weights", "1,x,0", "--k", "2")
    assert code == 2
    assert "--weights" in err
    code, _, err = run_cli(capsys, "flag", "--dims", "1,2", "--emit", "dims")
    assert code == 2
    assert "--dims" in err
    for argv, flag in VALIDATION_CASES:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert flag in err


def test_projective_budget_edge_is_accepted(capsys):
    assert cli.MAX_PROJECTIVE_DIM == 10_000
    code, out, _ = run_cli(capsys, "bundle", "--space", "cp10000", "--emit", "dims")
    assert code == 0
    assert json.loads(out)["total"] == 10_001
    # pe:N,K has the same bound on its fiber dimension N, checked before the build
    code, out, _ = run_cli(capsys, "bundle", "--space", "pe:10000,1", "--emit", "dims")
    assert code == 0
    assert json.loads(out)["total"] == 20_002
    for n in ("10001", "9" * 40):
        assert run_cli(capsys, "obstruct", "dims", "--space", f"pe:{n},1", "--degree", "2") == (
            2, "", f"error: --space: fiber dimension {n} is over the budget of 10000\n")


def test_subcommand_position_errors_name_the_option_or_the_position(capsys):
    """argparse's dests (command, equi_op, obstruct_op) never reach the user: an
    unknown option before the subcommand is named, or else <subcommand>."""
    commands = "(choose from poly, sym, chern, flag, bundle, mu, equi, obstruct, paper)"
    equi = "(choose from mu, su-product, nu1, simplex, moment, integral)"
    cases = [
        (["--seed", "1", "paper"], f"--seed: charcalc takes a subcommand before it {commands}"),
        (["--output=text", "--seed=1", "paper"], "--seed: unrecognized argument"),
        (["equi", "--n", "1"], f"--n: charcalc equi takes a subcommand before it {equi}"),
        ([], f"<subcommand>: required {commands}"),
        (["--output", "text"], f"<subcommand>: required {commands}"),
        (["equi"], f"<subcommand>: required {equi}"),
        (["equi", "nosuch"], f"<subcommand>: invalid choice: 'nosuch' {equi}"),
        (["paper", "--seed", "1"], "--seed: unrecognized argument"),
    ]
    for argv, line in cases:
        assert run_cli(capsys, *argv) == (2, "", f"error: {line}\n"), argv


def test_sym_weight_budget_edge_is_accepted(capsys):
    assert cli.MAX_SYM_WEIGHT == 16
    # the sigma_16 coefficient of s_(5,4,3,2,1,1) is (-1)^5 5!/2! * (-1)^15 16,
    # from the power-sum closed form in tests/test_symfun.py
    code, out, err = run_cli(capsys, "sym", "--op", "sigma-top", "--partition", "5,4,3,2,1,1",
                             "--vars", "16", "--k", "16")
    assert code == 0, err
    assert out.strip() == '{"value":"960"}'
    # the budget is for the conversions; --op monomial prints its orbit as before
    code, out, _ = run_cli(capsys, "sym", "--op", "monomial", "--partition", "9,8", "--vars", "2")
    assert code == 0
    assert json.loads(out)["poly"] == "1*t1^9*t2^8 + 1*t1^8*t2^9"


def test_sym_conversions_match_the_library(capsys):
    for parts, v in (((1,), 1), ((2,), 2), ((2, 1), 3), ((3, 1), 4), ((2, 2), 4),
                     ((2, 1, 1), 5), ((3, 2, 1), 4), ((1, 1, 1), 3), ((4,), 2)):
        shape = symfun.Partition(parts)
        text = ",".join(map(str, parts))
        elem = symfun.to_elementary(symfun.monomial_symmetric(shape, v), v)
        code, out, _ = run_cli(capsys, "sym", "--op", "to-elementary", "--partition", text,
                               "--vars", str(v))
        assert code == 0
        assert json.loads(out) == {"elementary": str(elem)}
        for k in range(1, v + 2):
            code, out, _ = run_cli(capsys, "sym", "--op", "sigma-top", "--partition", text,
                                   "--vars", str(v), "--k", str(k))
            assert code == 0
            want = symfun.sigma_top_coefficient(elem, k)
            assert json.loads(out) == {"value": cli.format_rational(want)}


def test_sym_conversions_build_no_orbit(capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("a polynomial in the variables was built")

    monkeypatch.setattr(symfun, "monomial_symmetric", refuse)
    monkeypatch.setattr(symfun, "variable_ring", refuse)
    code, out, err = run_cli(capsys, "sym", "--op", "sigma-top", "--partition", "4,3,2,1",
                             "--vars", "10", "--k", "10")
    assert code == 0, err
    assert out.strip() == '{"value":"60"}'


def test_sym_arity_diagnostic(capsys):
    for op in (("monomial",), ("to-elementary",), ("sigma-top", "--k", "1")):
        code, out, err = run_cli(capsys, "sym", "--op", *op, "--partition", "3,1", "--vars", "1")
        assert code == 2
        assert out == ""
        assert err == "error: --partition: partition (3,1) has more parts than variables (1)\n"


def refuse_sym_builders(monkeypatch):
    def refuse(*_):
        raise AssertionError("a sym input over budget reached its builder")

    for name in ("variable_ring", "sigma_ring", "monomial_symmetric", "elementary"):
        monkeypatch.setattr(symfun, name, refuse)


SYM_OPS = [("elementary", "--k", "1"), ("monomial", "--partition", "1"),
           ("to-elementary", "--partition", "1"), ("sigma-top", "--partition", "1", "--k", "1")]


@pytest.mark.parametrize("op", SYM_OPS)
def test_sym_vars_budget(capsys, monkeypatch, op):
    assert cli.MAX_SYM_VARS == 10_000
    refuse_sym_builders(monkeypatch)
    for v in ("10001", "1" + "0" * 12):
        code, out, err = run_cli(capsys, "sym", "--op", *op, "--vars", v)
        assert code == 2
        assert out == ""
        assert err == f"error: --vars: {v} is over the budget of 10000\n"
    monkeypatch.undo()
    code, out, err = run_cli(capsys, "sym", "--op", *op, "--vars", "10000")
    assert code == 0, err
    answer = json.loads(out)
    if op[0] in ("elementary", "monomial"):
        assert answer["poly"].count(" + ") == 9999
    elif op[0] == "to-elementary":
        assert answer == {"elementary": "1*sigma1"}
    else:
        assert answer == {"value": "1"}


@pytest.mark.parametrize("op, edge, over", [
    # sigma_2 has C(v, 2) terms: 99681 at v = 447, 100128 at v = 448
    (("elementary", "--k", "2"), 447, 448),
    # s(2,1) has v(v-1) terms: 99540 at v = 316, 100172 at v = 317
    (("monomial", "--partition", "2,1"), 316, 317),
])
def test_sym_term_budget(capsys, monkeypatch, op, edge, over):
    assert cli.MAX_SYM_TERMS == 10**5
    refuse_sym_builders(monkeypatch)
    code, out, err = run_cli(capsys, "sym", "--op", *op, "--vars", str(over))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --vars: ")
    assert err.endswith(f" in {over} variables has more than the budget of 100000 terms\n")
    calls = []

    def record(*args):
        calls.append(args)
        return symfun.variable_ring(1).one()

    monkeypatch.undo()
    monkeypatch.setattr(symfun, "elementary", record)
    monkeypatch.setattr(symfun, "monomial_symmetric", record)
    code, out, err = run_cli(capsys, "sym", "--op", *op, "--vars", str(edge))
    assert code == 0, err
    assert calls and calls[0][-1] == edge


def refuse_closed_forms(monkeypatch):
    def refuse(*_):
        raise AssertionError("an input over budget reached its computation")

    monkeypatch.setattr(flagcoh, "phi_pullback", refuse)
    monkeypatch.setattr(equivariant, "su_product_integral", refuse)
    for name in ("chern_roots", "chern_class", "sphere_eval"):
        monkeypatch.setattr(bundlecalc, name, refuse)


# lambda2 nested d deep around E4 has rank 4, 6, 15, 105, 5460, 14903070, ...
def nested_lambda2(depth):
    return "lambda2(" * depth + "E4" + ")" * depth


@pytest.mark.parametrize("argv, err", [
    (("bundle", "--phi", "10001"), "error: --phi: 10001 is over the budget of 10000\n"),
    (("bundle", "--phi", "9" * 40), f"error: --phi: {'9' * 40} is over the budget of 10000\n"),
    (("equi", "su-product", "--ell", "13", "--k", "2"),
     "error: --ell: 13 is over the budget of 12\n"),
    # the budget comes before the range check on --k
    (("equi", "su-product", "--ell", "13", "--k", "99"),
     "error: --ell: 13 is over the budget of 12\n"),
    (("chern", "--expr", "E10001", "--k", "1"),
     "error: --expr: rank is over the budget of 10000\n"),
    (("chern", "--expr", "E100000", "--k", "100000", "--eval", "sphere"),
     "error: --expr: rank is over the budget of 10000\n"),
    (("chern", "--expr", "tensor(E100,E101)", "--k", "1", "--emit", "roots"),
     "error: --expr: rank is over the budget of 10000\n"),
    (("chern", "--expr", "sum(E5000,E5001)", "--k", "1", "--emit", "monomial-symmetric"),
     "error: --expr: rank is over the budget of 10000\n"),
    (("chern", "--expr", nested_lambda2(5), "--k", "1", "--eval", "sphere"),
     "error: --expr: rank is over the budget of 10000\n"),
    (("chern", "--expr", nested_lambda2(22), "--k", "1", "--eval", "sphere"),
     "error: --expr: rank is over the budget of 10000\n"),
])
def test_closed_form_budgets_reject_before_any_work(capsys, monkeypatch, argv, err):
    assert (cli.MAX_PHI, cli.MAX_SU_ELL, cli.MAX_BUNDLE_RANK) == (10_000, 12, 10_000)
    refuse_closed_forms(monkeypatch)
    code, out, got = run_cli(capsys, *argv)
    assert (code, out, got) == (2, "", err)


def test_closed_form_budget_edges_are_accepted(capsys):
    code, out, err = run_cli(capsys, "bundle", "--phi", "10000")
    assert code == 0, err
    coefficient, _, monomial = json.loads(out)["class"].partition("*")
    assert int(Decimal(coefficient)) == 2 * math.factorial(10_000)
    assert monomial.count("*") == 10_000
    code, out, err = run_cli(capsys, "equi", "su-product", "--ell", "12", "--k", "12")
    assert code == 0, err
    assert json.loads(out)["value"] == "1/8112468"
    # ranks 10000, 10000 and 5460; a_2 is 1, 100 + 100 for the shared leaf, and
    # (4-2)(6-2)(15-2)(105-2) through lambda2's factor (rank - 2)
    for expr, value in (("E10000", "1"), ("tensor(E100,E100)", "200"),
                        (nested_lambda2(4), "10712")):
        code, out, err = run_cli(capsys, "chern", "--expr", expr, "--k", "2", "--eval", "sphere")
        assert code == 0, err
        assert json.loads(out)["value"] == value, expr
    # a tensor with a rank-0 factor stays rank 0, however large the other side
    code, out, err = run_cli(capsys, "chern", "--expr", "tensor(E9999,triv(0))", "--k", "1",
                             "--emit", "roots")
    assert code == 0, err
    assert json.loads(out) == {"rank": 0, "roots": []}


def test_chern_work_budget_edges(capsys, monkeypatch):
    assert cli.MAX_CHERN_WORK == 5 * 10**5
    # rank x C(g + k, k): E706 at k = 1 is 706 * 707 = 499142 and E707 is
    # 707 * 708 = 500556; E1 plus a rank-9999 trivial bundle has g = 1, so
    # k = 49 is 10000 * 50, the budget itself, and k = 50 is 510000
    refuse_closed_forms(monkeypatch)
    for argv in (("E707", "--k", "1"), ("E300", "--k", "2"), ("E2000", "--k", "1"),
                 ("sum(E1,triv(9999))", "--k", "50"),
                 ("sum(E1,triv(9999))", "--k", "9" * 40),
                 ("lambda2(E30)", "--k", "3", "--emit", "monomial-symmetric")):
        code, out, err = run_cli(capsys, "chern", "--expr", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: --k: the class is over the work budget of 500000"), err
    built = []
    monkeypatch.setattr(bundlecalc, "chern_class",
                        lambda expr, k: built.append(k) or bundlecalc.root_ring(expr)[0].zero())
    code, out, err = run_cli(capsys, "chern", "--expr", "E706", "--k", "1")
    assert (code, built) == (0, [1]), err
    monkeypatch.undo()
    code, out, err = run_cli(capsys, "chern", "--expr", "sum(E1,triv(9999))", "--k", "49")
    assert code == 0, err
    assert json.loads(out) == {"class": "0", "degree": 98}
    code, out, err = run_cli(capsys, "chern", "--expr", "sum(E1,triv(9999))", "--k", "1")
    assert json.loads(out) == {"class": "1*t1", "degree": 2}
    # past the rank the class is zero, and k counts only up to the rank
    code, out, err = run_cli(capsys, "chern", "--expr", "tensor(E2,E3)", "--k", "9" * 40)
    assert (code, json.loads(out)["class"]) == (0, "0")


def test_power_work_budget_edges(capsys, monkeypatch):
    assert cli.MAX_POWER_WORK == 2 * 10**6
    # e x C(e + g - 1, g - 1) for g terms: (y+z)^1413 is 1997982 and ^1414 is
    # 2000810; three terms at 157 and 158 give 1972077 and 2009760; twelve
    # terms (the CI power guard's) at 9 and 10 give 1511640 and 3527160
    def refuse(*_):
        raise AssertionError("expanded")

    monkeypatch.setattr(exactring, "_expand_power", refuse)
    gens = ",".join(f"y{i}:2" for i in range(12))
    twelve = " + ".join(f"{i + 1}/{i % 3 + 1}*y{i}" for i in range(12))
    over = [("y0+y1", "1414"), ("y0+2*y1+3*y2", "158"), (twelve, "10"), ("2*y0", "2000001"),
            ("y0+y1", "9" * 40), ("1+y0", "9" * 4000)]
    for a, e in over:
        code, out, err = run_cli(capsys, "poly", "--gens", gens, "--a", a, "--op", "pow", "--e", e)
        assert (code, out) == (2, ""), (a, e)
        assert err.startswith("error: --e: the power is over the work budget of 2000000"), err
    for a, e in [("y0+y1", "1413"), ("y0+y1", "1000"), ("y0+2*y1+3*y2", "157"), (twelve, "9"),
                 (twelve, "8")]:
        code, out, err = run_cli(capsys, "poly", "--gens", gens, "--a", a, "--op", "pow", "--e", e)
        assert (code, out, err) == (1, "", "internal error: expanded\n"), (a, e)
    monkeypatch.undo()
    for a, e, result in [("0", "9" * 40, "0"), ("y0+y1", "0", "1"), ("3*y0", "2", "9*y0^2")]:
        code, out, err = run_cli(capsys, "poly", "--gens", gens, "--a", a, "--op", "pow", "--e", e)
        assert (code, json.loads(out)["result"]) == (0, result), err


def test_power_work_budget_bounds_the_coefficient_products(monkeypatch):
    """At each edge the budget accepts, the power takes at most e x C(e + g - 1,
    g - 1) coefficient products, len(a) x len(b) for each ``_packed_mul``.  A
    linear form takes none: its power is the multinomial closed form.  With one
    generator squared the base climbs the ladder, whose rung k has
    C(k + g - 1, g - 1) terms, nothing merging, so it takes
    g x (C(e + g - 1, g) - 1) in all."""
    ring = cli._parse_gens(",".join(f"y{i}:2" for i in range(12)))
    twelve = " + ".join(f"{i + 1}/{i % 3 + 1}*y{i}" for i in range(12))
    products = []
    real = exactring._packed_mul
    monkeypatch.setattr(exactring, "_packed_mul",
                        lambda a, b: products.append(len(a) * len(b)) or real(a, b))
    edges = [("y0+y1", 1413), ("y0+2*y1+3*y2", 157), (twelve, 9), ("2*y0", 2 * 10**6)]
    for a, e in edges + [(a + "^2", e) for a, e in edges[:3]]:
        p = exactring.parse_poly(ring, a)
        g = len(p.terms)
        bound = e * math.comb(e + g - 1, g - 1)
        assert bound <= cli.MAX_POWER_WORK < (e + 1) * math.comb(e + g, g - 1), a
        products.clear()
        assert len((p**e).terms) == math.comb(e + g - 1, g - 1)
        assert sum(products) <= bound, a
        ladder = g > 1 and a.endswith("^2")
        assert sum(products) == (g * (math.comb(e + g - 1, g) - 1) if ladder else 0), a


def test_inverse_series_budget_edges(capsys, monkeypatch):
    assert (cli.MAX_SYM_VARS, cli.MAX_SYM_TERMS) == (10_000, 10**5)
    # piece i has one term per partition of i into parts <= v: through degree d
    # that is 99855 and 100171 terms for v = 2 at d = 630 and 631, 98376 and
    # 115304 for v = 10 at 39 and 40, and 99132 and 120769 for v = 10000 at 36
    # and 37; one variable prints one term a degree
    def refuse(*_):
        raise AssertionError("built")

    monkeypatch.setattr(flagcoh, "inverse_series", refuse)
    over = [("2", "631"), ("10", "40"), ("10000", "37"), ("1", "100001"), ("3", "9" * 40)]
    for v, d in over:
        code, out, err = run_cli(capsys, "flag", "--inverse-series", v, "--degree", d)
        assert (code, out, err) == (2, "", (
            f"error: --degree: the series in {v} variables has more than the budget of 100000 terms\n"
        )), (v, d)
    for v in ("10001", "9" * 40):
        code, out, err = run_cli(capsys, "flag", "--inverse-series", v, "--degree", "1")
        assert (code, out, err) == (
            2, "", f"error: --inverse-series: {v} is over the budget of 10000\n"
        ), v
    for v, d in [("2", "630"), ("10", "39"), ("10000", "36"), ("1", "100000"), ("10000", "1")]:
        code, out, err = run_cli(capsys, "flag", "--inverse-series", v, "--degree", d)
        assert (code, out, err) == (1, "", "internal error: built\n"), (v, d)


# Each integer flag whose type bounds it: a command that ends with the flag, its
# least value and budget (None for none), and the builder an accepted value
# reaches.
TYPED_FLAGS = [
    (("sym", "--op", "elementary", "--k", "1", "--vars"), 1, 10_000, symfun, "elementary"),
    (("flag", "--degree", "1", "--inverse-series"), 1, 10_000, flagcoh, "inverse_series"),
    (("bundle", "--phi"), 1, 10_000, flagcoh, "phi_pullback"),
    (("equi", "su-product", "--k", "0", "--ell"), 0, 12, equivariant, "su_product_integral"),
    (("equi", "mu", "--weights", "1,0", "--k", "2", "--n"), 1, None, equivariant, "mu_of_circle"),
    (("equi", "mu", "--n", "1", "--weights", "1,0", "--k"), 1, None, equivariant, "mu_of_circle"),
    (("equi", "nu1", "--weights", "1,0", "--vertex", "0", "--n"), 1, None, equivariant,
     "nu1_at_fixed_point"),
    (("equi", "simplex", "--alpha", "1", "--n"), 1, None, equivariant, "simplex_integral"),
    (("equi", "moment", "--weights", "1,0", "--n"), 1, None, equivariant, "normalized_moment"),
    (("equi", "integral", "--poly", "x1", "--n"), 1, None, equivariant, "moment_integral"),
]


@pytest.mark.parametrize("argv, low, high, module, builder", TYPED_FLAGS,
                         ids=[f"{a[1] if a[0] == 'equi' else a[0]} {a[-1]}" for a, *_ in TYPED_FLAGS])
def test_typed_flag_edges(capsys, monkeypatch, argv, low, high, module, builder):
    def refuse(*_):
        raise AssertionError("built")

    monkeypatch.setattr(module, builder, refuse)
    flag = argv[-1]
    reached = (1, "", "internal error: built\n")
    for value in (0, low, high):
        if value is not None:
            want = reached if value >= low else (2, "", f"error: {flag}: must be at least {low}\n")
            assert run_cli(capsys, *argv, str(value)) == want, value
    if high is not None:
        assert run_cli(capsys, *argv, str(high + 1)) == (
            2, "", f"error: {flag}: {high + 1} is over the budget of {high}\n"
        )


def test_sphere_factor_budget_edges(capsys, monkeypatch):
    assert cli.MAX_SPHERE_FACTORS == 16
    built = []
    original = flagcoh.sphere_product_ring

    def build(dims, names=None):
        if len(dims) > 16:
            raise AssertionError("an input over budget reached its computation")
        built.append(len(dims))
        return original(dims[:2], names)  # a small stand-in for the 2^r basis

    monkeypatch.setattr(flagcoh, "sphere_product_ring", build)
    for count, argv in [(17, ("bundle", "--emit", "dims")), (24, ("bundle",)),
                        (17, ("obstruct", "dims", "--degree", "2"))]:
        space = "sphere:" + ",".join(["2"] * count)
        code, out, err = run_cli(capsys, *argv, "--space", space)
        assert (code, out, err) == (
            2, "", f"error: --space: {count} sphere factors are over the budget of 16\n"
        ), (count, argv)
    code, out, err = run_cli(capsys, "bundle", "--space", "sphere:" + ",".join(["2"] * 16))
    assert (code, built) == (0, [16]), err
    # the budget counts factors, whatever their dimensions
    code, out, err = run_cli(capsys, "bundle", "--space", "sphere:" + ",".join(["4"] * 17))
    assert (code, built) == (2, [16]), err


def test_root_variable_budget_edges(capsys, monkeypatch):
    # a rank-0 tensor factor hides its universal leaves from the rank budget,
    # so their root variables are counted on their own: 10000 pass, 10001 not
    def refuse(*_):
        raise AssertionError("an input over budget reached its computation")

    monkeypatch.setattr(bundlecalc, "root_ring", refuse)
    monkeypatch.setattr(bundlecalc, "sphere_eval", refuse)
    for argv in (("tensor(E10001,triv(0))", "--k", "0"),
                 ("tensor(E10001,triv(0))", "--k", "0", "--emit", "roots"),
                 ("tensor(sum(E6000,E4001),triv(0))", "--k", "1", "--eval", "sphere"),
                 ("tensor(E100000,triv(0))", "--k", "0")):
        code, out, err = run_cli(capsys, "chern", "--expr", *argv)
        assert (code, out, err) == (
            2, "", "error: --expr: the universal leaves hold more than 10000 root variables\n"
        ), argv
    monkeypatch.undo()
    rings = []
    original = bundlecalc.root_ring
    monkeypatch.setattr(bundlecalc, "root_ring",
                        lambda expr: rings.append(original(expr)[0].ngens) or original(expr))
    for argv, want in ((("tensor(E10000,triv(0))", "--k", "0"), {"class": "1", "degree": 0}),
                       (("tensor(sum(E6000,E4000),triv(0))", "--k", "0", "--emit", "roots"),
                        {"rank": 0, "roots": []})):
        code, out, err = run_cli(capsys, "chern", "--expr", *argv)
        assert (code, json.loads(out)) == (0, want), err
    assert set(rings) == {10_000}
    code, out, err = run_cli(capsys, "chern", "--expr", "tensor(E10000,triv(0))", "--k", "1",
                             "--eval", "sphere")
    assert (code, out.strip()) == (0, '{"value":"0"}'), err


def test_sym_term_budget_rejects_before_any_work(capsys, monkeypatch):
    refuse_sym_builders(monkeypatch)
    for argv in (("elementary", "--k", "3", "--vars", "2000"),
                 ("monomial", "--partition", "2,1", "--vars", "3000"),
                 ("monomial", "--partition", "1,1,1", "--vars", "10000")):
        code, out, err = run_cli(capsys, "sym", "--op", *argv)
        assert code == 2
        assert out == ""
        assert "--vars" in err
    # a sigma_k with k > v has no terms, and a shape longer than v has no orbit
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "sym", "--op", "elementary", "--k", "9" * 40, "--vars", "3")
    assert (code, out.strip()) == (0, '{"poly":"0"}')
    code, _, err = run_cli(capsys, "sym", "--op", "monomial", "--partition", "1,1,1,1",
                           "--vars", "3")
    assert code == 2
    assert "--partition" in err


def test_flag_value_starting_with_minus_needs_the_equals_form(capsys):
    # argparse reads a separate value that starts with "-" as a flag
    code, out, err = run_cli(capsys, "equi", "mu", "--n", "1", "--weights", "-1,0", "--k", "2")
    assert code == 2
    assert out == ""
    assert "--weights: expected one argument" in err
    code, out, _ = run_cli(capsys, "equi", "mu", "--n", "1", "--weights=-1,0", "--k", "2")
    assert code == 0
    assert json.loads(out)["value"] == "1/4"


def test_deeply_nested_expression_never_exits_1():
    # a fresh process, as a user runs it: the parser's recursion has the
    # stack to itself, so the tree walks after it see the full depth
    expr = "lambda2(" * 985 + "E2" + ")" * 985
    env = dict(os.environ, PYTHONPATH=str(Path(charcalc.__file__).parents[1]))
    for extra in ([], ["--emit", "roots"], ["--eval", "sphere"]):
        proc = subprocess.run(
            [sys.executable, "-m", "charcalc.cli", "chern", "--expr", expr, "--k", "1", *extra],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 or (proc.returncode == 2 and "--expr" in proc.stderr), (
            extra, proc.returncode, proc.stderr
        )


def test_unknown_flags_rejected(capsys):
    code, _, _ = run_cli(capsys, "chern", "--expr", "E4", "--k", "4", "--bogus", "1")
    assert code == 2
    code, _, _ = run_cli(capsys, "nosuchcommand")
    assert code == 2
    code, _, _ = run_cli(capsys, "--seed", "1", "paper")
    assert code == 2


# one quick, valid command per leaf subcommand
LEAF_COMMANDS = [
    ("poly", "--gens", "y:2", "--a", "y"),
    ("sym", "--op", "elementary", "--k", "1", "--vars", "2"),
    ("chern", "--expr", "E2", "--k", "1"),
    ("flag", "--dims", "1,1"),
    ("bundle", "--space", "cp1"),
    ("mu", "--space", "trivial", "--base", "s2", "--n", "1", "--k", "1"),
    ("paper",),
    ("equi", "mu", "--n", "1", "--weights", "1,0", "--k", "2"),
    ("equi", "su-product", "--ell", "2", "--k", "2"),
    ("equi", "nu1", "--n", "1", "--weights", "1,0", "--vertex", "0"),
    ("equi", "simplex", "--alpha", "1", "--n", "1"),
    ("equi", "moment", "--n", "1", "--weights", "1,0"),
    ("equi", "integral", "--poly", "x1", "--n", "1"),
    ("obstruct", "square", "--space", "cp1"),
    ("obstruct", "cube", "--space", "cp2"),
    ("obstruct", "hl", "--space", "cp1", "--class", "c"),
    ("obstruct", "dims", "--space", "cp1", "--degree", "2"),
    ("obstruct", "member", "--space", "cp1", "--z", "c"),
]


def _subcommand_path(argv):
    return argv[:2] if argv[0] in ("equi", "obstruct") else argv[:1]


@pytest.mark.parametrize("argv", LEAF_COMMANDS, ids=" ".join)
def test_output_flag_before_and_after_the_subcommand(capsys, argv):
    path = _subcommand_path(argv)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out.startswith("{"), err
    placements = [("--output", "text") + argv, argv + ("--output", "text")]
    if len(path) == 2:
        placements.append(path[:1] + ("--output", "text") + argv[1:])
    outputs = []
    for placed in placements:
        code, out, err = run_cli(capsys, *placed)
        assert code == 0, (placed, err)
        outputs.append(out)
    assert outputs == [outputs[0]] * len(outputs)
    assert not outputs[0].startswith("{")


@pytest.mark.parametrize("argv", LEAF_COMMANDS, ids=" ".join)
def test_leaf_help_exits_0(capsys, argv):
    code, out, _ = run_cli(capsys, *_subcommand_path(argv), "--help")
    assert code == 0
    assert "--output" in out


@pytest.mark.parametrize("argv, golden", [((), "paper.json"), (("--output", "text"), "paper.txt")])
def test_paper_output_matches_golden(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *argv, "paper")
    assert code == 0
    assert out.encode() == (Path(__file__).parent / "golden" / golden).read_bytes()


def test_text_output_mode(capsys):
    code, out, _ = run_cli(capsys, "--output", "text", "flag", "--dims", "2,2",
                           "--emit", "dims")
    assert code == 0
    assert "total: 6" in out


def test_json_round_trip_bytes(capsys):
    _, out, _ = run_cli(capsys, "flag", "--dims", "2,2", "--emit", "dims")
    payload = json.loads(out)
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == out.strip()


def test_answers_past_the_int_digit_limit_print(capsys):
    code, out, err = run_cli(capsys, "poly", "--gens", "y:2", "--a", "2*y", "--op", "pow", "--e", "20000")
    assert code == 0, err
    coefficient, _, monomial = json.loads(out)["result"].partition("*")
    assert monomial == "y^20000" and len(coefficient) == 6021
    assert int(Decimal(coefficient)) == 2 ** 20000
    code, out, err = run_cli(capsys, "chern", "--expr", "E2000", "--k", "2000", "--eval", "sphere")
    assert code == 0, err
    assert int(Decimal(json.loads(out)["value"])) == math.factorial(1999)  # 5733 digits


def test_long_sum_expression_evaluates(capsys):
    expr = "sum(" + ",".join(["E1"] * 1500) + ")"
    code, out, err = run_cli(capsys, "chern", "--expr", expr, "--k", "1")
    assert code == 0, err
    assert json.loads(out) == {"class": "1500*t1", "degree": 2}
    code, out, _ = run_cli(capsys, "chern", "--expr", expr, "--k", "1", "--eval", "sphere")
    assert json.loads(out) == {"value": "1500"}


def test_registry_covers_every_operation():
    expected_ops = {
        "exactring.poly_arith", "exactring.poly_pow", "exactring.graded_component",
        "exactring.normal_form", "exactring.fiber_coefficient",
        "symfun.monomial_symmetric", "symfun.elementary", "symfun.to_elementary",
        "symfun.sigma_top_coefficient",
        "bundlecalc.chern_roots", "bundlecalc.chern_class", "bundlecalc.sphere_eval",
        "flagcoh.inverse_series", "flagcoh.grassmannian_presentation",
        "flagcoh.flag_presentation", "flagcoh.projective_bundle",
        "flagcoh.fiber_integrate", "flagcoh.sphere_product_ring", "flagcoh.phi_pullback",
        "coupling.coupling_class", "coupling.mu_class", "coupling.nu_class",
        "coupling.mixed_class",
        "equivariant.simplex_integral", "equivariant.normalized_moment",
        "equivariant.moment_integral", "equivariant.mu_of_circle",
        "equivariant.su_product_integral", "equivariant.nu1_at_fixed_point",
        "obstruction.degree_basis", "obstruction.ideal_membership",
        "obstruction.whitehead_square_criterion", "obstruction.whitehead_cube_criterion",
        "obstruction.hard_lefschetz_check",
        "cli.paper_suite",
    }
    assert set(cli.OP_REGISTRY) == expected_ops
    parser = cli.build_parser()
    subcommands = None
    for action in parser._actions:
        if hasattr(action, "choices") and action.choices and "paper" in action.choices:
            subcommands = set(action.choices)
    assert subcommands is not None
    assert set(cli.OP_REGISTRY.values()) <= subcommands


def test_paper_suite_all_pass(capsys):
    code, out, _ = run_cli(capsys, "paper")
    assert code == 0
    report = json.loads(out)
    assert report["failed"] == 0
    assert report["passed"] == len(report["anchors"]) == len(paper._ANCHORS)
    assert all(a["status"] == "pass" for a in report["anchors"])


def test_paper_suite_fault_injection(capsys, monkeypatch):
    # break the sphere-pairing normalization; exactly the anchors that consume
    # the pairing's value (and not just its linearity) must fail
    original = bundlecalc.sphere_eval
    monkeypatch.setattr(bundlecalc, "sphere_eval", lambda expr, k: 2 * original(expr, k))
    code, out, _ = run_cli(capsys, "paper")
    assert code == 1
    report = json.loads(out)
    failing = {a["id"] for a in report["anchors"] if a["status"] == "fail"}
    assert failing == {"sphere-pairing-rank4-top", "sphere-pairing-lambda2-rank4"}


def test_paper_suite_deterministic(capsys):
    _, first, _ = run_cli(capsys, "paper")
    _, second, _ = run_cli(capsys, "paper")
    assert first == second
    assert not re.search(r"\d\.\d", first)


def test_cli_import_is_lean_and_only_paper_loads_the_anchors():
    # dataclasses and inspect would add a dozen modules to every cold start;
    # the anchor battery is compiled only when paper runs
    script = """
import contextlib, io, json, sys
before = set(sys.modules)
import charcalc.cli as cli
loaded = set(sys.modules) - before
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(argv) for argv in (["equi", "mu", "--n", "2", "--weights", "1,-1,0", "--k", "2"],
                                        ["chern", "--expr", "lambda2(E4)", "--k", "2"],
                                        ["obstruct", "hl", "--space", "gr:2,2", "--class", "y1"])]
    before_paper = "charcalc.paper" in sys.modules
    codes.append(cli.run(["paper"]))
print(json.dumps({"heavy": sorted(loaded & {"dataclasses", "inspect", "charcalc.paper"}),
                  "codes": codes, "before_paper": before_paper,
                  "after_paper": "charcalc.paper" in sys.modules}))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(charcalc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"heavy": [], "codes": [0, 0, 0, 0],
                                       "before_paper": False, "after_paper": True}
