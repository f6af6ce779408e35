import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import charcalc
from charcalc import bundlecalc, cli

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
    for argv, flag in (
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
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert flag in err


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
    assert report["passed"] == len(report["anchors"]) == len(cli._ANCHORS)
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
