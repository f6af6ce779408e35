"""Replay the committed CLI answer corpus, ``tests/golden/cli_corpus.jsonl``.

Every line is one command with the exit code, stdout and stderr it must give.
The file is regenerated only by ``tests/golden/make_cli_corpus.py``, and only
for a declared output change.
"""

import json
from pathlib import Path

from charcalc import cli
from test_cli import VALIDATION_CASES

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.jsonl"


# Modes that must each have a successful line: the words that must appear in
# its argv, and the flags that must not.
MODES = [
    (("sym", "--op", "monomial"), ()),
    (("sym", "--op", "elementary"), ()),
    (("sym", "--op", "to-elementary"), ()),
    (("chern", "--emit", "class"), ("--eval",)),
    (("chern", "--emit", "roots"), ("--eval",)),
    (("chern", "--emit", "monomial-symmetric"), ("--eval",)),
    (("flag", "--inverse-series"), ()),
    (("flag", "--emit", "relations"), ()),
    (("flag", "--emit", "basis"), ()),
    (("bundle", "--space", "--emit", "relations"), ()),
    (("bundle", "--space", "--emit", "basis"), ()),
    (("bundle", "--space"),
     ("--emit", "--integrate", "--normal", "--coefficient", "--phi", "--output")),
    (("bundle", "--coefficient"), ()),
    (("mu", "--kappa"), ()),
    (("equi", "integral"), ()),
    (("equi", "moment"), ()),
    (("poly",), ("--op", "--component")),
    (("poly", "--op", "add"), ()),
    (("poly", "--op", "mul"), ()),
    (("poly", "--component"), ()),
]

# The smallest input over each budget, refused with exit 2.
JUST_OVER = [
    ("obstruct", "square", "--space", "cp10001"),
    ("sym", "--op", "to-elementary", "--partition", "9,8", "--vars", "2"),
    ("sym", "--op", "elementary", "--k", "1", "--vars", "10001"),
    ("sym", "--op", "elementary", "--k", "2", "--vars", "448"),
    ("sym", "--op", "monomial", "--partition", "2,1", "--vars", "317"),
    ("flag", "--inverse-series", "10001", "--degree", "1"),
    ("flag", "--inverse-series", "10000", "--degree", "37"),
    ("chern", "--expr", "E10001", "--k", "1"),
    ("chern", "--expr", "tensor(E10001,triv(0))", "--k", "0"),
    ("chern", "--expr", "E707", "--k", "1"),
    ("bundle", "--phi", "10001"),
    ("equi", "su-product", "--ell", "13", "--k", "2"),
    ("poly", "--gens", "y0:2,y1:2", "--a", "y0+y1", "--op", "pow", "--e", "1414"),
    ("bundle", "--space", "sphere:" + ",".join(["2"] * 17)),
    ("obstruct", "dims", "--space", "pe:10001,1", "--degree", "2"),
]


def _records() -> list[dict]:
    with CORPUS.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def test_cli_corpus_replays_identically(capsys):
    mismatches = []
    for record in _records():
        code = cli.run(record["argv"])
        out, err = capsys.readouterr()
        got = (code, out, err)
        want = (record["code"], record["stdout"], record["stderr"])
        if got != want:
            mismatches.append(f"{record['argv']}: got {got!r}, want {want!r}")
    assert not mismatches, "\n".join(mismatches[:5]) + f"\n({len(mismatches)} commands differ)"


def test_cli_corpus_refusals_are_one_line_naming_a_flag():
    # the README's exit codes: every exit-2 diagnostic, the parser's own
    # included, is one line "error: --flag: reason" naming a flag of the command;
    # a command with no flag but --output may name "<subcommand>" instead
    bad = []
    for record in _records():
        if record["code"] != 2:
            continue
        flags = {arg.split("=")[0] for arg in record["argv"] if arg.startswith("--")}
        if flags <= {"--output"}:
            flags.add("<subcommand>")
        lines = record["stderr"].splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: ") or (
            lines[0].removeprefix("error: ").split(":")[0] not in flags
        ):
            bad.append(f"{record['argv']}: {record['stderr']!r}")
    assert not bad, "\n".join(bad[:5]) + f"\n({len(bad)} refusals are not one line naming a flag)"


def test_cli_corpus_covers_its_inputs():
    records = _records()
    argvs = {tuple(record["argv"]) for record in records}
    assert len(argvs) == len(records)
    assert all(argv in argvs for argv, _ in VALIDATION_CASES)
    assert ("paper",) in argvs and ("paper", "--output", "text") in argvs
    assert sum(record["code"] == 0 for record in records) >= 300
    assert sum("text" in record["argv"] for record in records) >= 40
    passed = [record["argv"] for record in records if record["code"] == 0]
    for words, absent in MODES:
        assert any(
            all(w in argv for w in words) and not any(a.split("=")[0] in absent for a in argv)
            for argv in passed
        ), words
    codes = {tuple(record["argv"]): record["code"] for record in records}
    assert all(codes.get(argv) == 2 for argv in JUST_OVER)
