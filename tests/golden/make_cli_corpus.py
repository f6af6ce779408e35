"""Regenerate ``tests/golden/cli_corpus.jsonl``, the committed CLI answer corpus.

Run from the repository root::

    PYTHONPATH=src python tests/golden/make_cli_corpus.py

Each line of the corpus is one command: its argv, exit code, stdout and
stderr, as ``cli.run`` produces them in one process with ``COLUMNS=80``.
The commands are the distinct ``cli_cold.round_commands`` of seeds 1-5, the
inputs of ``test_validation_exit_codes``, and ``--output text`` variants of
the fixed commands and of the first command of each seeded shape, then one
small command for each mode none of those reach, each budget's just-over
input and the refusals at a subcommand position (``COVERAGE``).  New commands are appended, so earlier lines keep their
place.
``tests/test_cli_corpus.py`` replays the file and never rewrites it; a
declared output change reruns this script and names the lines it changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).with_name("cli_corpus.jsonl")
SEEDS = range(1, 6)
# argparse wraps --help text to the terminal width; every error is one line
COLUMNS = "80"


# One successful command per mode, then each budget's smallest refused input,
# then the refusals at a subcommand position.
COVERAGE = [
    ["sym", "--op", "monomial", "--partition", "2,1", "--vars", "3"],
    ["sym", "--op", "elementary", "--k", "2", "--vars", "4"],
    ["sym", "--op", "to-elementary", "--partition", "2,1", "--vars", "3"],
    ["chern", "--expr", "E2", "--k", "2", "--emit", "class"],
    ["chern", "--expr", "sum(E2,E1)", "--k", "2", "--emit", "roots"],
    ["chern", "--expr", "E3", "--k", "2", "--emit", "monomial-symmetric"],
    ["flag", "--inverse-series", "3", "--degree", "4"],
    ["flag", "--inverse-series", "1", "--degree", "5"],
    ["flag", "--inverse-series", "7", "--degree", "12"],
    ["flag", "--dims", "2,1", "--emit", "relations"],
    ["flag", "--dims", "3,2", "--emit", "relations"],
    ["flag", "--dims", "2,1,1", "--emit", "relations"],
    ["flag", "--dims", "1,1,1,1", "--emit", "relations"],
    ["flag", "--dims", "2,1,1", "--emit", "basis"],
    ["bundle", "--space", "gr:2,2", "--emit", "relations"],
    ["bundle", "--space", "flag:2,2,1", "--emit", "relations"],
    ["bundle", "--space", "cp2", "--emit", "basis"],
    ["bundle", "--space", "cp2"],
    ["bundle", "--space", "cp2", "--coefficient", "c^2+2*c", "--basis-element", "c"],
    ["mu", "--space", "pcn-bundle", "--base", "s4", "--n", "2", "--kappa", "4"],
    ["equi", "integral", "--poly", "x1^2+x2", "--n", "2"],
    ["equi", "moment", "--n", "2", "--weights", "1,-1,0"],
    ["poly", "--gens", "y:2,z:4", "--a", "y^2+z"],
    ["poly", "--gens", "y:2,z:4", "--a", "y^2+z", "--op", "add", "--b", "y+z"],
    ["poly", "--gens", "y:2,z:4", "--a", "y+z", "--op", "mul", "--b", "y-z"],
    ["poly", "--gens", "y:2,z:4", "--a", "y^2+z+y", "--component", "4"],
    ["sym", "--op", "elementary", "--k", "1", "--vars", "10001"],
    ["sym", "--op", "elementary", "--k", "2", "--vars", "448"],
    ["sym", "--op", "monomial", "--partition", "2,1", "--vars", "317"],
    ["flag", "--inverse-series", "10001", "--degree", "1"],
    ["flag", "--inverse-series", "10000", "--degree", "37"],
    ["chern", "--expr", "E10001", "--k", "1"],
    ["chern", "--expr", "tensor(E10001,triv(0))", "--k", "0"],
    ["chern", "--expr", "E707", "--k", "1"],
    ["bundle", "--phi", "10001"],
    ["equi", "su-product", "--ell", "13", "--k", "2"],
    ["poly", "--gens", "y0:2,y1:2", "--a", "y0+y1", "--op", "pow", "--e", "1414"],
    ["bundle", "--space", "sphere:" + ",".join(["2"] * 17)],
    ["obstruct", "dims", "--space", "sphere:" + ",".join(["2"] * 24), "--degree", "2"],
    ["obstruct", "hl", "--space", "sphere:" + ",".join(["2"] * 16),
     "--class", " + ".join(f"{i + 1}*y{i}" for i in range(16))],
    ["obstruct", "hl", "--space", "sphere:2,4", "--class", "y0"],
    ["obstruct", "dims", "--space", "pe:10000,1", "--degree", "2"],
    ["obstruct", "dims", "--space", "pe:10001,1", "--degree", "2"],
    ["--seed", "1", "paper"],
    ["equi", "--n", "1"],
    [],
    ["equi"],
    ["nosuch"],
    ["paper", "--seed", "1"],
]


def run_command(argv: list[str]) -> dict:
    from charcalc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _shape(argv: list[str]) -> tuple[str, ...]:
    """The subcommand words and flag names of a command, without values."""
    words = []
    for arg in argv:
        if arg.startswith("-"):
            break
        words.append(arg)
    return tuple(words) + tuple(sorted(a.split("=")[0] for a in argv if a.startswith("--")))


def corpus_commands() -> list[list[str]]:
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    import cli_cold
    from test_cli import VALIDATION_CASES

    fixed = [argv for argv, _ in cli_cold.fixed_commands()]
    commands: list[list[str]] = []
    for seed in SEEDS:
        commands += [argv for argv, _, _ in cli_cold.round_commands(seed)]
    commands += [
        ["equi", "mu", "--n", "2", "--weights", "1,-1", "--k", "2"],
        ["equi", "mu", "--n", "2", "--weights", "1,x,0", "--k", "2"],
        ["flag", "--dims", "1,2", "--emit", "dims"],
    ]
    commands += [list(argv) for argv, _ in VALIDATION_CASES]
    shapes = {}
    for argv in commands:
        shapes.setdefault(_shape(argv), argv)
    text = [argv + ["--output", "text"] for argv in fixed]
    text += [argv + ["--output", "text"] for argv in shapes.values() if argv not in fixed]
    text += [["--output", "text", "paper"], ["--output=text", "flag", "--dims", "2,1"]]
    seen: set[tuple[str, ...]] = set()
    distinct = []
    for argv in commands + text + COVERAGE:
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            distinct.append(list(argv))
    return distinct


def main() -> None:
    os.environ["COLUMNS"] = COLUMNS
    sys.path.insert(0, str(ROOT / "src"))
    lines = [json.dumps(run_command(argv), ensure_ascii=False) for argv in corpus_commands()]
    CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} commands -> {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
