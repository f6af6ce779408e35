"""Regenerate ``tests/golden/cli_corpus.jsonl``, the committed CLI answer corpus.

Run from the repository root::

    PYTHONPATH=src python tests/golden/make_cli_corpus.py

Each line of the corpus is one command: its argv, exit code, stdout and
stderr, as ``cli.run`` produces them in one process with ``COLUMNS=80``.
The commands are the distinct ``cli_cold.round_commands`` of seeds 1-5, the
inputs of ``test_validation_exit_codes``, and ``--output text`` variants of
the fixed commands and of the first command of each seeded shape.
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
# argparse wraps its usage text to the terminal width
COLUMNS = "80"


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
    for argv in commands + text:
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
