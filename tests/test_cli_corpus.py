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


def _records() -> list[dict]:
    with CORPUS.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _diagnostic(stderr: str) -> str:
    # argparse's usage block wraps differently across Python versions, so an
    # argparse error is compared by its last line, which names the flag
    return stderr.splitlines()[-1] if stderr.startswith("usage:") else stderr


def test_cli_corpus_replays_identically(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    mismatches = []
    for record in _records():
        code = cli.run(record["argv"])
        out, err = capsys.readouterr()
        got = (code, out, _diagnostic(err))
        want = (record["code"], record["stdout"], _diagnostic(record["stderr"]))
        if got != want:
            mismatches.append(f"{record['argv']}: got {got!r}, want {want!r}")
    assert not mismatches, "\n".join(mismatches[:5]) + f"\n({len(mismatches)} commands differ)"


def test_cli_corpus_covers_its_inputs():
    records = _records()
    argvs = {tuple(record["argv"]) for record in records}
    assert len(argvs) == len(records)
    assert all(argv in argvs for argv, _ in VALIDATION_CASES)
    assert ("paper",) in argvs and ("paper", "--output", "text") in argvs
    assert sum(record["code"] == 0 for record in records) >= 300
    assert sum("text" in record["argv"] for record in records) >= 40
