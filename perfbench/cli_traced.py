"""Traced stand-in for ``python -m charcalc.cli``; used only by traced cli-cold runs.

    python perfbench/cli_traced.py <summary.json> <spans-dir|-> <cli arguments...>

Times the import of ``charcalc.cli``, installs the tracer, runs the CLI's
``run`` with the given arguments and exits with its code.  The span totals
and the import time go to ``summary.json``; the spans themselves to the
spans directory.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    summary_path, spans_dir, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter_ns()
    import charcalc
    import charcalc.cli

    import_s = (time.perf_counter_ns() - start) / 1e9
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(charcalc)
    try:
        code = charcalc.cli.run(cli_args)
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(summary_path, "w") as handle:
            json.dump(summary, handle)
        if spans_dir != "-":
            tracer.dump(os.path.join(spans_dir, f"cli-cold-{os.getpid()}.tsv"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
