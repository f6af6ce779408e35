"""One round of a library workload, in a fresh process.

    python perfbench/worker.py <workload> <seed> <trace 0|1> <spans-dir|-> [setup]

The orchestrator (``run.py``) starts this with the checkout's ``src`` on
``PYTHONPATH``.  The worker imports charcalc, builds the workload's fixtures
and records the moment it is ready (``ready_ns`` on the shared monotonic
clock, so the parent can measure set-up from the moment it started the
process).  With the ``setup`` argument it stops there.  Otherwise it runs the
round's queries, timing only the library call of each, checks every answer
against its oracle afterwards, and prints one JSON object.

``presentation-build`` forks a fresh child per build from this process, which
has imported charcalc but built nothing, so every build is cold.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def main(argv: list[str]) -> int:
    workload, seed, trace, spans_dir = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    setup_only = argv[4:] == ["setup"]
    start = time.perf_counter_ns()
    import charcalc

    import_ns = time.perf_counter_ns() - start
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(charcalc)

    import workloads as W

    # The benchmark's own input building and answer checks are not traced.
    quiet = tracer.paused if tracer is not None else contextlib.nullcontext
    fixtures = W.ring_fixtures(charcalc) if workload == "ring-query" else None
    ready_ns = time.perf_counter_ns()
    out: dict = {"ready_ns": ready_ns, "import_s": import_ns / 1e9}
    if not setup_only:
        if workload == "presentation-build":
            out.update(_presentation_round(charcalc, seed, tracer, spans_dir))
        else:
            with quiet():
                if workload == "ring-query":
                    queries = W.ring_queries(charcalc, fixtures, seed)
                elif workload == "splitting-pairing":
                    queries = W.splitting_queries(charcalc, seed)
                else:
                    raise SystemExit(f"unknown workload {workload!r}")
            out.update(_run_queries(queries, quiet))
            out["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
            out["trace"] = out.get("trace") or tracer.summary()
            if spans_dir != "-" and tracer.spans:
                tracer.dump(os.path.join(spans_dir, f"{workload}-{os.getpid()}.tsv"))
    print(json.dumps(out))
    return 0


def _run_queries(queries: list, quiet) -> dict:
    clock = time.perf_counter_ns
    times: list[int] = []
    errors: list[str] = []
    wrong: list[str] = []
    for label, call, check in queries:
        start = clock()
        try:
            result = call()
        except Exception as exc:  # a failing library call is a failed operation
            times.append(clock() - start)
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        times.append(clock() - start)
        with quiet():
            problem = check(result)
        if problem:
            wrong.append(f"{label}: {problem}")
    return {"query_ns": times, "errors": errors, "wrong": wrong}


def _presentation_round(cc, seed: int, tracer, spans_dir: str) -> dict:
    import workloads as W

    times: list[int] = []
    errors: list[str] = []
    wrong: list[str] = []
    summaries: list[dict] = []
    rss = 0
    for dims in W.build_list(seed):
        sys.stdout.flush()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: one cold build, result back through the pipe
            os.close(read_fd)
            code = 0
            try:
                try:
                    pres, dims_got, ns = W.build_space(cc, dims)
                except Exception as exc:
                    pres, payload = None, {"ns": 0, "error": f"{dims}: {type(exc).__name__}: {exc}"}
                else:
                    payload = {"ns": ns}
                # memory and spans of the build alone, before the check
                payload["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                if tracer is not None:
                    tracer.uninstall()
                    payload["trace"] = tracer.summary()
                    if spans_dir != "-":
                        tracer.dump(os.path.join(spans_dir, f"presentation-build-{os.getpid()}.tsv"))
                if pres is not None:
                    try:
                        payload["problem"] = W.check_presentation(cc, pres, dims, dims_got, seed)
                    except Exception as exc:
                        payload["problem"] = f"{dims}: check raised {type(exc).__name__}: {exc}"
                with os.fdopen(write_fd, "w") as pipe:
                    pipe.write(json.dumps(payload))
            except BaseException:
                code = 1
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status != 0 or not data:
            raise RuntimeError(f"build child for {dims} ended with status {status}")
        payload = json.loads(data)
        times.append(payload["ns"])
        rss = max(rss, payload["rss_kib"])
        if payload.get("error"):
            errors.append(payload["error"])
        elif payload.get("problem"):
            wrong.append(payload["problem"])
        if "trace" in payload:
            summaries.append(payload["trace"])
    out = {"query_ns": times, "errors": errors, "wrong": wrong, "rss_kib": rss}
    if tracer is not None:
        from tracer import merge_summaries

        out["trace"] = merge_summaries(summaries)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
