"""charcalc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the checkout is the directory above this file and the
library is imported from its ``src``.  This process never imports charcalc:
each round runs in a child process (``worker.py``, or one ``python -m
charcalc.cli`` per command for ``cli-cold``), started one at a time.  A run
repeats whole rounds of the same seeded queries while another round still
fits in ``--seconds`` (at least one round), so every run attempts the same
operations in the same proportions.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics.  With ``--trace 1`` untraced and traced rounds
alternate; the result holds the per-layer metrics of the traced rounds and
the tracing overhead, traced ``wall_s`` minus untraced ``wall_s``.  Each run
also writes a record to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

WORKLOADS = ("presentation-build", "ring-query", "splitting-pairing", "cli-cold")
# Set-up is sampled at least this many times per run and the median reported:
# five for ring-query, whose set-up builds its rings in about two seconds,
# seven where set-up is an import of about a tenth of a second.
MIN_SETUP_SAMPLES = {"ring-query": 5}
CHEAP_SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _run_child(argv: list[str], env: dict, timeout: float = CHILD_TIMEOUT_S):
    """Start one child and wait for it.

    Returns (start_ns, end_ns, code, out, err, rss_kib), where ``rss_kib`` is
    the peak resident set of this child alone, taken from ``wait4``.
    """
    with tempfile.TemporaryFile("w+", dir=OUT) as out, tempfile.TemporaryFile("w+", dir=OUT) as err:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err, text=True)
        timer = threading.Timer(timeout, _kill, (proc.pid,))
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        timer.join()
        if end - start >= timeout * 1e9:
            raise BenchError(f"child {argv[1:4]} did not finish within {timeout} s")
        out.seek(0)
        err.seek(0)
        return start, end, proc.returncode, out.read(), err.read(), usage.ru_maxrss


def _kill(pid: int) -> None:
    # os.kill, not Popen.kill: Popen would poll, and could reap the child
    # before wait4 does.
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Round:
    """What one round measured."""

    def __init__(self, query_s, errors, wrong, rss_kib, import_s=None, trace=None):
        self.query_s = query_s
        self.errors = errors
        self.wrong = wrong
        self.rss_kib = rss_kib
        self.import_s = import_s
        self.trace = trace

    @property
    def wall_s(self) -> float:
        return sum(self.query_s)


class Bench:
    def __init__(self, workload: str, seed: int, spans_dir: str):
        self.workload = workload
        self.seed = seed
        self.spans_dir = spans_dir
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.setup_samples: list[float] = []

    # -- library workloads -------------------------------------------------

    def _worker(self, trace: bool, setup_only: bool = False) -> dict:
        argv = [sys.executable, os.path.join(HERE, "worker.py"), self.workload,
                str(self.seed), "1" if trace else "0", self.spans_dir if trace else "-"]
        if setup_only:
            argv.append("setup")
        start, _, code, out, err, _ = _run_child(argv, self.env)
        if code != 0:
            raise BenchError(f"worker for {self.workload} exited {code}: {err.strip()[-2000:]}")
        result = json.loads(out.strip().splitlines()[-1])
        result["setup_s"] = (result["ready_ns"] - start) / 1e9
        return result

    def library_round(self, trace: bool) -> Round:
        r = self._worker(trace)
        if not trace:
            self.setup_samples.append(r["setup_s"])
        return Round([ns / 1e9 for ns in r["query_ns"]], r["errors"], r["wrong"],
                     r["rss_kib"], r["import_s"], r.get("trace"))

    def library_setup(self) -> None:
        self.setup_samples.append(self._worker(False, setup_only=True)["setup_s"])

    # -- cli-cold -------------------------------------------------------------

    def cli_round(self, trace: bool) -> Round:
        import cli_cold
        from tracer import merge_summaries

        query_s: list[float] = []
        errors: list[str] = []
        wrong: list[str] = []
        summaries: list[dict] = []
        rss = 0
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            summary_path = os.path.join(tmp, "summary.json")
            for argv, check, fault in cli_cold.round_commands(self.seed):
                if trace:
                    cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), summary_path,
                           self.spans_dir, *argv]
                else:
                    cmd = [sys.executable, "-m", "charcalc.cli", *argv]
                start, end, code, out, err, child_rss = _run_child(cmd, self.env)
                query_s.append((end - start) / 1e9)
                rss = max(rss, child_rss)
                if trace:
                    with open(summary_path) as handle:
                        summaries.append(json.load(handle))
                label = " ".join(argv)
                if fault is not None:
                    problem = cli_cold.check_fault(*fault, code, err)
                    if problem:
                        errors.append(f"{label}: {problem}")
                elif code != 0:
                    errors.append(f"{label}: exit {code}: {err.strip()}")
                else:
                    problem = cli_cold.check_output(check, out)
                    if problem:
                        wrong.append(f"{label}: {problem}")
        if not trace:
            return Round(query_s, errors, wrong, rss)
        merged = merge_summaries(summaries)
        import_s = statistics.median(s["import_s"] for s in summaries)
        return Round(query_s, errors, wrong, rss, import_s=import_s, trace=merged)

    def cli_setup(self) -> None:
        argv = [sys.executable, "-c", "import charcalc.cli"]
        start, end, code, _, err, _ = _run_child(argv, self.env)
        if code != 0:
            raise BenchError(f"importing charcalc.cli failed: {err.strip()}")
        self.setup_samples.append((end - start) / 1e9)

    # -- driving ----------------------------------------------------------------

    def round(self, trace: bool) -> Round:
        if self.workload == "cli-cold":
            return self.cli_round(trace)
        return self.library_round(trace)

    def fill_setup_samples(self) -> None:
        sample = self.cli_setup if self.workload == "cli-cold" else self.library_setup
        while len(self.setup_samples) < MIN_SETUP_SAMPLES.get(self.workload, CHEAP_SETUP_SAMPLES):
            sample()


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    spans_dir = os.path.join(OUT, "spans", f"{workload}-seed{seed}")
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
    bench = Bench(workload, seed, spans_dir)
    plain: list[Round] = []
    traced: list[Round] = []
    begin = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        plain.append(bench.round(False))
        if trace:
            traced.append(bench.round(True))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(durations) > seconds:
            break
    if not trace:
        bench.fill_setup_samples()

    rounds = plain + traced
    attempted = sum(len(r.query_s) for r in rounds)
    failures = [f for r in rounds for f in r.errors + r.wrong]
    wrong = [f for r in rounds for f in r.wrong]
    all_queries = [q for r in plain for q in r.query_s]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(plain),
        "queries_per_round": len(plain[0].query_s),
        "attempted": attempted,
        "failed": len(failures),
        "correct": not wrong,
        "failures": sorted(set(failures)),
        "setup_samples_s": bench.setup_samples,
        "round_wall_s": [r.wall_s for r in plain],
        "round_query_s": [r.query_s for r in plain],
        # In the record only: across seeds these spread more than the largest
        # bound a metric may have (README, "Reference figures").
        "query_p50_ms": statistics.median(all_queries) * 1e3,
        "query_p90_ms": statistics.quantiles(all_queries, n=10)[8] * 1e3,
    }
    untraced_wall = statistics.median(r.wall_s for r in plain)
    if not trace:
        metrics = {
            "setup_s": statistics.median(bench.setup_samples),
            "wall_s": untraced_wall,
            "peak_rss_mib": max(r.rss_kib for r in plain) / 1024,
        }
        record["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        from tracer import layer_metrics

        per_round = [layer_metrics(r.trace, r.import_s) for r in traced]
        traced_wall = statistics.median(r.wall_s for r in traced)
        metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        units = _per_layer_units()
        record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        record["spans_dir"] = os.path.relpath(spans_dir, ROOT)
    return record


def _per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _revision() -> str | None:
    """The commit of the checkout, or None where it is not a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            # git must not report a repository that merely encloses the checkout
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _write_record(record: dict) -> str:
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(
        results, f"{stamp}-{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    )
    record = dict(record, revision=_revision(), python=platform.python_version(),
                  machine=platform.machine(), cpus=os.cpu_count())
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    return path


def _print_human(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} rounds={record['rounds']} "
          f"queries/round={record['queries_per_round']}")
    for name, m in record["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {record['attempted']} failed {record['failed']} correct {record['correct']}")
    for failure in record["failures"][:10]:
        print(f"  failed: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "charcalc", "__init__.py")):
        print(f"error: no charcalc sources under {SRC}", file=sys.stderr)
        return 2
    import oracles

    oracles.self_check()
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            record["record_file"] = os.path.relpath(_write_record(record), ROOT)
            _print_human(record)
            records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        result = {key: records[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        result = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
