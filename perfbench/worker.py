"""One benchmark process: set a workload up, then send its queries.

    python3 perfbench/worker.py --workload W --seed N --mode setup|run|trace
        [--seconds S] [--trace-out PATH]

setup: import cubigraph, build the inputs, report the time taken.
run:   set up, then run passes over the corpus, one query at a time (the
       next one is sent only when the previous verdict has returned),
       until S seconds have been measured; at least one pass.
trace: like run with a single pass, with every public cubigraph function
       wrapped in spans (tracer.py); spans are written to PATH, for cli a
       directory that gets one summary and one span file per process.

The last line of stdout is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CLI_TIMEOUT_S = 60


def _children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _check(query, run):
    """Run one in-process query; return a failure reason or None."""
    try:
        got = run()
    except Exception as exc:  # a raising query is a failed operation
        return f"raised {type(exc).__name__}: {exc}"
    if got != query.expected:
        return f"returned {got!r}, expected {query.expected!r}"
    return None


def run_in_process(queries, tracer):
    failures = []
    for qid, q in enumerate(queries):
        if tracer is None:
            reason = _check(q, q.run)
        else:
            tracer.query = qid
            frame = tracer.bench_span(f"query {q.name}")
            try:
                reason = _check(q, q.run)
            finally:
                tracer.leave(frame)
        if reason:
            failures.append({"query": q.name, "reason": reason})
    return failures


def run_cli(queries, traced_dir):
    """Run each CLI query as a cold process; with traced_dir, through the
    tracing bootstrap, which leaves a summary per process there."""
    failures = []
    digests = {}
    command_wall = {}
    env = _child_env()
    for qid, q in enumerate(queries):
        if traced_dir is None:
            argv = [sys.executable, "-m", "cubigraph.cli", *q.argv]
        else:
            out = os.path.join(traced_dir, f"{qid:02d}")
            argv = [sys.executable, os.path.join(HERE, "cli_traced.py"),
                    out, str(qid), *q.argv]
        started = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, env=env,
                              timeout=CLI_TIMEOUT_S)
        wall = time.perf_counter() - started
        command_wall[q.command] = command_wall.get(q.command, 0.0) + wall
        digest = hashlib.sha256(proc.stdout).hexdigest()[:12]
        digests[q.name] = digest
        problems = []
        if proc.returncode != q.exit_code:
            problems.append(f"exit {proc.returncode}, expected {q.exit_code}")
        if q.digest is not None and digest != q.digest:
            problems.append(f"stdout digest {digest}, expected {q.digest}")
        if b"Traceback" in proc.stderr:
            problems.append("printed a traceback")
        if problems:
            failures.append({"query": q.name, "reason": "; ".join(problems)})
    return failures, {"digests": digests, "command_wall_s": command_wall}


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def setup(workload, seed, workdir):
    """Import cubigraph and build the workload's queries."""
    import workloads

    if workload == "cli":
        return workloads.cli(workloads.cli_corpus(workdir))
    return workloads.IN_PROCESS[workload](seed)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"],
                    required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    # SIGTERM becomes SystemExit, which makes subprocess.run stop and wait
    # for the CLI process in flight
    signal.signal(signal.SIGTERM, _exit_on_signal)
    sys.path.insert(0, SRC)

    tracer = None
    if args.mode == "trace" and args.workload != "cli":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        started = time.perf_counter()
        queries = setup(args.workload, args.seed, tmp)
        setup_s = time.perf_counter() - started
        result = {"setup_s": setup_s, "attempted": 0, "passes": [],
                  "failures": []}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0
        if tracer is not None:
            tracer.reset()

        window_start = time.perf_counter()
        while True:
            traced_dir = None
            if args.mode == "trace" and args.workload == "cli":
                traced_dir = args.trace_out
                os.makedirs(traced_dir, exist_ok=True)
            wall0 = time.perf_counter()
            cpu0 = time.process_time() + _children_cpu()
            if args.workload == "cli":
                failures, extra = run_cli(queries, traced_dir)
            else:
                failures, extra = run_in_process(queries, tracer), {}
            cpu = time.process_time() + _children_cpu() - cpu0
            now = time.perf_counter()
            wall = now - wall0
            result["passes"].append({"wall_s": wall, "cpu_s": cpu})
            result["attempted"] += len(queries)
            result["failures"] += failures
            result.update(extra)
            if args.mode == "trace" or now - window_start >= args.seconds:
                break

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # for cli the workload process is the largest child
    rss_kb = child_kb if args.workload == "cli" else self_kb
    result["peak_rss_mb"] = rss_kb / 1024.0
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump_spans(args.trace_out)
    elif args.mode == "trace":
        result["trace"] = _merge_cli_traces(args.trace_out, len(queries))
    print(json.dumps(result))
    return 0


def _merge_cli_traces(traced_dir, n):
    """Sum the per-process trace summaries the CLI bootstrap wrote."""
    total = {"spans": 0, "missing": 0}
    for qid in range(n):
        path = os.path.join(traced_dir, f"{qid:02d}.json")
        if not os.path.exists(path):  # the process died before writing
            total["missing"] += 1
            continue
        with open(path) as fh:
            part = json.load(fh)
        total["spans"] += part["spans"]
        for key, table in part.items():
            if isinstance(table, dict):
                acc = total.setdefault(key, {})
                for name, value in table.items():
                    acc[name] = acc.get(name, 0) + value
    return total


if __name__ == "__main__":
    sys.exit(main())
