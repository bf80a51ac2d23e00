"""The cubigraph benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; cubigraph is imported from src/.  The
workloads (workloads.py) are closed loops with one client: each query is
sent only when the previous verdict has returned, and every verdict is
checked against its pinned outcome.

--trace 0 measures the end-to-end metrics: set-up time (the median of seven
set-ups in fresh processes), then passes over the corpus in one fresh
process until S seconds have been measured, reporting the median pass.

--trace 1 measures the per-layer metrics: one untraced pass, then two
traced passes in two fresh processes with hash randomisation left on.
Counts marked exact must agree between the two; CLI stdout digests must
agree too.  A layer-share self-check asserts that each workload still
exercises the layers it was chosen for.  Spans go to perfbench/out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  failed counts every query that returned another outcome than the
pinned one, raised, or printed a traceback.  correct is false when a query
outside workloads.KNOWN_DEFECTS failed or a self-check did not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (neither imports a cubigraph module)
from tracer import LAYERS  # noqa: E402

SETUP_SAMPLES = 7
DEADLINE_S = 160  # with 10 s to stop a worker, every run ends within 180 s

CLI_COMMANDS = ("selftest", "verify-identities", "pi0", "a1",
                "paths-homotopic", "check-graph-fibration", "check-rlp", "sk",
                "cosk", "triangulate", "geometric-product", "nerve-stats",
                "psi-check")
# counts that must repeat identically in every fresh process
EXACT = ("presheaf.enumerate_maps.results", "skeleta.coskeleton.cells",
         "lifting.solve.lifted", "lifting.squares", "product.cells",
         "graphs.neighbors.calls", "nerve.fibration.problems",
         "nerve.fibration.work_units", "nerve.fragment.cells",
         "pi1.homotopy.words")
# workload -> (layers it exercises, their least share of the library self
# time, the largest share any other layer may hold); None: every layer
# must be exercised
SHARES = {
    "fibration": (("nerve",), 0.9, 0.02),
    "homotopy": (("pi1", "graphs"), 0.8, 0.02),
    "presheaf": (("site", "presheaf", "skeleta", "lifting", "product"),
                 0.9, 0.02),
    "cli": None,
}


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get(
            "PYTHONPATH", "")

    def _timeout(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline passed")
        return left

    def worker(self, mode, seconds=0.0, trace_out=None):
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--mode", mode, "--seconds", str(seconds)]
        if trace_out:
            argv += ["--trace-out", trace_out]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self.env)
        try:
            out, err = proc.communicate(timeout=self._timeout())
        except BaseException as exc:
            # SIGTERM lets the worker stop the CLI process it waits on
            proc.terminate()
            try:
                proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{mode} worker passed the run deadline")
            raise
        if proc.returncode != 0:
            tail = err.decode(errors="replace")[-2000:]
            raise BenchError(f"{mode} worker exited {proc.returncode}: {tail}")
        return json.loads(out.decode().strip().splitlines()[-1])

    def cold_import_s(self):
        started = time.perf_counter()
        try:
            subprocess.run([sys.executable, "-c", "import cubigraph.cli"],
                           env=self.env, check=True, capture_output=True,
                           timeout=self._timeout())
        except (subprocess.TimeoutExpired,
                subprocess.CalledProcessError) as exc:
            raise BenchError(f"cold import failed: {exc}")
        return time.perf_counter() - started

    def setup_samples(self, n):
        if self.workload == "cli":
            return [self.cold_import_s() for _ in range(n)]
        return [self.worker("setup")["setup_s"] for _ in range(n)]

    # -- the two kinds of run --------------------------------------------

    def end_to_end(self):
        setups = self.setup_samples(SETUP_SAMPLES - 1)
        res = self.worker("run", seconds=self.seconds)
        if self.workload == "cli":
            setups.append(self.cold_import_s())
        else:
            setups.append(res["setup_s"])
        passes = res["passes"]
        failed = len(res["failures"])
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "ok_frac": (1 - failed / res["attempted"], "frac"),
        }
        notes = [f"passes: {len(passes)}, setups: {len(setups)}"]
        return res["attempted"], res["failures"], [], metrics, notes

    def traced(self):
        base = self.worker("run")
        os.makedirs(OUT, exist_ok=True)
        suffix = ".tsv.gz" if self.workload != "cli" else ""
        runs = [
            self.worker("trace", trace_out=os.path.join(
                OUT, f"{self.workload}-trace{k}{suffix}"))
            for k in (1, 2)
        ]
        attempted = base["attempted"] + sum(r["attempted"] for r in runs)
        failures = base["failures"] + runs[0]["failures"] + \
            runs[1]["failures"]
        problems = []
        notes = []
        metrics = {}
        per_run = [_layer_metrics(r) for r in runs]
        for name, (value, unit) in per_run[0].items():
            other = per_run[1][name][0]
            if unit == "count" or name.endswith(".calls"):
                metrics[name] = (value, unit)
            else:  # times: the mean of the two traced runs
                metrics[name] = ((value + other) / 2, unit)
        varying = [n for n in EXACT if per_run[0][n][0] != per_run[1][n][0]]
        for name in varying:
            notes.append(f"varying count {name}: {per_run[0][name][0]} vs "
                         f"{per_run[1][name][0]}")
        metrics["trace.varying_counts"] = (len(varying), "count")
        if self.workload == "cli":
            d1, d2 = runs[0]["digests"], runs[1]["digests"]
            for q in sorted(d1):
                if d1[q] != d2.get(q):
                    failures.append({"query": q, "reason": f"stdout digest "
                                     f"{d1[q]} vs {d2.get(q)} across runs"})
            missing = sum(r["trace"].get("missing", 0) for r in runs)
            if missing:
                problems.append(f"{missing} CLI processes left no trace")
        traced_wall = statistics.mean(r["passes"][0]["wall_s"] for r in runs)
        metrics["trace.overhead_s"] = (
            traced_wall - base["passes"][0]["wall_s"], "s")
        problems += _share_check(self.workload, runs)
        notes.append("spans written to perfbench/out/")
        return attempted, failures, problems, metrics, notes


def _layer_metrics(run):
    """The per-layer metrics of one traced run."""
    t = run["trace"]
    layer_self = t.get("layer_self_s", {})
    group_self = t.get("group_self_s", {})
    group_incl = t.get("group_incl_s", {})
    calls = t.get("calls", {})
    counts = t.get("counts", {})

    def per(total, n):
        return 1000.0 * total / n if n else 0.0

    m = {f"{layer}.self_s": (layer_self.get(layer, 0.0), "s")
         for layer in LAYERS}
    m["site.calls"] = (sum(v for k, v in calls.items()
                           if k.startswith("site.")), "count")
    for group in ("presheaf.enumerate_maps", "presheaf.build",
                  "presheaf.nondeg", "presheaf.json", "graphs.neighbors",
                  "nerve.fragment", "pi1.homotopy", "pi1.presentation",
                  "pi1.psi", "pi1.isofibration"):
        m[f"{group}.self_s"] = (group_self.get(group, 0.0), "s")
    for metric, fn in (("presheaf.enumerate_maps.calls",
                        "presheaf.enumerate_maps"),
                       ("skeleta.coskeleton.calls", "skeleta.coskeleton"),
                       ("lifting.solve.calls", "lifting.solve"),
                       ("graphs.neighbors.calls", "graphs.Graph.neighbors"),
                       ("nerve.fibration.calls",
                        "nerve.is_graph_n_fibration_bounded"),
                       ("pi1.homotopy.calls", "pi1.path_homotopic_bounded")):
        m[metric] = (calls.get(fn, 0), "count")
    for name in ("presheaf.enumerate_maps.results",
                 "skeleta.coskeleton.cells", "lifting.solve.lifted",
                 "lifting.squares", "product.cells",
                 "nerve.fibration.problems", "nerve.fibration.work_units",
                 "nerve.fragment.cells", "pi1.homotopy.words",
                 "nerve.fibration.inconclusive", "pi1.homotopy.inconclusive",
                 "pi1.loop_word.undecided"):
        m[name] = (counts.get(name, 0), "count")
    m["nerve.fibration.ms_per_problem"] = (per(
        group_incl.get("nerve.fibration", 0.0),
        counts.get("nerve.fibration.problems", 0)), "ms")
    m["pi1.homotopy.ms_per_word"] = (per(
        group_incl.get("pi1.homotopy", 0.0),
        counts.get("pi1.homotopy.words", 0)), "ms")
    walls = run.get("command_wall_s", {})
    for command in CLI_COMMANDS:
        m[f"cli.{command}.wall_s"] = (walls.get(command, 0.0), "s")
    return m


def _share_check(workload, runs):
    """Problems found by the layer-share self-check, one line each."""
    rule = SHARES[workload]
    problems = []
    for k, run in enumerate(runs, 1):
        layer_self = run["trace"].get("layer_self_s", {})
        total = sum(layer_self.get(layer, 0.0) for layer in LAYERS)
        if total <= 0:
            return [f"trace {k}: no library self time"]
        share = {layer: layer_self.get(layer, 0.0) / total
                 for layer in LAYERS}
        if rule is None:
            idle = [layer for layer in LAYERS if share[layer] <= 0]
            if idle:
                problems.append(f"trace {k}: layers not exercised: {idle}")
            continue
        used, least, most = rule
        got = sum(share[layer] for layer in used)
        if got < least:
            problems.append(f"trace {k}: {'+'.join(used)} hold {got:.3f} "
                            f"of library self time, below {least}")
        for layer in LAYERS:
            if layer not in used and share[layer] > most:
                problems.append(f"trace {k}: bypassed layer {layer} holds "
                                f"{share[layer]:.3f}, above {most}")
    return problems


def _exit_on_signal(signum, frame):
    """Turn SIGTERM into SystemExit, so that every child is stopped and
    waited for on the way out."""
    raise SystemExit(128 + signum)


def main(argv=None):
    ap = argparse.ArgumentParser(description="cubigraph benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_signal)
    if not os.path.isfile(os.path.join(SRC, "cubigraph", "__init__.py")):
        print(f"error: no cubigraph sources under {SRC}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            attempted, failures, problems, metrics, notes = runner.traced()
        else:
            attempted, failures, problems, metrics, notes = \
                runner.end_to_end()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; {'; '.join(notes)}")
    seen = {}
    for f in failures:
        key = (f["query"], f["reason"])
        seen[key] = seen.get(key, 0) + 1
    for (query, reason), times in seen.items():
        known = workloads.KNOWN_DEFECTS.get(query)
        tag = f"known defect: {known}" if known else "UNEXPECTED"
        print(f"failed x{times}: {query}: {reason} ({tag})")
    for p in problems:
        print(f"self-check failed: {p}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    unexpected = [f for f in failures
                  if f["query"] not in workloads.KNOWN_DEFECTS]
    print(json.dumps({
        "correct": not unexpected and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
