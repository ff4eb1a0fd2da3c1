"""Benchmark entry point.

    python3 perfbench/run.py --workload {crawl_polite_ckpt,analytics}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Inputs are generated from ``--seed``
and cached under ``.perfbench_work/`` (kept out of every timing); the
workload then repeats its job for about ``--seconds`` seconds in one
fresh Ray session, checks every output against an oracle and prints one
JSON line as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (and writes the run's spans to ``.perfbench_work/traces/``).
Everything else — Ray's own output included — goes to stderr.

The workload runs in a child process.  When the child dies without a
result (the Ray runtime can abort the driver), the crash counts as one
attempted and failed operation and the run starts over once in a fresh
process.  Every process left behind is killed and waited for.  The exit
code is 0 only when every correctness check passed, and 3 when no
attempt produced a result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PR_SET_CHILD_SUBREAPER = 36
RETRY_BEFORE_S = 80  # a crash later than this leaves no time for a second attempt


@dataclass(frozen=True)
class Sizes:
    base_docs: int = 5000  # documents → one corpus page per document
    # the crawl seed list covers 40% of the corpus, so that the pages and
    # politeness rounds the crawl needs vary little from seed to seed
    polite_seeds: int = 2000
    graph_mult: int = 1  # 1 keeps the extract_links SQL oracle applicable
    # scaled documents = a text_docs-row documents table × text_mult;
    # half the corpus keeps a text job short enough for three per run
    text_docs: int = 2500
    text_mult: int = 2
    kernel_pages: int = 200


class Context:
    """What a workload needs from the harness: its inputs' location,
    the seed, the time budget, the tracer and the repetition loop."""

    def __init__(self, work: str, seed: int, seconds: float, sizes: Sizes, tracer):
        self.work, self.seed, self.seconds, self.sizes = work, seed, seconds, sizes
        self.tracer = tracer
        self.ray_init_s = 0.0
        self.loop_s = 0.0

    @staticmethod
    def log(msg: str) -> None:
        print(f"perfbench: {msg}", file=sys.stderr, flush=True)

    def measure(self, *jobs) -> None:
        """Run ``jobs`` in turn (each returns its duration) until the
        next one would end past the budget; every job runs at least once."""
        t0 = time.perf_counter()
        durations: list[list[float]] = [[] for _ in jobs]
        i = 0
        while True:
            durations[i % len(jobs)].append(jobs[i % len(jobs)]())
            i += 1
            nxt = durations[i % len(jobs)]
            if nxt and time.perf_counter() - t0 + statistics.median(nxt) > self.seconds:
                break
        self.loop_s = time.perf_counter() - t0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = Sizes(), work: str | None = None, tamper=None) -> dict:
    """One benchmark run in this process; returns the result object."""
    from perfbench import analytics_workload, crawl_workloads, inputs, kernels, metrics, session
    from perfbench.trace import Tracer, span_cost_s

    work = work or os.path.join(ROOT, ".perfbench_work")
    tracer = Tracer(trace)
    ctx = Context(work, seed, seconds, sizes, tracer)
    crawl = workload in metrics.CRAWLS
    inputs.build_shared(work, sizes)
    if crawl:
        prep = crawl_workloads.prepare(ctx, workload)
    else:
        prep = analytics_workload.prepare(ctx)
    with tracer.span("ray.init"):
        ctx.ray_init_s, session_dir = session.start_ray(work)
    try:
        if crawl:
            res = crawl_workloads.run(ctx, workload, prep, tamper)
        else:
            res = analytics_workload.run(ctx, prep, tamper)
        loop_spans = len(tracer.spans)
        if trace:
            from link_profiler_repo_ray.sources import corpus

            mult = prep["mult"] if crawl else sizes.graph_mult
            with tracer.span("kernels.parse"):
                res["layers"].update(kernels.parse_kernels(
                    corpus.corpus_dir(prep["sf"], mult), sizes.kernel_pages))
            if not crawl:
                res["layers"].update(kernels.exchanges(prep["edges_dir"], tracer))
    finally:
        error_lines = session.stop_ray(session_dir)

    layers = res["layers"]
    layers["ray.init_s"] = ctx.ray_init_s
    layers["ray.error_lines"] = error_lines
    if trace:
        if crawl:
            per_page = (layers["htmlx.extract_text_us_per_page"]
                        + layers["htmlx.extract_links_us_per_page"]) * 1e-6
            layers["fetch.overhead_s"] = layers["fetch.busy_s"] - layers["fetch.pages"] * per_page
        layers["trace.spans"] = len(tracer.spans)
        layers["trace.overhead_share"] = loop_spans * span_cost_s() / ctx.loop_s
        tracer.write(os.path.join(work, "traces", f"{workload}-s{seed}.jsonl"), {
            "workload": workload, "seed": seed, "ray_cpus": session.NUM_CPUS,
            "shards": crawl_workloads.NUM_SHARDS, "fetchers": crawl_workloads.NUM_FETCHERS,
            "sizes": sizes.__dict__, "reps": res["reps"]})
    ctx.log(
        f"{workload} seed={seed} reps={res['reps']} loop={ctx.loop_s:.1f}s "
        f"ray_cpus={session.NUM_CPUS} shards={crawl_workloads.NUM_SHARDS} "
        f"fetchers={crawl_workloads.NUM_FETCHERS} sizes={sizes}"
    )
    kind = "per_layer" if trace else "end_to_end"
    values = layers if trace else res["e2e"]
    return {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics.render(kind, values, workload),
    }


def _children() -> list[int]:
    """Pids whose parent is this process."""
    me, kids = str(os.getpid()), []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                state_ppid = fh.read().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue
        if state_ppid[1] == me:
            kids.append(int(d))
    return kids


def reap_descendants() -> None:
    """Kill and wait for every process left below this one.  As a child
    subreaper this process inherits the orphans of a crashed run (Ray's
    raylet, agents and workers), so nothing outlives the benchmark."""
    while kids := _children():
        for pid in kids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in kids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def supervise(argv: list[str], work: str) -> dict | None:
    """Run the workload in a child process; a child that dies without a
    result (a crash of the Ray runtime) is counted as one failed attempt
    and, while time is left, run again in a fresh process and session."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    def stop(signum, _frame):
        reap_descendants()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, f"result-{os.getpid()}.json")
    t0 = time.monotonic()
    crashes = 0
    while True:
        if os.path.exists(path):
            os.remove(path)
        rc = subprocess.call([sys.executable, os.path.abspath(__file__), *argv,
                              "--result-file", path], stdout=sys.stderr)
        reap_descendants()
        if rc == 0 and os.path.exists(path):
            break
        crashes += 1
        print(f"perfbench: run crashed (exit {rc}) after {time.monotonic() - t0:.0f}s",
              file=sys.stderr, flush=True)
        if time.monotonic() - t0 > RETRY_BEFORE_S:
            return None
    with open(path) as fh:
        result = json.load(fh)
    os.remove(path)
    result["attempted"] += crashes
    result["failed"] += crashes
    return result


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("crawl_polite_ckpt", "analytics"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result-file", help=argparse.SUPPRESS)  # set by supervise()
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "link_profiler_repo_ray")):
        print(f"perfbench: no link_profiler_repo_ray package under {ROOT}", file=sys.stderr)
        return 2
    # the program, the corpus cache and Ray's workers all resolve here
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    work = os.path.join(ROOT, ".perfbench_work")
    os.environ["LPR_CORPUS_CACHE"] = os.path.join(work, "corpus")

    if args.result_file:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        with open(args.result_file + ".tmp", "w") as fh:
            json.dump(result, fh)
        os.replace(args.result_file + ".tmp", args.result_file)
        return 0
    result = supervise(argv, work)
    if result is None:
        return 3
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.path[0] = ROOT  # import the benchmark as the perfbench package
    sys.exit(main())
