"""Self-test of the benchmark at sf0.001 size (500 documents).

    python3 perfbench/selftest.py

Checks that:
- ``BENCHMARK.json`` names exactly the metrics, units and directions of
  ``perfbench/metrics.py``;
- every workload, untraced and traced, prints every metric of its kind
  with its unit and passes its correctness gate with no failures;
- a tampered crawl order and a tampered text-stage output each trip the
  correctness gate (``correct`` false, ``failed`` > 0);
- in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 3


def check_benchmark_json(metrics) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    if e2e != metrics.END_TO_END:
        problems.append(f"end_to_end in BENCHMARK.json {e2e} != metrics.END_TO_END")
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    want = {n: (s["unit"], s["better"]) for n, s in metrics.LAYERS.items()}
    if layers != want:
        problems.append(f"per_layer differs: {sorted(set(layers.items()) ^ set(want.items()))}")
    if [w["name"] for w in spec["workloads"]] != list(metrics.WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from metrics.WORKLOADS")
    return problems


def check_result(name: str, res: dict, units: dict, want_correct: bool) -> list[str]:
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{name}: result keys {sorted(res)}")
    if set(res["metrics"]) != set(units):
        problems.append(f"{name}: metric names differ: {sorted(set(res['metrics']) ^ set(units))}")
    for m, v in res["metrics"].items():
        if v.get("unit") != units.get(m) or not isinstance(v.get("value"), float):
            problems.append(f"{name}: {m} printed as {v}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append(f"{name}: attempted {res['attempted']}")
    if want_correct and (not res["correct"] or res["failed"]):
        problems.append(f"{name}: correct={res['correct']} failed={res['failed']}")
    if not want_correct and (res["correct"] or not res["failed"]):
        problems.append(f"{name}: tampered output passed (correct={res['correct']}, "
                        f"failed={res['failed']})")
    json.dumps(res)
    return problems


def tamper_order(out_dir: str) -> None:
    """Swap the urls of the first two rows of the persisted crawl order."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = sorted(glob.glob(os.path.join(out_dir, "round=*", "order.parquet")))[0]
    t = pq.read_table(path)
    urls = t.column("url").to_pylist()
    urls[0], urls[1] = urls[1], urls[0]
    pq.write_table(t.set_column(t.schema.get_field_index("url"), "url",
                                pa.array(urls, t.schema.field("url").type)), path)


def tamper_text(op: str, frame):
    """Drop one row of ``token_stats``' output."""
    return frame.iloc[1:] if op == "token_stats" else frame


def check_bare_directory(work: str) -> list[str]:
    """The command must fail, printing no result, where only
    BENCHMARK.json and the benchmark exist."""
    bare = os.path.join(work, "bare")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), os.path.join(bare, "BENCHMARK.json"))
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        cmd = json.load(fh)["command"]
    p = subprocess.run(cmd + ["--workload", "analytics", "--seed", "1", "--seconds", "1",
                              "--trace", "0"], cwd=bare, capture_output=True, text=True,
                       timeout=180)
    if p.returncode == 0 or p.stdout.strip():
        return [f"bare directory: exit {p.returncode}, stdout {p.stdout[-200:]!r}"]
    return []


def main() -> int:
    sys.path[0] = ROOT
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    work = os.path.join(ROOT, ".perfbench_work", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "bare"))
    os.environ["LPR_CORPUS_CACHE"] = os.path.join(work, "corpus")

    from perfbench import metrics
    from perfbench.run import Sizes, run_workload

    tiny = Sizes(base_docs=500, polite_seeds=200, graph_mult=1, text_docs=250, text_mult=2, kernel_pages=20)
    e2e_units = {n: u for n, (u, _) in metrics.END_TO_END.items()}
    layer_units = {n: s["unit"] for n, s in metrics.LAYERS.items()}
    problems = check_benchmark_json(metrics)
    for workload in metrics.WORKLOADS:
        for trace, units in ((False, e2e_units), (True, layer_units)):
            name = f"{workload} trace={int(trace)}"
            res = run_workload(workload, SEED, 0, trace, tiny, work)
            problems += check_result(name, res, units, True)
            print(f"selftest: {name} ok={res['correct']}", file=sys.stderr, flush=True)
    for workload, kw in (("crawl_polite_ckpt", {"tamper": tamper_order}),
                         ("analytics", {"tamper": tamper_text})):
        res = run_workload(workload, SEED, 0, False, tiny, work, **kw)
        problems += check_result(f"{workload} tampered", res, e2e_units, False)
    problems += check_bare_directory(work)
    for p in problems:
        print(f"selftest FAIL: {p}", file=sys.stderr)
    print("selftest:", "FAIL" if problems else "ok", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
