"""End-to-end crawl lifecycle with compaction (round-4 verdict item 8):
crawl → SIGKILL mid-run → resume from checkpoint → `cli compact` over
the checkpoint's whole delta log → the compacted table must equal the
URL-deduplicated union of the raw deltas (resume re-runs a tail round,
so duplicate deltas are expected input, and compaction must collapse
them)."""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pyarrow.parquet as pq
import pytest
from conftest import REPO


SF = "/root/testdata/sf0.01"

_DRIVER = """
import sys, json
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
sys.path.insert(0, {repo!r})
from link_profiler_repo_ray.pipelines.crawl import CrawlConfig, run_crawl
cfg = CrawlConfig(num_seen_shards=2, num_fetchers=2, checkpoint_dir={ck!r},
                  resume={resume}, collect_edges=False, collect_order=False)
res = run_crawl({sf!r}, cfg)
print("COUNTERS " + json.dumps({{k: v for k, v in res.counters.items()
                                 if isinstance(v, (int, float)) and not k.startswith("t_")}}))
ray.shutdown()
"""


def _complete_round_then_later(ck: str) -> bool:
    rounds = {
        int(d.rsplit("=", 1)[1]): os.path.exists(os.path.join(d, "manifest.json"))
        for d in glob.glob(os.path.join(ck, "round=*"))
    }
    done = [r for r, complete in rounds.items() if complete]
    return bool(done) and max(rounds) > max(done)


def _run_driver(ck: str, resume: bool, kill_when_checkpointed: bool = False):
    code = _DRIVER.format(repo=str(REPO), ck=ck, resume=resume, sf=SF)
    proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    if kill_when_checkpointed:
        deadline = time.time() + 120
        while time.time() < deadline and proc.poll() is None:
            # one complete round (its manifest exists) and a later round
            # started: two manifests are rarely seen together, since each
            # new one prunes the older
            if _complete_round_then_later(ck):
                proc.send_signal(signal.SIGKILL)
                proc.wait()
                return None
            time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            return None
    out, _ = proc.communicate(timeout=600)
    for line in out.splitlines():
        if line.startswith("COUNTERS "):
            return json.loads(line[len("COUNTERS "):])
    return None


@pytest.mark.usefixtures("ray_session")
def test_crawl_kill_resume_compact_read(tmp_path):
    from link_profiler_repo_ray.pipelines.compact import read_compacted

    ck = str(tmp_path / "ck")
    first = _run_driver(ck, resume=False, kill_when_checkpointed=True)
    if first is not None:
        pytest.skip("crawl finished before the kill landed (machine too fast)")
    assert glob.glob(os.path.join(ck, "round=*", "manifest.json")), "killed before any checkpoint"

    resumed = _run_driver(ck, resume=True)
    assert resumed is not None

    # --- compact via the CLI surface, pointed at the checkpoint root ---
    dest = str(tmp_path / "compacted")
    res = subprocess.run(
        [sys.executable, "-m", "link_profiler_repo_ray.cli", "compact",
         "--pages-dir", ck, "--out", dest, "--shards", "8"],
        capture_output=True, text=True, cwd=REPO, timeout=600,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    summary = json.loads(res.stdout.strip().splitlines()[-1])

    deltas = sorted(glob.glob(os.path.join(ck, "round=*", "pages", "*.parquet")))
    assert deltas, "no page deltas under the checkpoint"

    # raw union (possibly with duplicate URLs from the re-run tail round)
    raw = {}
    raw_rows = 0
    for f in deltas:
        t = pq.read_table(f, columns=["url", "depth", "status"])
        raw_rows += t.num_rows
        for u, d, s in zip(*(t.column(c).to_pylist() for c in ("url", "depth", "status"))):
            prev = raw.get(u)
            # the compactor's latest-wins rule: min depth, then max status
            if prev is None or (d, -s) < (prev[0], -prev[1]):
                raw[u] = (d, s)

    got = read_compacted(dest, columns=["url", "depth", "status"]).to_pandas()
    assert len(got) == len(raw) == summary["total_rows"]
    assert set(got.url) == set(raw)
    for row in got.itertuples():
        assert (row.depth, row.status) == raw[row.url], row.url

    # the compaction's operational point: far fewer files to open
    shard_files = glob.glob(os.path.join(dest, "shard=*.parquet"))
    assert 0 < len(shard_files) <= 8 < len(deltas)

    # re-running compact against the complete manifest is a no-op
    res2 = subprocess.run(
        [sys.executable, "-m", "link_profiler_repo_ray.cli", "compact",
         "--pages-dir", ck, "--out", dest, "--shards", "8"],
        capture_output=True, text=True, cwd=REPO, timeout=300,
    )
    assert res2.returncode == 0
    assert json.loads(res2.stdout.strip().splitlines()[-1])["total_rows"] == len(raw)
