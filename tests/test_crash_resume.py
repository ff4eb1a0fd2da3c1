"""Hard-crash recovery: SIGKILL the crawl driver process mid-run, then
resume from the checkpoint — the final crawl must equal an
uninterrupted run at WHATEVER point the kill landed (atomic per-round
manifests + drop_rounds_after tail cleanup are the mechanism)."""

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
    import glob

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
        # kill the instant one round is complete (its manifest exists)
        # and a later round has started writing — lands mid-crawl at any
        # machine speed (or the process finishes first and the caller
        # skips).  Two manifests are rarely seen together: each new one
        # prunes the older.
        deadline = time.time() + 120
        while time.time() < deadline and proc.poll() is None:
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
def test_sigkill_mid_crawl_then_resume(tmp_path):
    import glob

    from link_profiler_repo_ray.pipelines.crawl import CrawlConfig, oracle_crawl

    ora = oracle_crawl(SF, CrawlConfig())

    ck = str(tmp_path / "ck")
    first = _run_driver(ck, resume=False, kill_when_checkpointed=True)
    if first is not None:
        pytest.skip("crawl finished before the kill landed (machine too fast)")
    # some checkpoint state must exist for the resume to be meaningful
    assert glob.glob(os.path.join(ck, "round=*", "manifest.json")), "killed before any checkpoint"

    resumed = _run_driver(ck, resume=True)
    assert resumed is not None
    # the resumed run's order log (read back from the per-round parquet
    # lineage) must equal the sequential oracle end-to-end
    import pyarrow as pa

    # per-file reads: a list-of-paths read would hive-infer the
    # "round=NNNNN" dirs as a partition column clashing with the
    # in-file "round" column
    order = pa.concat_tables(
        pq.read_table(f, columns=["seq", "url", "depth"])
        for f in sorted(glob.glob(os.path.join(ck, "round=*", "order.parquet")))
    ).sort_by("seq")
    got = list(zip(order.column("url").to_pylist(), order.column("depth").to_pylist()))
    assert got == ora["order"]
    assert resumed["pages_fetched"] == len(ora["order"])
