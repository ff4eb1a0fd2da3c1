"""Process-level plumbing: the Ray session, driver memory and the
Ray-log health counter."""

from __future__ import annotations

import glob
import logging
import os
import re
import shutil
import sys
import time

NUM_CPUS = 4  # Ray logical CPUs, fixed whatever the host has
OBJECT_STORE_BYTES = 512 * 1024 * 1024
_AF_UNIX_MAX = 107
# longest socket path Ray derives from its temp dir:
# /session_YYYY-MM-DD_HH-MM-SS_ffffff_<pid>/sockets/plasma_store
_SOCKET_SUFFIX = 70

_CLK_TCK = os.sysconf("SC_CLK_TCK")
# glog "E" lines from the C++ core and ERROR records from Python
_ERROR_LINE = re.compile(r"^\[[^\]]* E \d+ \d+\]|\bERROR\b")


def ray_temp_dir(work: str) -> str | None:
    """Ray's temp dir inside the work dir, or None (Ray's default) when
    the checkout path is too long for Ray's AF_UNIX socket paths."""
    d = os.path.join(work, "ray")
    return d if len(d) + _SOCKET_SUFFIX <= _AF_UNIX_MAX else None


def start_ray(work: str) -> tuple[float, str]:
    """``ray.init`` with fixed logical CPUs; returns (seconds, session dir).

    Worker output goes to the session logs, never to this process's
    stdout (``log_to_driver=False``)."""
    import ray

    temp = ray_temp_dir(work)
    if temp is None:
        print("perfbench: checkout path too long for Ray sockets; using Ray's default temp dir",
              file=sys.stderr)
    t0 = time.perf_counter()
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=temp,
    )
    dt = time.perf_counter() - t0
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return dt, ray._private.worker._global_node.get_session_dir_path()


def stop_ray(session_dir: str) -> int:
    """Shut Ray down, wait for its processes, count the ERROR lines its
    session logs hold, then remove the session dir.  Returns the count."""
    import ray

    ray.shutdown()
    errors = 0
    for path in glob.glob(os.path.join(session_dir, "logs", "**", "*"), recursive=True):
        if not os.path.isfile(path):
            continue
        with open(path, errors="replace") as fh:
            errors += sum(1 for line in fh if _ERROR_LINE.search(line))
    shutil.rmtree(session_dir, ignore_errors=True)
    return errors


def tree_cpu_s(root: int) -> float:
    """CPU seconds used so far by ``root`` and all its descendants (the
    driver, Ray's raylet/GCS and every worker).  Children already reaped
    count through their parent's cutime/cstime."""
    procs: dict[int, tuple[int, int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                f = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # f[1] = ppid; f[11:15] = utime, stime, cutime, cstime (clock ticks)
        procs[int(d)] = (int(f[1]), sum(int(x) for x in f[11:15]))
    ticks = 0
    for pid, (_, t) in procs.items():
        p = pid
        while p != root and p in procs:
            p = procs[p][0]
        if p == root:
            ticks += t
    return ticks / _CLK_TCK


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current RSS (Linux)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def dir_usage(path: str) -> tuple[int, int]:
    """(bytes, files) of the regular files under ``path``."""
    total = files = 0
    for root, _, names in os.walk(path):
        for n in names:
            total += os.path.getsize(os.path.join(root, n))
            files += 1
    return total, files
