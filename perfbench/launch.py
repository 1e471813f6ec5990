"""Run commands one at a time and report each one's wall time and rusage.

    python3 perfbench/launch.py SPEC_JSON RESULT_JSON

SPEC_JSON is a list of {"cmd", "stdout", "stderr", "output", "keep"}.  Each
command's stdout and stderr go to the named files; "output" names a file the
command writes, hashed with its stdout and deleted afterwards unless "keep".
Each result also carries "cal", the mean time of the calibration loop just
before and just after the command.

This is a separate, small process on purpose: on Linux a child's peak RSS
(ru_maxrss) starts from its parent's peak RSS at the exec, so the parent of
every measured process must stay small.  run.py imports numpy and reads
whole outputs; this script imports neither and hashes files in chunks.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time

JOB_TIMEOUT_S = 60.0  # a command that takes longer is killed and fails
CAL_ITERATIONS = 60_000  # 4-7 ms of pure Python on the VM the bounds were set on


def _digest(paths: list) -> tuple[str, int]:
    digest = hashlib.sha256()
    size = 0
    for path in paths:
        digest.update(b"\0")
        if path and os.path.exists(path):
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
                    size += len(chunk)
    return digest.hexdigest(), size


def _loop() -> int:
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i % 7
    return total


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop: how fast the host
    runs Python right now.  It shares no code with the measured program."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def run(entry: dict) -> dict:
    with open(entry["stdout"], "wb") as out, open(entry["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(entry["cmd"], stdout=out, stderr=err)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    output = entry.get("output")
    digest, size = _digest([entry["stdout"], output])
    if output and not entry["keep"] and os.path.exists(output):
        os.unlink(output)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024, "rc": proc.returncode,
            "digest": digest, "out_bytes": size}


def main() -> int:
    with open(sys.argv[1]) as fh:
        entries = json.load(fh)
    results = []
    before = calibrate()
    for entry in entries:
        results.append(run(entry))
        after = calibrate()
        results[-1]["cal"] = (before + after) / 2
        before = after
    with open(sys.argv[2], "w") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
