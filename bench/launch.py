"""Run one command from exec to exit and print its wall time and rusage.

    python3 -S bench/launch.py TIMEOUT STDERR_PATH ARGV...

Prints one JSON object: exit_code (null when killed at the timeout),
wall_s, cpu_s and peak_rss_mb. rusage comes from wait4, so it covers the
pool workers the command reaped. Every command goes through this small
process because Linux charges a child, in ru_maxrss, the peak RSS of the
memory it was spawned from: spawned from the larger benchmark driver, the
CLI would report the driver's peak instead of its own.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Kill and wait out anything left in the child's process group."""
    _kill_group(pgid)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main() -> int:
    timeout, stderr_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,  # a timeout kills pool workers too
        )
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    print(
        json.dumps(
            {
                "exit_code": None if killed.is_set() else proc.returncode,
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
