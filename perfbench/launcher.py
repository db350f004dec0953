"""The process that starts every timed command, kept small on purpose.

On Linux a child's peak RSS (``ru_maxrss`` from ``wait4``) is never below
the resident size of the process that forked it: fork copies the RSS
counters, and exec folds in the high-water mark of the memory it replaces.
The benchmark process holds numpy, scipy and the generated inputs, so it
hands each command to this launcher, which imports only the standard
library and is started before any of those load.

    python3 launcher.py    # then one JSON request per stdin line

A request is ``{"argv": [...], "env": {...}, "log": PATH, "timeout": S}``;
the reply line is ``{"rc", "wall_s", "peak_rss_mb", "launcher_rss_mb"}``.
The launcher exits when its stdin closes.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class Child:
    rc: int
    wall_s: float
    peak_rss_mb: float
    launcher_rss_mb: float  # the floor under peak_rss_mb


def run_child(argv: list[str], env: dict, log: str, timeout: float) -> Child:
    """Run one process to completion; its peak RSS comes from ``wait4``."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, own)


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        child = run_child(req["argv"], req["env"], req["log"], req["timeout"])
        print(json.dumps(vars(child)), flush=True)


class Launcher:
    """Client side: starts ``launcher.py`` and sends it one command at a time.

    The launcher leads its own process group, so that leaving the ``with``
    block on an error kills it together with a command still running.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )

    def run(self, argv: list[str], env: dict, log, timeout: float) -> Child:
        request = {"argv": argv, "env": env, "log": str(log), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return Child(**json.loads(reply))

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    serve()
