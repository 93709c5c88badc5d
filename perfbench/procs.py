"""Child interpreters for the benchmark: the program under test is taken
from ./src of the directory the benchmark runs in."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"


@dataclass
class OpRun:
    seconds: float
    returncode: int | None  # None when the deadline killed it
    stdout: str
    stderr: str
    max_rss_mb: float  # of this child alone


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_python(args: list[str], env: dict[str, str], deadline: float) -> OpRun:
    """Run `python <args>` to completion or deadline, timed spawn to exit.
    The child is reaped with wait4 rather than by Popen, to read its own
    resource usage."""
    start = time.perf_counter()
    expired = threading.Event()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True) as proc:

        def expire():
            expired.set()
            proc.kill()

        timer = threading.Timer(deadline, expire)
        timer.start()
        try:
            err = []
            reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
            reader.start()
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if expired.is_set() and proc.returncode == -signal.SIGKILL else proc.returncode
    return OpRun(seconds, code, out, err[0], usage.ru_maxrss / 1024.0)
