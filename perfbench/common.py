"""Shared plumbing: checkout paths, child processes, statistics.

Every program the benchmark times runs as a child process started from
here, so wall time and peak RSS come from ``os.wait4`` on that one
child.  All scratch files live under ``.perfbench_work/`` in
the checkout and are removed when the run ends.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TRACED = BENCH_DIR / "traced.py"
STEPS = BENCH_DIR / "steps.py"

#: Every command gets this long before it counts as failed; well
#: inside the 180 s a whole run may take.
COMMAND_TIMEOUT_S = 120.0


def program_present() -> bool:
    """True when the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__main__.py").is_file()


def child_env() -> dict:
    """Environment for every child: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def repro_argv(*args: str) -> list:
    """The CLI a user types: ``python -m repro ARGS``."""
    return [sys.executable, "-m", "repro", *args]


def traced_argv(out: Path, *args: str) -> list:
    """The same CLI under the layer tracer, dumping to ``out``."""
    return [sys.executable, str(TRACED), str(out), *args]


def step_argv(*args: str) -> list:
    """A benchmark-owned step (library entry points, checks)."""
    return [sys.executable, str(STEPS), *args]


@dataclass
class Completed:
    """One finished child: exit code, output, wall time and peak RSS."""

    code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float

    @property
    def ok(self) -> bool:
        return self.code == 0


def _read_all(stream, sink: list) -> None:
    sink.append(stream.read())
    stream.close()


def reap(proc: subprocess.Popen, began: float,
         timeout: float = COMMAND_TIMEOUT_S) -> tuple:
    """Drain the child's pipes, then ``wait4`` it.

    Returns ``(code, stdout, stderr, wall_s, rss_mb)``.  A
    watchdog kills the child after ``timeout`` seconds.  ``ru_maxrss``
    from ``wait4`` covers the child and the descendants it reaped, so a
    server's gate subprocess is included.
    """
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        sinks, readers = [], []
        for stream in (proc.stdout, proc.stderr):
            sink: list = []
            sinks.append(sink)
            if stream is not None:
                reader = threading.Thread(target=_read_all, args=(stream, sink))
                reader.start()
                readers.append(reader)
        for reader in readers:
            reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - began
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        "".join(sinks[0]),
        "".join(sinks[1]),
        wall,
        usage.ru_maxrss / 1024.0,
    )


def run(argv: list, cwd: Path, timeout: float = COMMAND_TIMEOUT_S) -> Completed:
    """Run one child to completion and measure it."""
    began = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=cwd,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    code, stdout, stderr, wall, rss = reap(proc, began, timeout)
    return Completed(code, stdout, stderr, wall, rss)


class Workdir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, name: str) -> None:
        self.path = WORK_ROOT / f"{name}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation or correctness check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok

    def command(self, done: Completed, what: str) -> bool:
        """Count one command; a non-zero exit is a failure."""
        detail = done.stderr.strip().splitlines()[-1:] if not done.ok else []
        return self.check(done.ok, f"{what}: exit {done.code} {detail}")


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; ``(None, None)`` when fewer than
    eleven samples exist.  Percentiles are taken from the ladder
    50, 90, 99, 99.9, … by nearest rank.
    """
    values = sorted(values)
    n = len(values)
    best = (None, None)
    p = 50.0
    while True:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank < 10:
            return best
        best = (p, values[rank - 1])
        p = 100.0 - (100.0 - p) / (10.0 if p >= 90.0 else 5.0)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100); 0.0 when empty."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(values)))
    return float(values[rank - 1])
