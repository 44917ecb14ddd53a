"""Launch one `embtypes verify` sweep in a fresh interpreter and measure it.

The sweep runs as `python -u -c "from embtypes.cli import main; ..."` with
`PYTHONPATH=src`, from the checkout root.  Everything is measured from
outside: wall time from spawn to exit, the time of each stdout line, and the
CPU time and peak RSS that `wait4` reports for the sweep process together
with the pool workers it reaped.

Linux carries a process's resident high-water mark across exec, so a sweep
forked straight from this harness would report at least the harness's own
RSS.  A small isolated launcher therefore forks and execs the sweep, waits
for it and writes its times and usage to a pipe.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

PLAIN = "import sys; from embtypes.cli import main; sys.exit(main(sys.argv[1:]))"
TRACED = (
    "import os, sys, tracer; "
    "t = tracer.install(os.environ['BENCH_TRACE_DIR'], int(os.environ['BENCH_TRACE_SEED'])); "
    "from embtypes import cli; rc = cli.main(sys.argv[1:]); t.finish(); sys.exit(rc)"
)
REFERENCE = "import sys, reference; print(reference.main(reference.SweepRange(*map(int, sys.argv[1:]))))"
# argv: report fd, then the sweep's argv.  Imports nothing beyond the builtins
# it needs, so its image is far smaller than any sweep.
LAUNCHER = """\
import os, sys, time
fd = int(sys.argv[1])
start = time.monotonic()
pid = os.fork()
if pid == 0:
    os.close(fd)
    try:
        os.execv(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, ru = os.wait4(pid, 0)
end = time.monotonic()
code = os.waitstatus_to_exitcode(status)
os.write(fd, f"{start!r} {end!r} {ru.ru_utime + ru.ru_stime!r} {ru.ru_maxrss} {code}".encode())
sys.exit(code if 0 <= code < 256 else 1)
"""


@dataclass
class Sweep:
    returncode: int
    stdout: bytes
    wall_s: float
    line_s: list[float] = field(default_factory=list)  # since spawn, one per stdout line
    cpu_s: float = 0.0
    maxrss_kb: int = 0
    timed_out: bool = False

    @property
    def setup_s(self) -> float:
        """Spawn to the first configuration line: start, import, pool spawn."""
        return self.line_s[0] if self.line_s else self.wall_s


def sweep_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.update(extra or {})
    return env


def run_sweep(argv: list[str], timeout_s: float, code: str = PLAIN, env: dict | None = None) -> Sweep:
    """Run the sweep to completion; the whole process group dies at the timeout."""
    report_r, report_w = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-I", "-S", "-c", LAUNCHER, str(report_w), sys.executable, "-u", "-c", code, *argv],
        cwd=ROOT,
        env=env or sweep_env(),
        stdout=subprocess.PIPE,
        pass_fds=(report_w,),
        start_new_session=True,
    )
    os.close(report_w)
    timed_out = threading.Event()

    def kill() -> None:
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(timeout_s, 0.0), kill)
    timer.start()
    lines = []
    times = []
    try:
        for line in proc.stdout:
            times.append(monotonic())
            lines.append(line)
        proc.wait()
        with os.fdopen(report_r, "rb") as fh:
            report = fh.read().split()
    finally:
        timer.cancel()
        proc.stdout.close()
    if len(report) != 5:  # the launcher itself was killed or failed
        return Sweep(proc.returncode or 1, b"".join(lines), 0.0, [], timed_out=timed_out.is_set())
    start, end, cpu, maxrss, status = report
    start = float(start)
    return Sweep(
        returncode=int(status),
        stdout=b"".join(lines),
        wall_s=float(end) - start,
        line_s=[t - start for t in times],
        cpu_s=float(cpu),
        maxrss_kb=int(maxrss),
        timed_out=timed_out.is_set(),
    )
