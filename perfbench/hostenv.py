"""Run hygiene: clean child environments, launch/stop, leak checks, host readings.

Every process the benchmark launches gets the same environment: inherited
``REPRO_*`` knobs removed (the program runs at its defaults), BLAS and
OpenMP pinned to one thread, unbuffered output so announcements arrive
promptly. After each program stops, every process of its tree must be
gone and no new shared-memory segment may be left behind.

Host readings come from ``/proc`` (read only): CPU steal over the run,
and the peak resident memory (``VmHWM``) of a process tree.

The benchmark process adopts every orphan of the programs it launches
(a child subreaper) and, before it prints a result, stops its own
helpers and waits for every child it has, so nothing it started outlives
it: not a launched program's multiprocessing resource tracker, which
lingers after its owner exits, nor its own.
"""

from __future__ import annotations

import ctypes
import glob
import os
import select
import signal
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HOST = "127.0.0.1"
PR_SET_CHILD_SUBREAPER = 36
#: Seconds a program gets to exit after its stop signal (it needs well under one).
STOP_S = 20.0
#: Kept logs of programs that outlived ``STOP_S`` and were killed; reported
#: beside the result, since a stop that hangs now and then is the program's fault.
FORCED_STOPS: list[str] = []


class BenchError(RuntimeError):
    """The run cannot produce a valid result (the program misbehaved)."""


def pin_this_process() -> None:
    """Scrub ``REPRO_*``, pin BLAS threads and give SIGINT a handler; call
    before importing numpy.

    A shell that starts a command in the background without job control
    leaves SIGINT ignored, and an ignored signal stays ignored across
    ``exec``: ``repro serve`` would then never see the SIGINT that stops
    it. A handled signal resets to the default in launched programs.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    for name in THREAD_VARS:
        os.environ[name] = "1"
    signal.signal(signal.SIGINT, signal.default_int_handler)


def adopt_orphans() -> None:
    """Make this process the child subreaper of its descendants, so that a
    process whose parent exits is re-parented here (and reaped by
    :func:`reap_children`) instead of to init. Best effort off Linux."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker, if it started
    one, and wait for it. Left alone it exits only once its owner has."""
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def _children() -> list[int]:
    kids: list[int] = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path, encoding="ascii") as fh:
                kids.extend(int(x) for x in fh.read().split())
        except OSError:
            continue
    return kids


def reap_children(timeout: float = 10.0) -> list[int]:
    """Stop the resource tracker, then wait for every child of this process
    (adopted orphans included) to exit and reap it. A child still running
    after *timeout* seconds is killed; returns the pids that were."""
    stop_resource_tracker()
    deadline, killed = time.monotonic() + timeout, []
    while kids := _children():
        for pid in kids:
            if time.monotonic() >= deadline and _alive(pid):
                killed.append(pid)
                os.kill(pid, signal.SIGKILL)
            try:
                os.waitpid(pid, 0 if pid in killed else os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.02)
    return killed


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ----------------------------------------------------------------------
# /proc readings
# ----------------------------------------------------------------------
def cpu_times() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the aggregate ``cpu`` line."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    # guest/guest_nice are already counted in user/nice.
    return fields[7], sum(fields[:8])


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


def descendants(pid: int) -> list[int]:
    """Every live descendant of *pid* (children of all its threads)."""
    found: list[int] = []
    stack = [pid]
    while stack:
        parent = stack.pop()
        for path in glob.glob(f"/proc/{parent}/task/*/children"):
            try:
                with open(path, encoding="ascii") as fh:
                    kids = [int(x) for x in fh.read().split()]
            except OSError:
                continue
            found.extend(kids)
            stack.extend(kids)
    return found


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of each process's peak resident set (``VmHWM``), in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def thread_states(pids: list[int]) -> list[str]:
    """One line per thread of *pids*: state, kernel wait channel, syscall."""
    def read(path: str) -> str:
        try:
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        except OSError:
            return "?"

    lines = []
    for pid in pids:
        for task in sorted(glob.glob(f"/proc/{pid}/task/*")):
            state = read(f"{task}/stat").rsplit(")", 1)[-1].split()[:1] or ["?"]
            lines.append(f"{pid}/{Path(task).name} {read(f'{task}/comm')} state={state[0]} "
                         f"wchan={read(f'{task}/wchan')} "
                         f"syscall={read(f'{task}/syscall').split()[0]}")
    return lines


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def _is_resource_tracker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return b"multiprocessing.resource_tracker" in fh.read()
    except OSError:
        return False


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ----------------------------------------------------------------------
# Launched programs
# ----------------------------------------------------------------------
class Program:
    """One launched program (``repro serve`` or the bit-level harness).

    ``ready()`` blocks until the program prints a line starting with
    *marker* and returns it. ``stop()`` sends SIGINT (never SIGTERM: a
    ``repro serve`` stopped that way leaves its forked pool worker
    holding the listening socket), waits, and checks that the whole
    process tree is gone and no shared-memory segment leaked. One that
    does not exit in time is killed and recorded in ``FORCED_STOPS``.
    """

    def __init__(self, argv: list[str], root: Path, log: Path) -> None:
        self.shm_before = shm_segments()
        self._log = open(log, "w", encoding="utf-8")
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
            stderr=self._log, stdin=subprocess.DEVNULL, bufsize=0,
        )
        self.log_path = log
        self.tree: set[int] = {self.proc.pid}
        self._buf = b""

    def note_tree(self) -> list[int]:
        """Record the current process tree; returns its live members."""
        live = [self.proc.pid] + descendants(self.proc.pid)
        self.tree.update(live)
        return live

    def ready(self, marker: str, timeout: float = 120.0) -> str:
        """The first line of output starting with *marker*."""
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while True:
            while b"\n" in self._buf:
                raw, self._buf = self._buf.split(b"\n", 1)
                line = raw.decode("utf-8", "replace")
                if line.startswith(marker):
                    return line
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError(f"no {marker.strip()!r} line within {timeout}s; "
                                 f"see {self.log_path}")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise BenchError(f"program exited (code {self.proc.wait()}) before "
                                 f"{marker.strip()!r}; see {self.log_path}")
            self._buf += chunk

    def stop(self, sig: int | None = signal.SIGINT, expect: tuple[int, ...] = (0, 130),
             timeout: float = STOP_S) -> None:
        """Stop the program (*sig* None: it ends by itself) and check its
        tree and ``/dev/shm``. A program still running *timeout* seconds
        later has the state of its threads appended to its log, which is
        kept under a ``-hung-<pid>`` name, and its tree is killed."""
        self.note_tree()
        if sig is not None and self.proc.poll() is None:
            self.proc.send_signal(sig)
        hung: list[str] = []
        try:
            code: int | None = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            hung = thread_states(self.note_tree())
            self._kill_tree()
            code = None
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self._log.close()
        if hung:
            kept = self.log_path.with_name(f"{self.log_path.stem}-hung-{self.proc.pid}.log")
            os.replace(self.log_path, kept)
            with open(kept, "a", encoding="utf-8") as fh:
                fh.write(f"perfbench: still running {timeout}s after its stop; killed. "
                         "Threads (pid/tid comm state wchan syscall):\n")
                fh.write("".join(line + "\n" for line in hung))
            FORCED_STOPS.append(str(kept))
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            survivors = [pid for pid in self.tree if _alive(pid)]
            if not survivors:
                break
            time.sleep(0.05)
        else:
            self._kill_tree()
            raise BenchError(f"processes survived the stop: {survivors}")
        leaked = shm_segments() - self.shm_before
        if leaked:
            raise BenchError(f"shared-memory segments leaked: {sorted(leaked)}")
        if code is not None and code not in expect:
            raise BenchError(f"program exited with code {code}; see {self.log_path}")

    def _kill_tree(self) -> None:
        """SIGKILL the tree except its multiprocessing resource trackers:
        a tracker unlinks the shared-memory segments its dead owners left
        once they are gone, and then exits by itself."""
        for pid in self.tree:
            if _alive(pid) and not _is_resource_tracker(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass


def launch_server(root: Path, work: Path, tag: str,
                  run_table: Path | None = None) -> tuple[Program, int]:
    """Start ``repro serve`` on an ephemeral port; returns it and the port."""
    argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    if run_table is not None:
        argv += ["--run-table", str(run_table)]
    prog = Program(argv, root, work / f"serve-{tag}.log")
    try:
        line = prog.ready("repro serve: listening on ")
        port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
    except (BenchError, ValueError, IndexError):
        prog.stop(signal.SIGKILL, expect=(-9,))
        raise
    return prog, port
