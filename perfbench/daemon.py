"""Spawn, probe and stop one ``repro serve`` daemon process.

Process hygiene for the benchmark: every daemon gets a fresh ephemeral
port, a daemon that exits before it is healthy fails the run at once, and
the daemon is stopped with SIGINT (the CLI's graceful path) under a bounded
wait, after which no process it started may still be alive.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

HEALTH_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class DaemonError(RuntimeError):
    """The daemon failed to start, answer or stop cleanly."""


def free_port() -> int:
    """An ephemeral TCP port on the loopback interface, free right now."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def http_get(port: int, path: str, timeout: float = 5.0) -> tuple[int, bytes]:
    """One blocking ``GET`` on a fresh connection (setup and teardown only)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus text exposition → ``{sample name: value}`` (labels kept)."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            samples[name] = float(value)
        except ValueError:
            continue
    return samples


def _descendants(pid: int) -> set[int]:
    """Every live process below ``pid`` (read from ``/proc``)."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rpartition(")")[2].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    found: set[int] = set()
    stack = [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            if child not in found:
                found.add(child)
                stack.append(child)
    return found


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
    except OSError:
        return False
    return state != "Z"


class Daemon:
    """One daemon process; use :meth:`start`, then :meth:`stop` in ``finally``."""

    def __init__(self, root: Path, argv: list[str], log_path: Path):
        self.root = root
        self.port = free_port()
        self.argv = [*argv, "--port", str(self.port)]
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None

    def start(self) -> float:
        """Spawn and wait for the first healthy ``/healthz``; returns set-up s."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        with open(self.log_path, "ab") as log:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, *self.argv],
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        while True:
            if self.proc.poll() is not None:
                raise DaemonError(
                    f"daemon exited with code {self.proc.returncode} before it "
                    f"was healthy; log tail:\n{self.log_tail()}"
                )
            try:
                status, _ = http_get(self.port, "/healthz", timeout=1.0)
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - started
            if time.perf_counter() - started > HEALTH_TIMEOUT_S:
                raise DaemonError(f"daemon not healthy after {HEALTH_TIMEOUT_S} s")
            time.sleep(0.005)

    def healthz(self) -> dict:
        status, body = http_get(self.port, "/healthz")
        if status != 200:
            raise DaemonError(f"/healthz answered {status}")
        return json.loads(body)

    def metrics(self) -> dict[str, float]:
        status, body = http_get(self.port, "/metrics")
        if status != 200:
            raise DaemonError(f"/metrics answered {status}")
        return parse_metrics(body.decode("utf-8"))

    def peak_rss_mb(self) -> float:
        """The daemon's VmHWM (peak resident set), in MiB."""
        assert self.proc is not None
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise DaemonError("VmHWM missing from /proc status")

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def stop(self) -> None:
        """SIGINT, bounded wait, then check that no descendant survived.

        Raises :class:`DaemonError` when the daemon needed SIGKILL or left a
        process behind; both are killed first, so nothing outlives the run.
        """
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is not None:
            return
        tree = _descendants(proc.pid)
        proc.send_signal(signal.SIGINT)
        problem = None
        try:
            proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            problem = f"daemon ignored SIGINT for {STOP_TIMEOUT_S} s"
        survivors = [pid for pid in tree if _alive(pid)]
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if survivors:
            problem = f"daemon left child processes alive: {sorted(survivors)}"
        if problem:
            raise DaemonError(problem)
