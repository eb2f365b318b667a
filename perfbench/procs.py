"""The program under test as a subprocess, and readers of ``/proc/<pid>``.

The service is started exactly as a user starts it —
``python -m repro serve --listen 127.0.0.1:0`` with default flags and a
per-run ``--state-dir`` — and reached only through its TCP port.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

_LISTENING = re.compile(r"listening on (\S+):(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Seconds a starting server may take before the run is abandoned.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def vm_hwm_mib(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process (``/proc/<pid>/stat``)."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # The command name may hold spaces; fields resume after its ')'.
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def host_cpu_ticks() -> "tuple[int, int]":
    """``(steal, total)`` CPU ticks of the whole machine (``/proc/stat``).

    Steal is time the hypervisor gave this machine's CPUs to someone else;
    its share over a run says how much of the run's noise came from outside.
    """
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)


def speed_probe(iterations: int = 1_000_000) -> float:
    """Millions of simple interpreter loop iterations per second, right now.

    A fixed pure-Python loop: when the virtual machine's host slows down,
    this drops with it, so the report shows whether a slow run was the
    program or the machine.
    """
    started = time.perf_counter()
    total = 0
    for value in range(iterations):
        total += value
    return iterations / (time.perf_counter() - started) / 1e6


def roundtrip(sock: socket.socket, line: str) -> str:
    """Send one request line on a blocking socket and read one response line."""
    sock.sendall(line.encode() + b"\n")
    chunks: List[bytes] = []
    while True:
        data = sock.recv(65536)
        if not data:
            raise ConnectionError("server closed the connection")
        chunks.append(data)
        if data.endswith(b"\n"):
            return b"".join(chunks).decode().rstrip("\n")


class ServerProcess:
    """One ``repro serve --listen`` process over a given state directory."""

    def __init__(self, root: Path, state_dir: Path) -> None:
        self.root = root
        self.state_dir = state_dir
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self._stderr_tail: List[str] = []
        self._drain: Optional[threading.Thread] = None

    @property
    def pid(self) -> int:
        """Process id of the running server."""
        assert self.process is not None
        return self.process.pid

    def start_and_probe(self, probe_line: str) -> "tuple[float, str]":
        """Spawn the server, wait for it to listen, answer ``probe_line``.

        Returns ``(seconds from spawn to the probe's response, response)`` —
        the set-up time a user waits before the first request is served,
        journal replay included.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env.pop("REPRO_SHARD_INDEX", None)
        command = [
            sys.executable, "-m", "repro", "serve",
            "--listen", f"{self.host}:0",
            "--state-dir", str(self.state_dir),
        ]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=str(self.root),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert self.process.stderr is not None
        deadline = started + START_TIMEOUT_S
        while True:
            line = self.process.stderr.readline()
            if not line:
                self.stop()
                raise RuntimeError(
                    "server exited before listening: " + "".join(self._stderr_tail)
                )
            self._stderr_tail = (self._stderr_tail + [line])[-20:]
            match = _LISTENING.search(line)
            if match:
                self.port = int(match.group(2))
                break
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("server did not start listening in time")
        # Keep draining stderr so the server can never block on a full pipe.
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()
        with socket.create_connection((self.host, self.port), timeout=START_TIMEOUT_S) as sock:
            response = roundtrip(sock, probe_line)
        return time.perf_counter() - started, response

    def _drain_stderr(self) -> None:
        assert self.process is not None and self.process.stderr is not None
        for line in self.process.stderr:
            self._stderr_tail = (self._stderr_tail + [line])[-20:]

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it lingers; always reaped."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if self._drain is not None:
            self._drain.join(timeout=STOP_TIMEOUT_S)
        if process.stderr is not None:
            process.stderr.close()
        self.process = None

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
