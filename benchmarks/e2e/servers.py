"""The real server as a subprocess: ``python -m repro.cli serve --tcp``."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from typing import List, Optional

_LISTENING = re.compile(r"listening on [^:\s]+:(\d+)")
#: a server that has not printed its "listening" line by then is given up
_START_TIMEOUT_S = 120.0


class ServerError(RuntimeError):
    pass


class ServerProc:
    """One ``repro.cli serve --tcp 127.0.0.1:0 --workers 1 --backend cext`` process.

    stderr goes to a file (a pipe nobody drains would block the server);
    the port is read from the "listening on" line the CLI prints.
    """

    def __init__(
        self, bundle: str, flags: List[str], log_path: str, env: dict,
        cpu: Optional[int] = None,
    ):
        self.argv = [
            sys.executable, "-m", "repro.cli", "serve", bundle,
            "--tcp", "127.0.0.1:0", "--workers", "1", "--backend", "cext",
            *flags,
        ]
        self.log_path = log_path
        self._env = env
        #: the one CPU the server may run on (None: wherever the OS puts it)
        self.cpu = cpu
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def launch(self) -> "ServerProc":
        # The child inherits the mask of the thread that forks it: narrow
        # this thread's mask around Popen, so the server is on its CPU from
        # its first instruction and every thread it starts inherits that.
        mine = os.sched_getaffinity(0)
        try:
            if self.cpu is not None:
                os.sched_setaffinity(0, {self.cpu})
            with open(self.log_path, "wb") as log:
                self.proc = subprocess.Popen(
                    self.argv, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                    env=self._env,
                )
        finally:
            os.sched_setaffinity(0, mine)
        return self

    def start(self) -> "ServerProc":
        """Launch (unless already launched) and wait for "listening"."""
        if self.proc is None:
            self.launch()
        deadline = time.monotonic() + _START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.stderr_text())
            if match:
                self.port = int(match.group(1))
                return self
            if self.proc.poll() is not None:
                raise ServerError(
                    f"server exited with {self.proc.returncode} before "
                    f"listening:\n{self.stderr_text()}"
                )
            time.sleep(0.005)
        self.kill()
        raise ServerError(f"server not listening after {_START_TIMEOUT_S:g}s:\n{self.stderr_text()}")

    def stderr_text(self) -> str:
        try:
            with open(self.log_path, "r", encoding="utf-8", errors="replace") as f:
                return f.read()
        except OSError:
            return ""

    def read_peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc/<pid>/status")

    def kill(self) -> None:
        """``kill -9`` and reap: the server gets no chance to flush or drain."""
        if self.proc is not None and self.proc.poll() is None:
            os.kill(self.proc.pid, signal.SIGKILL)
        if self.proc is not None:
            self.proc.wait()
