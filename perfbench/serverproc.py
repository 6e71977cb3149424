"""A server subprocess: spawn, wait until ready, account, always reap."""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import threading
import time
from typing import Dict, List, Optional, Sequence

from .common import ROOT, proc_cpu_seconds, proc_peak_rss_mb, \
    subprocess_env

#: Bytes of the server's stderr kept in the result.
STDERR_TAIL = 8192
#: Seconds a server may take to print its ready line.
START_TIMEOUT = 60.0


class ServerFailed(RuntimeError):
    """The server did not come up, or died."""


class ServerProcess:
    """One server process on the loopback interface.

    ``ready`` is a regular expression the server prints on stdout once
    it accepts traffic; its first group is the port.  ``cpu`` pins the
    process to one CPU.  :meth:`stop`
    always reaps the process (SIGINT, then SIGTERM, then SIGKILL) and
    keeps its exit code and the tail of its stderr.
    """

    def __init__(self, argv: Sequence[str], ready: str,
                 cpu: Optional[int] = None) -> None:
        self.argv = list(argv)
        self.cpu = cpu
        self._ready = re.compile(ready)
        self.port: Optional[int] = None
        self.returncode: Optional[int] = None
        self.stopped_by: Optional[str] = None
        self._proc: Optional[subprocess.Popen] = None
        self._stdout: "queue.Queue[Optional[str]]" = queue.Queue()
        self._stderr: List[str] = []
        self._threads: List[threading.Thread] = []

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ServerProcess":
        self._proc = subprocess.Popen(
            self.argv, cwd=str(ROOT), env=subprocess_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        if self.cpu is not None:
            # The child is still starting the interpreter: it has one
            # thread, and every thread it starts later inherits this.
            os.sched_setaffinity(self._proc.pid, {self.cpu})
        self._threads = [
            threading.Thread(target=self._pump_stdout, daemon=True),
            threading.Thread(target=self._pump_stderr, daemon=True)]
        for thread in self._threads:
            thread.start()
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.stop()
                raise ServerFailed("server not ready after %.0f s"
                                   % START_TIMEOUT)
            try:
                line = self._stdout.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                self.stop()
                raise ServerFailed("server exited before it was ready "
                                   "(code %s): %s"
                                   % (self.returncode, self.stderr_tail()))
            match = self._ready.search(line)
            if match:
                self.port = int(match.group(1))
                return self

    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    @property
    def pid(self) -> int:
        assert self._proc is not None
        return self._proc.pid

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.pid)

    def stop(self, grace: float = 10.0) -> Optional[int]:
        """Stop and reap; returns the exit code.  Idempotent."""
        proc = self._proc
        if proc is None:
            return self.returncode
        for how, send in (("SIGINT", lambda: proc.send_signal(
                              signal.SIGINT)),
                          ("SIGTERM", proc.terminate),
                          ("SIGKILL", proc.kill)):
            if proc.poll() is not None:
                break
            self.stopped_by = how
            send()
            try:
                proc.wait(timeout=grace if how == "SIGINT" else 5.0)
            except subprocess.TimeoutExpired:
                continue
        proc.wait()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self.returncode = proc.returncode
        return self.returncode

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- output ----------------------------------------------------------

    def _pump_stdout(self) -> None:
        assert self._proc is not None and self._proc.stdout is not None
        for line in self._proc.stdout:
            self._stdout.put(line)
        self._proc.wait()
        self.returncode = self._proc.returncode
        self._stdout.put(None)

    def _pump_stderr(self) -> None:
        assert self._proc is not None and self._proc.stderr is not None
        kept = 0
        for line in self._proc.stderr:
            self._stderr.append(line)
            kept += len(line)
            while kept > STDERR_TAIL and len(self._stderr) > 1:
                kept -= len(self._stderr.pop(0))

    def stderr_tail(self) -> str:
        return "".join(self._stderr)[-STDERR_TAIL:]

    def info(self) -> Dict[str, object]:
        """What the result records about this process."""
        return {"argv": self.argv, "returncode": self.returncode,
                "stopped_by": self.stopped_by,
                "stderr_tail": self.stderr_tail()}
