"""Server processes: start ``repro serve``, wait for health, stop, scrape.

The server always runs in a process of its own, started the way users
start it (``python -m repro.cli serve ...`` with ``src`` on the path).
The traced run starts it through ``traced_serve.py`` instead, which
wraps the layers' public calls and then runs the same CLI entry point.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

_PORT_LINE = re.compile(r"on http://[0-9.]+:(\d+)")
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


class ServerProcess:
    """One server process with its log file in the work directory."""

    def __init__(
        self, root: str, workdir: str, serve_args: List[str],
        traced_out: Optional[str] = None,
    ) -> None:
        self.log_path = os.path.join(workdir, f"serve-{time.monotonic_ns()}.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        if traced_out is None:
            argv = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            argv = [
                sys.executable,
                os.path.join(root, "perfbench", "traced_serve.py"),
                traced_out, "serve",
            ]
        argv += serve_args + ["--port", "0"]
        self._log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            argv, cwd=workdir, env=env, stdout=self._log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )
        self.port = 0

    def wait_port(self, timeout: float = 60.0) -> int:
        """Block until the server prints its port line; return the port."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as handle:
                match = _PORT_LINE.search(handle.read().decode("utf-8", "replace"))
            if match:
                self.port = int(match.group(1))
                return self.port
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start:\n{self.log_tail()}")

    def log_tail(self) -> str:
        with open(self.log_path, "rb") as handle:
            return handle.read().decode("utf-8", "replace")[-2000:]

    def rss_mb(self, field: str = "VmRSS") -> float:
        """``VmRSS`` (resident set) or ``VmHWM`` (its peak) of the server, in MB."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"{field} not found")


    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (graceful drain), wait; SIGKILL only if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        return self.process.returncode


def host_cpu_times() -> Tuple[int, int]:
    """``(steal, total)`` jiffies of the machine, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        values = [int(v) for v in handle.readline().split()[1:]]
    return values[7], sum(values)


class RssSampler:
    """Samples a server's resident set at most every ``interval`` seconds."""

    def __init__(self, server: ServerProcess, interval: float = 0.2) -> None:
        self._server = server
        self._interval = interval
        self._next = 0.0
        self.samples: List[float] = []

    def __call__(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            self._next = now + self._interval
            self.samples.append(self._server.rss_mb())


def wait_healthy(conn, timeout: float = 30.0) -> Dict:
    """Poll ``/healthz`` until it answers 200; return its payload."""
    import json

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, body = conn.request("GET", "/healthz")
        if status == 200:
            return json.loads(body)
        time.sleep(0.005)
    raise RuntimeError("server never became healthy")


def parse_metrics(text: str) -> Dict[Tuple[str, Tuple], float]:
    """Prometheus text -> ``{(name, sorted label pairs): value}``."""
    samples: Dict[Tuple[str, Tuple], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if not match:
            continue
        labels: Tuple = ()
        if match.group(2):
            pairs = re.findall(r'(\w+)="([^"]*)"', match.group(2))
            labels = tuple(sorted(pairs))
        samples[(match.group(1), labels)] = float(match.group(3))
    return samples


class MetricsDelta:
    """Counter differences between two ``/metrics`` scrapes."""

    def __init__(self, before: Dict, after: Dict) -> None:
        self.before = before
        self.after = after

    def total(self, name: str, **labels) -> float:
        """Sum of ``after - before`` over series of ``name`` matching labels."""
        wanted = set(labels.items())
        value = 0.0
        for (series, series_labels), after in self.after.items():
            if series != name or not wanted <= set(series_labels):
                continue
            value += after - self.before.get((series, series_labels), 0.0)
        return value

    def by_label(self, name: str, label: str) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (series, series_labels), after in self.after.items():
            if series != name:
                continue
            key = dict(series_labels).get(label, "")
            delta = after - self.before.get((series, series_labels), 0.0)
            out[key] = out.get(key, 0.0) + delta
        return out
