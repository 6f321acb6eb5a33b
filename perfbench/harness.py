"""Process and wire plumbing: a served ``repro serve`` subprocess and a
keep-alive HTTP client that counts every attempt.

Nothing here imports ``repro``: the server is reached only through the
CLI and HTTP, so the benchmark measures whichever server implementation
the checkout ships.
"""

from __future__ import annotations

import gc
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Pin BLAS/OpenMP to one thread in the server, its workers and the
#: bench process, so layer timings do not depend on the core count.
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

_BANNER_RE = re.compile(r"on http://[^:\s]+:(\d+)")
_START_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer: those are counted)."""


# -- HTTP/1.1 keep-alive client ---------------------------------------------


def http_request(method: str, path: str, body: bytes = b"") -> bytes:
    """One HTTP/1.1 request, framed with Content-Length, kept alive."""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Connection:
    """One persistent connection; ``send`` returns ``(status, body)``.

    No retries: a transport error closes the socket and propagates, and
    the next ``send`` reconnects, so every attempt is counted once.
    """

    def __init__(self, port: int, timeout_s: float = 30.0) -> None:
        self.port = port
        self.timeout_s = timeout_s
        self._sock: socket.socket | None = None
        self._rfile = None

    def _connect(self) -> None:
        sock = socket.create_connection(("127.0.0.1", self.port), self.timeout_s)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
        self._sock = self._rfile = None

    def send(self, raw: bytes) -> tuple[int, bytes]:
        if self._sock is None:
            self._connect()
        try:
            self._sock.sendall(raw)
            status_line = self._rfile.readline()
            if not status_line:
                raise ConnectionError("server closed the connection")
            status = int(status_line.split()[1])
            length, keep_alive = 0, True
            while True:
                line = self._rfile.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.partition(b":")
                name = name.strip().lower()
                if name == b"content-length":
                    length = int(value)
                elif name == b"connection":
                    keep_alive = value.strip().lower() != b"close"
            body = self._rfile.read(length)
            if len(body) != length:
                raise ConnectionError("truncated response body")
        except (OSError, ValueError, IndexError):
            self.close()
            raise
        if not keep_alive:
            self.close()
        return status, body


def get_text(port: int, path: str) -> str:
    """``GET path`` on a fresh connection; raises unless 200."""
    conn = Connection(port)
    try:
        status, body = conn.send(http_request("GET", path))
    finally:
        conn.close()
    if status != 200:
        raise BenchError(f"GET {path} -> {status}: {body[:200]!r}")
    return body.decode("utf-8")


def get_json(port: int, path: str) -> dict:
    return json.loads(get_text(port, path))


def parse_prometheus(text: str) -> dict[str, float]:
    """Prometheus text exposition -> ``{"name{labels}": value}``."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            samples[key] = float(value)
        except ValueError:
            continue
    return samples


def metric_sum(samples: dict[str, float], name: str) -> float:
    """Sum of every labelled series of one sample name (0 when absent)."""
    return sum(
        v for k, v in samples.items() if k == name or k.startswith(name + "{")
    )


# -- closed-loop clients ----------------------------------------------------


@dataclass
class Attempt:
    """One HTTP attempt as the client saw it."""

    kind: int  # index into the workload's request pool
    t_start: float
    latency_s: float
    status: int  # 0 = transport error
    body: bytes
    timed: bool  # inside the measured window (after warm-up)


@dataclass
class LoopResult:
    attempts: list[Attempt] = field(default_factory=list)
    window_s: float = 0.0


def closed_loop(
    port: int,
    streams: list[list[tuple[int, bytes]]],
    *,
    seconds: float,
    warmup_s: float,
) -> LoopResult:
    """Drive one closed-loop client per stream, on its own connection.

    Each stream is a cyclic sequence of ``(pool_index, raw_request)``;
    a client sends its next request only after the previous answer.
    Attempts started after ``warmup_s`` and before ``warmup_s +
    seconds`` are the measured window; the window closes when the last
    of them completes.
    """
    # Settle disk writeback (the server fsyncs /observe appends) and keep
    # the collector out of the timed loop.
    os.sync()
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _closed_loop(port, streams, seconds, warmup_s)
    finally:
        if gc_was_enabled:
            gc.enable()


def _closed_loop(port, streams, seconds, warmup_s) -> LoopResult:
    t_zero = time.perf_counter()
    t_open = t_zero + warmup_s
    t_close = t_open + seconds
    per_stream: list[list[Attempt]] = [[] for _ in streams]
    errors: list[BaseException] = []

    def client(i: int) -> None:
        conn = Connection(port)
        out = per_stream[i]
        seq = streams[i]
        j = 0
        try:
            while True:
                t0 = time.perf_counter()
                if t0 >= t_close:
                    break
                kind, raw = seq[j % len(seq)]
                j += 1
                try:
                    status, body = conn.send(raw)
                except (OSError, ValueError, IndexError) as exc:
                    status, body = 0, repr(exc).encode()
                t1 = time.perf_counter()
                out.append(Attempt(kind, t0, t1 - t0, status, body, t0 >= t_open))
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(len(streams))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=warmup_s + seconds + 120.0)
    if any(t.is_alive() for t in threads):
        raise BenchError("a client thread did not finish")
    if errors:
        raise errors[0]
    attempts = [a for out in per_stream for a in out]
    timed = [a for a in attempts if a.timed]
    if not timed:
        raise BenchError("no request completed inside the measured window")
    window_end = max(a.t_start + a.latency_s for a in timed)
    return LoopResult(attempts=attempts, window_s=window_end - t_open)


# -- the server subprocess --------------------------------------------------


def _proc_children() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name is parenthesised and may contain spaces.
        ppid = int(stat[stat.rindex(b")") + 2 :].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def process_tree(pid: int) -> list[int]:
    """``pid`` plus every live descendant (workers, helpers)."""
    children = _proc_children()
    tree, frontier = [pid], [pid]
    while frontier:
        nxt = [c for p in frontier for c in children.get(p, [])]
        tree.extend(nxt)
        frontier = nxt
    return tree


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of each process's peak resident set (``VmHWM``), in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class ServerProcess:
    """``repro serve`` as a subprocess on an ephemeral port.

    ``setup_s`` is the warm-start time: launch to the first 200 from
    ``/healthz``. Output goes to ``log_path``; the port is read from
    the startup banner.
    """

    def __init__(
        self, root: Path, serve_args: list[str], model_dir: Path, log_path: Path,
        tmp_dir: Path,
    ) -> None:
        self.root = root
        self.serve_args = serve_args
        self.model_dir = model_dir
        self.log_path = log_path
        self.tmp_dir = tmp_dir
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.setup_s: float | None = None

    def start(self) -> ServerProcess:
        env = dict(os.environ, **SINGLE_THREAD_ENV)
        env["PYTHONPATH"] = str(self.root / "src")
        # Scratch files the server makes (temp dirs) stay in the run dir.
        env["TMPDIR"] = str(self.tmp_dir)
        self.tmp_dir.mkdir(parents=True, exist_ok=True)
        cmd = [
            sys.executable, "-m", "repro.cli", "serve", *self.serve_args,
            "--model-dir", str(self.model_dir), "--port", "0",
        ]
        log = open(self.log_path, "wb")  # noqa: SIM115 - owned by the child
        t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=self.root, start_new_session=True,
            )
        finally:
            log.close()
        try:
            self.port = self._wait_for_banner(t0)
            self._wait_healthy(t0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0
        return self

    def _wait_for_banner(self, t0: float) -> int:
        while time.perf_counter() - t0 < _START_TIMEOUT_S:
            if self.proc.poll() is not None:
                tail = self.log_path.read_text(encoding="utf-8", errors="replace")
                raise BenchError(
                    f"server exited with {self.proc.returncode} during start-up:\n"
                    f"{tail[-2000:]}"
                )
            match = _BANNER_RE.search(
                self.log_path.read_text(encoding="utf-8", errors="replace")
            )
            if match:
                return int(match.group(1))
            time.sleep(0.002)
        raise BenchError(f"server printed no banner in {_START_TIMEOUT_S:.0f}s")

    def _wait_healthy(self, t0: float) -> None:
        while time.perf_counter() - t0 < _START_TIMEOUT_S:
            try:
                conn = Connection(self.port, timeout_s=5.0)
                try:
                    status, _ = conn.send(http_request("GET", "/healthz"))
                finally:
                    conn.close()
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise BenchError("server never answered /healthz with 200")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(process_tree(self.proc.pid))

    def stop(self) -> None:
        """SIGTERM (clean shutdown), then SIGKILL the whole group if stuck."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        # Workers and helpers share the server's session/process group.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait(timeout=30)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and _group_alive(self.proc.pid):
            time.sleep(0.05)
        self.proc = None


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
