#!/usr/bin/env python
"""Smoke-test `repro serve` as a real subprocess (the CI docs job).

Two legs, each started as its own server process:

* single model — fast-scale KNN on the office suite: ``/healthz`` and
  one ``/localize`` through the public :class:`repro.api.ReproClient`
  (also asserting the wire ``api_version`` negotiation), then one
  ``/localize_batch`` of ``OFFLOADED_ROWS`` scans, too large to compute
  inline on the event loop, whose row 0 must equal the inline
  ``/localize`` answer for the same scan: both sides of the
  dispatcher's offload rule run;
* fleet with worker processes — ``--fleet HQ:2,LAB:2:kmeans --workers
  2``: ``/healthz`` must report both workers alive, then one
  ``/localize_batch`` runs the worker-pipe compute path end to end.
  Then one worker pid from ``/fleet`` is SIGKILLed: the next
  ``/localize_batch`` must still answer 200 and ``/healthz`` must
  count the restart. After shutdown no worker pid the smoke saw may
  still be running.

Each leg waits for the listening line — which must follow one parseable
``startup:`` line of non-negative stage seconds — then sends SIGINT and
verifies the process exits with code 0 after printing ``shutdown
complete``, and that nothing it (or a worker) printed after SIGINT is a
``Traceback`` or an ``Exception ignored`` line (e.g. a ``BufferError``
from a worker closing a shared mapping under a live model view).

    python tools/serve_smoke.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import API_VERSION, ReproClient  # noqa: E402

STARTUP_TIMEOUT_S = 180.0

#: Office KNN computes up to 66 rows inline; a batch this large is
#: offloaded to the dispatcher's inference thread.
OFFLOADED_ROWS = 100


STARTUP_STAGES = ("generate_s", "load_s", "start_s")


def parse_startup(line: str) -> dict[str, float]:
    """Stage seconds from a ``startup: generate_s=… load_s=… start_s=…`` line."""
    stages = {}
    for field in line.split()[1:]:
        key, value = field.split("=")
        stages[key] = float(value)
    assert tuple(stages) == STARTUP_STAGES, line
    assert all(v >= 0.0 for v in stages.values()), line
    return stages


def wait_for_port(process) -> int:
    """Block until the server prints its listening line; return the port.

    A watchdog kills the subprocess at the deadline, which turns the
    blocking readline() into EOF — so a silently hung server fails the
    smoke in minutes, not at the CI job timeout. (select() on the pipe
    would miss lines already sitting in the reader's buffer.)
    """
    timed_out = threading.Event()

    def _watchdog() -> None:
        timed_out.set()
        process.kill()

    watchdog = threading.Timer(STARTUP_TIMEOUT_S, _watchdog)
    watchdog.start()
    startup = None
    try:
        while True:
            line = process.stdout.readline()
            if not line:
                # EOF: the server died (or the watchdog killed it).
                code = process.wait()
                if timed_out.is_set():
                    raise TimeoutError("server did not start in time")
                raise RuntimeError(
                    f"server exited with {code} before starting"
                )
            print(f"[server] {line.rstrip()}")
            if line.startswith("startup:"):
                assert startup is None, "more than one startup line"
                startup = parse_startup(line)
            if "serving" in line and "http://" in line:
                assert startup is not None, "no startup line before the banner"
                print(f"startup ok: {startup}")
                return int(line.rsplit(":", 1)[1])
    finally:
        watchdog.cancel()


def check_single(client: ReproClient) -> None:
    health = client.healthz()
    assert health["status"] == "ok", health
    assert health["api_version"] == API_VERSION, health
    print(f"healthz ok: {health['framework']} on {health['suite']} "
          f"(api v{health['api_version']})")

    n_aps = health["n_aps"]
    scans = [
        [-40.0 - (7 * i + 13 * j) % 60 for j in range(n_aps)]
        for i in range(OFFLOADED_ROWS)
    ]
    result = client.localize(scans[0])
    assert result.location.shape == (2,), result
    assert result.raw.get("api_version") == API_VERSION, result.raw
    print(f"localize ok: {result.location.tolist()}")

    batch = client.localize_batch(scans)
    assert batch.locations.shape == (OFFLOADED_ROWS, 2), batch
    assert batch.locations[0].tolist() == result.location.tolist(), (
        batch.locations[0], result.location,
    )
    print(f"localize_batch ok: {OFFLOADED_ROWS} rows offloaded, "
          "row 0 equals the inline answer")


def worker_pids(client: ReproClient) -> set[int]:
    return {w["pid"] for w in client.fleet()["dispatch"]["executor"]["workers"]}


def pid_running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie (Linux ``/proc``)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def check_fleet(client: ReproClient) -> set[int]:
    health = client.healthz()
    assert health["status"] == "ok", health
    workers = health["workers"]
    assert workers["mode"] == "multi-process", workers
    assert workers["workers"] == 2 and workers["alive"] == 2, workers
    print(f"healthz ok: {workers['alive']}/{workers['workers']} workers alive")

    scans = [[-60.0] * health["n_aps"], [-70.0] * health["n_aps"]]
    result = client.localize_batch(scans)
    assert result.locations.shape == (2, 2), result
    assert len(result.routing) == 2, result.raw
    print(f"localize_batch ok: {result.locations.tolist()}")

    seen = worker_pids(client)
    victim = min(seen)
    os.kill(victim, signal.SIGKILL)
    retries = client.retries
    result = client.localize_batch(scans)
    assert client.retries == retries, "the request after a crash was refused"
    assert result.locations.shape == (2, 2), result
    # The crash is counted when the server's loop reads EOF on the
    # victim's pipe, and the replacement is up once its spawn returns;
    # neither need precede that answer.
    deadline = time.monotonic() + 60.0
    while True:
        workers = client.healthz()["workers"]
        if workers["restarts"] >= 1 and workers["alive"] == 2:
            break
        assert time.monotonic() < deadline, f"no warm respawn: {workers}"
        time.sleep(0.05)
    seen |= worker_pids(client)
    assert len(seen) == 3, seen
    print(f"worker {victim} SIGKILLed: localize_batch ok, respawned warm")
    return seen


def run_leg(serve_args: list[str], check) -> None:
    """Start ``repro serve <serve_args>``, run ``check``, SIGINT it.

    ``check`` may return the worker pids it saw; none of them may
    outlive the server.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{REPO_ROOT / 'src'}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else str(REPO_ROOT / "src")
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *serve_args, "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    try:
        port = wait_for_port(process)
        with ReproClient(port=port) as client:
            pids = check(client) or set()

        process.send_signal(signal.SIGINT)
        code = process.wait(timeout=60)
        remainder = process.stdout.read()
        for line in remainder.splitlines():
            print(f"[server] {line}")
        assert code == 0, f"server exited with {code}"
        assert "shutdown complete" in remainder, "no clean-shutdown marker"
        noisy = [
            line for line in remainder.splitlines()
            if line.startswith(("Traceback", "Exception ignored"))
        ]
        assert not noisy, f"errors printed at shutdown: {noisy}"
        left = sorted(pid for pid in pids if pid_running(pid))
        assert not left, f"worker processes left running: {left}"
        print("clean shutdown ok")
    finally:
        if process.poll() is None:
            process.kill()


def main() -> int:
    run_leg(["office", "--framework", "KNN", "--fast"], check_single)
    run_leg(
        [
            "--fleet", "HQ:2,LAB:2:kmeans", "--workers", "2",
            "--framework", "KNN", "--fast",
        ],
        check_fleet,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
