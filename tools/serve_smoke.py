#!/usr/bin/env python
"""Smoke-test `repro serve` as a real subprocess (the CI docs job).

Two legs, each started as its own server process:

* single model — fast-scale KNN on the office suite: ``/healthz`` and
  one ``/localize`` through the public :class:`repro.api.ReproClient`
  (also asserting the wire ``api_version`` negotiation);
* fleet with worker processes — ``--fleet HQ:2 --workers 2``:
  ``/healthz`` must report both workers alive, then one
  ``/localize_batch`` runs the worker-pipe compute path end to end.

Each leg waits for the listening line, then sends SIGINT and verifies
the process exits with code 0 after printing ``shutdown complete``.

    python tools/serve_smoke.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import API_VERSION, ReproClient  # noqa: E402

STARTUP_TIMEOUT_S = 180.0


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
            if "serving" in line and "http://" in line:
                return int(line.rsplit(":", 1)[1])
    finally:
        watchdog.cancel()


def check_single(client: ReproClient) -> None:
    health = client.healthz()
    assert health["status"] == "ok", health
    assert health["api_version"] == API_VERSION, health
    print(f"healthz ok: {health['framework']} on {health['suite']} "
          f"(api v{health['api_version']})")

    scan = [-60.0] * health["n_aps"]
    result = client.localize(scan)
    assert result.location.shape == (2,), result
    assert result.raw.get("api_version") == API_VERSION, result.raw
    print(f"localize ok: {result.location.tolist()}")


def check_fleet(client: ReproClient) -> None:
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


def run_leg(serve_args: list[str], check) -> None:
    """Start ``repro serve <serve_args>``, run ``check``, SIGINT it."""
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
            check(client)

        process.send_signal(signal.SIGINT)
        code = process.wait(timeout=60)
        remainder = process.stdout.read()
        for line in remainder.splitlines():
            print(f"[server] {line}")
        assert code == 0, f"server exited with {code}"
        assert "shutdown complete" in remainder, "no clean-shutdown marker"
        print("clean shutdown ok")
    finally:
        if process.poll() is None:
            process.kill()


def main() -> int:
    run_leg(["office", "--framework", "KNN", "--fast"], check_single)
    run_leg(
        ["--fleet", "HQ:2", "--workers", "2", "--framework", "KNN", "--fast"],
        check_fleet,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
