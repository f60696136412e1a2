"""Fixtures shared by the gate modules under ``ci/``.

``serve`` boots ``python -m repro.service serve --port 0 --workers 2``
on a fresh store once per module and yields the service URL, read from
the boot line the way ``benchmarks/e2e/run.py`` finds it.
"""

import os
import re
import subprocess
import sys
import time

import pytest

from repro.testing import subprocess_env

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BOOT_TIMEOUT = 60.0


def _boot_url(log: str, process: subprocess.Popen) -> str:
    """The URL in serve's boot line, polled until it appears."""
    deadline = time.monotonic() + BOOT_TIMEOUT
    while time.monotonic() < deadline:
        with open(log, encoding="utf-8") as handle:
            match = re.search(r"service on (http://\S+)", handle.read())
        if match:
            return match.group(1)
        if process.poll() is not None:
            break
        time.sleep(0.05)
    with open(log, encoding="utf-8") as handle:
        raise AssertionError("serve did not boot:\n" + handle.read())


@pytest.fixture(scope="module")
def serve(tmp_path_factory):
    """``serve`` plus 2 co-located workers for one module.  Teardown
    sends SIGTERM (SIGKILL after 15 s) and prints the log's tail."""
    tmp = tmp_path_factory.mktemp("serve")
    log = str(tmp / "serve.log")
    with open(log, "wb") as out:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--port", "0",
             "--store", str(tmp / "store"), "--workers", "2"],
            cwd=ROOT, env=subprocess_env(), stdout=out,
            stderr=subprocess.STDOUT)
    try:
        yield _boot_url(log, process)
    finally:
        process.terminate()
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        with open(log, encoding="utf-8") as handle:
            print("".join(handle.readlines()[-5:]))
