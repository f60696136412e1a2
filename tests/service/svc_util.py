"""Helpers shared by the sweep-service tests (imported as a plain
module — the test tree is intentionally package-less, so this file has
a name no other test directory uses)."""

import json
import socket

from repro.harness.benchjson import make_bench
from repro.harness.spec import SweepSpec
from repro.harness.sweep import run_sweep

SCALE = 0.02
WORKLOADS = ("bv_n400", "qft_n30")
SCHEMES = ("bisp", "lockstep")


def serial_bench(spec: SweepSpec, name: str = "tiny") -> dict:
    """The offline reference: serial run_sweep assembled into a BENCH
    document exactly as ``python -m repro.harness.sweep`` would."""
    rows, stats = run_sweep(spec, processes=1)
    return make_bench(name, rows, kind="sweep", spec=spec.to_dict(),
                      cache={"hits": stats.hits, "misses": stats.misses})


def digest_of_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["results_sha256"]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]
