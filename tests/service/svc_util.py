"""Helpers shared by the sweep-service tests (imported as a plain
module — the test tree is intentionally package-less, so this file has
a name no other test directory uses)."""

import asyncio
import json
import socket
from typing import Tuple

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


async def http_request_text(host: str, port: int, path: str,
                            timeout: float = 60.0
                            ) -> Tuple[int, str, str]:
    """GET ``path`` without decoding the body as JSON; returns
    ``(status, content_type, body_text)``.  The Prometheus scrape
    tests use this against ``/metrics``."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout)
    try:
        head = ("GET {} HTTP/1.1\r\n"
                "Host: {}:{}\r\n"
                "Connection: close\r\n\r\n").format(path, host, port)
        writer.write(head.encode("latin-1"))
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    header_blob, _, rest = raw.partition(b"\r\n\r\n")
    header_lines = header_blob.decode("latin-1").split("\r\n")
    status = int(header_lines[0].split(" ", 2)[1])
    content_type = ""
    for line in header_lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-type":
            content_type = value.strip()
    return status, content_type, rest.decode("utf-8")
