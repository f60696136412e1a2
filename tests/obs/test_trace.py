"""Unit tests for span tracing and the Chrome trace-event exporter."""

import json
import subprocess
import sys

import pytest

from repro.compiler.driver import compile_circuit
from repro.compiler.schemes import get_scheme, scheme_names
from repro.obs import trace
from repro.quantum.teleport import build_long_range_cnot_circuit
from repro.sim.config import SimulationConfig
from repro.sim.telf import TelfRecord
from repro.testing import subprocess_env


@pytest.fixture
def tracing():
    trace.start_tracing()
    yield
    trace.stop_tracing()
    trace.start_tracing()  # clear buffered events...
    trace.stop_tracing()   # ...and leave the tracer idle


class TestSpans:
    def test_idle_tracer_collects_nothing(self):
        assert not trace.tracing_active()
        with trace.span("ignored"):
            trace.instant("also ignored")
        assert trace.trace_events() == []

    def test_span_emits_balanced_pair(self, tracing):
        with trace.span("compile", cat="compile", scheme="bisp"):
            trace.instant("marker", detail=3)
        events = trace.trace_events()
        named = [e for e in events if e["name"] == "compile"]
        assert [e["ph"] for e in named] == ["B", "E"]
        begin, end = named
        assert begin["args"] == {"scheme": "bisp"}
        assert begin["ts"] <= end["ts"]
        (marker,) = [e for e in events if e["name"] == "marker"]
        assert marker["ph"] == "i"
        assert trace.validate_events(events) == []

    def test_nested_spans_validate(self, tracing):
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        assert trace.validate_events(trace.trace_events()) == []

    def test_export_document_shape(self, tracing, tmp_path):
        with trace.span("cell"):
            pass
        path = tmp_path / "trace.json"
        doc = trace.export(str(path))
        assert doc["displayTimeUnit"] == "ms"
        assert json.loads(path.read_text()) == doc
        assert trace.validate_trace(doc) == []


class TestCompilerSpans:
    """Per-pass compile time shows on spans: a traced compile opens
    ``compile`` around ``lower`` and then one span per pipeline pass, in
    ``Scheme.passes`` order, each tagged with its scheme."""

    @pytest.mark.parametrize("name", scheme_names())
    def test_compile_span_holds_lower_then_each_pass(self, tracing, name):
        compile_circuit(build_long_range_cnot_circuit(3), scheme=name)
        events = trace.trace_events()
        assert trace.validate_events(events) == []
        spans = [e for e in events if e["ph"] in ("B", "E")]
        steps = ["lower"] + [p.name for p in get_scheme(name).passes]
        want = [("B", "compile")]
        for step in steps:
            want += [("B", step), ("E", step)]
        want.append(("E", "compile"))
        assert [(e["ph"], e["name"]) for e in spans] == want
        assert {e["cat"] for e in spans} == {"compile"}
        assert all(e["args"] == {"scheme": name} for e in spans
                   if e["ph"] == "B" and e["name"] != "compile")


class TestTelfMerge:
    def _records(self):
        return [
            TelfRecord(time=100, unit="cpu0", kind="cw", port=0,
                       value=1),
            TelfRecord(time=200, unit="tcu", kind="sync_book", port=-1,
                       value=0, note="sync"),
            TelfRecord(time=300, unit="cpu0", kind="cw", port=0,
                       value=1),
        ]

    def test_sim_track_separate_pid_and_named_lanes(self, tracing):
        config = SimulationConfig()
        added = trace.add_telf_events(self._records(), config=config)
        assert added == 6  # process_name + 2 thread_name + 3 instants
        import os

        events = trace.trace_events()
        sim = [e for e in events if e.get("cat") == "sim"]
        assert {e["pid"] for e in sim} == \
            {os.getpid() + trace.SIM_PID_OFFSET}
        # Cycle -> microsecond mapping through the clock config.
        first = [e for e in sim if e["name"] == "cw"][0]
        assert first["ts"] == pytest.approx(config.ns(100) / 1000.0)
        assert first["args"]["cycle"] == 100
        names = [e["args"]["name"] for e in events
                 if e["name"] == "thread_name"]
        assert names == ["cpu0", "tcu"]  # first-seen order
        assert trace.validate_events(events) == []

    def test_telf_event_limit_bounds_merge(self, tracing, monkeypatch):
        monkeypatch.setattr(trace, "TELF_EVENT_LIMIT", 2)
        assert trace.add_telf_events(self._records()) == 1
        assert trace.add_telf_events(self._records()) == 0

    def test_inactive_tracer_skips_telf(self):
        assert trace.add_telf_events(self._records()) == 0


class TestValidation:
    def test_missing_keys_reported(self):
        problems = trace.validate_events([{"ph": "B", "ts": 0}])
        assert len(problems) == 1
        assert "missing" in problems[0]

    def test_unbalanced_spans_reported(self):
        events = [{"ph": "B", "ts": 0, "pid": 1, "tid": 1, "name": "a"}]
        problems = trace.validate_events(events)
        assert any("unclosed" in p for p in problems)

    def test_mismatched_end_reported(self):
        events = [
            {"ph": "B", "ts": 0, "pid": 1, "tid": 1, "name": "a"},
            {"ph": "E", "ts": 1, "pid": 1, "tid": 1, "name": "b"},
        ]
        problems = trace.validate_events(events)
        assert any("does not match" in p for p in problems)

    def test_merge_concatenates_lanes(self):
        a = {"traceEvents": [{"ph": "i", "s": "t", "ts": 0, "pid": 1,
                              "tid": 1, "name": "x"}]}
        b = {"traceEvents": [{"ph": "i", "s": "t", "ts": 0, "pid": 2,
                              "tid": 1, "name": "y"}]}
        merged = trace.merge_traces([a, b])
        assert len(merged["traceEvents"]) == 2
        assert trace.validate_trace(merged) == []


class TestCli:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_validate_ok_and_invalid(self, tmp_path):
        good = self._write(tmp_path, "good.json", {"traceEvents": [
            {"ph": "B", "ts": 0, "pid": 1, "tid": 1, "name": "a"},
            {"ph": "E", "ts": 1, "pid": 1, "tid": 1, "name": "a"},
        ]})
        bad = self._write(tmp_path, "bad.json", {"traceEvents": [
            {"ph": "E", "ts": 0, "pid": 1, "tid": 1, "name": "a"},
        ]})
        assert trace.main(["validate", good]) == 0
        assert trace.main(["validate", good, bad]) == 1

    def test_merge_writes_combined_file(self, tmp_path, capsys):
        one = self._write(tmp_path, "one.json", {"traceEvents": [
            {"ph": "i", "s": "t", "ts": 0, "pid": 1, "tid": 1,
             "name": "x"}]})
        two = self._write(tmp_path, "two.json", {"traceEvents": [
            {"ph": "i", "s": "t", "ts": 0, "pid": 2, "tid": 1,
             "name": "y"}]})
        out = str(tmp_path / "merged.json")
        assert trace.main(["merge", "--out", out, one, two]) == 0
        merged = json.loads(open(out).read())
        assert len(merged["traceEvents"]) == 2

    def test_module_entrypoint(self, tmp_path):
        good = self._write(tmp_path, "good.json", {"traceEvents": []})
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.trace", "validate", good],
            capture_output=True, text=True, env=subprocess_env())
        assert proc.returncode == 0
        assert "OK (0 events, 0 lanes)" in proc.stdout
