"""Region sync through the router cascade, end to end in a ControlSystem.

The cascade is the only region-sync implementation: each member's
booking climbs the router tree, and the group's destination router
broadcasts the common start time Tm back down (Figure 8).  These tests
check its timing against closed-form tree arithmetic, its per-router
diagnostics, and that the fast interpreter and the stepwise
``ReferenceCore`` agree on it.
"""

import pytest

import repro.sim.system
from repro.compiler import compile_circuit, run_circuit
from repro.isa import assemble
from repro.network.sync_plan import sync_plan_totals
from repro.quantum import QuantumCircuit
from repro.sim import ControlSystem

from reference_core import ReferenceCore

#: Members under one leaf router, on two leaf routers, and on three.
MEMBER_SETS = [[0, 1], [0, 19], [0, 9, 19]]
GROUP = 40


def _region_system(members, syncs=3, delta=1, skew=0, emit=True):
    """20 controllers on a line; ``members`` region-sync ``syncs`` times.

    Member of rank ``r`` idles ``r * skew`` cycles first, so bookings
    reach the tree at staggered times.  ``delta`` is the booked lead
    time of every ``sync``, and the timeline waits it out before the
    next instruction."""
    system = ControlSystem(20, mesh_kind="line", record_gate_log=False)
    target = system.register_sync_group(GROUP, members)
    body = "sync {},{}\nwaiti {}\n".format(GROUP, delta, delta)
    if emit:
        body += "cw.i.i 0,1\n"
    for rank, address in enumerate(members):
        prefix = "waiti {}\n".format(rank * skew) if rank * skew else ""
        system.load_program(address,
                            assemble(prefix + body * syncs + "halt"))
    return system, target


def _up_cycles(system, member, router):
    """Booking latency from ``member`` up to ``router``: one hop per
    tree edge plus one processing delay per intermediate router."""
    hops = len(system.topology.path_to_ancestor(member, router)) - 1
    return hops * system.config.router_hop_cycles + \
        max(0, hops - 1) * system.config.router_process_cycles


class TestCascadeTiming:
    @pytest.mark.parametrize("delta,skew", [(1, 0), (1, 25), (200, 0)],
                             ids=["broadcast-bound", "staggered",
                                  "booking-bound"])
    @pytest.mark.parametrize("members", MEMBER_SETS)
    def test_tm_matches_tree_arithmetic(self, members, delta, skew):
        """Tm = max(latest booked time, last booking's arrival at the
        destination + processing + the deepest member's broadcast
        latency), and every member resumes exactly at Tm."""
        syncs = 3
        system, target = _region_system(members, syncs, delta, skew)
        system.run()
        telf = system.telf
        process = system.config.router_process_cycles
        down_bound = max(_up_cycles(system, m, target) for m in members)
        books = {m: telf.filter(unit="C{}".format(m), kind="sync_book")
                 for m in members}
        done = telf.filter(unit=system.routers[target].name,
                           kind="sync_done")
        assert len(done) == syncs
        for epoch, record in enumerate(done):
            epoch_books = {m: books[m][epoch] for m in members}
            arrival = max(book.time + _up_cycles(system, m, target)
                          for m, book in epoch_books.items())
            booked = max(book.value for book in epoch_books.values())
            tm = max(booked, arrival + process + down_bound)
            assert (record.time, record.value) == (arrival, tm), epoch
            assert record.note == "Tm (overhead {})".format(tm - booked)
            for member in members:
                resumed = telf.filter(unit="C{}".format(member),
                                      kind="sync_done")[epoch]
                assert resumed.time == tm, (epoch, member)
        emissions = {tuple(r.time for r in telf.emissions("C{}".format(m)))
                     for m in members}
        assert len(emissions) == 1  # members stay in lockstep
        assert all(system.cores[m].counters()["violations"] == 0
                   for m in members)

    @pytest.mark.parametrize("members", MEMBER_SETS)
    def test_group_configuration(self, members):
        """Each relaying router expects exactly the next hop of every
        member path, and its broadcast bound covers its deepest member;
        only the common ancestor is the destination."""
        system, target = _region_system(members)
        assert target == system.topology.common_ancestor(members)
        expected = {}
        for member in members:
            path = system.topology.path_to_ancestor(member, target)
            for child, parent in zip(path, path[1:]):
                expected.setdefault(parent, set()).add(child)
        configured = {address: router.groups[GROUP]
                      for address, router in system.routers.items()
                      if GROUP in router.groups}
        assert set(configured) == set(expected)
        for address, info in configured.items():
            below = [m for m in members
                     if address in system.topology.path_to_ancestor(
                         m, target)]
            assert info.expected == sorted(expected[address])
            assert info.member_children == info.expected
            assert info.is_destination == (address == target)
            assert info.down_bound == max(
                _up_cycles(system, m, address) for m in below)


class TestRouterDiagnostics:
    @pytest.mark.parametrize("members", MEMBER_SETS)
    def test_bookings_and_broadcasts_per_epoch(self, members):
        """Per epoch, a relaying router handles one booking per expected
        child and sends one broadcast; routers off the member paths see
        nothing; the epoch counter ticks once per epoch."""
        syncs = 4
        before = sync_plan_totals()["fallback"]
        system, _ = _region_system(members, syncs)
        system.run()
        assert sync_plan_totals()["fallback"] - before == syncs
        for router in system.routers.values():
            info = router.groups.get(GROUP)
            relays = 0 if info is None else len(info.expected)
            assert router.bookings_handled == relays * syncs
            assert router.broadcasts_sent == (syncs if relays else 0)
            assert router.abandoned_epochs == 0
        assert system.abandoned_sync_epochs == 0
        assert all(system.cores[m].sync_unit.tm_received == syncs
                   for m in members)


def _fingerprint(system, stats):
    return {
        "makespan": stats.makespan_cycles,
        "sync_stall": stats.sync_stall_cycles,
        "cores": {a: (core.counters(), core.last_event_time,
                      core.sync_unit.tm_received)
                  for a, core in system.cores.items()},
        "routers": {a: (r.bookings_handled, r.broadcasts_sent)
                    for a, r in system.routers.items()},
        "telf": list(system.telf._raw),
    }


class TestInterpreters:
    """Region-sync items pushed by the decoded pipeline loop must match
    the reference interpreter's."""

    @pytest.mark.parametrize("syncs", [3, 6])
    @pytest.mark.parametrize("members", MEMBER_SETS)
    def test_fast_matches_legacy(self, members, syncs, monkeypatch):
        prints = {}
        for reference in (False, True):
            if reference:
                monkeypatch.setattr(repro.sim.system, "HISQCore",
                                    ReferenceCore)
            system, _ = _region_system(members, syncs, emit=False)
            prints[reference] = _fingerprint(system, system.run())
        assert prints[False] == prints[True]

    def test_compiled_region_sync_circuit(self, monkeypatch):
        """A compiled circuit with long-range CNOTs (region sync groups,
        no feedback) books through the cascade and runs identically
        under both interpreters."""
        circuit = QuantumCircuit(12)
        for _ in range(2):
            circuit.cx(0, 11)
            circuit.cx(3, 9)
        compilation = compile_circuit(circuit, mesh_kind="line")
        assert compilation.sync_groups
        runs = {}
        for reference in (False, True):
            if reference:
                monkeypatch.setattr(repro.sim.system, "HISQCore",
                                    ReferenceCore)
            before = sync_plan_totals()["fallback"]
            run = run_circuit(circuit, mesh_kind="line", device_seed=5,
                              record_gate_log=False,
                              compilation=compilation)
            epochs = sync_plan_totals()["fallback"] - before
            assert epochs > 0
            runs[reference] = (run.makespan_cycles,
                               run.stats.sync_stall_cycles,
                               run.system.device.lifetimes_ns(),
                               list(run.system.telf._raw), epochs)
        assert runs[False] == runs[True]
