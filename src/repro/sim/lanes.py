"""Lane-parallel multishot execution.

``run_circuit(shots=k)`` replays the same compiled system ``k`` times
with derived per-shot device seeds.  The device seed influences timing
through exactly one door: sampled measurement outcomes are *delivered*
to a core's message unit, and only a ``recv`` instruction ever reads
them.  A compiled program set with no ``recv`` therefore has
device-seed-independent timing — every timing-only lane is provably
identical — so instead of re-simulating per shot, the lane engine runs
the reference lane once and *fans the result out* across all lanes,
folding per-lane seeds back into the scalar per-shot stats format.

Fast-forward only fires on measurement-free circuits (e.g. ``qft``):
every ``measure`` lowers to a ``recv`` from the acquisition unit, so any
circuit that measures — all the dynamic registry workloads included —
replays one full simulation per lane.  Those replays share the
compilation and decode work that :func:`repro.compiler.driver.
run_circuit` already paid once, and they run on *one* timing-only
:class:`~repro.sim.system.ControlSystem` built for the first lane and
rewound with :meth:`~repro.sim.system.ControlSystem.reset` for every
later one.  Which mode runs depends on the compiled programs alone
(:func:`static_timing`); a fresh build per lane (:func:`repro.compiler.
driver.simulate_shot`) is the differential oracle for both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..isa.decoded import decode_program
from ..obs import metrics as _metrics

LANES_FASTFORWARD = _metrics.counter(
    "repro_lanes_fastforward_total",
    "extra shots satisfied by fanning out one static reference lane")
LANES_REPLAYED = _metrics.counter(
    "repro_lanes_replayed_total",
    "extra shots that ran a full per-lane replay")


def lane_totals() -> Dict[str, int]:
    """Copy of the process-wide lane counters."""
    return {"fastforward": LANES_FASTFORWARD.value,
            "replayed": LANES_REPLAYED.value}


def reset_lane_totals() -> None:
    """Zero the lane counters (benchmarks, tests)."""
    LANES_FASTFORWARD.value = 0
    LANES_REPLAYED.value = 0


def static_timing(compilation) -> bool:
    """Whether ``compilation``'s timing is device-seed independent.

    True iff no compiled program contains a ``recv``
    (:attr:`~repro.isa.decoded.DecodedProgram.has_recv`): measurement
    outcomes (the only seed-dependent values) are then never read by any
    pipeline, so they cannot steer control flow or timing.  Each call
    scans the compilation's current programs.
    """
    return not any(decode_program(program).has_recv
                   for program in compilation.programs.values())


def _replay_lanes(compilation, device_seed: int, shots: int,
                  until: Optional[int]) -> List[Dict[str, int]]:
    """One full simulation per lane ``1 .. shots-1`` on a single reused
    timing-only system."""
    from ..compiler.driver import shot_device_seed, shot_summary

    rest = []
    system = None
    for shot in range(1, shots):
        seed = shot_device_seed(device_seed, shot)
        if system is None:
            system = compilation.build_system(
                backend=None, device_seed=seed, record_gate_log=False,
                record_telf=False)
        else:
            system.reset(seed)
        rest.append(shot_summary(seed, system.run(until=until)))
    return rest


def run_extra_shots(compilation, device_seed: int, shots: int,
                    until: Optional[int] = None,
                    first: Optional[Dict[str, int]] = None,
                    ) -> Tuple[List[Dict[str, int]], str]:
    """Stats for shots ``1 .. shots-1`` of a compiled circuit.

    Returns ``(shot_stats, mode)`` where ``mode`` is ``"fastforward"``
    (static program set, one reference lane fanned out) or ``"replay"``
    (one full simulation per lane).  ``first`` is shot 0's stats dict;
    when given and the program set is static, it doubles as the
    reference lane, so fast-forward costs zero additional simulations.
    Both modes are bit-identical to one fresh :func:`~repro.compiler.
    driver.simulate_shot` per lane, and the differential suite asserts
    it.
    """
    from ..compiler.driver import shot_device_seed, simulate_shot

    if shots <= 1:
        return [], "replay"
    if static_timing(compilation):
        reference = first
        if reference is None:
            reference = simulate_shot(
                compilation, shot_device_seed(device_seed, 1), until)
        makespan = reference["makespan_cycles"]
        sync_stall = reference["sync_stall_cycles"]
        rest = [{"device_seed": shot_device_seed(device_seed, s),
                 "makespan_cycles": makespan,
                 "sync_stall_cycles": sync_stall}
                for s in range(1, shots)]
        LANES_FASTFORWARD.value += shots - 1
        return rest, "fastforward"
    rest = _replay_lanes(compilation, device_seed, shots, until)
    LANES_REPLAYED.value += shots - 1
    return rest, "replay"
