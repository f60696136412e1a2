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
later one.  A fresh build per lane (:func:`repro.compiler.driver.
simulate_shot`) is the differential oracle.

``REPRO_NO_LANES=1`` (strictly parsed, see :mod:`repro.fastpath`)
disables fast-forward entirely; the differential tests assert both modes
produce byte-identical per-shot stats.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..fastpath import lanes_enabled
from ..isa.decoded import decode_program

#: Process-wide lane accounting: shots satisfied by static fast-forward
#: vs shots that ran a full per-lane replay.
_LANE_TOTALS: Dict[str, int] = {"fastforward": 0, "replayed": 0}


def lane_totals() -> Dict[str, int]:
    """Copy of the process-wide lane counters."""
    return dict(_LANE_TOTALS)


def reset_lane_totals() -> None:
    """Zero the lane counters (benchmarks, tests)."""
    for key in _LANE_TOTALS:
        _LANE_TOTALS[key] = 0


def static_timing(compilation) -> bool:
    """Whether ``compilation``'s timing is device-seed independent.

    True iff no compiled program contains a ``recv``
    (:attr:`~repro.isa.decoded.DecodedProgram.has_recv`): measurement
    outcomes (the only seed-dependent values) are then never read by any
    pipeline, so they cannot steer control flow or timing.  The answer
    is memoized on the compilation object.
    """
    cached = getattr(compilation, "_lanes_static", None)
    if cached is not None:
        return cached
    static = not any(decode_program(program).has_recv
                     for program in compilation.programs.values())
    compilation._lanes_static = static
    return static


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
    Output is bit-identical between the two modes by construction, and
    the differential suite asserts it.
    """
    from ..compiler.driver import shot_device_seed, simulate_shot

    if shots <= 1:
        return [], "replay"
    if lanes_enabled() and static_timing(compilation):
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
        _LANE_TOTALS["fastforward"] += shots - 1
        return rest, "fastforward"
    rest = _replay_lanes(compilation, device_seed, shots, until)
    _LANE_TOTALS["replayed"] += shots - 1
    return rest, "replay"
