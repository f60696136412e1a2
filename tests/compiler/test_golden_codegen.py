"""Golden-file regression tests for HISQ codegen.

A small fixed dynamic circuit is compiled under all three synchronization
schemes; the emitted per-controller HISQ listings must match the
checked-in snapshots under ``tests/compiler/golden/``.  To regenerate
after an intentional codegen change::

    python -m pytest tests/compiler/test_golden_codegen.py --update-golden

and review the snapshot diff like any other code change.
"""

import os

import pytest

from repro.compiler.driver import compile_circuit
from repro.compiler.schemes import scheme_names
from repro.quantum.circuit import QuantumCircuit

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def golden_circuit() -> QuantumCircuit:
    """Fixed 3-qubit dynamic circuit covering every stream kind.

    One of each: 1q gate, same/cross-controller 2q gates, measurement,
    feedback (conditional X on a remote controller) — enough to pin the
    sync placement, codeword allocation and spill code of each scheme.
    """
    circuit = QuantumCircuit(3, 2, name="golden")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(1, 0)
    circuit.x(2, condition=(0, 1))
    circuit.cz(1, 2)
    circuit.measure(2, 1)
    return circuit


def render_compilation(scheme: str) -> str:
    """Canonical text form of the compiled programs for one scheme."""
    result = compile_circuit(golden_circuit(), scheme=scheme)
    sections = ["# scheme: {}".format(scheme),
                "# stats: {}".format(
                    {k: result.stats[k] for k in sorted(result.stats)})]
    for address in sorted(result.programs):
        sections.append(result.programs[address].listing())
    return "\n\n".join(sections) + "\n"


@pytest.mark.parametrize("scheme", scheme_names())
def test_codegen_matches_golden(scheme, update_golden):
    path = os.path.join(GOLDEN_DIR, "{}.txt".format(scheme))
    rendered = render_compilation(scheme)
    if update_golden:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(rendered)
        pytest.skip("golden snapshot updated")
    assert os.path.exists(path), (
        "missing golden snapshot {}; run with --update-golden".format(path))
    with open(path) as handle:
        expected = handle.read()
    assert rendered == expected, (
        "HISQ codegen for scheme {!r} changed; if intentional, rerun with "
        "--update-golden and review the snapshot diff".format(scheme))


def test_schemes_differ_from_each_other():
    """Sanity: the paper's three schemes must not collapse to identical
    programs.  (The registry's extra schemes are allowed to coincide with
    a core scheme on this tiny circuit — lockstep_window only diverges
    from lockstep once a circuit has several feedback blocks, pinned in
    tests/compiler/test_schemes.py.)"""
    texts = {scheme: render_compilation(scheme)
             for scheme in ("bisp", "demand", "lockstep")}
    assert len(set(texts.values())) == 3
