"""HISQ pre-decode: per-instruction step tuples and uncached decodes."""

import gc

import pytest

from repro.circuits import build_ghz
from repro.compiler import compile_circuit, run_circuit
from repro.isa.assembler import assemble
from repro.isa.decoded import (DecodedProgram, decode_cache_stats,
                               decode_program)
from repro.isa.instructions import Instruction, cw_ii, halt, interned, waiti
from repro.isa.opcodes import FORMATS, OP_CW_II, OP_HALT, OP_WAITI, OPCODES
from repro.isa.program import Program


def _program(*instructions):
    return Program(name="p", instructions=list(instructions))


class TestInstructionStep:
    def test_tables_name_the_same_mnemonics(self):
        assert set(OPCODES) == set(FORMATS)
        assert len(set(OPCODES.values())) == len(OPCODES)

    @pytest.mark.parametrize("mnemonic", sorted(FORMATS))
    def test_step_is_opcode_and_operands(self, mnemonic):
        instr = Instruction(mnemonic, rd=1, rs1=2, rs2=3, imm=-4, imm2=5)
        assert instr.step == (OPCODES[mnemonic], 1, 2, 3, -4, 5)

    def test_assembled_and_labeled_step_like_interned_twin(self):
        twin = interned("cw.i.i", 0, 0, 0, 3, 7)
        program = assemble("top: cw.i.i 3,7\nwaiti 2\nbne $1,$2,top\nhalt")
        assembled = program.instructions[0]
        labeled = Instruction("cw.i.i", imm=3, imm2=7, label="top")
        for instr in (assembled, labeled):
            assert instr is not twin and instr == twin
            assert instr.step == twin.step == (OP_CW_II, 0, 0, 0, 3, 7)
        assert [i.step for i in program] == decode_program(program).steps

    def test_step_is_not_an_init_argument(self):
        with pytest.raises(TypeError):
            Instruction("nop", step=(OP_HALT, 0, 0, 0, 0, 0))
        assert "step" not in repr(halt())


class TestDecode:
    def test_steps_match_instructions(self):
        program = assemble("waiti 5\ncw.i.i 2,9\nhalt")
        decoded = decode_program(program)
        assert decoded.n == 3
        assert decoded.steps[0][0] == OP_WAITI and decoded.steps[0][4] == 5
        assert decoded.steps[1][0] == OP_CW_II
        assert decoded.steps[1][4] == 2 and decoded.steps[1][5] == 9
        assert decoded.steps[2][0] == OP_HALT

    def test_has_recv(self):
        assert decode_program(assemble("recv $5,0\nhalt")).has_recv
        assert not decode_program(assemble("waiti 5\nhalt")).has_recv

    def test_append_redecodes(self):
        program = _program(waiti(5), cw_ii(0, 1), waiti(2), cw_ii(0, 2))
        decoded = decode_program(program)
        program.append(halt())
        redecoded = decode_program(program)
        assert redecoded is not decoded
        assert redecoded.n == 5

    def test_same_length_swap_redecodes(self):
        # Every call decodes the program as it is, so replacing one
        # element in place, at the same length, gets a fresh decode.
        program = _program(waiti(5), cw_ii(0, 1), waiti(2), cw_ii(0, 2),
                           halt())
        decoded = decode_program(program)
        program.instructions[1] = waiti(7)
        redecoded = decode_program(program)
        assert redecoded is not decoded
        assert redecoded.steps[1][0] == OP_WAITI
        assert redecoded.steps[1][4] == 7
        assert decoded.steps[1][0] == OP_CW_II

    def test_cache_stats_shape(self):
        before = decode_cache_stats()
        assert set(before) == {"pin_hits", "content_hits", "misses"}
        decode_program(_program(waiti(5), halt()))
        decode_program(_program(waiti(5), halt()))
        after = decode_cache_stats()
        # Retired (the e2e ledger sums them); every decode is a miss.
        assert after["pin_hits"] == after["content_hits"] == 0
        assert after["misses"] - before["misses"] == 2

    def test_decode_keeps_nothing_alive(self):
        """No process-wide state holds a decode: once a compiled cell's
        system is dropped, no DecodedProgram survives."""
        circuit = build_ghz(6)
        result = run_circuit(circuit, scheme="bisp", device_seed=3,
                             compilation=compile_circuit(circuit))
        assert result.makespan_cycles > 0
        del result
        gc.collect()
        assert not [obj for obj in gc.get_objects()
                    if isinstance(obj, DecodedProgram)]
