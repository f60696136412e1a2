"""HISQ pre-decode: dense steps and the decode caches."""

from repro.isa.assembler import assemble
from repro.isa.decoded import (OP_CW_II, OP_HALT, OP_WAITI,
                               decode_cache_stats, decode_program)
from repro.isa.instructions import cw_ii, halt, waiti
from repro.isa.program import Program


def _program(*instructions):
    return Program(name="p", instructions=list(instructions))


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

    def test_same_object_cached(self):
        program = assemble("waiti 5\ncw.i.i 0,1\nwaiti 2\ncw.i.i 0,2\nhalt")
        assert decode_program(program) is decode_program(program)

    def test_equal_content_shares_decode(self):
        # Interned instructions give equal programs identical instruction
        # objects, so recompilations share one decode.
        first = _program(waiti(5), cw_ii(0, 1), waiti(2), cw_ii(0, 2),
                         halt())
        second = _program(waiti(5), cw_ii(0, 1), waiti(2), cw_ii(0, 2),
                          halt())
        assert decode_program(first) is decode_program(second)

    def test_append_redecodes(self):
        program = _program(waiti(5), cw_ii(0, 1), waiti(2), cw_ii(0, 2))
        decoded = decode_program(program)
        program.append(halt())
        redecoded = decode_program(program)
        assert redecoded is not decoded
        assert redecoded.n == 5

    def test_same_length_swap_redecodes(self):
        # The cache is keyed on content alone, so replacing one element
        # in place, at the same length, gets a fresh decode.
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
        stats = decode_cache_stats()
        assert set(stats) == {"by_content", "step_memo", "pin_hits",
                              "content_hits", "misses"}
        assert stats["pin_hits"] == 0  # retired; the e2e ledger sums it
