"""HISQ pre-decode: dense steps, fast-block item columns and the decode
caches."""

from repro.isa.assembler import assemble
from repro.isa.decoded import (ITEM_CW, ITEM_SEND, ITEM_SYNC_N, ITEM_SYNC_R,
                               MIN_FAST_BLOCK, OP_CW_II, OP_HALT, OP_WAITI,
                               decode_cache_stats, decode_program)
from repro.isa.instructions import cw_ii, halt, nop, send_i, sync, waiti
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

    def test_fast_block_boundaries(self):
        # waits/cws form a block; halt terminates it.
        program = _program(waiti(5), cw_ii(0, 1), waiti(4), cw_ii(0, 2),
                           waiti(3), halt())
        decoded = decode_program(program)
        block = decoded.fast_block[0]
        assert block is not None and block.n == 5
        assert decoded.fast_block[4] is block
        assert block.start == 0
        assert decoded.fast_block[5] is None  # halt is stepwise
        # Positions before each instruction and item columns line up.
        assert block.pos_cum == [0, 5, 5, 9, 9, 12]
        assert block.pushes == [0, 0, 1, 1, 2, 2]
        assert block.item_kinds == [ITEM_CW, ITEM_CW]
        assert block.item_off == [5, 9]
        assert (block.item_a, block.item_b) == ([0, 0], [1, 2])
        assert (block.cw_idx, block.cw_pushes, block.cw_last) == \
            ([1, 3], [0, 1], 1)

    def test_short_runs_not_blocked(self):
        program = _program(waiti(1), halt())
        decoded = decode_program(program)
        assert all(b is None for b in decoded.fast_block)
        assert 1 < MIN_FAST_BLOCK

    def test_replay_end_budget_and_space(self):
        program = _program(waiti(1), cw_ii(0, 1), cw_ii(0, 2), cw_ii(0, 3),
                           waiti(2), halt())
        block = decode_program(program).fast_block[0]
        assert block.n == 5
        # Unlimited space: budget caps the slice.
        assert block.replay_end(0, 2, free=100) == 2
        assert block.replay_end(0, 100, free=100) == 5
        # Space for one push only: stop before the second codeword.
        assert block.replay_end(0, 100, free=1) == 2
        # No space at all: stop before the first codeword.
        assert block.replay_end(0, 100, free=0) == 1
        # Entering mid-block.
        assert block.replay_end(1, 100, free=1) == 2

    def test_sync_templates(self):
        program = _program(sync(3), waiti(4), cw_ii(0, 1), sync(0x1000, 7),
                           waiti(7), halt())
        block = decode_program(program).fast_block[0]
        assert block.item_kinds == [ITEM_SYNC_N, ITEM_CW, ITEM_SYNC_R]
        assert block.item_off == [0, 4, 4]
        assert block.item_a == [3, 0, 0x1000]
        assert block.item_b == [0, 1, 7]
        # Only codewords take part in the queue-space admission check.
        assert block.cw_idx == [2]

    def test_send_and_nop_templates(self):
        program = _program(nop(), send_i(2, 9), waiti(3), nop(), halt())
        block = decode_program(program).fast_block[0]
        assert block.n == 4
        assert block.pos_cum == [0, 0, 0, 3, 3]
        assert block.pushes == [0, 0, 1, 1, 1]
        assert (block.item_kinds, block.item_off, block.item_a,
                block.item_b) == ([ITEM_SEND], [0], [2], [9])
        assert (block.cw_idx, block.cw_last) == ([], -1)

    def test_empty_item_columns(self):
        program = _program(waiti(1), nop(), waiti(2), nop(), halt())
        block = decode_program(program).fast_block[0]
        assert block.item_kinds == block.item_off == []

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

    def test_append_invalidates_instance_cache(self):
        program = _program(waiti(5), cw_ii(0, 1), waiti(2), cw_ii(0, 2))
        decoded = decode_program(program)
        program.append(halt())
        redecoded = decode_program(program)
        assert redecoded is not decoded
        assert redecoded.n == 5

    def test_cache_stats_shape(self):
        stats = decode_cache_stats()
        assert set(stats) == {"by_content", "step_memo", "pin_hits",
                              "content_hits", "misses"}
