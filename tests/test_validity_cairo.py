import random

import pytest

from rollsim.algebra import DEFAULT_PRIME
from rollsim.validityrollup.cairo import (
    CairoProgram,
    CairoState,
    InsufficientHints,
    InvalidAccess,
    MemoryContradiction,
    OP_ADVANCE_AP,
    OP_ASSERT_ADD,
    OP_ASSERT_EQ,
    OP_ASSERT_EQ_IMM,
    OP_ASSERT_MUL,
    OP_CALL,
    OP_JMP,
    OP_RET,
    PartialMemory,
    REG_FP,
    decode_instruction,
    deterministic_accept,
    encode_instruction,
    run_program,
    sqrt_program,
)

P = DEFAULT_PRIME


class TestInstructionEncoding:
    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(200):
            fields = dict(
                opcode=rng.randrange(8),
                dst_off=rng.randrange(-100, 100),
                a_off=rng.randrange(-100, 100),
                b_off=rng.randrange(-100, 100),
                dst_base=rng.randrange(2),
                a_base=rng.randrange(2),
                b_base=rng.randrange(2),
                ap_inc=bool(rng.randrange(2)),
            )
            decoded = decode_instruction(encode_instruction(**fields))
            assert decoded.opcode == fields["opcode"]
            assert decoded.dst_off == fields["dst_off"]
            assert decoded.ap_inc == fields["ap_inc"]

    def test_data_words_do_not_decode(self):
        with pytest.raises(ValueError):
            decode_instruction(25)  # opcode nibble 9
        with pytest.raises(ValueError):
            decode_instruction(1 << 60)  # beyond the packed layout


class TestPartialMemory:
    def test_write_once(self):
        mem = PartialMemory(P)
        mem[5] = 7
        mem[5] = 7  # idempotent rebind is fine
        with pytest.raises(MemoryContradiction):
            mem[5] = 8

    def test_undefined_read(self):
        with pytest.raises(InvalidAccess):
            PartialMemory(P)[3]

    def test_values_reduced_mod_p(self):
        mem = PartialMemory(P)
        mem[1] = P + 4
        assert mem[1] == 4


class TestStepValidity:
    def test_assert_mul_square(self):
        # [ap - 1] = [ap] * [ap] with 25 = 5 * 5; ap advances
        word = encode_instruction(OP_ASSERT_MUL, dst_off=-1, a_off=0, b_off=0, ap_inc=True)
        memory = {100: word, 199: 25, 200: 5}
        s = CairoState(pc=100, ap=200, fp=200)
        s_next = CairoState(pc=101, ap=201, fp=200)
        assert deterministic_accept(1, memory, [s, s_next])

    def test_assert_mul_wrong_value(self):
        word = encode_instruction(OP_ASSERT_MUL, dst_off=-1, a_off=0, b_off=0, ap_inc=True)
        memory = {100: word, 199: 25, 200: 4}
        s = CairoState(pc=100, ap=200, fp=200)
        s_next = CairoState(pc=101, ap=201, fp=200)
        assert not deterministic_accept(1, memory, [s, s_next])

    def test_field_negated_root_accepted(self):
        word = encode_instruction(OP_ASSERT_MUL, dst_off=-1, a_off=0, b_off=0, ap_inc=True)
        memory = {100: word, 199: 25, 200: (-5) % P}
        s = CairoState(pc=100, ap=200, fp=200)
        s_next = CairoState(pc=101, ap=201, fp=200)
        assert deterministic_accept(1, memory, [s, s_next])

    def test_undefined_pc_rejected(self):
        s = CairoState(pc=100, ap=0, fp=0)
        assert not deterministic_accept(1, {}, [s, s])

    def test_wrong_register_update_rejected(self):
        word = encode_instruction(OP_ASSERT_EQ_IMM, dst_off=0, ap_inc=True)
        memory = {100: word, 101: 9, 200: 9}
        s = CairoState(pc=100, ap=200, fp=200)
        assert deterministic_accept(1, memory, [s, CairoState(pc=102, ap=201, fp=200)])
        assert not deterministic_accept(1, memory, [s, CairoState(pc=102, ap=200, fp=200)])
        assert not deterministic_accept(1, memory, [s, CairoState(pc=103, ap=201, fp=200)])
        assert not deterministic_accept(1, memory, [s, CairoState(pc=102, ap=201, fp=201)])

    @pytest.mark.parametrize(
        "word, cells, next_state",
        [
            # [ap] = [ap+1] over an unreduced copy of the same field value
            (
                encode_instruction(OP_ASSERT_EQ, dst_off=0, a_off=1),
                {200: P + 7, 201: 7},
                CairoState(pc=101, ap=200, fp=200),
            ),
            # the copied cell's address given unreduced
            (
                encode_instruction(OP_ASSERT_EQ, dst_off=0, a_off=1),
                {P + 200: 7, 201: 7},
                CairoState(pc=101, ap=200, fp=200),
            ),
            # a jump target given unreduced
            (encode_instruction(OP_JMP), {101: P + 50}, CairoState(pc=50, ap=200, fp=200)),
            # a call frame whose saved fp and return pc are given unreduced
            (
                encode_instruction(OP_CALL),
                {101: 150, 200: P + 200, 201: P + 102},
                CairoState(pc=150, ap=202, fp=202),
            ),
        ],
        ids=["copy", "key", "jump", "call"],
    )
    def test_one_verdict_per_field_memory(self, word, cells, next_state):
        cells = {100: word, **cells}
        s = CairoState(pc=100, ap=200, fp=200)
        assert deterministic_accept(1, cells, [s, next_state])
        assert deterministic_accept(1, PartialMemory(P, cells), [s, next_state])

    def test_two_values_for_one_field_address_rejected(self):
        word = encode_instruction(OP_ASSERT_EQ, dst_off=0, a_off=1)
        # cell 200 alone would satisfy [ap] = [ap+1]; its alias P + 200 does not
        cells = {100: word, P + 200: 8, 200: 7, 201: 7}
        s, s_next = CairoState(pc=100, ap=200, fp=200), CairoState(pc=101, ap=200, fp=200)
        with pytest.raises(MemoryContradiction):
            PartialMemory(P, cells)
        assert not deterministic_accept(1, cells, [s, s_next])


class TestDeterministicMachine:
    def test_zero_steps_accepts(self):
        assert deterministic_accept(0, {}, [CairoState(0, 0, 0)])

    def test_wrong_state_count_rejects(self):
        assert not deterministic_accept(2, {}, [CairoState(0, 0, 0)])

    def test_sqrt_trace_accepts(self):
        result = run_program(sqrt_program(25), prog_base=1000, ap_initial=2000)
        assert result.steps == 2
        assert deterministic_accept(result.steps, result.memory, result.states)

    def test_corrupted_register_rejected(self):
        result = run_program(sqrt_program(25), prog_base=1000, ap_initial=2000)
        states = list(result.states)
        mid = states[1]
        states[1] = CairoState(pc=mid.pc, ap=(mid.ap + 1) % P, fp=mid.fp)
        assert not deterministic_accept(result.steps, result.memory, states)


class TestRunner:
    def test_sqrt_with_hint(self):
        result = run_program(sqrt_program(25), prog_base=1000, ap_initial=2000)
        assert result.memory[2000] == 25
        assert result.memory[2001] == 5

    def test_sqrt_negated_hint_also_accepted(self):
        result = run_program(
            sqrt_program(25, negate_hint=True), prog_base=1000, ap_initial=2000
        )
        assert result.memory[2001] == (-5) % P
        assert deterministic_accept(result.steps, result.memory, result.states)

    def test_sqrt_without_hint_fails(self):
        with pytest.raises(InsufficientHints):
            run_program(sqrt_program(25, with_hint=False), prog_base=1000, ap_initial=2000)

    def test_contradictory_writes(self):
        # two immediate asserts binding the same cell to different values
        bytecode = (
            encode_instruction(OP_ASSERT_EQ_IMM, dst_off=0),
            5,
            encode_instruction(OP_ASSERT_EQ_IMM, dst_off=0),
            6,
        )
        program = CairoProgram(bytecode=bytecode, prog_start=0, prog_end=4)
        with pytest.raises(MemoryContradiction):
            run_program(program, prog_base=100, ap_initial=200)

    def test_addition_deduction(self):
        # [ap] = 7; [ap+1] = 10; [ap+1] = [ap] + [ap+2] deduces [ap+2] = 3
        bytecode = (
            encode_instruction(OP_ASSERT_EQ_IMM, dst_off=0),
            7,
            encode_instruction(OP_ASSERT_EQ_IMM, dst_off=1),
            10,
            encode_instruction(OP_ASSERT_ADD, dst_off=1, a_off=0, b_off=2),
        )
        program = CairoProgram(bytecode=bytecode, prog_start=0, prog_end=5)
        result = run_program(program, prog_base=0, ap_initial=500)
        assert result.memory[502] == 3
        assert deterministic_accept(result.steps, result.memory, result.states)

    def test_mul_deduction_by_inversion(self):
        # [ap] = 6; [ap+1] = 42; [ap+1] = [ap] * [ap+2] deduces [ap+2] = 7
        bytecode = (
            encode_instruction(OP_ASSERT_EQ_IMM, dst_off=0),
            6,
            encode_instruction(OP_ASSERT_EQ_IMM, dst_off=1),
            42,
            encode_instruction(OP_ASSERT_MUL, dst_off=1, a_off=0, b_off=2),
        )
        program = CairoProgram(bytecode=bytecode, prog_start=0, prog_end=5)
        result = run_program(program, prog_base=0, ap_initial=500)
        assert result.memory[502] == 7

    def test_call_and_ret(self):
        # callee first (writes [ap] = 11, returns), then main calls it;
        # after the return pc lands on prog_end
        base = 700
        bytecode = (
            encode_instruction(OP_ASSERT_EQ_IMM, dst_off=0),  # 0: f: [ap] = 11
            11,                                               # 1
            encode_instruction(OP_RET),                       # 2
            encode_instruction(OP_CALL),                      # 3: main: call f
            base + 0,                                         # 4: callee address
        )
        program = CairoProgram(bytecode=bytecode, prog_start=3, prog_end=5)
        result = run_program(program, prog_base=base, ap_initial=900)
        assert result.steps == 3  # call, assert, ret
        assert deterministic_accept(result.steps, result.memory, result.states)
        # the call frame: [900] = saved fp, [901] = return pc, callee ap = 902
        assert result.memory[900] == 900
        assert result.memory[901] == base + 5
        assert result.memory[902] == 11
        assert result.states[-1].fp == 900  # fp restored by ret

    def test_nondeterministic_input_shape(self):
        result = run_program(sqrt_program(25), prog_base=1000, ap_initial=2000)
        nd = result.nondeterministic
        assert nd.pc_initial == 1000
        assert nd.pc_final == 1003
        assert nd.ap_initial == 2000
        assert nd.steps == result.steps
        # the public partial memory is exactly the loaded bytecode
        assert nd.partial_memory == {1000 + i: w for i, w in enumerate(sqrt_program(25).bytecode)}


def _every_opcode_program() -> CairoProgram:
    """One straight run through all eight opcodes (ap = A, fp = A at entry).

    [A] = 7, then [A+1] = [A] binds the destination from the operand and
    [A+1] = [A+2] binds the operand from the destination; add and mul fill
    [A+3] and [A+4]; ap advances by 5; a jump skips a dead word pair; a call
    runs a callee that writes [fp] = 11 and returns to prog_end.
    """
    base = 300
    bytecode = (
        encode_instruction(OP_ASSERT_EQ_IMM, dst_off=0),                      # 0
        7,
        encode_instruction(OP_ASSERT_EQ, dst_off=1, a_off=0),                 # 2
        encode_instruction(OP_ASSERT_EQ, dst_off=1, a_off=2),                 # 3
        encode_instruction(OP_ASSERT_ADD, dst_off=3, a_off=0, b_off=1),       # 4
        encode_instruction(OP_ASSERT_MUL, dst_off=4, a_off=2, b_off=3, b_base=REG_FP),  # 5
        encode_instruction(OP_ADVANCE_AP),                                    # 6
        5,
        encode_instruction(OP_JMP),                                           # 8
        base + 12,
        encode_instruction(OP_ASSERT_EQ_IMM, dst_off=0),                      # 10: skipped
        99,
        encode_instruction(OP_CALL),                                          # 12
        base + 15,
        0,                                                                    # 14: prog_end
        encode_instruction(OP_ASSERT_EQ_IMM, dst_off=0, dst_base=REG_FP, ap_inc=True),  # 15
        11,
        encode_instruction(OP_RET),                                           # 17
    )
    return CairoProgram(bytecode=bytecode, prog_start=0, prog_end=14)


class TestRunnerCheckerParity:
    """Every transition the runner emits is one the checker accepts, and only it."""

    def _runs(self):
        every = run_program(_every_opcode_program(), prog_base=300, ap_initial=500)
        sqrt = run_program(sqrt_program(25), prog_base=1000, ap_initial=2000)
        deduce = run_program(
            CairoProgram(
                bytecode=(
                    encode_instruction(OP_ASSERT_EQ_IMM, dst_off=0),
                    6,
                    encode_instruction(OP_ASSERT_EQ_IMM, dst_off=1),
                    42,
                    encode_instruction(OP_ASSERT_MUL, dst_off=1, a_off=0, b_off=2),
                    encode_instruction(OP_ASSERT_ADD, dst_off=1, a_off=3, b_off=2, ap_inc=True),
                ),
                prog_start=0,
                prog_end=6,
            ),
            prog_base=0,
            ap_initial=500,
        )
        return every, sqrt, deduce

    def test_runs_execute_every_opcode(self):
        opcodes = {
            decode_instruction(result.memory[s.pc]).opcode
            for result in self._runs()
            for s in result.states[:-1]
        }
        assert opcodes == set(range(8))
        every = self._runs()[0]
        # both ASSERT_EQ deduction directions bound their cell, the jump
        # skipped 99, and ret restored fp
        assert [every.memory[500 + i] for i in range(5)] == [7, 7, 7, 14, 98]
        assert every.memory[507] == 11
        assert every.states[-1] == CairoState(pc=314, ap=508, fp=500)

    def test_checker_accepts_every_transition_and_rejects_bumped_registers(self):
        for result in self._runs():
            assert deterministic_accept(result.steps, result.memory, result.states)
            for s, s_next in zip(result.states, result.states[1:]):
                assert deterministic_accept(1, result.memory, [s, s_next], P)
                for bumped in (
                    CairoState(pc=s_next.pc + 1, ap=s_next.ap, fp=s_next.fp),
                    CairoState(pc=s_next.pc, ap=s_next.ap + 1, fp=s_next.fp),
                    CairoState(pc=s_next.pc, ap=s_next.ap, fp=s_next.fp + 1),
                ):
                    assert not deterministic_accept(1, result.memory, [s, bumped], P)


class TestMutationResistance:
    def test_single_cell_and_register_mutations_rejected(self):
        result = run_program(sqrt_program(25), prog_base=1000, ap_initial=2000)
        rng = random.Random(31)
        # cells the trace actually touches, excluding bytecode (mutating a
        # value cell must break some assertion)
        value_cells = [2000, 2001]
        rejected = 0
        trials = 100
        for _ in range(trials):
            if rng.random() < 0.5:
                mem = result.memory.copy()
                addr = rng.choice(value_cells)
                mem._cells[addr] = (mem[addr] + rng.randrange(1, P)) % P
                ok = deterministic_accept(result.steps, mem, result.states)
            else:
                states = list(result.states)
                idx = rng.randrange(1, len(states))
                s = states[idx]
                which = rng.randrange(3)
                bump = rng.randrange(1, P)
                states[idx] = CairoState(
                    pc=(s.pc + bump) % P if which == 0 else s.pc,
                    ap=(s.ap + bump) % P if which == 1 else s.ap,
                    fp=(s.fp + bump) % P if which == 2 else s.fp,
                )
                try:
                    ok = deterministic_accept(result.steps, result.memory, states)
                except InvalidAccess:
                    ok = False
            if not ok:
                rejected += 1
        assert rejected == trials
