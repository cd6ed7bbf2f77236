"""A Cairo-style machine: field registers, write-once memory, hint-driven runner.

One interpreter, ``step``, decodes and executes each instruction; its
assertions bind or check cells through whatever memory it is given. The runner
runs it over a write-once memory that deduces the one cell an assertion
determines, with hints filling cells no deduction can reach; it produces the
full state sequence and the public partial memory. The deterministic checker
runs the same ``step`` over a given, complete memory function, where every
cell is known and an assertion only compares: it accepts a state sequence iff
each transition is the one ``step`` computes.

The instruction set is an algebraic RISC: equality assertions over field
values (immediate, copy, add, mul), jumps, call/ret through fp, and an
ap-advance. There is no order comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Mapping

from ..algebra import DEFAULT_PRIME
from . import INSTRUCTION_BITS


class InvalidAccess(KeyError):
    """Instruction touches memory the given function does not define."""


class MemoryContradiction(ValueError):
    """Write-once memory was asked to rebind a cell to a different value."""


class InsufficientHints(RuntimeError):
    """Execution cannot deduce a cell value and no hint fills it."""


# instruction word layout (little end up): opcode 4 bits, ap-increment flag,
# three base-register selectors, then three 16-bit offsets biased by 2^15
OP_ASSERT_EQ = 0
OP_ASSERT_EQ_IMM = 1
OP_ASSERT_ADD = 2
OP_ASSERT_MUL = 3
OP_JMP = 4
OP_CALL = 5
OP_RET = 6
OP_ADVANCE_AP = 7

_OFF_BIAS = 1 << 15
MAX_STEPS = 100_000  # run_program fails a run that has not ended by then
_HAS_IMMEDIATE = {OP_ASSERT_EQ_IMM, OP_JMP, OP_CALL, OP_ADVANCE_AP}

REG_AP = 0
REG_FP = 1


def encode_instruction(
    opcode: int,
    dst_off: int = 0,
    dst_base: int = REG_AP,
    a_off: int = 0,
    a_base: int = REG_AP,
    b_off: int = 0,
    b_base: int = REG_AP,
    ap_inc: bool = False,
) -> int:
    for off in (dst_off, a_off, b_off):
        if not -_OFF_BIAS <= off < _OFF_BIAS:
            raise ValueError(f"offset {off} outside 16-bit biased range")
    return (
        opcode
        | (int(ap_inc) << 4)
        | (dst_base << 5)
        | (a_base << 6)
        | (b_base << 7)
        | ((dst_off + _OFF_BIAS) << 8)
        | ((a_off + _OFF_BIAS) << 24)
        | ((b_off + _OFF_BIAS) << 40)
    )


@dataclass(frozen=True)
class DecodedInstruction:
    """The fields of one Cairo instruction word."""

    opcode: int
    ap_inc: bool
    dst_base: int
    a_base: int
    b_base: int
    dst_off: int
    a_off: int
    b_off: int

    @property
    def size(self) -> int:
        return 2 if self.opcode in _HAS_IMMEDIATE else 1


def decode_instruction(word: int) -> DecodedInstruction:
    opcode = word & 0xF
    if opcode > OP_ADVANCE_AP or word >> INSTRUCTION_BITS:
        raise ValueError(f"not an instruction word: {word}")
    return DecodedInstruction(
        opcode=opcode,
        ap_inc=bool(word >> 4 & 1),
        dst_base=word >> 5 & 1,
        a_base=word >> 6 & 1,
        b_base=word >> 7 & 1,
        dst_off=(word >> 8 & 0xFFFF) - _OFF_BIAS,
        a_off=(word >> 24 & 0xFFFF) - _OFF_BIAS,
        b_off=(word >> 40 & 0xFFFF) - _OFF_BIAS,
    )


@dataclass(frozen=True)
class CairoState:
    """The Cairo registers: program counter, allocation pointer, frame pointer."""

    pc: int
    ap: int
    fp: int


class PartialMemory:
    """Write-once mapping from field addresses to field values."""

    def __init__(self, prime: int = DEFAULT_PRIME, initial: Mapping[int, int] | None = None):
        self.prime = prime
        self._cells: dict[int, int] = {}
        for addr, value in (initial or {}).items():
            self[addr] = value

    def __contains__(self, addr: int) -> bool:
        return addr % self.prime in self._cells

    def __getitem__(self, addr: int) -> int:
        addr %= self.prime
        if addr not in self._cells:
            raise InvalidAccess(addr)
        return self._cells[addr]

    def __setitem__(self, addr: int, value: int) -> None:
        addr %= self.prime
        value %= self.prime
        existing = self._cells.get(addr)
        if existing is not None and existing != value:
            raise MemoryContradiction(
                f"cell {addr} already holds {existing}, cannot rebind to {value}"
            )
        self._cells[addr] = value

    def items(self):
        return self._cells.items()

    def __len__(self) -> int:
        return len(self._cells)

    def copy(self) -> "PartialMemory":
        return PartialMemory(self.prime, dict(self._cells))


def _instruction_addresses(state: CairoState, decoded: DecodedInstruction, prime: int):
    base = (state.ap, state.fp)
    dst = (base[decoded.dst_base] + decoded.dst_off) % prime
    a = (base[decoded.a_base] + decoded.a_off) % prime
    b = (base[decoded.b_base] + decoded.b_off) % prime
    return dst, a, b


def step(state: CairoState, memory, prime: int = DEFAULT_PRIME) -> CairoState:
    """Execute the instruction at ``state.pc`` and return the next state.

    Each assertion binds the one cell it determines, or checks a cell that is
    already bound, through ``memory[addr] = value``; ``addr in memory`` says
    which cells count as known. Raises ValueError on an undecodable word,
    MemoryContradiction on a failed assertion, InvalidAccess on a read of an
    undefined cell and InsufficientHints when nothing determines a cell.
    """
    ins = decode_instruction(memory[state.pc])
    dst, a, b = _instruction_addresses(state, ins, prime)
    imm = (state.pc + 1) % prime
    pc_next = (state.pc + ins.size) % prime
    ap_next = (state.ap + (1 if ins.ap_inc else 0)) % prime
    fp_next = state.fp
    if ins.opcode == OP_ASSERT_EQ:
        if a in memory:
            memory[dst] = memory[a]
        elif dst in memory:
            memory[a] = memory[dst]
        else:
            raise InsufficientHints(f"neither side of [{dst}] = [{a}] is known")
    elif ins.opcode == OP_ASSERT_EQ_IMM:
        memory[dst] = memory[imm]
    elif ins.opcode in (OP_ASSERT_ADD, OP_ASSERT_MUL):
        _solve_binary_op(memory, ins.opcode, dst, a, b, prime)
    elif ins.opcode == OP_JMP:
        pc_next = memory[imm]
    elif ins.opcode == OP_CALL:
        memory[state.ap] = state.fp
        memory[(state.ap + 1) % prime] = (state.pc + 2) % prime
        pc_next = memory[imm]
        ap_next = (state.ap + 2) % prime
        fp_next = ap_next
    elif ins.opcode == OP_RET:
        pc_next = memory[(state.fp - 1) % prime]
        fp_next = memory[(state.fp - 2) % prime]
        ap_next = state.ap
    elif ins.opcode == OP_ADVANCE_AP:
        ap_next = (state.ap + memory[imm]) % prime
    return CairoState(pc=pc_next, ap=ap_next, fp=fp_next)


class _GivenMemory:
    """A full memory function seen by the checker: every cell counts as known.

    Nothing is deduced. The cells are read into a ``PartialMemory`` once, so
    a plain dict's addresses and values are reduced mod ``prime`` by the same
    rule, and two keys equal mod ``prime`` that hold different values raise
    MemoryContradiction here. Reading a cell the function does not define
    raises InvalidAccess; an assignment compares the given value and raises
    MemoryContradiction when they differ.
    """

    def __init__(self, cells, prime: int):
        if not (isinstance(cells, PartialMemory) and cells.prime == prime):
            cells = PartialMemory(prime, cells)
        self._cells = cells

    def __contains__(self, addr: int) -> bool:
        return True

    def __getitem__(self, addr: int) -> int:
        return self._cells[addr]

    def __setitem__(self, addr: int, value: int) -> None:
        given = self[addr]
        if given != value % self._cells.prime:
            raise MemoryContradiction(f"cell {addr} holds {given}, not {value}")


def _follows(state: CairoState, next_state: CairoState, memory: _GivenMemory, prime: int) -> bool:
    try:
        return step(state, memory, prime) == next_state
    except ValueError:  # an undecodable word or a failed assertion
        return False


def deterministic_accept(
    steps: int,
    memory,
    states: list[CairoState],
    prime: int = DEFAULT_PRIME,
) -> bool:
    """Accept iff the T+1 states chain through valid transitions.

    The memory is read into one checker view for the whole trace.
    """
    if len(states) != steps + 1:
        return False
    try:
        given = _GivenMemory(memory, prime)
    except MemoryContradiction:
        return False
    for i in range(steps):
        try:
            if not _follows(states[i], states[i + 1], given, prime):
                return False
        except InvalidAccess:
            return False
    return True


# --- programs and the runner ---------------------------------------------------

Hint = Callable[[PartialMemory, CairoState], None]


@dataclass(frozen=True)
class CairoProgram:
    """Bytecode with entry indices and prover-only hints keyed by pc offset.

    Hints run before the instruction at their offset executes; they exist
    only in the runner, never in anything a verifier sees.
    """

    bytecode: tuple[int, ...]
    prog_start: int
    prog_end: int
    hints: Mapping[int, Hint] = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if not (0 <= self.prog_start <= len(self.bytecode)):
            raise ValueError("prog_start outside bytecode")
        if not (0 <= self.prog_end <= len(self.bytecode)):
            raise ValueError("prog_end outside bytecode")


@dataclass(frozen=True)
class NondeterministicInput:
    """What the prover supplies for a run: its step count, memory and boundary registers."""

    steps: int
    partial_memory: dict[int, int]
    pc_initial: int
    pc_final: int
    ap_initial: int
    ap_final: int


@dataclass(frozen=True)
class RunResult:
    """A finished Cairo run: its memory, every state, and the prover's input for it."""

    steps: int
    memory: PartialMemory
    states: list[CairoState]
    nondeterministic: NondeterministicInput
    prime: int = DEFAULT_PRIME


def run_program(
    program: CairoProgram,
    prog_base: int,
    ap_initial: int,
    prime: int = DEFAULT_PRIME,
) -> RunResult:
    """Execute bytecode loaded at ``prog_base``, filling memory as it goes.

    Deductions handle the determinate cases (unknown destination, or one
    unknown operand of an addition, or a solvable multiplication operand); a
    cell only a guess can fill must be written by the hint at that pc offset
    or the run fails with InsufficientHints. Conflicting writes fail with
    MemoryContradiction.
    """
    memory = PartialMemory(prime)
    for i, word in enumerate(program.bytecode):
        memory[prog_base + i] = word

    pc_initial = (prog_base + program.prog_start) % prime
    pc_final = (prog_base + program.prog_end) % prime
    state = CairoState(pc=pc_initial, ap=ap_initial, fp=ap_initial)
    states = [state]

    for _ in range(MAX_STEPS):
        if state.pc == pc_final:
            break
        hint = program.hints.get((state.pc - prog_base) % prime)
        if hint is not None:
            hint(memory, state)
        state = step(state, memory, prime)  # InvalidAccess if it ran off its code
        states.append(state)
    else:
        raise RuntimeError(f"program did not reach prog_end within {MAX_STEPS} steps")

    steps = len(states) - 1
    public_memory = {prog_base + i: w for i, w in enumerate(program.bytecode)}
    return RunResult(
        steps=steps,
        memory=memory,
        states=states,
        prime=prime,
        nondeterministic=NondeterministicInput(
            steps=steps,
            partial_memory=public_memory,
            pc_initial=pc_initial,
            pc_final=pc_final,
            ap_initial=ap_initial,
            ap_final=state.ap,
        ),
    )


def _solve_binary_op(
    memory: PartialMemory, opcode: int, dst: int, a: int, b: int, prime: int
) -> None:
    combine = (
        (lambda x, y: (x + y) % prime)
        if opcode == OP_ASSERT_ADD
        else (lambda x, y: x * y % prime)
    )
    k_dst, k_a, k_b = dst in memory, a in memory, b in memory
    if k_a and k_b:
        memory[dst] = combine(memory[a], memory[b])
        return
    if not k_dst:
        raise InsufficientHints(f"cannot deduce [{dst}] from unknown operands")
    if a == b:
        # same-cell operand: x+x or x*x has no linear deduction
        raise InsufficientHints("operand appears on both sides; a hint must guess it")
    if opcode == OP_ASSERT_ADD:
        if k_a:
            memory[b] = (memory[dst] - memory[a]) % prime
        elif k_b:
            memory[a] = (memory[dst] - memory[b]) % prime
        else:
            raise InsufficientHints("two unknown addition operands")
        return
    # multiplication: divide when the known operand is invertible
    if k_a and memory[a] != 0:
        memory[b] = memory[dst] * pow(memory[a], -1, prime) % prime
    elif k_b and memory[b] != 0:
        memory[a] = memory[dst] * pow(memory[b], -1, prime) % prime
    else:
        raise InsufficientHints("cannot invert a zero or unknown multiplication operand")


# --- the square-root example -----------------------------------------------------


def sqrt_program(value: int = 25, with_hint: bool = True, negate_hint: bool = False) -> CairoProgram:
    """[ap] = value; ap++ then [ap-1] = [ap] * [ap]; ap++.

    The square root is nondeterministic: only the hint can fill it, and the
    field negation of the root satisfies the same constraint.
    """
    bytecode = (
        encode_instruction(OP_ASSERT_EQ_IMM, dst_off=0, ap_inc=True),
        value,
        encode_instruction(OP_ASSERT_MUL, dst_off=-1, a_off=0, b_off=0, ap_inc=True),
    )

    def hint(memory: PartialMemory, state: CairoState) -> None:
        import math

        root = int(math.isqrt(memory[(state.ap - 1) % memory.prime]))
        if negate_hint:
            root = (-root) % memory.prime
        memory[state.ap] = root

    return CairoProgram(
        bytecode=bytecode,
        prog_start=0,
        prog_end=len(bytecode),
        hints={2: hint} if with_hint else {},
    )
