"""The bisection dispute game over a Merkleized step-VM.

A challenged output root is resolved by interactively halving the execution
trace until the parties disagree on a single instruction, then executing that
one instruction "on-chain" against memory cells proven into the pre-state
memory root. The VM is a small register machine standing in for a MIPS
minigeth: 8 registers, word-addressed power-of-two memory, and a LOADPRE
opcode backed by the preimage oracle.

The game is sound only if every party applies the same ISA, so there is one
interpreter, ``execute``. It reaches memory only through ``load(addr)`` and
``update(addr, word)``, and runs in two places:

* off-chain (``VmRunner.step``): over the raw words at the head of a
  ``VmTrace``, which logs each store and hashes nothing;
* on-chain (``vm_step``): over witnessed cells, each checked against the
  current root, with a STORE folding the new root through the cell's proof.

A game reads about log2(n) of a trace's n + 1 state hashes, so a trace hashes
lazily. One cursor ``MemoryTree`` moves to a queried index by replaying the
store log forward or undoing it backward, rehashing the moved cells in one
batched pass. The cursor hashes through its tree's digest memo, so a node
blob it has held before costs nothing: moving back over replayed stores, or
forward to memory it has seen, rehashes no node. Memory roots and state
hashes are memoized per index, and step proofs are cut from the cursor.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Mapping

from ..hashing import keccak256
from ..merkle import MerkleProof, MerkleTree, fold_proof, verify_inclusion

WORD_MASK = (1 << 64) - 1
NUM_REGISTERS = 8

OP_ADD = "ADD"
OP_MUL = "MUL"
OP_LOAD = "LOAD"
OP_STORE = "STORE"
OP_JUMPZ = "JUMPZ"
OP_LOADPRE = "LOADPRE"
OP_HALT = "HALT"


class PreimageUnavailable(KeyError):
    """No preimage registered under this hash."""


class BadStepProof(ValueError):
    """Memory witness or pre-state does not check out against the root."""


class IllegalInstruction(ValueError):
    """Unknown opcode."""


class NotYourTurn(PermissionError):
    """Move submitted out of turn."""


class PreimageOracle:
    """Keyed store of hash preimages, populated by full nodes.

    Registration recomputes the hash, so an adversary cannot bind bytes to a
    key they do not hash to.
    """

    def __init__(self):
        self._store: dict[bytes, bytes] = {}

    def register(self, data: bytes) -> bytes:
        key = keccak256(data)
        self._store[key] = bytes(data)
        return key

    def register_with_key(self, key: bytes, data: bytes) -> None:
        if keccak256(data) != key:
            raise ValueError("preimage does not hash to the claimed key")
        self._store[key] = bytes(data)

    def get(self, key: bytes) -> bytes:
        if key not in self._store:
            raise PreimageUnavailable(key.hex())
        return self._store[key]


# --- VM ----------------------------------------------------------------------


@dataclass(frozen=True)
class Instruction:
    op: str
    a: int = 0
    b: int = 0
    c: int = 0
    key: bytes = b""  # immediate hash operand for LOADPRE


@dataclass(frozen=True)
class VmState:
    pc: int
    registers: tuple[int, ...]
    memory_root: bytes

    def hash(self) -> bytes:
        return keccak256(
            self.pc.to_bytes(8, "big")
            + b"".join(r.to_bytes(8, "big") for r in self.registers)
            + self.memory_root
        )


def _word_bytes(word: int) -> bytes:
    return word.to_bytes(8, "big")


class MemoryTree(MerkleTree):
    """Memory as a Merkle tree over a power-of-two array of words."""

    def __init__(self, words: list[int]):
        if not words or len(words) & (len(words) - 1):
            raise ValueError("memory size must be a power of two")
        super().__init__([_word_bytes(w) for w in words])
        self.words = list(words)

    def update(self, words: Mapping[int, int]) -> None:
        """Write each ``addr: word`` of ``words``; rehash each node above them once."""
        super().update({addr: _word_bytes(word) for addr, word in words.items()})
        for addr, word in words.items():
            self.words[addr] = word


MemoryWitness = dict[int, tuple[int, MerkleProof]]


class _WitnessedMemory:
    """Cells proven against ``root``; a STORE folds the new root."""

    def __init__(self, witness: MemoryWitness, root: bytes):
        self.witness = witness
        self.root = root

    def _proven(self, addr: int) -> tuple[int, MerkleProof]:
        if addr not in self.witness:
            raise BadStepProof(f"no witness for memory cell {addr}")
        value, proof = self.witness[addr]
        if proof.leaf_index != addr or not verify_inclusion(
            self.root, _word_bytes(value), proof
        ):
            raise BadStepProof(f"witness for cell {addr} fails against the memory root")
        return value, proof

    def load(self, addr: int) -> int:
        return self._proven(addr)[0]

    def update(self, addr: int, word: int) -> None:
        _, proof = self._proven(addr)
        self.root = fold_proof(_word_bytes(word), proof)


def fetch(program: list[Instruction], pc: int) -> Instruction:
    """The instruction at ``pc``; an off-program pc is HALT."""
    if 0 <= pc < len(program):
        return program[pc]
    return Instruction(OP_HALT)


def execute(
    instr: Instruction,
    pc: int,
    regs: list[int],
    memory,
    oracle: PreimageOracle | None,
    memory_size: int,
) -> int:
    """Apply ``instr`` to ``regs`` (in place) and ``memory``; return the next pc.

    ``memory`` is any object with ``load(addr)`` and ``update(addr, word)``.
    """
    op = instr.op
    if op == OP_ADD:
        regs[instr.c] = (regs[instr.a] + regs[instr.b]) & WORD_MASK
    elif op == OP_MUL:
        regs[instr.c] = (regs[instr.a] * regs[instr.b]) & WORD_MASK
    elif op == OP_LOAD:
        regs[instr.c] = memory.load(regs[instr.a] % memory_size)
    elif op == OP_STORE:
        memory.update(regs[instr.a] % memory_size, regs[instr.b])
    elif op == OP_JUMPZ:
        if regs[instr.a] == 0:
            return instr.b
    elif op == OP_LOADPRE:
        if oracle is None:
            raise BadStepProof("LOADPRE requires the preimage oracle")
        preimage = oracle.get(instr.key)
        regs[instr.c] = int.from_bytes(preimage[:8].ljust(8, b"\x00"), "big")
    elif op == OP_HALT:
        return pc
    else:
        raise IllegalInstruction(op)
    return pc + 1


def vm_step(
    pre: VmState,
    instruction: Instruction,
    memory_witness: MemoryWitness | None = None,
    oracle: PreimageOracle | None = None,
    memory_size: int = 64,
) -> VmState:
    """Execute a single instruction against proven memory cells.

    Every cell the instruction reads or writes must come with an inclusion
    proof against ``pre.memory_root``; a store's new root is derived by
    folding the updated leaf through the same path.
    """
    memory = _WitnessedMemory(memory_witness or {}, pre.memory_root)
    regs = list(pre.registers)
    pc = execute(instruction, pre.pc, regs, memory, oracle, memory_size)
    return VmState(pc=pc, registers=tuple(regs), memory_root=memory.root)


@dataclass(frozen=True)
class StepProof:
    pre_state: VmState
    memory_witness: MemoryWitness


class VmRunner:
    """Off-chain executor: runs the program directly, recording its ``trace``."""

    def __init__(
        self,
        program: list[Instruction],
        memory_size: int = 64,
        oracle: PreimageOracle | None = None,
        initial_registers: tuple[int, ...] | None = None,
        initial_memory: list[int] | None = None,
    ):
        self.program = list(program)
        self.memory_size = memory_size
        self.oracle = oracle
        words = list(initial_memory) if initial_memory else [0] * memory_size
        if len(words) != memory_size:
            raise ValueError(
                f"initial_memory has {len(words)} words, memory_size is {memory_size}"
            )
        registers = tuple(initial_registers or (0,) * NUM_REGISTERS)
        self.trace = VmTrace(self.program, memory_size, registers, words)

    @property
    def state(self) -> VmState:
        """The state after the last executed instruction."""
        return self.trace.states[-1]

    def step_witness(self) -> MemoryWitness:
        """Inclusion proofs for the cells the next instruction touches."""
        return self.trace.step_proof(self.trace.length).memory_witness

    def step(self) -> None:
        """Execute the next instruction and record it raw; nothing is hashed."""
        trace = self.trace
        pc, regs = trace.pcs[-1], list(trace.registers[-1])
        pc = execute(fetch(self.program, pc), pc, regs, trace, self.oracle, self.memory_size)
        trace.pcs.append(pc)
        trace.registers.append(tuple(regs))

    def run_trace(self, steps: int) -> "VmTrace":
        """Execute ``steps`` more instructions; return the trace of the whole run."""
        for _ in range(steps):
            self.step()
        return self.trace


class _PerIndex(Sequence):
    """A read-only view of one value per trace index, computed when read."""

    def __init__(self, trace: "VmTrace", value: Callable[[int], object]):
        self._trace = trace
        self._value = value

    def __len__(self) -> int:
        return len(self._trace.pcs)

    def __getitem__(self, index: int):
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"trace index {index} out of range")
        return self._value(index)


class VmTrace:
    """An execution recorded raw: the pc and registers of every state, and a
    log of every store as ``(step, addr, old, new)``.

    State ``i`` is the state before instruction ``i``. ``states`` and
    ``hashes`` are per-index views that hash only what is read. While the
    runner records, the trace is also the memory ``execute`` writes: its head
    words, after the last recorded instruction.
    """

    def __init__(
        self,
        program: list[Instruction],
        memory_size: int,
        initial_registers: tuple[int, ...],
        initial_memory: list[int],
    ):
        self.program = program
        self.memory_size = memory_size
        self.pcs = [0]
        self.registers = [initial_registers]
        self.stores: list[tuple[int, int, int, int]] = []
        self._head = list(initial_memory)
        # the cursor holds memory with the first _cursor_stores stores applied
        self._cursor = MemoryTree(list(initial_memory))
        self._cursor_stores = 0
        self._roots: dict[int, bytes] = {}
        self._hashes: dict[int, bytes] = {}
        self.states = _PerIndex(self, self._state)
        self.hashes = _PerIndex(self, self._state_hash)

    @property
    def length(self) -> int:
        return len(self.pcs) - 1

    # -- the head memory, as execute reaches it while recording

    def load(self, addr: int) -> int:
        return self._head[addr]

    def update(self, addr: int, word: int) -> None:
        self.stores.append((self.length, addr, self._head[addr], word))
        self._head[addr] = word

    # -- lazy hashing

    def _memory_at(self, index: int) -> MemoryTree:
        """The cursor, moved to the memory of state ``index``."""
        target = bisect_left(self.stores, index, key=lambda store: store[0])
        here = self._cursor_stores
        if target >= here:
            moved = {addr: new for _, addr, _, new in self.stores[here:target]}
        else:  # undo latest first, so each cell ends at its earliest old word
            moved = {addr: old for _, addr, old, _ in reversed(self.stores[target:here])}
        self._cursor.update(moved)
        self._cursor_stores = target
        return self._cursor

    def _state(self, index: int) -> VmState:
        root = self._roots.get(index)
        if root is None:
            root = self._roots[index] = self._memory_at(index).root
        return VmState(pc=self.pcs[index], registers=self.registers[index], memory_root=root)

    def _state_hash(self, index: int) -> bytes:
        digest = self._hashes.get(index)
        if digest is None:
            digest = self._hashes[index] = self._state(index).hash()
        return digest

    def step_proof(self, index: int) -> StepProof:
        """Pre-state and memory witness for instruction ``index``."""
        if not 0 <= index <= self.length:
            raise IndexError(f"trace index {index} out of range")
        pre = self._state(index)
        instr = fetch(self.program, pre.pc)
        witness: MemoryWitness = {}
        if instr.op in (OP_LOAD, OP_STORE):
            addr = pre.registers[instr.a] % self.memory_size
            memory = self._memory_at(index)
            witness[addr] = (memory.words[addr], memory.prove(addr))
        return StepProof(pre_state=pre, memory_witness=witness)


# --- the game -----------------------------------------------------------------


@dataclass(frozen=True)
class GameParams:
    program: list[Instruction]
    memory_size: int = 64
    oracle: PreimageOracle | None = None


MOVE_TIMEOUT = 3600  # seconds a party has for each move

PHASE_BISECT = "bisect"
PHASE_STEP = "step"
PHASE_OVER = "over"

DEFENDER = "defender"
CHALLENGER = "challenger"


@dataclass
class DisputeGame:
    params: GameParams
    challenger: int
    defender: int
    lo: int
    hi: int
    agreed_lo_hash: bytes
    defender_hi_claim: bytes
    phase: str = PHASE_BISECT
    turn: str = DEFENDER
    rounds: int = 0
    winner: str | None = None
    deadline: int = 0
    _pending_defender_mid: bytes | None = None

    def midpoint(self) -> int:
        return self.lo + (self.hi - self.lo) // 2

    def party_of(self, address: int) -> str:
        if address == self.defender:
            return DEFENDER
        if address == self.challenger:
            return CHALLENGER
        raise NotYourTurn(f"{address:#x} is not a participant")


def dispute_open(
    params: GameParams,
    challenger: int,
    defender: int,
    claimed_final_state: bytes,
    trace_length: int,
    agreed_start_hash: bytes,
    now: int = 0,
) -> DisputeGame:
    """Open a game over a trace of ``trace_length`` instructions.

    The parties agree on the state before instruction 0 and dispute the
    defender's claimed state after instruction ``trace_length - 1``.
    """
    if trace_length < 1:
        raise ValueError("cannot dispute an empty trace")
    game = DisputeGame(
        params=params,
        challenger=challenger,
        defender=defender,
        lo=0,
        hi=trace_length,
        agreed_lo_hash=agreed_start_hash,
        defender_hi_claim=claimed_final_state,
        deadline=now + MOVE_TIMEOUT,
    )
    if game.hi - game.lo == 1:
        game.phase = PHASE_STEP
        game.turn = CHALLENGER
    return game


def dispute_bisect(
    game: DisputeGame, party: int, midpoint_state_hash: bytes, now: int = 0
) -> DisputeGame:
    """Submit one party's claim for the state hash at the current midpoint.

    The defender moves first. Once both have answered: matching hashes mean
    the first half is agreed (recurse right), differing hashes disagree
    already in the first half (recurse left).
    """
    if game.phase != PHASE_BISECT:
        raise NotYourTurn(f"game is in phase {game.phase}")
    role = game.party_of(party)
    if role != game.turn:
        raise NotYourTurn(f"it is the {game.turn}'s turn")
    mid = game.midpoint()
    if role == DEFENDER:
        game._pending_defender_mid = midpoint_state_hash
        game.turn = CHALLENGER
    else:
        defender_mid = game._pending_defender_mid
        game._pending_defender_mid = None
        game.rounds += 1
        if midpoint_state_hash == defender_mid:
            game.lo = mid
            game.agreed_lo_hash = defender_mid
        else:
            game.hi = mid
            game.defender_hi_claim = defender_mid
        game.turn = DEFENDER
        if game.hi - game.lo == 1:
            game.phase = PHASE_STEP
            game.turn = CHALLENGER
    game.deadline = now + MOVE_TIMEOUT
    return game


def dispute_step(game: DisputeGame, step_proof: StepProof) -> str:
    """Execute the single disputed instruction on-chain and settle the game.

    The pre-state must hash to the agreed state at ``lo``; the defender wins
    iff the computed post-state matches their claim at ``hi``.
    """
    if game.phase != PHASE_STEP:
        raise NotYourTurn(f"game is in phase {game.phase}, not {PHASE_STEP}")
    pre = step_proof.pre_state
    if pre.hash() != game.agreed_lo_hash:
        raise BadStepProof("pre-state does not match the agreed state")
    post = vm_step(
        pre,
        fetch(game.params.program, pre.pc),
        step_proof.memory_witness,
        game.params.oracle,
        game.params.memory_size,
    )
    game.winner = DEFENDER if post.hash() == game.defender_hi_claim else CHALLENGER
    game.phase = PHASE_OVER
    return game.winner


def dispute_timeout(game: DisputeGame, now: int) -> str | None:
    """Award the game to the opponent of whoever let the clock expire."""
    if game.phase == PHASE_OVER:
        return game.winner
    if now < game.deadline:
        return None
    game.winner = CHALLENGER if game.turn == DEFENDER else DEFENDER
    game.phase = PHASE_OVER
    return game.winner


# --- agents and the driver ------------------------------------------------------


class HonestAgent:
    """Answers midpoint queries and produces step proofs from a real trace."""

    def __init__(self, trace: VmTrace):
        self.trace = trace

    def state_hash(self, index: int) -> bytes:
        return self.trace.hashes[index]

    def step_proof(self, index: int) -> StepProof:
        return self.trace.step_proof(index)


class FaultyAgent:
    """Claims the honest trace up to ``fault_index``, then a corrupted one.

    The corruption adds one to register 3 and recomputes hashes, so the first
    (and only) invalid transition in the claimed trace is fault_index-1 ->
    fault_index: exactly the instruction the bisection must find.
    """

    def __init__(self, trace: VmTrace, fault_index: int):
        self.trace = trace
        self.fault_index = fault_index

    def corrupted_state(self, index: int) -> VmState:
        honest = self.trace.states[index]
        regs = list(honest.registers)
        regs[3] = (regs[3] + 1) & WORD_MASK
        return VmState(pc=honest.pc, registers=tuple(regs), memory_root=honest.memory_root)

    def state_hash(self, index: int) -> bytes:
        if index < self.fault_index:
            return self.trace.hashes[index]
        return self.corrupted_state(index).hash()

    def step_proof(self, index: int) -> StepProof:
        return self.trace.step_proof(index)


def run_dispute(game: DisputeGame, defender_agent, challenger_agent) -> str:
    """Drive a game to completion with both parties responding at time 0."""
    while game.phase == PHASE_BISECT:
        mid = game.midpoint()
        dispute_bisect(game, game.defender, defender_agent.state_hash(mid))
        dispute_bisect(game, game.challenger, challenger_agent.state_hash(mid))
    return dispute_step(game, challenger_agent.step_proof(game.lo))


# --- the planted-fault game -----------------------------------------------------

# The execution a planted-fault game disputes: a loop that adds, multiplies,
# stores the product at a moving address and jumps back to 0 (r5 stays 0).
FIXTURE_PROGRAM = (
    Instruction(OP_ADD, 1, 2, 1),
    Instruction(OP_MUL, 1, 2, 3),
    Instruction(OP_STORE, 0, 3),
    Instruction(OP_ADD, 0, 4, 0),
    Instruction(OP_JUMPZ, 5, 0),
)


def play_planted_fault(
    registers: tuple[int, ...], steps: int, fault: int, challenger: int, defender: int
) -> DisputeGame:
    """Record ``steps`` instructions of ``FIXTURE_PROGRAM`` from ``registers``
    and play the game over them; return it settled.

    The defender is a ``FaultyAgent`` whose claimed trace diverges at
    ``fault``, the challenger an ``HonestAgent``.
    """
    program = list(FIXTURE_PROGRAM)
    trace = VmRunner(program, initial_registers=registers).run_trace(steps)
    faulty = FaultyAgent(trace, fault)
    game = dispute_open(
        GameParams(program=program),
        challenger=challenger,
        defender=defender,
        claimed_final_state=faulty.state_hash(steps),
        trace_length=steps,
        agreed_start_hash=trace.hashes[0],
    )
    run_dispute(game, defender_agent=faulty, challenger_agent=HonestAgent(trace))
    return game
