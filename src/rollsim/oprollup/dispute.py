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
  current root, with a STORE folding the new root through the proof of the
  leaf that holds the cell.

Memory is Merkleized as Cannon does it: a leaf is 32 bytes, four consecutive
big-endian 64-bit words, so word ``addr`` sits in leaf ``addr // 4`` at byte
``8 * (addr % 4)``. With its 0x00 prefix a leaf blob is 33 bytes, one
Keccak-f permutation. A memory of n >= 4 words has n / 4 leaves, so a full
rebuild costs n / 2 - 1 hashes; one or two words pad one leaf with zeros.
Only LOAD and STORE reach memory, one cell each, so a ``StepProof`` is the
pre-state plus, for those two, the whole leaf holding the cell and that
leaf's proof; a STORE folds the leaf with only its slot replaced, so its
three neighbours stay.

A game reads about log2(n) of a trace's n + 1 state hashes, so a trace hashes
lazily. One cursor ``MemoryTree`` moves to a queried index by replaying the
store log forward or undoing it backward, rehashing each touched leaf and
each node above them once, level by level: each level's blobs go to one
``hashing.prefetch`` call, so inside a run those new to it hash as one packed
batch. The cursor hashes through its tree's digest memo, so a node blob it
has held before costs nothing: moving back over replayed stores, or forward
to memory it has seen, rehashes no node, so a memory root needs no memo of
its own. ``VmTrace.state(i)`` reads state i's memory root off the cursor,
``VmTrace.state_hash(i)`` memoizes its hash per index, and step proofs are
cut from the cursor.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping

from .. import hashing
from ..hashing import DigestMemo, keccak256
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
    """A step proof's leaf, Merkle proof or pre-state does not check out."""


class IllegalInstruction(ValueError):
    """Unknown opcode, or a register operand outside [0, NUM_REGISTERS)."""


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
    """One step-VM instruction: an opcode name and its operands."""

    op: str
    a: int = 0
    b: int = 0
    c: int = 0
    key: bytes = b""  # immediate hash operand for LOADPRE


@dataclass(frozen=True)
class VmState:
    """The VM's program counter, registers and memory root.

    ``hash`` digests them through a ``DigestMemo``, so inside a
    ``hashing.run_memo()`` block ``dispute_step`` reads the digests the
    agents already took of the same states; a tampered state is new bytes,
    hashed for real."""

    pc: int
    registers: tuple[int, ...]
    memory_root: bytes

    def hash(self) -> bytes:
        return DigestMemo()(
            self.pc.to_bytes(8, "big")
            + b"".join(r.to_bytes(8, "big") for r in self.registers)
            + self.memory_root
        )


WORDS_PER_LEAF = 4  # a 32-byte memory leaf holds four words, as in Cannon
LEAF_BYTES = 8 * WORDS_PER_LEAF


def _word_bytes(word: int) -> bytes:
    return word.to_bytes(8, "big")


class MemoryTree(MerkleTree):
    """Memory as a Merkle tree over a power-of-two array of words, four
    words to a 32-byte leaf; fewer than four words pad one leaf with zeros.

    Each level's blobs go to ``hashing.prefetch`` before the level reads
    them through the memo, so inside a ``hashing.run_memo()`` block those
    the run has not seen hash as one packed batch per level."""

    def __init__(self, words: list[int]):
        if not words or len(words) & (len(words) - 1):
            raise ValueError("memory size must be a power of two")
        self.words = list(words)
        leaves = -(-len(words) // WORDS_PER_LEAF)
        super().__init__([self.leaf(index) for index in range(leaves)])

    def leaf(self, index: int) -> bytes:
        """Leaf ``index``: words ``4 * index`` to ``4 * index + 3``, zero past the end."""
        start = index * WORDS_PER_LEAF
        chunk = b"".join(map(_word_bytes, self.words[start:start + WORDS_PER_LEAF]))
        return chunk.ljust(LEAF_BYTES, b"\x00")

    def update(self, words: Mapping[int, int]) -> None:
        """Write each ``addr: word`` of ``words``; rehash each touched leaf
        and each node above them once."""
        for addr, word in words.items():
            self.words[addr] = word
        touched = {addr // WORDS_PER_LEAF for addr in words}
        super().update({index: self.leaf(index) for index in touched})

    def _hash_level(self, level: list[bytes], blobs: Mapping[int, bytes]) -> None:
        hashing.prefetch(blobs.values())
        super()._hash_level(level, blobs)


@dataclass(frozen=True)
class StepProof:
    """The pre-state of one instruction and, for a LOAD or STORE, the 32-byte
    ``leaf`` holding the cell it touches and that leaf's ``proof``; both are
    ``None`` for any other instruction."""

    pre_state: VmState
    leaf: bytes | None
    proof: MerkleProof | None


class _WitnessedMemory:
    """The one cell a step proof proves against ``root``, through the leaf
    that holds it; a STORE folds the new root."""

    def __init__(self, step_proof: StepProof):
        self.step_proof = step_proof
        self.root = step_proof.pre_state.memory_root

    def _proven(self, addr: int) -> tuple[bytes, MerkleProof]:
        leaf, proof = self.step_proof.leaf, self.step_proof.proof
        if not isinstance(leaf, bytes) or len(leaf) != LEAF_BYTES:
            raise BadStepProof(f"no {LEAF_BYTES}-byte leaf for memory cell {addr}")
        if not (isinstance(proof, MerkleProof) and proof.leaf_index == addr // WORDS_PER_LEAF
                and verify_inclusion(self.root, leaf, proof)):
            raise BadStepProof(f"no proof of memory cell {addr} against the memory root")
        return leaf, proof

    def load(self, addr: int) -> int:
        slot = 8 * (addr % WORDS_PER_LEAF)
        return int.from_bytes(self._proven(addr)[0][slot:slot + 8], "big")

    def update(self, addr: int, word: int) -> None:
        leaf, proof = self._proven(addr)
        slot = 8 * (addr % WORDS_PER_LEAF)
        self.root = fold_proof(leaf[:slot] + _word_bytes(word) + leaf[slot + 8:], proof)


# the operand fields each opcode reads as register numbers; JUMPZ's b is a pc
_REGISTER_OPERANDS = {
    OP_ADD: ("a", "b", "c"),
    OP_MUL: ("a", "b", "c"),
    OP_LOAD: ("a", "c"),
    OP_STORE: ("a", "b"),
    OP_JUMPZ: ("a",),
    OP_LOADPRE: ("c",),
    OP_HALT: (),
}


def _check_operands(instr: Instruction) -> None:
    """Refuse an unknown opcode or a register operand outside [0, NUM_REGISTERS)."""
    fields = _REGISTER_OPERANDS.get(instr.op)
    if fields is None:
        raise IllegalInstruction(instr.op)
    for field in fields:
        register = getattr(instr, field)
        if not (isinstance(register, int) and 0 <= register < NUM_REGISTERS):
            raise IllegalInstruction(f"{instr.op} register operand {field}={register!r}")


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
    An unknown opcode or a register operand outside [0, NUM_REGISTERS)
    raises ``IllegalInstruction`` before anything is changed.
    """
    _check_operands(instr)
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
    return pc + 1


def vm_step(
    step_proof: StepProof,
    instruction: Instruction,
    oracle: PreimageOracle | None = None,
    memory_size: int = 64,
) -> VmState:
    """Execute a single instruction on ``step_proof.pre_state``.

    A LOAD or STORE reads its cell from the proof's leaf, which must be
    proven into ``pre_state.memory_root``; a STORE's new root is derived by
    folding the updated leaf through the same proof. A missing or malformed
    leaf or proof raises ``BadStepProof``.
    """
    pre = step_proof.pre_state
    memory = _WitnessedMemory(step_proof)
    regs = list(pre.registers)
    pc = execute(instruction, pre.pc, regs, memory, oracle, memory_size)
    return VmState(pc=pc, registers=tuple(regs), memory_root=memory.root)


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
        words = [0] * memory_size if initial_memory is None else list(initial_memory)
        if len(words) != memory_size:
            raise ValueError(
                f"initial_memory has {len(words)} words, memory_size is {memory_size}"
            )
        registers = (0,) * NUM_REGISTERS if initial_registers is None else tuple(initial_registers)
        if len(registers) != NUM_REGISTERS:
            raise ValueError(
                f"initial_registers has {len(registers)} registers, not {NUM_REGISTERS}"
            )
        for name, values in (("register", registers), ("memory word", words)):
            for index, value in enumerate(values):
                if not (isinstance(value, int) and 0 <= value <= WORD_MASK):
                    raise ValueError(f"{name} {index} is {value!r}, not in [0, 2^64)")
        self.trace = VmTrace(self.program, memory_size, registers, words)

    @property
    def state(self) -> VmState:
        """The state after the last executed instruction."""
        return self.trace.state(self.trace.length)

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


class VmTrace:
    """An execution recorded raw: the pc and registers of every state, and a
    log of every store as ``(step, addr, old, new)``.

    State ``i`` is the state before instruction ``i``, for ``0 <= i <=
    length``; ``state`` and ``state_hash`` hash only what they read. While the
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
        self._hashes: dict[int, bytes] = {}

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

    def state(self, index: int) -> VmState:
        """State ``index``; ``IndexError`` outside ``[0, length]``."""
        if not 0 <= index <= self.length:
            raise IndexError(f"trace index {index} out of range")
        return VmState(pc=self.pcs[index], registers=self.registers[index],
                       memory_root=self._memory_at(index).root)

    def state_hash(self, index: int) -> bytes:
        """The hash of ``state(index)``, memoized per index."""
        digest = self._hashes.get(index)
        if digest is None:
            digest = self._hashes[index] = self.state(index).hash()
        return digest

    def step_proof(self, index: int) -> StepProof:
        """Pre-state for instruction ``index``, with the leaf and proof of
        the cell it touches if it is a LOAD or STORE; refuses what ``execute`` does."""
        pre = self.state(index)
        instr = fetch(self.program, pre.pc)
        _check_operands(instr)
        if instr.op not in (OP_LOAD, OP_STORE):
            return StepProof(pre, None, None)
        leaf = pre.registers[instr.a] % self.memory_size // WORDS_PER_LEAF
        memory = self._memory_at(index)
        return StepProof(pre, memory.leaf(leaf), memory.prove(leaf))


# --- the game -----------------------------------------------------------------


@dataclass(frozen=True)
class GameParams:
    """What both parties of a dispute run: the program, the memory size and the preimage oracle."""

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
    """A bisection game over the step range [lo, hi], from its opening to a winner."""

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
        step_proof,
        fetch(game.params.program, pre.pc),
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
        return self.trace.state_hash(index)

    def step_proof(self, index: int) -> StepProof:
        return self.trace.step_proof(index)


class FaultyAgent(HonestAgent):
    """Claims the honest trace up to ``fault_index``, then a corrupted one.

    The corruption adds one to register 3 and recomputes hashes, so the first
    (and only) invalid transition in the claimed trace is fault_index-1 ->
    fault_index: exactly the instruction the bisection must find. Its step
    proofs are the honest ones.
    """

    def __init__(self, trace: VmTrace, fault_index: int):
        super().__init__(trace)
        self.fault_index = fault_index

    def corrupted_state(self, index: int) -> VmState:
        honest = self.trace.state(index)
        regs = list(honest.registers)
        regs[3] = (regs[3] + 1) & WORD_MASK
        return VmState(pc=honest.pc, registers=tuple(regs), memory_root=honest.memory_root)

    def state_hash(self, index: int) -> bytes:
        # asks the trace, not super(), so HonestAgent.state_hash runs for honest queries only
        if index < self.fault_index:
            return self.trace.state_hash(index)
        return self.corrupted_state(index).hash()


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
    ``fault``, the challenger an ``HonestAgent``. The game runs in a
    ``hashing.run_memo()`` block of its own, inside a scenario run or not:
    the memory tree's prefetched levels wait there for the reads that ask
    for them, so its packed batches run wherever the game is played, and
    ``dispute_step`` reads the two state digests the agents already took.
    """
    program = list(FIXTURE_PROGRAM)
    with hashing.run_memo():
        trace = VmRunner(program, initial_registers=registers).run_trace(steps)
        faulty = FaultyAgent(trace, fault)
        game = dispute_open(
            GameParams(program=program),
            challenger=challenger,
            defender=defender,
            claimed_final_state=faulty.state_hash(steps),
            trace_length=steps,
            agreed_start_hash=trace.state_hash(0),
        )
        run_dispute(game, defender_agent=faulty, challenger_agent=HonestAgent(trace))
    return game
