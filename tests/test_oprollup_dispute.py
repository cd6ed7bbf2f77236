import contextlib
import math
import random
from dataclasses import replace

import pytest

from rollsim import hashing
from rollsim.hashing import keccak256
from rollsim.merkle import MerkleProof
from rollsim.oprollup.dispute import (
    BadStepProof,
    CHALLENGER,
    DEFENDER,
    FIXTURE_PROGRAM,
    FaultyAgent,
    GameParams,
    HonestAgent,
    IllegalInstruction,
    Instruction,
    MemoryTree,
    NotYourTurn,
    OP_ADD,
    OP_HALT,
    OP_JUMPZ,
    OP_LOAD,
    OP_LOADPRE,
    OP_STORE,
    PreimageOracle,
    PreimageUnavailable,
    StepProof,
    VmRunner,
    VmState,
    dispute_bisect,
    dispute_open,
    dispute_step,
    dispute_timeout,
    fetch,
    play_planted_fault,
    run_dispute,
    vm_step,
)

from test_hashing import _permuted_slots


def loop_program():
    return list(FIXTURE_PROGRAM)


def make_runner(program=None, **kwargs):
    kwargs.setdefault("memory_size", 64)
    kwargs.setdefault("initial_registers", (0, 1, 3, 0, 1, 0, 0, 0))
    return VmRunner(program or loop_program(), **kwargs)


class TestPreimageOracle:
    def test_round_trip(self):
        oracle = PreimageOracle()
        key = oracle.register(b"block header bytes")
        assert oracle.get(key) == b"block header bytes"
        assert key == keccak256(b"block header bytes")

    def test_unregistered_key(self):
        with pytest.raises(PreimageUnavailable):
            PreimageOracle().get(b"\x00" * 32)

    def test_adversarial_registration_rejected(self):
        oracle = PreimageOracle()
        with pytest.raises(ValueError):
            oracle.register_with_key(b"\x00" * 32, b"does not hash to zero")

    def test_registration_with_correct_key(self):
        oracle = PreimageOracle()
        oracle.register_with_key(keccak256(b"data"), b"data")
        assert oracle.get(keccak256(b"data")) == b"data"


class TestVmStep:
    def test_add(self):
        runner = make_runner([Instruction(OP_ADD, 1, 2, 3)])
        pre = runner.state
        post = vm_step(StepProof(pre, None, None), Instruction(OP_ADD, 1, 2, 3), memory_size=64)
        assert post.registers[3] == pre.registers[1] + pre.registers[2]
        assert post.pc == pre.pc + 1
        assert post.memory_root == pre.memory_root

    def test_store_updates_root(self):
        runner = make_runner([Instruction(OP_STORE, 0, 3)],
                             initial_registers=(5, 0, 0, 42, 0, 0, 0, 0))
        step = runner.trace.step_proof(runner.trace.length)
        post = vm_step(step, Instruction(OP_STORE, 0, 3), memory_size=64)
        # oracle: rebuild the tree with the new word
        words = [0] * 64
        words[5] = 42
        assert post.memory_root == MemoryTree(words).root

    def test_load_requires_witness(self):
        runner = make_runner([Instruction(OP_LOAD, 0, 1)])
        with pytest.raises(BadStepProof):
            vm_step(StepProof(runner.state, None, None), Instruction(OP_LOAD, 0, 1),
                    memory_size=64)

    def test_wrong_witness_rejected(self):
        runner = make_runner([Instruction(OP_LOAD, 0, 1)])
        step = runner.trace.step_proof(runner.trace.length)
        addr = runner.state.registers[0]
        slot = 8 * (addr % 4)
        word = int.from_bytes(step.leaf[slot:slot + 8], "big")
        step = replace(step, leaf=step.leaf[:slot] + (word + 1).to_bytes(8, "big")
                       + step.leaf[slot + 8:])
        with pytest.raises(BadStepProof):
            vm_step(step, Instruction(OP_LOAD, 0, 1), memory_size=64)

    def test_relabelled_witness_rejected(self):
        # leaf 1 (words 4..7) passed off as leaf 0 would make the LOAD of
        # cell 0 read word 4, which is 15
        words = [0] * 64
        words[0], words[4] = 10, 15
        load = Instruction(OP_LOAD, a=0, c=1)  # r1 = memory[r0], with r0 == 0
        runner = make_runner([load], initial_memory=words)
        tree = MemoryTree(words)
        relabelled = MerkleProof(leaf_index=0, siblings=tree.prove(1).siblings)
        for proof in (relabelled, tree.prove(1)):
            with pytest.raises(BadStepProof):
                vm_step(StepProof(runner.state, tree.leaf(1), proof), load, memory_size=64)
        post = vm_step(runner.trace.step_proof(runner.trace.length), load, memory_size=64)
        assert post.registers[1] == 10

    @pytest.mark.parametrize("length", [31, 33])
    def test_leaf_of_wrong_length_rejected(self, length):
        load = Instruction(OP_LOAD, a=0, c=1)
        runner = make_runner([load], initial_registers=(5, 0, 0, 0, 0, 0, 0, 0))
        step = runner.trace.step_proof(runner.trace.length)
        step = replace(step, leaf=step.leaf[:length].ljust(length, b"\x00"))
        with pytest.raises(BadStepProof, match="32-byte leaf"):
            vm_step(step, load, memory_size=64)

    def test_wrong_neighbouring_word_rejected(self):
        # the loaded word is right, but a word beside it in the leaf is not
        words = list(range(100, 164))
        load = Instruction(OP_LOAD, a=0, c=1)
        runner = make_runner([load], initial_registers=(5,) + (0,) * 7, initial_memory=words)
        step = runner.trace.step_proof(runner.trace.length)
        leaf = step.leaf
        assert leaf[8:16] == (105).to_bytes(8, "big")  # cell 5 is slot 1 of leaf 1
        step = replace(step, leaf=leaf[:16] + (999).to_bytes(8, "big") + leaf[24:])
        with pytest.raises(BadStepProof):
            vm_step(step, load, memory_size=64)

    def test_store_keeps_its_neighbours(self):
        words = list(range(100, 164))
        store = Instruction(OP_STORE, a=0, b=3)  # memory[r0] = r3
        for addr in (4, 5, 6, 7):  # every slot of leaf 1
            runner = make_runner(
                [store], initial_registers=(addr, 0, 0, 42, 0, 0, 0, 0), initial_memory=words
            )
            post = vm_step(runner.trace.step_proof(runner.trace.length), store, memory_size=64)
            updated = list(words)
            updated[addr] = 42
            assert post.memory_root == MemoryTree(updated).root, addr
            runner.step()
            assert runner.state.memory_root == post.memory_root, addr

    def test_loadpre(self):
        oracle = PreimageOracle()
        key = oracle.register((99).to_bytes(8, "big") + b"tail")
        runner = make_runner([Instruction(OP_LOADPRE, c=2, key=key)], oracle=oracle)
        runner.step()
        post = runner.state
        assert post.registers[2] == 99

    def test_loadpre_unregistered(self):
        runner = make_runner([Instruction(OP_LOADPRE, c=2, key=b"\x01" * 32)],
                             oracle=PreimageOracle())
        with pytest.raises(PreimageUnavailable):
            runner.step()

    def test_illegal_instruction(self):
        runner = make_runner()
        with pytest.raises(IllegalInstruction):
            vm_step(StepProof(runner.state, None, None), Instruction("NOPE"), memory_size=64)

    @pytest.mark.parametrize(
        "instr",
        [
            Instruction(OP_ADD, 0, 0, 8),
            Instruction(OP_ADD, -1, 0, 0),
            Instruction(OP_STORE, 0, 8),
            Instruction(OP_LOAD, 9, 0, 1),
            Instruction(OP_JUMPZ, 8, 0),
            Instruction(OP_LOADPRE, c=-1, key=b"\x00" * 32),
        ],
    )
    def test_register_operand_out_of_range(self, instr):
        runner = make_runner([instr])
        with pytest.raises(IllegalInstruction, match="register operand"):
            vm_step(StepProof(runner.state, None, None), instr, memory_size=64)
        with pytest.raises(IllegalInstruction, match="register operand"):
            runner.step()
        assert runner.trace.length == 0 and runner.trace.stores == []

    @pytest.mark.parametrize("a", [8, 9, -1])
    @pytest.mark.parametrize("op", [OP_LOAD, OP_STORE])
    def test_step_proof_refuses_an_address_register_out_of_range(self, op, a):
        trace = make_runner([Instruction(op, a, 0, 1)]).trace
        with pytest.raises(IllegalInstruction, match=f"register operand a={a}"):
            trace.step_proof(0)

    def test_halt_is_fixpoint(self):
        runner = make_runner([Instruction(OP_HALT)])
        pre = runner.state
        runner.step()
        post = runner.state
        assert post == pre
        assert fetch(runner.program, 99).op == OP_HALT  # off-program pc halts

    def test_jumpz(self):
        runner = make_runner([Instruction(OP_JUMPZ, 5, 3)])  # r5 == 0: jump to 3
        runner.step()
        post = runner.state
        assert post.pc == 3

    def test_initial_memory_must_match_memory_size(self):
        with pytest.raises(ValueError, match="initial_memory"):
            make_runner([Instruction(OP_STORE, 0, 3)], initial_memory=[0] * 32)

    @pytest.mark.parametrize("registers", [(), (0, 1, 3), (0,) * 9])
    def test_initial_registers_must_number_eight(self, registers):
        with pytest.raises(ValueError, match="initial_registers"):
            make_runner(initial_registers=registers)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"initial_registers": (0, 1, 3, -1, 1, 0, 0, 0)}, "register 3"),
            ({"initial_registers": (0, 1, 3, 0, 1, 0, 0, 1 << 64)}, "register 7"),
            ({"initial_registers": (0, 1.5, 3, 0, 1, 0, 0, 0)}, "register 1"),
            ({"initial_memory": [0] * 63 + [1 << 64]}, "memory word 63"),
            ({"initial_memory": [0, -1] + [0] * 62}, "memory word 1"),
        ],
    )
    def test_words_outside_64_bits_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            make_runner(**kwargs)


def _one_step_game(instr):
    """A one-instruction trace of ``instr`` over 64 distinct words, the game
    over it (already at its step, the defender claiming the honest result)
    and the memory's tree."""
    words = list(range(100, 164))
    trace = make_runner([instr], initial_registers=(0,) * 8, initial_memory=words).run_trace(1)
    game = dispute_open(GameParams(program=[instr]), challenger=0xC, defender=0xD,
                        claimed_final_state=trace.state_hash(1), trace_length=1,
                        agreed_start_hash=trace.state_hash(0))
    return trace, game, MemoryTree(words)


# each turns the honest step proof for cell 0 into one of the wrong shape
_MALFORMED = {
    "no-proof": lambda step, tree: replace(step, proof=None),
    "not-a-merkle-proof": lambda step, tree: replace(step, proof=(0, step.proof.siblings)),
    "int-sibling": lambda step, tree: replace(
        step, proof=MerkleProof(0, (7,) + step.proof.siblings[1:])),
    "siblings-none": lambda step, tree: replace(step, proof=MerkleProof(0, None)),
    "31-byte-leaf": lambda step, tree: replace(step, leaf=step.leaf[:31]),
    "33-byte-leaf": lambda step, tree: replace(step, leaf=step.leaf + b"\x00"),
    "another-leafs-proof": lambda step, tree: replace(
        step, leaf=tree.leaf(1), proof=tree.prove(1)),
}

_MEMORY_OPS = [Instruction(OP_LOAD, a=0, c=1), Instruction(OP_STORE, a=0, b=1)]


class TestMalformedStepProof:
    """A step proof of the wrong shape is refused with ``BadStepProof`` by
    the step and by the game, never with another error."""

    @pytest.mark.parametrize("instr", _MEMORY_OPS, ids=lambda instr: instr.op)
    def test_honest_step_proof_settles(self, instr):
        trace, game, _ = _one_step_game(instr)
        step = trace.step_proof(0)
        assert vm_step(step, instr).hash() == trace.state_hash(1)
        assert dispute_step(game, step) == DEFENDER

    @pytest.mark.parametrize("instr", _MEMORY_OPS, ids=lambda instr: instr.op)
    @pytest.mark.parametrize("mutation", list(_MALFORMED))
    def test_refused(self, instr, mutation):
        trace, game, tree = _one_step_game(instr)
        bad = _MALFORMED[mutation](trace.step_proof(0), tree)
        with pytest.raises(BadStepProof):
            vm_step(bad, instr)
        with pytest.raises(BadStepProof):
            dispute_step(game, bad)
        assert game.winner is None


class TestStepInRunMemo:
    """Inside a ``hashing.run_memo()`` block ``dispute_step`` reads the state
    digests the agents took; outside one it hashes both states itself."""

    ADD = Instruction(OP_ADD, 1, 2, 3)

    @pytest.mark.parametrize("memo, perms", [(False, 2), (True, 0)], ids=["plain", "run-memo"])
    def test_honest_step_hashes_no_agreed_state_again(self, memo, perms):
        with hashing.run_memo() if memo else contextlib.nullcontext():
            trace, game, _ = _one_step_game(self.ADD)
            step = trace.step_proof(0)
            with hashing.counting() as count:
                assert dispute_step(game, step) == DEFENDER
        assert count.perms == perms

    def test_tampered_pre_state_is_hashed_and_refused(self):
        with hashing.run_memo():
            trace, game, _ = _one_step_game(self.ADD)
            step = trace.step_proof(0)
            registers = (1,) + step.pre_state.registers[1:]
            tampered = replace(step, pre_state=replace(step.pre_state, registers=registers))
            with hashing.counting() as count:
                with pytest.raises(BadStepProof, match="pre-state"):
                    dispute_step(game, tampered)
            assert count.perms == 1 and game.winner is None
            assert dispute_step(game, step) == DEFENDER


class TestMemoryRoot:
    """Known answers for the memory root, written without ``MemoryTree``."""

    @staticmethod
    def words_bytes(*words):
        return b"".join(w.to_bytes(8, "big") for w in words)

    def test_eight_words_make_two_leaves(self):
        words = [3, 1 << 63, 0, 7, (1 << 64) - 1, 42, 5, 9]
        left = keccak256(b"\x00" + self.words_bytes(*words[:4]))
        right = keccak256(b"\x00" + self.words_bytes(*words[4:]))
        assert MemoryTree(words).root == keccak256(b"\x01" + left + right)

    @pytest.mark.parametrize("words", [[0xAB], [0xAB, 0xCD]])
    def test_one_or_two_words_pad_one_leaf(self, words):
        leaf = self.words_bytes(*words, *[0] * (4 - len(words)))
        assert len(leaf) == 32
        assert MemoryTree(words).root == keccak256(b"\x00" + leaf)

    @pytest.mark.parametrize("size", [0, 3, 12])
    def test_size_must_be_a_power_of_two(self, size):
        with pytest.raises(ValueError, match="power of two"):
            MemoryTree([0] * size)

    def test_move_over_every_leaf_hashes_each_level_as_one_packed_group(self):
        words = [0] * 64
        moved = {4 * leaf + leaf % 4: leaf + 1 for leaf in range(16)}  # one word in each leaf
        with hashing.run_memo():
            tree = MemoryTree(words)
            with _permuted_slots() as slots, hashing.counting() as count:
                tree.update(moved)
        # 16 new leaves, then 8, 4 and 2 new nodes, each level one packed
        # call; the root alone runs on the scalar kernel
        assert slots.widths == [16, 8, 4, 2]
        assert count.perms == slots.total == 16 + 8 + 4 + 2 + 1
        assert count.packed == slots.packed == 16 + 8 + 4 + 2
        for addr, word in moved.items():
            words[addr] = word
        level = [keccak256(b"\x00" + self.words_bytes(*words[at:at + 4]))
                 for at in range(0, 64, 4)]
        while len(level) > 1:
            level = [keccak256(b"\x01" + left + right)
                     for left, right in zip(level[::2], level[1::2])]
        assert tree.root == level[0]

    def test_update_rehashes_each_touched_leaf_once(self, keccak_perms):
        tree = MemoryTree(list(range(64)))
        built = keccak_perms.perms
        tree.update({4: 1, 5: 2, 6: 3, 7: 4})  # all in leaf 1: one leaf, four nodes
        assert keccak_perms.perms - built == 5
        assert tree.root == MemoryTree([0, 1, 2, 3, 1, 2, 3, 4] + list(range(8, 64))).root


class TestTraceReplay:
    def test_step_proofs_replay_consistently(self):
        # runner, replay and on-chain step must agree at every trace index
        trace = make_runner().run_trace(64)
        runner = make_runner()
        for index in range(64):
            proof = trace.step_proof(index)
            assert proof.pre_state.hash() == trace.state_hash(index)
            post = vm_step(proof, trace.program[proof.pre_state.pc], memory_size=64)
            runner.step()
            assert runner.state.hash() == post.hash() == trace.state_hash(index + 1), index

    def test_loadpre_without_oracle_rejected_by_runner_and_replay(self):
        oracle = PreimageOracle()
        program = [
            Instruction(OP_LOADPRE, c=2, key=oracle.register(b"preimage")),
            Instruction(OP_ADD, 1, 2, 3),
        ]
        with pytest.raises(BadStepProof):
            make_runner(program).step()
        with pytest.raises(BadStepProof):
            make_runner(program).run_trace(2)


class TestLazyTrace:
    def test_recording_hashes_nothing(self, keccak_perms):
        runner = make_runner()
        built = keccak_perms.perms
        runner.run_trace(1024)
        assert keccak_perms.perms == built

    def test_zero_memory_costs_one_hash_per_level(self, keccak_perms):
        MemoryTree([0] * 64)  # 16 leaves of four words
        assert keccak_perms.perms == 5

    def test_queries_in_any_order_match_forward_order(self):
        # an 8-word memory (two leaves) keeps each random cursor jump to at
        # most 3 hashes, and each cell is stored to several times, so undo
        # must stack
        forward = make_runner(memory_size=8).run_trace(256)
        states = [forward.state(i) for i in range(257)]
        hashes = [forward.state_hash(i) for i in range(257)]
        proofs = [forward.step_proof(i) for i in range(256)]
        trace = make_runner(memory_size=8).run_trace(256)
        order = list(range(257))
        random.Random(3).shuffle(order)  # the cursor jumps both ways
        for index in order:
            assert trace.state_hash(index) == hashes[index], index
            assert trace.state(index) == states[index], index
            if index < 256:
                proof = trace.step_proof(index)
                assert proof == proofs[index], index
                post = vm_step(proof, trace.program[proof.pre_state.pc], memory_size=8)
                assert post.hash() == hashes[index + 1], index

    def test_runner_state_follows_the_trace(self):
        runner = make_runner()
        trace = runner.run_trace(10)
        assert runner.state == trace.state(10)
        runner.step()
        assert trace.length == 11 and runner.state == trace.state(11)
        for out_of_range in (lambda: trace.state_hash(12), lambda: trace.step_proof(-1)):
            with pytest.raises(IndexError):
                out_of_range()

    @pytest.mark.parametrize("read", ["state", "state_hash"])
    def test_index_outside_the_trace_refused(self, read):
        # -1 is refused, not read as the tip
        trace = make_runner().run_trace(10)
        for index in (-1, trace.length + 1):
            with pytest.raises(IndexError, match=f"trace index {index} out of range"):
                getattr(trace, read)(index)


def _scenario_game(steps):
    """The fraud scenario's fixture and game: a fault at 600/1024 of the trace."""
    fault = steps * 600 // 1024
    game = play_planted_fault((0, 1, 3, 0, 1, 0, 0, 0), steps, fault, challenger=0xC, defender=0xD)
    return game.winner


class TestScenarioTrace:
    """The 1024-step trace the fraud scenario disputes."""

    def test_permutation_budget(self, keccak_perms):
        # recording hashes nothing; the game hashes about log2(n) states and
        # moves one memory cursor to each, whose tree rehashes no node blob
        # it has hashed before (133 now, 390 with one leaf per word, 650 when
        # the cursor rehashed every moved node, 2,721 with every state hashed
        # eagerly and a replay per step proof)
        assert _scenario_game(1024) == CHALLENGER
        assert keccak_perms.perms <= 155

    def test_permutation_budget_grows_logarithmically(self, keccak_perms):
        assert _scenario_game(16_384) == CHALLENGER
        # 263 now, 905 with one leaf per word, 1,159 without the memo, 39,585 eagerly
        assert keccak_perms.perms <= 290

    def test_state_hashes_pinned(self):
        trace = make_runner().run_trace(1024)
        assert keccak256(b"".join(map(trace.state_hash, range(trace.length + 1)))).hex() == (
            "a086c21e0a562665ad39182d7400b4ffda0ae3e8273d568808814b380c62cd6b"
        )


class TestBisectionGame:
    def open_game(self, trace, defender_claim, now=0):
        return dispute_open(
            GameParams(program=loop_program(), memory_size=64),
            challenger=0xC,
            defender=0xD,
            claimed_final_state=defender_claim,
            trace_length=trace.length,
            agreed_start_hash=trace.state_hash(0),
            now=now,
        )

    def test_honest_challenger_wins_everywhere(self):
        trace = make_runner().run_trace(128)
        honest = HonestAgent(trace)
        for fault in (1, 2, 63, 64, 65, 127, 128):
            faulty = FaultyAgent(trace, fault)
            game = self.open_game(trace, faulty.state_hash(trace.length))
            winner = run_dispute(game, defender_agent=faulty, challenger_agent=honest)
            assert winner == CHALLENGER, f"fault at {fault}"
            assert game.rounds <= math.ceil(math.log2(trace.length))

    def test_honest_defender_wins_at_step(self):
        trace = make_runner().run_trace(128)
        honest = HonestAgent(trace)
        game = self.open_game(trace, trace.state_hash(trace.length))
        winner = run_dispute(
            game, defender_agent=honest, challenger_agent=FaultyAgent(trace, 40)
        )
        assert winner == DEFENDER

    def test_range_halves_each_round(self):
        trace = make_runner().run_trace(64)
        honest, faulty = HonestAgent(trace), FaultyAgent(trace, 30)
        game = self.open_game(trace, faulty.state_hash(64))
        widths = [game.hi - game.lo]
        while game.phase == "bisect":
            mid = game.midpoint()
            dispute_bisect(game, 0xD, faulty.state_hash(mid))
            dispute_bisect(game, 0xC, honest.state_hash(mid))
            widths.append(game.hi - game.lo)
        for before, after in zip(widths, widths[1:]):
            assert after in (before // 2, before - before // 2)
        assert widths[-1] == 1

    def test_out_of_turn_rejected(self):
        trace = make_runner().run_trace(16)
        faulty = FaultyAgent(trace, 5)
        game = self.open_game(trace, faulty.state_hash(16))
        with pytest.raises(NotYourTurn):
            dispute_bisect(game, 0xC, trace.state_hash(8))  # defender moves first
        with pytest.raises(NotYourTurn):
            dispute_bisect(game, 0xDEAD, trace.state_hash(8))  # stranger

    def test_step_rejects_bad_prestate(self):
        trace = make_runner().run_trace(4)
        faulty = FaultyAgent(trace, 1)
        game = self.open_game(trace, faulty.state_hash(4))
        honest = HonestAgent(trace)
        while game.phase == "bisect":
            mid = game.midpoint()
            dispute_bisect(game, 0xD, faulty.state_hash(mid))
            dispute_bisect(game, 0xC, honest.state_hash(mid))
        wrong_pre = trace.step_proof(2)  # not the narrowed instruction
        with pytest.raises(BadStepProof):
            dispute_step(game, wrong_pre)

    def test_timeout_awards_opponent(self):
        trace = make_runner().run_trace(16)
        faulty = FaultyAgent(trace, 5)
        game = self.open_game(trace, faulty.state_hash(16), now=0)
        assert dispute_timeout(game, now=game.deadline - 1) is None
        assert dispute_timeout(game, now=game.deadline) == CHALLENGER

    def test_timeout_on_silent_challenger(self):
        trace = make_runner().run_trace(16)
        faulty = FaultyAgent(trace, 5)
        game = self.open_game(trace, faulty.state_hash(16), now=0)
        dispute_bisect(game, 0xD, faulty.state_hash(game.midpoint()), now=0)
        assert dispute_timeout(game, now=game.deadline) == DEFENDER

    def test_soundness_sweep_with_rounds_bound(self):
        trace = make_runner().run_trace(256)
        honest = HonestAgent(trace)
        rng = random.Random(12)
        for fault in rng.sample(range(1, 257), 24):
            faulty = FaultyAgent(trace, fault)
            game = self.open_game(trace, faulty.state_hash(256))
            assert run_dispute(game, faulty, honest) == CHALLENGER
            assert game.rounds <= 8
