import math
import random

import pytest

from rollsim.hashing import keccak256
from rollsim.merkle import MerkleProof
from rollsim.oprollup.dispute import (
    BadStepProof,
    CHALLENGER,
    DEFENDER,
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
    OP_MUL,
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
    run_dispute,
    vm_step,
)
from rollsim.scenarios import ScenarioConfig, _dispute_fixture


def loop_program():
    return [
        Instruction(OP_ADD, 1, 2, 1),
        Instruction(OP_MUL, 1, 2, 3),
        Instruction(OP_STORE, 0, 3),
        Instruction(OP_ADD, 0, 4, 0),
        Instruction(OP_JUMPZ, 5, 0),
    ]


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
        post = vm_step(pre, Instruction(OP_ADD, 1, 2, 3), {}, memory_size=64)
        assert post.registers[3] == pre.registers[1] + pre.registers[2]
        assert post.pc == pre.pc + 1
        assert post.memory_root == pre.memory_root

    def test_store_updates_root(self):
        runner = make_runner([Instruction(OP_STORE, 0, 3)],
                             initial_registers=(5, 0, 0, 42, 0, 0, 0, 0))
        witness = runner.step_witness()
        post = vm_step(runner.state, Instruction(OP_STORE, 0, 3), witness, memory_size=64)
        # oracle: rebuild the tree with the new word
        words = [0] * 64
        words[5] = 42
        assert post.memory_root == MemoryTree(words).root

    def test_load_requires_witness(self):
        runner = make_runner([Instruction(OP_LOAD, 0, 1)])
        with pytest.raises(BadStepProof):
            vm_step(runner.state, Instruction(OP_LOAD, 0, 1), {}, memory_size=64)

    def test_wrong_witness_rejected(self):
        runner = make_runner([Instruction(OP_LOAD, 0, 1)])
        witness = runner.step_witness()
        addr = next(iter(witness))
        value, proof = witness[addr]
        witness[addr] = (value + 1, proof)
        with pytest.raises(BadStepProof):
            vm_step(runner.state, Instruction(OP_LOAD, 0, 1), witness, memory_size=64)

    def test_relabelled_witness_rejected(self):
        # cell 5's proof passed off as cell 0's would make the LOAD read 15
        words = [0] * 64
        words[0], words[5] = 10, 15
        load = Instruction(OP_LOAD, a=0, c=1)  # r1 = memory[r0], with r0 == 0
        runner = make_runner([load], initial_memory=words)
        siblings = MemoryTree(words).prove(5).siblings
        witness = {0: (15, MerkleProof(leaf_index=0, siblings=siblings))}
        with pytest.raises(BadStepProof):
            vm_step(runner.state, load, witness, memory_size=64)
        post = vm_step(runner.state, load, runner.step_witness(), memory_size=64)
        assert post.registers[1] == 10

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
            vm_step(runner.state, Instruction("NOPE"), {}, memory_size=64)

    def test_halt_is_fixpoint(self):
        runner = make_runner([Instruction(OP_HALT)])
        pre = runner.state
        runner.step()
        post = runner.state
        assert post == pre
        assert runner.instruction_at(99).op == OP_HALT  # off-program pc halts

    def test_jumpz(self):
        runner = make_runner([Instruction(OP_JUMPZ, 5, 3)])  # r5 == 0: jump to 3
        runner.step()
        post = runner.state
        assert post.pc == 3

    def test_initial_memory_must_match_memory_size(self):
        with pytest.raises(ValueError, match="initial_memory"):
            make_runner([Instruction(OP_STORE, 0, 3)], initial_memory=[0] * 32)


class TestTraceReplay:
    def test_step_proofs_replay_consistently(self):
        # runner, replay and on-chain step must agree at every trace index
        trace = make_runner().run_trace(64)
        runner = make_runner()
        for index in range(64):
            proof = trace.step_proof(index)
            assert proof.pre_state.hash() == trace.hashes[index]
            post = vm_step(
                proof.pre_state,
                trace.program[proof.pre_state.pc],
                proof.memory_witness,
                memory_size=64,
            )
            runner.step()
            assert runner.state.hash() == post.hash() == trace.hashes[index + 1], index

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
        built = keccak_perms[0]
        runner.run_trace(1024)
        assert keccak_perms[0] == built

    def test_zero_memory_costs_one_hash_per_level(self, keccak_perms):
        MemoryTree([0] * 64)
        assert keccak_perms[0] == 7

    def test_queries_in_any_order_match_forward_order(self):
        # an 8-word memory keeps each random cursor jump to at most 15 hashes,
        # and each cell is stored to several times, so undo must stack
        forward = make_runner(memory_size=8).run_trace(256)
        states = [forward.states[i] for i in range(257)]
        hashes = [forward.hashes[i] for i in range(257)]
        proofs = [forward.step_proof(i) for i in range(256)]
        trace = make_runner(memory_size=8).run_trace(256)
        order = list(range(257))
        random.Random(3).shuffle(order)  # the cursor jumps both ways
        for index in order:
            assert trace.hashes[index] == hashes[index], index
            assert trace.states[index] == states[index], index
            if index < 256:
                proof = trace.step_proof(index)
                assert proof == proofs[index], index
                post = vm_step(
                    proof.pre_state,
                    trace.program[proof.pre_state.pc],
                    proof.memory_witness,
                    memory_size=8,
                )
                assert post.hash() == hashes[index + 1], index

    def test_runner_state_follows_the_trace(self):
        runner = make_runner()
        trace = runner.run_trace(10)
        assert runner.state == trace.states[10]
        runner.step()
        assert trace.length == 11 and runner.state == trace.states[11]
        for out_of_range in (lambda: trace.hashes[12], lambda: trace.step_proof(-1)):
            with pytest.raises(IndexError):
                out_of_range()


def _scenario_game(steps):
    """The fraud scenario's fixture and game: a fault at 600/1024 of the trace."""
    fault = steps * 600 // 1024
    program, trace = _dispute_fixture(ScenarioConfig(dispute_steps=steps, fault_position=fault))
    faulty = FaultyAgent(trace, fault)
    game = dispute_open(
        GameParams(program=program, memory_size=64),
        challenger=0xC,
        defender=0xD,
        claimed_final_state=faulty.state_hash(steps),
        trace_length=steps,
        agreed_start_hash=trace.hashes[0],
    )
    return run_dispute(game, faulty, HonestAgent(trace))


class TestScenarioTrace:
    """The 1024-step trace the fraud scenario disputes."""

    def test_permutation_budget(self, keccak_perms):
        # recording hashes nothing; the game hashes about log2(n) states and
        # moves one memory cursor to each (650 now, 2,721 with every state
        # hashed eagerly and a replay per step proof)
        assert _scenario_game(1024) == CHALLENGER
        assert keccak_perms[0] <= 800

    def test_permutation_budget_grows_logarithmically(self, keccak_perms):
        assert _scenario_game(16_384) == CHALLENGER
        assert keccak_perms[0] <= 1_300  # 1,159 now, 39,585 eagerly

    def test_state_hashes_pinned(self):
        _, trace = _dispute_fixture(ScenarioConfig(dispute_steps=1024))
        assert keccak256(b"".join(trace.hashes)).hex() == (
            "851ca23d1747ae32f627207a415a70bca4451115f52e629e6a5eb3085db3c2fe"
        )


class TestBisectionGame:
    def open_game(self, trace, defender_claim, now=0):
        return dispute_open(
            GameParams(program=loop_program(), memory_size=64),
            challenger=0xC,
            defender=0xD,
            claimed_final_state=defender_claim,
            trace_length=trace.length,
            agreed_start_hash=trace.hashes[0],
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
        game = self.open_game(trace, trace.hashes[trace.length])
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
            dispute_bisect(game, 0xC, trace.hashes[8])  # defender moves first
        with pytest.raises(NotYourTurn):
            dispute_bisect(game, 0xDEAD, trace.hashes[8])  # stranger

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
