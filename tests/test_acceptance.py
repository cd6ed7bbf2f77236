"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines (stdout is captured otherwise). Every tolerance is pinned here; the
runtime budgets are asserted, not aspirational.
"""

import json
import random
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from rollsim.algebra import DEFAULT_PRIME, Field, PairingGroup, Polynomial
from rollsim.costbench import (
    BloomFilter,
    amortized_proof_cost,
    bloom_params,
    compression_stats,
    load_corpus,
)
from rollsim.l1sim import (
    CensorshipModel,
    NONZERO_TO_NONZERO,
    REWRITE_SAME,
    TO_ZERO,
    ZERO_TO_NONZERO,
    calldata_gas,
    censorship_expected_value,
    sstore_charge,
    sstore_gas,
)
from rollsim.oprollup import dispute as dispute_mod
from rollsim.oprollup.batching import Batch, build_channel, read_channels, split_frames
from rollsim.proofs import (
    SMALL_SCHNORR_GROUP,
    SchnorrKeyPair,
    freivalds_verify,
    schnorr_extract,
    schnorr_round,
    schnorr_simulate,
    schnorr_verify,
)
from rollsim.scenarios import ScenarioConfig, run as run_scenario
from rollsim.snark import (
    SnarkProof,
    WitnessUnsatisfied,
    assemble,
    build_qap,
    compile_r1cs,
    flatten,
    forge_without_kea,
    prove,
    roots_check,
    setup,
    verify,
    witness,
)
from rollsim.validityrollup.cairo import (
    CairoState,
    InsufficientHints,
    InvalidAccess,
    deterministic_accept,
    run_program,
    sqrt_program,
)
from rollsim.validityrollup.messaging import (
    InvalidMessageToConsume,
    StarkNetCore,
    starkgate_withdraw_payload,
)
from rollsim.validityrollup.recursion import aggregate_recursive
from rollsim.validityrollup.scenario import L1_BRIDGE_ADDRESS, L2_BRIDGE_ADDRESS
from rollsim.validityrollup.statediff import (
    MAINNET_DIFF_VECTOR,
    decode_state_diff,
    diff_calldata_bytes,
    encode_state_diff,
)

from test_snark import random_program
from test_validity_statediff import random_diff

F = Field(DEFAULT_PRIME)
GROUP = PairingGroup(DEFAULT_PRIME)


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - started
        assert elapsed < budget_seconds, (
            f"{name}: {elapsed:.2f}s over budget {budget_seconds}s"
        )
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {name}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {name} ({elapsed:.2f}s)")


def test_criterion_01_qap_worked_example():
    with criterion(1, "QAP worked example reproduces exactly", 1.0):
        program = flatten("x*x*x + 8", inputs=("x",))
        r1cs = compile_r1cs(program, F)
        s = witness(program, F, {"x": 3})
        assert [e.value for e in s] == [1, 3, 9, 27, 35]
        qap = build_qap(r1cs)

        def rational(*fracs):
            return Polynomial.from_rationals(F, fracs)

        expected_a = [
            rational(8, -12, 4),
            rational(3, (-5, 2), (1, 2)),
            rational(-3, 4, -1),
            rational(1, (-3, 2), (1, 2)),
            rational(),
        ]
        expected_b = [
            rational(1, (-3, 2), (1, 2)),
            rational(0, (3, 2), (-1, 2)),
            rational(),
            rational(),
            rational(),
        ]
        expected_c = [
            rational(),
            rational(),
            rational(3, (-5, 2), (1, 2)),
            rational(-3, 4, -1),
            rational(1, (-3, 2), (1, 2)),
        ]
        assert list(qap.a_polys) == expected_a
        assert list(qap.b_polys) == expected_b
        assert list(qap.c_polys) == expected_c
        assert qap.z == Polynomial(F, [-6, 11, -6, 1])
        p_poly, h_poly = assemble(qap, s)
        assert p_poly == Polynomial(F, [36, -6, -74, 54, -10])
        assert h_poly == Polynomial(F, [-6, -10])
        # the display-back utility maps the field encodings to the fractions
        assert qap.a_polys[1].to_rationals() == (
            Fraction(3), Fraction(-5, 2), Fraction(1, 2),
        )


def test_criterion_02_snark_soundness_and_kea():
    with criterion(2, "SNARK completeness/soundness + KEA forgery", 30.0):
        rng = random.Random(20240)
        for _ in range(100):
            _, program = random_program(rng)
            r1cs = compile_r1cs(program, F)
            qap = build_qap(r1cs)
            s = witness(program, F, {"x": rng.randrange(F.prime)})
            crs = setup(qap, GROUP, rng)
            proof = prove(crs, qap, s)
            assert verify(crs.vk, proof, GROUP)

            # mutated proof: one element replaced at random
            which = rng.randrange(3)
            junk = GROUP.encrypt(rng.randrange(1, GROUP.order))
            mutated = SnarkProof(
                p=junk if which == 0 else proof.p,
                p_shifted=junk if which == 1 else proof.p_shifted,
                h=junk if which == 2 else proof.h,
            )
            assert not verify(crs.vk, mutated, GROUP)

            # mutated witness: one entry perturbed so a constraint breaks
            # (some perturbations land on another satisfying witness, e.g.
            # bumping an input a zero coefficient multiplies away; skip those)
            bad = list(s)
            for _ in range(20):
                idx = rng.randrange(1, len(bad))
                bad[idx] = bad[idx] + rng.randrange(1, F.prime)
                if not r1cs.satisfied_by(bad):
                    break
                bad = list(s)
            assert not r1cs.satisfied_by(bad)
            try:
                assert not verify(crs.vk, prove(crs, qap, bad), GROUP)
            except WitnessUnsatisfied:
                pass

            # the forgery beats the roots check alone, never the full check
            forged = forge_without_kea(crs.vk, GROUP, rng)
            assert roots_check(crs.vk, forged, GROUP)
            assert not verify(crs.vk, forged, GROUP)


def test_criterion_03_schnorr_vector_extractor_simulator():
    with criterion(3, "Schnorr vector, extractor, simulator", 1.0):
        group = SMALL_SCHNORR_GROUP
        keys = SchnorrKeyPair(group=group, secret=7, public=pow(2, 7, 23))
        assert keys.public == 13
        t = schnorr_round(keys, random.Random(0), nonce=3, challenge=4)
        h, c, s = (int.from_bytes(m, "big") for _, m in t.entries)
        assert (h, c, s) == (8, 4, 9)
        assert pow(group.g, s, group.p) == 6 == pow(keys.public, c, group.p) * h % group.p
        assert schnorr_verify(keys.public, group, t)

        t2 = schnorr_round(keys, random.Random(0), nonce=3, challenge=9)
        assert schnorr_extract(group, t, t2) == 7

        rng = random.Random(3)
        for _ in range(100):
            secret = rng.randrange(1, group.q + 1)
            public = pow(group.g, secret, group.p)
            challenge = rng.randrange(1, group.q)
            simulated = schnorr_simulate(public, challenge, group, rng)
            assert schnorr_verify(public, group, simulated)


def test_criterion_04_freivalds():
    with criterion(4, "Freivalds: no false verdicts at 2^61+ field", 30.0):
        assert F.prime >= 2**61
        rng = random.Random(44)
        n = 4

        def rand_matrix():
            return [[rng.randrange(F.prime) for _ in range(n)] for _ in range(n)]

        def true_product(a, b):
            return [
                [sum(a[i][k] * b[k][j] for k in range(n)) % F.prime for j in range(n)]
                for i in range(n)
            ]

        for _ in range(1000):
            a, b = rand_matrix(), rand_matrix()
            assert freivalds_verify(a, b, true_product(a, b), 10, rng, F)
        for _ in range(1000):
            a, b = rand_matrix(), rand_matrix()
            c = true_product(a, b)
            c[rng.randrange(n)][rng.randrange(n)] += 1 + rng.randrange(F.prime - 1)
            c = [[x % F.prime for x in row] for row in c]
            assert not freivalds_verify(a, b, c, 10, rng, F)


def test_criterion_05_bisection_dispute():
    with criterion(5, "bisection: honest wins at every sampled fault", 60.0):
        program = [
            dispute_mod.Instruction(dispute_mod.OP_ADD, 1, 2, 1),
            dispute_mod.Instruction(dispute_mod.OP_MUL, 1, 2, 3),
            dispute_mod.Instruction(dispute_mod.OP_STORE, 0, 3),
            dispute_mod.Instruction(dispute_mod.OP_ADD, 0, 4, 0),
            dispute_mod.Instruction(dispute_mod.OP_JUMPZ, 5, 0),
        ]
        steps = 4096
        runner = dispute_mod.VmRunner(
            program, memory_size=64, initial_registers=(0, 1, 3, 0, 1, 0, 0, 0)
        )
        trace = runner.run_trace(steps)
        honest = dispute_mod.HonestAgent(trace)
        params = dispute_mod.GameParams(program=program, memory_size=64)
        rng = random.Random(55)
        positions = sorted(set(rng.sample(range(1, steps + 1), 64)))
        for fault in positions:
            faulty = dispute_mod.FaultyAgent(trace, fault)
            game = dispute_mod.dispute_open(
                params, 0xC, 0xD, faulty.state_hash(steps), steps, trace.state_hash(0)
            )
            winner = dispute_mod.run_dispute(game, faulty, honest)
            assert winner == dispute_mod.CHALLENGER, f"fault {fault}"
            assert game.rounds <= 13
        # timeout: silent defender loses; silent challenger in step phase loses
        game = dispute_mod.dispute_open(
            params, 0xC, 0xD, trace.state_hash(steps), steps, trace.state_hash(0), now=0
        )
        assert dispute_mod.dispute_timeout(game, now=game.deadline) == dispute_mod.CHALLENGER
        game2 = dispute_mod.dispute_open(
            params, 0xC, 0xD, trace.state_hash(1), 1, trace.state_hash(0), now=0
        )
        assert game2.phase == "step"
        assert dispute_mod.dispute_timeout(game2, now=game2.deadline) == dispute_mod.DEFENDER


def test_criterion_06_withdrawal_timing_twin_scenarios(monkeypatch):
    with criterion(6, "withdrawal timing: dispute period vs next block", 30.0):
        workload = dict(
            deposits=[{"user": 0x100, "value": 10_000}],
            transfers=[{"user": 0x100, "target": 0x200, "value": 1_000}],
            withdrawals=[{"user": 0x200, "value": 700}],
        )
        opt = run_scenario(ScenarioConfig(rollup="optimistic", **workload))
        assert opt.ok
        events = [e["event"] for e in opt.timeline]
        rejected = next(e for e in opt.timeline if e["event"] == "finalize_rejected")
        finalized = next(e for e in opt.timeline if e["event"] == "withdrawal_finalized")
        proposed = next(
            e for e in opt.timeline
            if e["event"] == "output_proposed" and not e["fraudulent"]
        )
        assert rejected["reason"] == "proposal is not yet finalized"
        assert rejected["time"] == proposed["time"] + 7 * 24 * 3600 - 1
        assert finalized["time"] == proposed["time"] + 7 * 24 * 3600
        assert events.index("finalize_rejected") < events.index("withdrawal_finalized")

        cores = []
        init = StarkNetCore.__init__

        def keep_core(core, chain):
            init(core, chain)
            cores.append(core)

        monkeypatch.setattr(StarkNetCore, "__init__", keep_core)
        val = run_scenario(ScenarioConfig(rollup="validity", **workload))
        assert val.ok
        settled = next(e for e in val.timeline if e["event"] == "proof_settled")
        consumed = next(e for e in val.timeline if e["event"] == "withdrawal_consumed")
        assert consumed["block"] == settled["block"] + 1
        # on the settled core, a payload the L2 never sent (it sent 700) is refused
        (core,) = cores
        counters = (dict(core.l1_to_l2_counters), dict(core.l2_to_l1_counters))
        with pytest.raises(InvalidMessageToConsume):
            core.consume_message_from_l2(
                L2_BRIDGE_ADDRESS, starkgate_withdraw_payload(0x200, 7_000), caller=L1_BRIDGE_ADDRESS
            )
        assert (core.l1_to_l2_counters, core.l2_to_l1_counters) == counters


def test_criterion_07_censorship_expected_value():
    with criterion(7, "censorship EV at the reference point", 0.001):
        model = CensorshipModel(value_at_risk=10**6, p=0.99, n=1800)
        assert censorship_expected_value(model) == pytest.approx(0.01391, abs=0.0001)


def test_criterion_08_data_availability_round_trips():
    with criterion(8, "DA round trips: channels, diffs, mainnet vector", 10.0):
        rng = random.Random(88)
        for _ in range(500):
            batches = [
                Batch(
                    epoch_number=rng.randrange(100),
                    epoch_hash=rng.randbytes(32),
                    parent_hash=rng.randbytes(32),
                    timestamp=rng.randrange(10**9),
                    tx_list=tuple(
                        rng.randbytes(rng.randrange(1, 60))
                        for _ in range(rng.randrange(0, 5))
                    ),
                )
                for _ in range(rng.randrange(1, 4))
            ]
            channel = build_channel(
                batches, timestamp=rng.randrange(2**32), random=rng.randrange(2**64)
            )
            frames = split_frames(channel, rng.randrange(1, 80))
            rng.shuffle(frames)
            landing = [(frame.encode(), block) for block, frame in enumerate(frames)]
            assert read_channels(landing) == [(batches, 0, len(frames) - 1)]
        for _ in range(100):
            diff = random_diff(rng)
            assert decode_state_diff(encode_state_diff(diff)) == diff
        decoded = decode_state_diff(MAINNET_DIFF_VECTOR)
        assert encode_state_diff(decoded) == MAINNET_DIFF_VECTOR
        assert diff_calldata_bytes(encode_state_diff(decoded)) == diff_calldata_bytes(
            MAINNET_DIFF_VECTOR
        )


def test_criterion_09_cost_figures():
    with criterion(9, "gas table, amortization, DA cost figures", 10.0):
        # every storage-pricing cell, verbatim
        assert sstore_gas(ZERO_TO_NONZERO, cold=True) == 22_100
        assert sstore_gas(ZERO_TO_NONZERO, cold=False) == 20_000
        assert sstore_gas(NONZERO_TO_NONZERO, cold=True) == 5_000
        assert sstore_gas(NONZERO_TO_NONZERO, cold=False) == 2_900
        assert sstore_gas(REWRITE_SAME, cold=True) == 100
        assert sstore_gas(REWRITE_SAME, cold=False) == 100
        for cold in (True, False):
            charge = sstore_charge(TO_ZERO, cold)
            assert charge.gas == sstore_gas(NONZERO_TO_NONZERO, cold)
            assert charge.refund
        assert 10 * sstore_gas(ZERO_TO_NONZERO, cold=True) == 221_000
        assert amortized_proof_cost(267_830, 200) == Decimal("1339.15")
        # recomputed mainnet-vector calldata gas, reported beside the
        # published 9240 and asserted within +/- 25%
        recomputed = calldata_gas(diff_calldata_bytes(MAINNET_DIFF_VECTOR))
        print(f"    mainnet diff calldata gas: recomputed {recomputed}, published 9240")
        assert abs(recomputed - 9240) / 9240 <= 0.25
        # mainnet compression percentages need real blocks; the substituted
        # property on the fixture corpus: grouped <= single <= raw gas
        corpus = load_corpus(Path(__file__).parent / "fixtures" / "batch_corpus.hex")
        grouped = compression_stats(corpus, group_size=len(corpus))
        single = compression_stats(corpus, group_size=1)
        assert grouped.total_compressed_gas <= single.total_compressed_gas
        assert single.total_compressed_gas <= single.total_raw_gas


def test_criterion_10_bloom():
    with criterion(10, "Bloom sizing rows, FP band, no false negatives", 60.0):
        assert bloom_params(1000, 0.01) == (9585, 6)
        assert bloom_params(1000, 0.001) == (14377, 9)
        bloom = BloomFilter(9585, 6, seed=10)
        for i in range(1000):
            bloom.insert(b"member:%d" % i)
        false_positives = sum(
            1 for i in range(100_000) if bloom.query(b"absent:%d" % i)
        )
        assert 0.005 <= false_positives / 100_000 <= 0.02
        # a million operations, not one false negative
        big = BloomFilter.for_expected(100_000, 0.01, seed=11)
        members = [b"m%d" % i for i in range(100_000)]
        for element in members:
            big.insert(element)
        rng = random.Random(12)
        for _ in range(900_000):
            assert big.query(members[rng.randrange(100_000)])


def test_criterion_11_recursion_model():
    with criterion(11, "recursive aggregation bound and monotonicity", 1.0):
        result = aggregate_recursive([1.0] * 1024)
        assert result.t_tree <= 10.0
        assert result.t_sequential == 1024.0
        for earlier, later in zip(result.level_times, result.level_times[1:]):
            assert earlier > later


def test_criterion_12_cairo_machine():
    with criterion(12, "Cairo machine: hints, negation, mutation rejection", 5.0):
        accepted = run_program(sqrt_program(25), prog_base=1000, ap_initial=2000)
        assert accepted.memory[2001] == 5
        assert deterministic_accept(accepted.steps, accepted.memory, accepted.states)
        negated = run_program(
            sqrt_program(25, negate_hint=True), prog_base=1000, ap_initial=2000
        )
        assert negated.memory[2001] == (-5) % DEFAULT_PRIME
        assert deterministic_accept(negated.steps, negated.memory, negated.states)
        with pytest.raises(InsufficientHints):
            run_program(sqrt_program(25, with_hint=False), prog_base=1000, ap_initial=2000)

        rng = random.Random(120)
        rejected = 0
        for _ in range(100):
            if rng.random() < 0.5:
                mem = accepted.memory.copy()
                addr = rng.choice([2000, 2001])
                mem._cells[addr] = (mem[addr] + rng.randrange(1, DEFAULT_PRIME)) % DEFAULT_PRIME
                ok = deterministic_accept(accepted.steps, mem, accepted.states)
            else:
                states = list(accepted.states)
                idx = rng.randrange(1, len(states))
                st = states[idx]
                which = rng.randrange(3)
                bump = rng.randrange(1, DEFAULT_PRIME)
                states[idx] = CairoState(
                    pc=(st.pc + bump) % DEFAULT_PRIME if which == 0 else st.pc,
                    ap=(st.ap + bump) % DEFAULT_PRIME if which == 1 else st.ap,
                    fp=(st.fp + bump) % DEFAULT_PRIME if which == 2 else st.fp,
                )
                try:
                    ok = deterministic_accept(accepted.steps, accepted.memory, states)
                except InvalidAccess:
                    ok = False
            if not ok:
                rejected += 1
        assert rejected == 100


def test_criterion_13_determinism():
    with criterion(13, "byte-identical reports across 5 reruns", 60.0):
        workload = dict(
            deposits=[{"user": 0x100, "value": 10_000}],
            transfers=[{"user": 0x100, "target": 0x200, "value": 1_000}],
            withdrawals=[{"user": 0x200, "value": 700}],
        )
        for config in (
            ScenarioConfig(rollup="optimistic", seed=5, planted_fraud=True,
                           dispute_steps=256, fault_position=70, **workload),
            ScenarioConfig(rollup="validity", seed=5, **workload),
        ):
            reports = [run_scenario(config).to_json() for _ in range(5)]
            assert len(set(reports)) == 1
            assert json.loads(reports[0])["invariant_violations"] == []
