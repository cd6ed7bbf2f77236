import copy
import dataclasses
import enum
import hashlib
import json
import os
import random
import re
import sys

import pytest

import rollsim
from rollsim import algebra, scenarios
from rollsim.scenarios import (
    MAX_DISPUTE_STEPS,
    MAX_PROOF_CADENCE_BLOCKS,
    MAX_WINDOW,
    ConfigError,
    ScenarioConfig,
    _Run,
    run,
)
from rollsim.validityrollup import messaging, settlement, statediff
from rollsim.validityrollup.messaging import (
    HandlerAssertionError,
    L1ToL2Message,
    L2ToL1Message,
    ValidityL2State,
    dispatch_l1_handler,
)
from rollsim.validityrollup.scenario import L2_BRIDGE_ADDRESS, register_bridge

WORKLOAD = dict(
    deposits=[{"user": 0x100, "value": 10_000}],
    transfers=[{"user": 0x100, "target": 0x200, "value": 1_000}],
    withdrawals=[{"user": 0x200, "value": 700}],
)

# the config fields a run's length grows with, and their upper bounds
_BOUNDS = {
    "window": MAX_WINDOW,
    "proof_cadence_blocks": MAX_PROOF_CADENCE_BLOCKS,
    "dispute_steps": MAX_DISPUTE_STEPS,
}


class TestConfig:
    def test_json_round_trip(self):
        config = ScenarioConfig(seed=3, rollup="validity", **WORKLOAD)
        restored = ScenarioConfig.from_json(config.to_json())
        assert restored == config
        assert restored.config_hash() == config.config_hash()

    def test_bad_rollup_kind(self):
        with pytest.raises(ConfigError, match="rollup"):
            ScenarioConfig.from_json(json.dumps({"rollup": "plasma"})).validate()

    def test_from_json_parses_and_run_validates(self):
        # a payload that parses but holds a bad value is a config; the run
        # refuses it before it starts, naming the field path
        config = ScenarioConfig.from_json('{"deposits": [{"user": 1, "value": "x"}]}')
        assert config.deposits == [{"user": 1, "value": "x"}]
        with pytest.raises(ConfigError, match=r"^deposits\[0\]\.value: expected int, got str$"):
            run(config)

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            ScenarioConfig.from_json(json.dumps({"rollupz": "optimistic"}))

    def test_workload_field_path_in_error(self):
        config = ScenarioConfig(deposits=[{"user": 1}])
        with pytest.raises(ConfigError, match=r"deposits\[0\].value"):
            config.validate()

    def test_workload_int_subclass_accepted_and_bool_refused(self):
        Amount = enum.IntEnum("Amount", {"TEN": 10})
        ScenarioConfig(deposits=[{"user": 1, "value": Amount.TEN}]).validate()
        with pytest.raises(ConfigError, match=r"^deposits\[0\]\.value: expected int, got bool$"):
            ScenarioConfig(deposits=[{"user": 1, "value": True}]).validate()

    def test_workload_value_below_2_to_the_128_accepted(self):
        ScenarioConfig(deposits=[{"user": 1, "value": (1 << 128) - 1}]).validate()

    def test_optimistic_window_below_two_rejected(self):
        # frames land one block after their epoch; window 1 would drop the batch
        with pytest.raises(ConfigError, match="window"):
            ScenarioConfig(rollup="optimistic", window=1).validate()
        ScenarioConfig(rollup="validity", window=1).validate()

    @pytest.mark.parametrize("payload, path", [
        ('{"window": "2"}', "window"),
        ('{"deposits": [5]}', r"deposits\[0\]"),
        ("[]", "config"),
        ('{"deposits": [{"user": 1, "value": "x"}]}', r"deposits\[0\]\.value"),
        ('{"dispute_steps": "x"}', "dispute_steps"),
        ('{"seed": "a"}', "seed"),
        ('{"window": true}', "window: expected int, got bool"),
        ('{"planted_fraud": 1}', "planted_fraud"),
        ('{"deposits": [{"user": 1, "value": 5, "fees": 1}]}', r"deposits\[0\]: unknown keys"),
        ('{"withdrawals": [{"user": 1, "value": 5, "target": -1}]}', r"withdrawals\[0\]\.target"),
        ('{"basefee": 0}', "basefee"),
        ('{"deposits": [{"value": 5}]}', r"^deposits\[0\]\.user: missing$"),
        ('{"withdrawals": [{"user": 1, "value": true}]}',
         r"^withdrawals\[0\]\.value: expected int, got bool$"),
        ('{"transfers": [[1, 2]]}', r"^transfers\[0\]: expected an object, got list$"),
        ('{"deposits": [{"user": 1, "value": 5, "zz": 1, "fees": 1}]}',
         "^" + re.escape("deposits[0]: unknown keys ['fees', 'zz']") + "$"),
        (f'{{"deposits": [{{"user": 1, "value": {1 << 128}}}]}}',
         r"^deposits\[0\]\.value: must lie in \[0, 2\^128\)$"),
    ])
    def test_malformed_field_is_a_config_error_naming_its_path(self, payload, path):
        # "[]" is refused by the parse, every other payload by ``validate``
        with pytest.raises(ConfigError, match=path):
            ScenarioConfig.from_json(payload).validate()

    @pytest.mark.parametrize("payload, message", [
        ('{"rollup": "validity", "field_prime": 4}', "field_prime: 4 is not prime"),
        ('{"group_order": 341}', "group_order: 341 is not prime"),  # a base-2 pseudoprime
        ('{"rollup": "validity", "field_prime": 65537}', "field_prime: must exceed 2"),
        ('{"field_prime": 341, "group_order": 341}', "^field_prime: 341 is not prime$"),
    ])
    def test_field_prime_and_group_order_checked(self, payload, message):
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig.from_json(payload).validate()

    @pytest.mark.parametrize("field, bound", _BOUNDS.items())
    def test_run_length_fields_bounded_above(self, field, bound):
        config = ScenarioConfig.from_json(json.dumps({field: bound}))
        config.validate()
        assert getattr(config, field) == bound
        with pytest.raises(ConfigError, match=f"^{field}: "):
            ScenarioConfig.from_json(json.dumps({field: bound + 1})).validate()

    def test_named_substreams_differ(self):
        config = ScenarioConfig(seed=5)
        assert config.rng("a").random() != config.rng("b").random()
        assert config.rng("a").random() == config.rng("a").random()


_JUNK = ("x", "", 1.5, None, True, [], {}, [1, "a"], {"k": [None]}, [[{}]])
_INTS = (-1, 0, 1, 2, 7, 2**31, 2**64, 2**128, 2**160, 2**256, -(2**70))
_DEEP = "deeply nested"  # replaced by 3,000 nested arrays in the payload
# "field: ", "section[i]: " or "section[i].key: "; "config: " for the whole document
_FIELD_PATH = re.compile(r"[a-z_]+(\[\d+\](\.[a-z_]+)?)?: ")
_FUZZ_BASES = (
    ScenarioConfig(
        rollup="optimistic", planted_fraud=True, dispute_steps=64, fault_position=40,
        deposits=[{"user": 0x100, "value": 10_000, "gas_limit": 100_000}],
        transfers=[{"user": 0x100, "target": 0x200, "value": 1_000}],
        withdrawals=[{"user": 0x200, "value": 700, "target": 0x300}],
    ),
    ScenarioConfig(
        rollup="validity",
        deposits=[{"user": 0x100, "value": 10_000, "fee": 5}],
        transfers=[{"user": 0x100, "target": 0x200, "value": 1_000}],
        withdrawals=[{"user": 0x200, "value": 700}],
    ),
)


def _slots(node):
    """(container, key) of every value in a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, value in items:
        out.append((node, key))
        out += _slots(value)
    return out


def _mutant(rng):
    """A valid config's JSON with one to three random mutations."""
    obj = json.loads(rng.choice(_FUZZ_BASES).to_json())
    for _ in range(rng.randint(1, 3)):
        container, key = rng.choice(_slots(obj))
        kind = rng.randrange(6)
        if kind == 0:  # wrong type
            container[key] = copy.deepcopy(rng.choice(_JUNK))
        elif kind == 1:  # negative, zero or huge int
            container[key] = rng.choice(_INTS)
        elif kind == 2:  # unknown or duplicate key
            target = container if isinstance(container, dict) else obj
            target[rng.choice(("zz", "user", "fees", "rollupz"))] = rng.choice(_INTS + _JUNK)
        elif kind == 3:  # missing key or list item
            del container[key]
        elif kind == 4:  # nested junk around a value
            container[key] = [container[key]] if rng.random() < 0.5 else {"v": container[key]}
        else:
            container[key] = _DEEP
    return json.dumps(obj).replace(json.dumps(_DEEP), "[" * 3000 + "]" * 3000)


def _above_bound(payload):
    """The bounded fields of a mutant that hold an int above their bound."""
    try:
        obj = json.loads(payload)
    except RecursionError:
        return {}
    return {
        name: bound for name, bound in _BOUNDS.items()
        if type(obj.get(name)) is int and obj[name] > bound
    }


def _valid_when_clamped(payload, above):
    """True iff the mutant is a valid config with each field in ``above`` at its bound."""
    obj = json.loads(payload)
    obj.update(above)
    try:
        ScenarioConfig.from_json(json.dumps(obj)).validate()
    except ConfigError:
        return False
    return True


def _assert_each_withdrawal_ends_once(report, config):
    """Each configured withdrawal ends in exactly one terminal outcome.

    The outcomes are ``withdrawal_not_initiated``, ``withdrawal_consumed``, or
    the optimistic pair keyed by withdrawal hash: ``finalize_rejected`` at
    ``on_time - 1`` (refused by design), then ``withdrawal_finalized`` or
    ``finalize_rejected`` at ``on_time``, the honest proposal's time plus the
    dispute period.
    """
    ended = 0
    on_time = None
    pairs = {}
    for entry in report.timeline:
        name = entry["event"]
        if name in ("withdrawal_not_initiated", "withdrawal_consumed"):
            ended += 1
        elif name == "output_proposed" and not entry["fraudulent"]:
            on_time = entry["time"] + config.dispute_period
        elif name in ("finalize_rejected", "withdrawal_finalized"):
            pairs.setdefault(entry["withdrawal"], []).append((name, entry["time"]))
    for withdrawal, events in pairs.items():
        assert len(events) == 2, (withdrawal, events)
        assert events[0] == ("finalize_rejected", on_time - 1), (withdrawal, events)
        assert events[1][1] == on_time, (withdrawal, events)
    assert ended + len(pairs) == len(config.withdrawals), (ended, len(pairs))


class TestConfigFuzz:
    def test_mutants_are_valid_or_name_their_field_path(self):
        rng = random.Random(2024)
        runs = []
        named_bounds = 0
        for _ in range(400):
            payload = _mutant(rng)
            above = _above_bound(payload)
            try:
                config = ScenarioConfig.from_json(payload)
                config.validate()
            except ConfigError as exc:
                assert _FIELD_PATH.match(str(exc)), (str(exc), payload[:200])
                # a mutant whose only fault is a field above its bound is
                # rejected for that field
                if above and _valid_when_clamped(payload, above):
                    assert str(exc).startswith(tuple(f"{name}: " for name in above)), str(exc)
                    named_bounds += 1
                continue
            assert not above, (above, payload[:200])
            assert ScenarioConfig.from_json(config.to_json()) == config
            # run cost grows with these fields, so only mutants near the
            # defaults run, which keeps the test to a few seconds
            small = (
                config.window <= 8
                and config.proof_cadence_blocks <= 8
                and config.dispute_steps <= 1024
            )
            if small and len(runs) < 8:
                runs.append(config)
        assert len(runs) == 8
        assert named_bounds, "no mutant exceeded a bound alone"
        for config in runs:
            # a rejected action is a timeline event, never a raise, and the
            # run's own checks hold
            report = run(config)
            assert report.ok, config.to_json()[:200]
            _assert_each_withdrawal_ends_once(report, config)


class TestOptimisticScenario:
    def test_empty_workload(self):
        report = run(ScenarioConfig(rollup="optimistic"))
        assert report.ok
        assert report.withdrawal_latencies == {}
        assert report.gas["da_bytes_posted"] == 0

    def test_fraud_scenario_challenger_wins_and_slashes(self):
        config = ScenarioConfig(
            rollup="optimistic", planted_fraud=True,
            dispute_steps=256, fault_position=100, **WORKLOAD,
        )
        report = run(config)
        assert report.ok
        assert report.dispute["winner"] == "challenger"
        assert report.dispute["stake_slashed"] > 0
        events = [e["event"] for e in report.timeline]
        assert "dispute_resolved" in events
        assert events.index("finalize_rejected") < events.index("withdrawal_finalized")

    def test_withdrawal_waits_out_dispute_period(self):
        report = run(ScenarioConfig(rollup="optimistic", **WORKLOAD))
        assert report.ok
        (latency,) = report.withdrawal_latencies.values()
        assert latency["seconds"] >= 7 * 24 * 3600

    def test_rejection_carries_contract_message(self):
        report = run(ScenarioConfig(rollup="optimistic", **WORKLOAD))
        rejected = [e for e in report.timeline if e["event"] == "finalize_rejected"]
        assert rejected and rejected[0]["reason"] == "proposal is not yet finalized"

    def test_zero_value_transfer_from_an_account_never_funded(self):
        # 0 < 0 passes the funds check for a sender with no L2 balance entry
        transfers = [{"user": 1, "target": 2, "value": 0}]
        report = run(ScenarioConfig(rollup="optimistic", transfers=transfers))
        assert report.ok
        assert _events(report, "derived")[0]["l2_blocks"] > 0


def funded_users(n, **overrides):
    """Optimistic config: n users each deposit, transfer to the next and withdraw."""
    users = [0x1000 + i for i in range(n)]
    return ScenarioConfig(
        rollup="optimistic",
        deposits=[{"user": u, "value": 10_000} for u in users],
        transfers=[
            {"user": u, "target": users[(i + 1) % n], "value": 1_000}
            for i, u in enumerate(users)
        ],
        withdrawals=[{"user": u, "value": 700} for u in users],
        **overrides,
    )


def wide_funded_users(n):
    """``funded_users`` with 48-digit addresses and fixed-width values, as a
    real L1 address space gives, so the channel compresses per user as in
    the benchmark's workloads."""
    users = [10**47 + 7_919 * i for i in range(n)]
    return ScenarioConfig(
        rollup="optimistic",
        deposits=[{"user": u, "value": 5_000_000} for u in users],
        transfers=[
            {"user": u, "target": users[(i + 1) % n], "value": 500_000}
            for i, u in enumerate(users)
        ],
        withdrawals=[{"user": u, "value": 400_000} for u in users],
    )


def _events(report, name):
    return [e for e in report.timeline if e["event"] == name]


class TestOptimisticScale:
    def test_permutation_budget_at_80_users(self, keccak_perms):
        report = run(funded_users(80))
        assert report.ok
        # 458 now that the portal reads the L2 tree's digests from the run's
        # memo, 619 when it folded the tree again, 622 with JSON transactions
        # and state root, 689 when the config hash ran through Keccak, 1,168
        # when each withdrawal proof was folded from scratch
        assert keccak_perms.perms <= 500

    def test_320_users_spill_deposits_and_stay_linear(self, keccak_perms):
        report = run(funded_users(40))
        per_user_40 = keccak_perms.perms / 40
        keccak_perms.perms = 0
        report = run(funded_users(320))
        assert report.ok
        assert len(_events(report, "withdrawal_finalized")) == 320
        # 80 deposits of 100k guaranteed gas fill a block's 8M cap
        deposit_blocks = [e["block"] for e in _events(report, "deposit")]
        assert deposit_blocks == sorted(deposit_blocks)
        assert set(deposit_blocks) == {0, 1, 2, 3}
        # the batch anchors to the block after the last deposit block
        initiated = {lat["initiated_at"] for lat in report.withdrawal_latencies.values()}
        assert initiated == {4 * 12}
        # 5.49 per user at 320 and 6.05 at 40 now; 7.49 and 8.07 when the
        # portal folded the L2 tree again; 7.51 and 8.18 with JSON
        # transactions and state root; 8.32 and 9.05 when the config hash ran
        # through Keccak; 16.32 and 14.03 when each withdrawal proof was
        # folded from scratch
        assert keccak_perms.perms / 320 <= per_user_40

    def test_permutation_budget_at_32_wide_users(self, keccak_perms):
        assert run(wide_funded_users(32)).ok
        # one output root, at the tip, and no proof node folded again: 195
        # now, 258 when the portal folded each node once more, 283 with JSON
        # transactions and state root, 355 when the config hash ran through
        # Keccak, 484 when each proof was folded from scratch, 827 when every
        # L2 block hashed itself and committed its state and withdrawal roots
        assert keccak_perms.perms <= 210

    def test_per_user_permutations_flat_from_256_to_1024_users(self, sha3_perms):
        per_user = {}
        for n in (256, 1024):
            sha3_perms.perms = 0
            assert run(wide_funded_users(n)).ok
            per_user[n] = sha3_perms.perms / n
        # 7.55 and 7.47 now (0.99x); 8.27 and 8.18 (0.99x) with JSON
        # transactions and state root; 10.43 and 10.33 (0.99x) when the config
        # hash ran through Keccak; 17.43 and 19.33 (1.11x) when each
        # withdrawal proof was folded from scratch, at log n + 1 hashes;
        # 29.28 and 34.73 (1.19x) with a state root per L2 block
        assert per_user[1024] <= 1.02 * per_user[256]

    @pytest.mark.parametrize("workload", ["op-withdrawals", "validity-messages"])
    def test_per_user_python_lines_flat_from_256_to_1024_users(
        self, sha3_perms, bench_workloads, workload
    ):
        # Python line events inside the package, the Keccak kernels left out,
        # gate the non-hash work as the test above gates hashing. A ratio,
        # not a pin, because line events differ between Python versions.
        package = os.path.dirname(rollsim.__file__) + os.sep
        kernels = {"_keccak_f", "_keccak_f_packed"}
        lines = 0

        def count_lines(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return count_lines

        def enter(frame, event, arg):
            code = frame.f_code
            if code.co_filename.startswith(package) and code.co_name not in kernels:
                return count_lines
            return None

        per_user = {}
        for n in (256, 1024):
            config = dataclasses.replace(bench_workloads.WORKLOADS[workload], users=n).config(1)
            lines = 0
            previous = sys.gettrace()
            sys.settrace(enter)
            try:
                report = run(config)
            finally:
                sys.settrace(previous)
            assert report.ok
            per_user[n] = lines / n
        # optimistic 1,352 and 1,371 per user (1.014x) on Python 3.11, and
        # 1,241 and 1,394 (1.124x) when channel reading was quadratic in
        # frames; validity 495 and 454 (0.917x)
        assert per_user[1024] <= 1.05 * per_user[256], per_user

    def test_unfunded_withdrawal_is_an_event(self):
        config = funded_users(3)
        config.withdrawals.insert(1, {"user": 0xDEAD, "value": 5})
        config.withdrawals.append({"user": 0x1000, "value": 10**9})
        report = run(config)
        assert report.ok
        skipped = _events(report, "withdrawal_not_initiated")
        assert [(e["user"], e["value"]) for e in skipped] == [(0xDEAD, 5), (0x1000, 10**9)]
        finalized = _events(report, "withdrawal_finalized")
        assert [e["value"] for e in finalized] == [700, 700, 700]

    def test_channel_past_65536_frames_is_rejected_not_raised(self, sha3_perms):
        # at one byte per frame, 1,250 users' channel needs 67,940 frames
        # (900 users' needed 67,061 with JSON transactions, 49,084 now)
        n = 1_250
        rng = random.Random(3)
        users = [rng.randrange(2**159, 2**160) for _ in range(n)]
        config = ScenarioConfig(
            max_frame_bytes=1,
            deposits=[{"user": u, "value": 10**6} for u in users],
            transfers=[{"user": u, "target": users[(i + 1) % n], "value": rng.randrange(10**5)}
                       for i, u in enumerate(users)],
            withdrawals=[{"user": u, "value": rng.randrange(10**5)} for u in users],
        )
        report = run(config)
        assert report.ok
        (rejected,) = _events(report, "batch_rejected")
        assert rejected["frames"] > 65_536 and "uint16" in rejected["reason"]
        assert _events(report, "frame_posted") == []
        assert len(_events(report, "withdrawal_not_initiated")) == n
        assert report.gas["da_bytes_posted"] == 0

    def test_oversized_deposit_is_rejected_not_raised(self):
        config = funded_users(2)
        config.deposits.insert(0, {"user": 0x77, "value": 1, "gas_limit": 9_000_000})
        report = run(config)
        assert report.ok
        (rejected,) = _events(report, "deposit_rejected")
        assert rejected["user"] == 0x77 and "exceeds" in rejected["reason"]
        assert len(_events(report, "withdrawal_finalized")) == 2

    def test_withdrawal_gas_above_finalize_budget_is_rejected_not_raised(self):
        config = funded_users(2)
        config.withdrawals[0]["gas_limit"] = 10**8
        report = run(config)
        assert report.ok
        reasons = [e["reason"] for e in _events(report, "finalize_rejected")]
        assert "insufficient gas to finalize withdrawal" in reasons
        assert len(_events(report, "withdrawal_finalized")) == 1


def funded_validity_users(n):
    config = funded_users(n)
    config.rollup = "validity"
    return config


class TestValidityScale:
    def test_320_users_within_permutation_budget_and_linear(self, keccak_perms):
        run(funded_validity_users(40))
        per_user_40 = keccak_perms.perms / 40
        keccak_perms.perms = 0
        report = run(funded_validity_users(320))
        assert report.ok
        assert len(_events(report, "withdrawal_consumed")) == 320
        # each message and each settlement page is hashed once per run: 1,598
        # now that the verifier and L1's consumes read the run's memo, 2,549
        # when each was hashed once per side, in pages of 72 words, 2,535
        # when settlement hashed each blob in one sponge, 2,795 when the
        # config hash ran through Keccak, 3,097 when the settlement digest
        # rehashed the diff, 5,657 when settlement rehashed every message
        # from its fields
        assert keccak_perms.perms <= 1_650
        assert keccak_perms.perms / 320 <= 1.1 * per_user_40

    def test_unfunded_withdrawal_is_an_event(self):
        config = funded_validity_users(3)
        config.withdrawals.insert(1, {"user": 0xDEAD, "value": 5})
        config.withdrawals.append({"user": 0x1000, "value": 10**9})
        report = run(config)
        assert report.ok
        skipped = _events(report, "withdrawal_not_initiated")
        assert [(e["user"], e["value"]) for e in skipped] == [(0xDEAD, 5), (0x1000, 10**9)]
        consumed = _events(report, "withdrawal_consumed")
        assert [e["value"] for e in consumed] == [700, 700, 700]


class TestValidityScenario:
    def test_one_primality_test_per_prime(self, monkeypatch, bench_workloads):
        # the config's check of field_prime (equal to group_order), and the
        # group's, whose scalar field the prover and QAP share
        tested = []

        def counted(n, _is_prime=algebra.is_prime):
            tested.append(n)
            return _is_prime(n)

        monkeypatch.setattr(algebra, "is_prime", counted)
        monkeypatch.setattr(scenarios, "is_prime", counted)
        config = bench_workloads.WORKLOADS["validity-messages"].config(1)
        assert run(config).ok
        assert tested == [config.field_prime, config.group_order]

    def test_one_message_object_per_send_and_per_consume(self, monkeypatch, bench_workloads):
        built = {}
        for cls in (L1ToL2Message, L2ToL1Message):
            def counted(message, *args, _init=cls.__init__, _cls=cls, **kwargs):
                built[_cls] = built.get(_cls, 0) + 1
                _init(message, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        # user 2 asks for more than it holds, so only user 1's withdrawal is sent
        small = ScenarioConfig(
            rollup="validity", deposits=[{"user": 1, "value": 100}, {"user": 2, "value": 50}],
            withdrawals=[{"user": 1, "value": 10}, {"user": 2, "value": 60}],
        )
        workload = bench_workloads.WORKLOADS["validity-messages"].config(1)
        for config, sent in ((small, (2, 1)), (workload, (320, 320))):
            built.clear()
            report = run(config)
            assert report.ok
            deposits, withdrawals = (
                len(_events(report, "message_to_l2")), len(_events(report, "withdrawal_initiated"))
            )
            assert (deposits, withdrawals) == sent
            # the L2 builds one message per withdrawal it sends, and L1's
            # consume builds one more from the payload it is asked to check,
            # through ``l2_to_l1_message_hash``
            messages = (built.get(L1ToL2Message), built.get(L2ToL1Message))
            assert messages == (deposits, 2 * withdrawals)

    def test_each_hashed_byte_string_built_once(self, monkeypatch, bench_workloads):
        # each deposit message is encoded for its prefetch and for its hash;
        # each withdrawal message once, for its send and its prefetch, and
        # once more where L1 encodes the payload it is asked to consume. The
        # diff is encoded to publish and to cost, and its calldata built by the
        # prover, the verifier and the cost block. The message blob is joined
        # once, with one length word in front of each of its two lists.
        calls = {}

        def counted(name, fn):
            def count(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return count

        monkeypatch.setattr(messaging, "_words", counted("words", messaging._words))
        monkeypatch.setattr(settlement, "_word", counted("length words", settlement._word))
        for fn, name in ((statediff.encode_state_diff, "diff"),
                         (statediff.diff_calldata_bytes, "diff calldata")):
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("rollsim") and getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, counted(name, fn))
        report = run(bench_workloads.WORKLOADS["validity-messages"].config(1))
        assert report.ok and len(_events(report, "withdrawal_consumed")) == 320
        assert calls == {"words": 4 * 320, "diff": 2, "diff calldata": 3, "length words": 2 * 1}

    def test_withdrawal_next_block_after_settlement(self):
        report = run(ScenarioConfig(rollup="validity", **WORKLOAD))
        assert report.ok
        (latency,) = report.withdrawal_latencies.values()
        settle = next(e for e in report.timeline if e["event"] == "proof_settled")
        consume = next(e for e in report.timeline if e["event"] == "withdrawal_consumed")
        assert consume["block"] == settle["block"] + 1
        assert latency["blocks"] * 12 == latency["seconds"]

    def test_cost_block_present(self):
        report = run(ScenarioConfig(rollup="validity", **WORKLOAD))
        assert report.cost["l1_storage_gas"] > 0

    def test_identical_withdrawals_each_get_a_latency_entry(self):
        config = ScenarioConfig(
            rollup="validity", deposits=[{"user": 1, "value": 100}],
            withdrawals=[{"user": 1, "value": 10}, {"user": 1, "value": 10}],
        )
        report = run(config)
        assert report.ok
        first, second = _events(report, "withdrawal_consumed")
        assert first["hash"] == second["hash"]  # equal withdrawals, equal messages
        assert sorted(report.withdrawal_latencies) == [first["hash"], first["hash"] + "#2"]
        config.rollup = "optimistic"
        assert len(run(config).withdrawal_latencies) == 2

    def test_much_faster_than_optimistic_twin(self):
        opt = run(ScenarioConfig(rollup="optimistic", **WORKLOAD))
        val = run(ScenarioConfig(rollup="validity", **WORKLOAD))
        (opt_latency,) = opt.withdrawal_latencies.values()
        (val_latency,) = val.withdrawal_latencies.values()
        assert val_latency["seconds"] < opt_latency["seconds"] / 1000

    def test_bridge_refuses_a_deposit_from_another_l1_address(self):
        l2 = ValidityL2State()
        message = L1ToL2Message(from_address=0xBAD, to_address=L2_BRIDGE_ADDRESS,
                                selector=register_bridge(l2), payload=(0x100, 5), nonce=0, fee=0)
        # raised, not asserted, so the guard holds under ``python -O`` too
        with pytest.raises(HandlerAssertionError, match="0xbad"):
            dispatch_l1_handler(l2, message)
        assert l2.storage == {} and l2.consumed_inbox == []


class TestTimeline:
    def test_entry_is_in_the_pending_block_before_and_after_mining(self):
        ctx = _Run(ScenarioConfig(block_time=7))
        ctx.log("before", user=2, amount=1)
        ctx.chain.mine_block()
        ctx.log("after")
        ctx.log("stamped", time=100)
        assert ctx.timeline == [
            {"time": 0, "block": 0, "event": "before", "amount": 1, "user": 2},
            {"time": 7, "block": 1, "event": "after"},
            {"time": 100, "block": 1, "event": "stamped"},
        ]
        # details follow the three fixed keys in name order
        assert list(ctx.timeline[0]) == ["time", "block", "event", "amount", "user"]


class TestIdentityTags:
    """config_hash and report_hash are FIPS-202 SHA3-256 of the JSON bytes."""

    def test_config_hash_is_sha3_256_of_its_json(self):
        config = ScenarioConfig(seed=3, rollup="validity", **WORKLOAD)
        expected = hashlib.sha3_256(config.to_json().encode()).hexdigest()
        assert config.config_hash() == expected

    def test_report_hash_is_sha3_256_of_its_json(self):
        report = run(ScenarioConfig(rollup="optimistic", **WORKLOAD))
        expected = hashlib.sha3_256(report.to_json().encode()).hexdigest()
        assert report.report_hash() == expected

    def test_tags_run_no_keccak(self, keccak_perms):
        config = ScenarioConfig(rollup="validity", **WORKLOAD)
        report = run(config)
        keccak_perms.perms = 0
        config.config_hash()
        report.report_hash()
        assert keccak_perms.perms == 0


class TestDeterminism:
    def test_same_seed_same_report(self):
        config = ScenarioConfig(
            rollup="optimistic", seed=11, planted_fraud=True,
            dispute_steps=128, fault_position=64, **WORKLOAD,
        )
        payloads = {run(config).to_json() for _ in range(3)}
        assert len(payloads) == 1

    def test_different_seed_different_hash(self):
        a = run(ScenarioConfig(rollup="optimistic", seed=1, **WORKLOAD))
        b = run(ScenarioConfig(rollup="optimistic", seed=2, **WORKLOAD))
        assert a.config_hash != b.config_hash

    def test_report_embeds_version_and_config_hash(self):
        config = ScenarioConfig(rollup="validity", **WORKLOAD)
        report = run(config)
        payload = json.loads(report.to_json())
        from rollsim import __version__

        assert payload["version"] == __version__
        assert payload["config_hash"] == config.config_hash()

