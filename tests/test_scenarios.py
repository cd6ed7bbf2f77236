import copy
import json
import random
import re

import pytest

from rollsim.scenarios import ConfigError, ScenarioConfig, run

WORKLOAD = dict(
    deposits=[{"user": 0x100, "value": 10_000}],
    transfers=[{"user": 0x100, "target": 0x200, "value": 1_000}],
    withdrawals=[{"user": 0x200, "value": 700}],
)


class TestConfig:
    def test_json_round_trip(self):
        config = ScenarioConfig(seed=3, rollup="validity", **WORKLOAD)
        restored = ScenarioConfig.from_json(config.to_json())
        assert restored == config
        assert restored.config_hash() == config.config_hash()

    def test_bad_rollup_kind(self):
        with pytest.raises(ConfigError, match="rollup"):
            ScenarioConfig.from_json(json.dumps({"rollup": "plasma"}))

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            ScenarioConfig.from_json(json.dumps({"rollupz": "optimistic"}))

    def test_workload_field_path_in_error(self):
        config = ScenarioConfig(deposits=[{"user": 1}])
        with pytest.raises(ConfigError, match=r"deposits\[0\].value"):
            config.validate()

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
    ])
    def test_malformed_field_is_a_config_error_naming_its_path(self, payload, path):
        with pytest.raises(ConfigError, match=path):
            ScenarioConfig.from_json(payload)

    @pytest.mark.parametrize("payload, message", [
        ('{"rollup": "validity", "field_prime": 4}', "field_prime: 4 is not prime"),
        ('{"group_order": 341}', "group_order: 341 is not prime"),  # a base-2 pseudoprime
        ('{"rollup": "validity", "field_prime": 65537}', "field_prime: must exceed 2"),
    ])
    def test_field_prime_and_group_order_checked(self, payload, message):
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig.from_json(payload)

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


class TestConfigFuzz:
    def test_mutants_are_valid_or_name_their_field_path(self):
        rng = random.Random(2024)
        runs = []
        for _ in range(400):
            payload = _mutant(rng)
            try:
                config = ScenarioConfig.from_json(payload)
            except ConfigError as exc:
                assert _FIELD_PATH.match(str(exc)), (str(exc), payload[:200])
                continue
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
        for config in runs:
            run(config)  # a rejected action is a timeline event, never a raise


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


def _events(report, name):
    return [e for e in report.timeline if e["event"] == name]


class TestOptimisticScale:
    def test_permutation_budget_at_80_users(self, keccak_perms):
        report = run(funded_users(80))
        assert report.ok
        assert keccak_perms[0] <= 2_500

    def test_320_users_spill_deposits_and_stay_linear(self, keccak_perms):
        report = run(funded_users(40))
        per_user_40 = keccak_perms[0] / 40
        keccak_perms[0] = 0
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
        assert keccak_perms[0] / 320 <= 1.5 * per_user_40

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
        per_user_40 = keccak_perms[0] / 40
        keccak_perms[0] = 0
        report = run(funded_validity_users(320))
        assert report.ok
        assert len(_events(report, "withdrawal_consumed")) == 320
        # each message is hashed once per side: 3,097 now, 5,657 when
        # settlement rehashed every message from its fields
        assert keccak_perms[0] <= 3_300
        assert keccak_perms[0] / 320 <= 1.1 * per_user_40

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

    def test_much_faster_than_optimistic_twin(self):
        opt = run(ScenarioConfig(rollup="optimistic", **WORKLOAD))
        val = run(ScenarioConfig(rollup="validity", **WORKLOAD))
        (opt_latency,) = opt.withdrawal_latencies.values()
        (val_latency,) = val.withdrawal_latencies.values()
        assert val_latency["seconds"] < opt_latency["seconds"] / 1000


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
