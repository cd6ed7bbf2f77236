"""The benchmark's workloads: seeded scenario configs and their output checks.

Each workload turns a seed into a ``ScenarioConfig`` for ``scenarios.run``,
the public entry point, and checks the report that comes back. Why each
workload exists, which layers it loads and its known limits are in
``README.md`` beside this file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from rollsim import scenarios

# Addresses and values have a fixed number of decimal digits, so the JSON the
# simulator hashes has the same length whatever the seed, and the Keccak-f
# permutation count barely moves between seeds.
_ADDRESS_RANGE = (10**47, 10**48)  # below 2**160, the L1 address width
_DEPOSIT_RANGE = (4 * 10**6, 10**7)
_TRANSFER_RANGE = (10**5, 10**6)
_WITHDRAW_RANGE = (10**5, 10**6)


@dataclass(frozen=True)
class Workload:
    name: str
    rollup: str  # "optimistic" or "validity"
    users: int
    dispute_steps: int = 0  # > 0: plant a fraudulent output and play the game

    def config(self, seed: int) -> scenarios.ScenarioConfig:
        """Every user deposits, transfers to the next user and withdraws."""
        from rollsim import scenarios

        rng = random.Random(f"{self.name}:{seed}")
        users: list[int] = []
        seen: set[int] = set()
        while len(users) < self.users:
            user = rng.randrange(*_ADDRESS_RANGE)
            if user not in seen:
                seen.add(user)
                users.append(user)
        deposits, transfers, withdrawals = [], [], []
        for i, user in enumerate(users):
            deposits.append({"user": user, "value": rng.randrange(*_DEPOSIT_RANGE)})
            transfers.append(
                {
                    "user": user,
                    "target": users[(i + 1) % len(users)],
                    "value": rng.randrange(*_TRANSFER_RANGE),
                }
            )
            withdrawals.append({"user": user, "value": rng.randrange(*_WITHDRAW_RANGE)})
        fraud = {}
        if self.dispute_steps:
            # the fault sits at 600/1024 of the trace, as in the CLI's defaults
            fraud = {
                "planted_fraud": True,
                "dispute_steps": self.dispute_steps,
                "fault_position": self.dispute_steps * 600 // 1024,
            }
        return scenarios.ScenarioConfig(
            seed=seed,
            rollup=self.rollup,
            deposits=deposits,
            transfers=transfers,
            withdrawals=withdrawals,
            **fraud,
        )

    def check(self, report: scenarios.RunReport, config: scenarios.ScenarioConfig) -> list[str]:
        """Problems with ``report``; empty when the output is correct."""
        problems = [f"invariant violated: {v}" for v in report.invariant_violations]
        event = "withdrawal_finalized" if self.rollup == "optimistic" else "withdrawal_consumed"
        done = sum(1 for entry in report.timeline if entry["event"] == event)
        if done != len(config.withdrawals):
            problems.append(f"{done} {event} events for {len(config.withdrawals)} withdrawals")
        if self.dispute_steps:
            rounds = math.ceil(math.log2(self.dispute_steps))
            if report.dispute.get("winner") != "challenger":
                problems.append(f"dispute winner {report.dispute.get('winner')!r}")
            if report.dispute.get("rounds") != rounds:
                problems.append(f"dispute took {report.dispute.get('rounds')} rounds, not {rounds}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("op-withdrawals", "optimistic", users=32),
        Workload("op-fraud-trace", "optimistic", users=4, dispute_steps=1024),
        Workload("validity-messages", "validity", users=320),
    )
}
