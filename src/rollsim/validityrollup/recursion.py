"""Recursive proof aggregation timing model.

Leaf transactions are proved in parallel; each internal node proves the
verification of its two children, which is cheaper than what it verifies
(poly-log in the verified work). The total latency is the critical path of
the binary tree, against sequential proving which is the plain sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence


class NoLeaves(ValueError):
    """Aggregation needs at least one transaction proof."""


def default_shrink(child_time: float) -> float:
    """Default internal-node proving time: c * log2(1 + R*t)^2.

    Strictly below the identity on (0, inf), so recursion levels get strictly
    faster until they vanish; constants are calibration, not measurement.
    """
    return 0.04 * math.log2(1 + 15 * child_time) ** 2


@dataclass(frozen=True)
class AggregationNode:
    """A leaf (transaction proof) or an internal verification proof."""

    time: float  # this node's own proving time
    finish: float  # critical-path completion time at this node
    children: tuple["AggregationNode", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class AggregationResult:
    """A recursive proof tree with its critical-path and sequential proving times."""

    tree: AggregationNode
    t_tree: float
    t_sequential: float
    level_times: list[float]  # max node time per level, leaves first

    @property
    def leaf_count(self) -> int:
        def count(node: AggregationNode) -> int:
            return 1 if node.is_leaf else sum(count(c) for c in node.children)

        return count(self.tree)


def aggregate_recursive(
    leaf_times: Sequence[float],
    prover_model: Callable[[float], float] = default_shrink,
) -> AggregationResult:
    """Build the binary aggregation tree and compare it to sequential proving.

    Internal-node time is ``prover_model`` applied to the slower child's own
    proving time. Asserts the tree latency against the level-count bound
    (1 + ceil(log2 k)) * max leaf time, which any shrinking model satisfies.
    """
    if not leaf_times:
        raise NoLeaves("no transactions to aggregate")
    level = [
        AggregationNode(time=float(t), finish=float(t)) for t in leaf_times
    ]
    level_times = [max(node.time for node in level)]
    while len(level) > 1:
        next_level = []
        produced = []
        for i in range(0, len(level) - 1, 2):
            left, right = level[i], level[i + 1]
            node_time = prover_model(max(left.time, right.time))
            node = AggregationNode(
                time=node_time,
                finish=max(left.finish, right.finish) + node_time,
                children=(left, right),
            )
            next_level.append(node)
            produced.append(node_time)
        if len(level) % 2:
            next_level.append(level[-1])  # odd node carries up unproven
        level = next_level
        if produced:
            level_times.append(max(produced))
    root = level[0]
    t_sequential = float(sum(leaf_times))
    t_tree = root.finish
    k = len(leaf_times)
    max_leaf = max(float(t) for t in leaf_times)
    levels = 1 + math.ceil(math.log2(k)) if k > 1 else 1
    assert t_tree <= levels * max_leaf + 1e-9, (
        f"critical path {t_tree} exceeds {levels} levels of {max_leaf}"
    )
    return AggregationResult(
        tree=root,
        t_tree=t_tree,
        t_sequential=t_sequential,
        level_times=level_times,
    )
