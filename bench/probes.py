"""Outside-in instrumentation of rollsim's public functions.

Nothing here edits ``src/``. A ``Probe`` replaces a public callable at every
binding the ``rollsim`` package holds for it: module globals (including
``from .x import name`` copies), class attributes, properties, and default
arguments such as ``merkle``'s ``hash_fn=keccak256``. Wrapping a function only
in its defining module would miss those copies. ``Probe.close`` puts every
original back.

Two wrappers are built on it:

* ``PermCounter`` counts Keccak-f permutations (``len(data) // 136 + 1`` per
  ``keccak256`` call), cheaply enough for an untimed counting pass;
* ``SpanRecorder`` records one span (name, start, end, parent) per call of
  each wrapped layer function, plus counts taken at the same boundaries, and
  turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from typing import Callable

RATE = 136  # Keccak-256 rate in bytes; one permutation per started block


def perms_for(data: bytes) -> int:
    """Keccak-f permutations ``keccak256(data)`` runs (padding adds a block at 136k)."""
    return len(data) // RATE + 1


def _package_modules() -> list[types.ModuleType]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "rollsim" or name.startswith("rollsim."))
    ]


def _functions_of(module: types.ModuleType):
    """Every plain function a module defines or holds, including class members."""
    for value in vars(module).values():
        if isinstance(value, types.FunctionType):
            yield value
        elif isinstance(value, type) and value.__module__ == module.__name__:
            for member in vars(value).values():
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if isinstance(member, types.FunctionType):
                    yield member


def _unwrapped(fn):
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


class Probe:
    """Replaces callables at every rollsim binding; ``close`` restores them."""

    def __init__(self):
        self._undo: list[Callable[[], None]] = []

    def wrap(self, module_name: str, qualname: str, make_wrapper) -> None:
        """Wrap ``rollsim.<module_name>.<qualname>`` with ``make_wrapper(original)``.

        ``qualname`` is a module-level function (``"derive"``) or a class
        member (``"Chain.mine_block"``); a property is wrapped through its
        getter.
        """
        module = importlib.import_module(f"rollsim.{module_name}")
        owner_name, _, member = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = vars(owner)[member]
            original = raw.fget if isinstance(raw, property) else raw
            wrapper = functools.wraps(original)(make_wrapper(original))
            replacement = property(wrapper) if isinstance(raw, property) else wrapper
            self._set(owner, member, replacement)
            return
        original = getattr(module, member)
        wrapper = functools.wraps(original)(make_wrapper(original))
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)
            for fn in _functions_of(mod):
                self._rebind_defaults(_unwrapped(fn), original, wrapper)

    def _set(self, owner, name: str, value) -> None:
        previous = vars(owner)[name]
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, previous))

    def _rebind_defaults(self, fn, original, wrapper) -> None:
        defaults = fn.__defaults__
        if defaults and any(d is original for d in defaults):
            fn.__defaults__ = tuple(wrapper if d is original else d for d in defaults)
            self._undo.append(lambda: setattr(fn, "__defaults__", defaults))
        kwdefaults = fn.__kwdefaults__
        if kwdefaults and any(d is original for d in kwdefaults.values()):
            fn.__kwdefaults__ = {
                k: wrapper if d is original else d for k, d in kwdefaults.items()
            }
            self._undo.append(lambda: setattr(fn, "__kwdefaults__", kwdefaults))

    def close(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PermCounter(Probe):
    """Counts Keccak-f permutations run through ``hashing.keccak256``."""

    def __init__(self):
        super().__init__()
        self.perms = 0
        self.calls = 0

        def make(keccak256):
            def counted(data):
                self.calls += 1
                self.perms += len(data) // RATE + 1
                return keccak256(data)

            return counted

        self.wrap("hashing", "keccak256", make)


# --- the traced pass ------------------------------------------------------------

# (module, qualname) of every wrapped layer function; the span and metric
# prefix is "<module>.<qualname>", with a constructor named after its class.
LAYER_FUNCTIONS = (
    ("hashing", "keccak256"),
    ("merkle", "MerkleTree.__init__"),
    ("merkle", "fold_proof"),
    ("merkle", "verify_inclusion"),
    ("oprollup.l2", "OpL2State.withdrawal_proof"),
    ("oprollup.l2", "OpL2State.state_root"),
    ("oprollup.l2", "WithdrawalTx.hash"),
    ("oprollup.dispute", "VmRunner.run_trace"),
    ("oprollup.dispute", "VmRunner.step"),
    ("oprollup.dispute", "VmState.hash"),
    ("oprollup.dispute", "MemoryTree.update"),
    ("oprollup.dispute", "VmTrace.step_proof"),
    ("oprollup.dispute", "HonestAgent.state_hash"),
    ("oprollup.dispute", "FaultyAgent.state_hash"),
    ("oprollup.dispute", "run_dispute"),
    ("oprollup.batching", "build_channel"),
    ("oprollup.batching", "split_frames"),
    ("rlp", "encode"),
    ("rlp", "decode"),
    ("oprollup.derivation", "derive"),
    ("oprollup.derivation", "execute_chain"),
    ("oprollup.deposits", "OptimismPortal.deposit_transaction"),
    ("oprollup.withdrawals", "WithdrawalPortal.finalize_withdrawal"),
    ("l1sim", "Chain.submit_tx"),
    ("l1sim", "Chain.mine_block"),
    ("validityrollup.messaging", "StarkNetCore.send_message_to_l2"),
    ("validityrollup.messaging", "StarkNetCore.consume_message_from_l2"),
    ("validityrollup.messaging", "l2_to_l1_message_hash"),
    ("validityrollup.messaging", "L1ToL2Message.hash"),
    ("validityrollup.settlement", "prove_transition"),
    ("validityrollup.settlement", "settle"),
    ("validityrollup.statediff", "encode_state_diff"),
    ("validityrollup.cairo", "run_program"),
    ("snark", "setup"),
    ("snark", "prove"),
    ("snark", "verify"),
    ("costbench", "compression_stats"),
    ("costbench", "da_cost_comparison"),
    ("scenarios", "ScenarioConfig.config_hash"),
    ("scenarios", "run"),
)

# Every instrumented module but hashing gets the Keccak-f permutations run
# while it is the innermost open span; "scenarios" also takes those outside
# every span.
PERM_LAYERS = tuple(
    dict.fromkeys(module for module, _ in LAYER_FUNCTIONS if module != "hashing")
)

# Per-layer metrics the traced pass reports: "<span>.calls" and "<span>.s"
# come from spans, the rest from counts taken at the same boundaries.
LAYER_METRICS = (
    ("hashing.keccak256.calls", "count"),
    ("hashing.keccak256.bytes", "bytes"),
    ("hashing.keccak256.s", "s"),
    ("merkle.MerkleTree.calls", "count"),
    ("merkle.MerkleTree.leaves", "count"),
    ("merkle.MerkleTree.s", "s"),
    ("merkle.fold_proof.calls", "count"),
    ("merkle.verify_inclusion.calls", "count"),
    ("oprollup.l2.withdrawal_proof.calls", "count"),
    ("oprollup.l2.withdrawal_proof.s", "s"),
    ("oprollup.l2.WithdrawalTx.hash.calls", "count"),
    ("oprollup.l2.withdrawal_hash_reuse", "ratio"),
    ("oprollup.l2.state_root.calls", "count"),
    ("oprollup.l2.state_root.s", "s"),
    ("oprollup.dispute.run_trace.s", "s"),
    ("oprollup.dispute.VmRunner.step.calls", "count"),
    ("oprollup.dispute.VmState.hash.calls", "count"),
    ("oprollup.dispute.state_hash_useful", "ratio"),
    ("oprollup.dispute.MemoryTree.update.calls", "count"),
    ("oprollup.dispute.step_proof.s", "s"),
    ("oprollup.dispute.run_dispute.s", "s"),
    ("oprollup.dispute.rounds", "count"),
    ("oprollup.batching.build_channel.s", "s"),
    ("oprollup.batching.split_frames.s", "s"),
    ("oprollup.batching.frames", "count"),
    ("rlp.encode.calls", "count"),
    ("rlp.decode.calls", "count"),
    ("rlp.s", "s"),
    ("oprollup.derivation.derive.s", "s"),
    ("oprollup.derivation.execute_chain.s", "s"),
    ("oprollup.derivation.l2_blocks", "count"),
    ("oprollup.deposits.deposit_transaction.calls", "count"),
    ("oprollup.deposits.deposit_transaction.s", "s"),
    ("oprollup.withdrawals.finalize_withdrawal.calls", "count"),
    ("oprollup.withdrawals.finalize_withdrawal.s", "s"),
    ("oprollup.withdrawals.finalize_rejected", "count"),
    ("l1sim.Chain.submit_tx.calls", "count"),
    ("l1sim.Chain.submit_tx.s", "s"),
    ("l1sim.Chain.mine_block.calls", "count"),
    ("l1sim.Chain.mine_block.s", "s"),
    ("l1sim.calldata_bytes", "bytes"),
    ("validityrollup.messaging.send_message_to_l2.calls", "count"),
    ("validityrollup.messaging.send_message_to_l2.s", "s"),
    ("validityrollup.messaging.consume_message_from_l2.calls", "count"),
    ("validityrollup.messaging.consume_message_from_l2.s", "s"),
    ("validityrollup.messaging.l2_to_l1_message_hash.calls", "count"),
    ("validityrollup.messaging.l2_to_l1_message_hash.s", "s"),
    ("validityrollup.messaging.L1ToL2Message.hash.calls", "count"),
    ("validityrollup.settlement.prove_transition.s", "s"),
    ("validityrollup.settlement.settle.s", "s"),
    ("validityrollup.statediff.encode_state_diff.s", "s"),
    ("validityrollup.cairo.run_program.s", "s"),
    ("snark.setup.s", "s"),
    ("snark.prove.s", "s"),
    ("snark.verify.s", "s"),
    ("costbench.compression_stats.s", "s"),
    ("costbench.da_cost_comparison.s", "s"),
    ("scenarios.config_hash.s", "s"),
) + tuple((f"{layer}.perms", "count") for layer in PERM_LAYERS)

# metric name -> span names whose calls / self time it sums, where the metric
# name is not simply "<span>.calls" or "<span>.s"
_SPAN_ALIASES = {
    "oprollup.l2.withdrawal_proof": ("oprollup.l2.OpL2State.withdrawal_proof",),
    "oprollup.l2.state_root": ("oprollup.l2.OpL2State.state_root",),
    "oprollup.dispute.run_trace": ("oprollup.dispute.VmRunner.run_trace",),
    "oprollup.dispute.step_proof": ("oprollup.dispute.VmTrace.step_proof",),
    "oprollup.deposits.deposit_transaction": (
        "oprollup.deposits.OptimismPortal.deposit_transaction",
    ),
    "oprollup.withdrawals.finalize_withdrawal": (
        "oprollup.withdrawals.WithdrawalPortal.finalize_withdrawal",
    ),
    "validityrollup.messaging.send_message_to_l2": (
        "validityrollup.messaging.StarkNetCore.send_message_to_l2",
    ),
    "validityrollup.messaging.consume_message_from_l2": (
        "validityrollup.messaging.StarkNetCore.consume_message_from_l2",
    ),
    "scenarios.config_hash": ("scenarios.ScenarioConfig.config_hash",),
    "rlp": ("rlp.encode", "rlp.decode"),
}


def span_name(module_name: str, qualname: str) -> str:
    return f"{module_name}.{qualname.removesuffix('.__init__')}"


class SpanRecorder(Probe):
    """Records a span per wrapped call and counts at the same boundaries.

    Spans are kept in memory as ``(name, start, end, parent)`` with ``parent``
    the index of the enclosing span (-1 for none); ``dump`` writes them out.
    Keccak-f permutations go to the layer of the innermost enclosing span
    that is not ``hashing``, or to ``scenarios`` when there is none.
    """

    def __init__(self):
        super().__init__()
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, float] = {}
        self.layer_perms = dict.fromkeys(PERM_LAYERS, 0)
        self._stack: list[int] = []
        self._layers: list[str] = []  # layer of each open span, parallel to _stack
        self._withdrawal_hashes: set[bytes] = set()
        # span name -> hook(args, kwargs, result), run after a call returns,
        # when the open spans are the caller's again
        hooks = {
            "hashing.keccak256": self._after_keccak,
            "merkle.MerkleTree": lambda args, kwargs, result: self._count(
                "merkle.MerkleTree.leaves", len(args[1] if len(args) > 1 else kwargs["leaves"])
            ),
            "oprollup.l2.WithdrawalTx.hash": lambda args, kwargs, result: (
                self._withdrawal_hashes.add(result)
            ),
            "oprollup.dispute.run_dispute": lambda args, kwargs, result: self._count(
                "oprollup.dispute.rounds", (args[0] if args else kwargs["game"]).rounds
            ),
            "oprollup.batching.split_frames": lambda args, kwargs, result: self._count(
                "oprollup.batching.frames", len(result)
            ),
            "oprollup.derivation.derive": lambda args, kwargs, result: self._count(
                "oprollup.derivation.l2_blocks", len(result)
            ),
            "l1sim.Chain.submit_tx": lambda args, kwargs, result: self._count(
                "l1sim.calldata_bytes",
                len(kwargs.get("calldata", args[3] if len(args) > 3 else b"")),
            ),
        }
        for module_name, qualname in LAYER_FUNCTIONS:
            name = span_name(module_name, qualname)
            self.wrap(
                module_name,
                qualname,
                functools.partial(self._make_span, name, module_name, hooks.get(name)),
            )

    def _make_span(self, name, layer, hook, fn):
        from rollsim.oprollup.withdrawals import WithdrawalError

        spans, stack, layers = self.spans, self._stack, self._layers
        clock = time.perf_counter
        counts_rejections = name == "oprollup.withdrawals.WithdrawalPortal.finalize_withdrawal"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            layers.append(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except WithdrawalError:
                # the scenario tries every withdrawal once too early, by design
                if counts_rejections:
                    self._count("oprollup.withdrawals.finalize_rejected")
                raise
            finally:
                end = clock()
                stack.pop()
                layers.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _after_keccak(self, args, kwargs, result) -> None:
        data = args[0] if args else kwargs["data"]
        self._count("hashing.keccak256.bytes", len(data))
        owner = next((layer for layer in reversed(self._layers) if layer != "hashing"), "scenarios")
        self.layer_perms[owner] += perms_for(data)

    # -- results -----------------------------------------------------------

    def span_totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, tuple[int, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + (end - start) - covered)
        return totals

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of ``LAYER_METRICS``; 0 where a layer did not run."""
        totals = self.span_totals()
        values: dict[str, float] = {}
        for metric, _ in LAYER_METRICS:
            base, _, field = metric.rpartition(".")
            if field in ("calls", "s") and base:
                names = _SPAN_ALIASES.get(base, (base,))
                index = 0 if field == "calls" else 1
                values[metric] = sum(totals.get(n, (0, 0.0))[index] for n in names)
        values.update(self.counts)
        for layer, perms in self.layer_perms.items():
            values[f"{layer}.perms"] = perms
        hash_calls = totals.get("oprollup.l2.WithdrawalTx.hash", (0, 0.0))[0]
        distinct = len(self._withdrawal_hashes)
        values["oprollup.l2.withdrawal_hash_reuse"] = hash_calls / distinct if distinct else 0
        queried = sum(
            totals.get(f"oprollup.dispute.{agent}.state_hash", (0, 0.0))[0]
            for agent in ("HonestAgent", "FaultyAgent")
        )
        computed = totals.get("oprollup.dispute.VmState.hash", (0, 0.0))[0]
        values["oprollup.dispute.state_hash_useful"] = queried / computed if computed else 0
        return {metric: values.get(metric, 0) for metric, _ in LAYER_METRICS}

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines of [name, start, end, parent]."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
