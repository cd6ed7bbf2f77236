"""The optimistic rollup: deposits, batching, derivation, withdrawals, disputes."""

DISPUTE_PERIOD = 7 * 24 * 3600  # seconds an output root stays challengeable
