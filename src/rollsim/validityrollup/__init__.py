"""The validity rollup: state diffs, messaging, the Cairo-style machine, settlement."""

INSTRUCTION_BITS = 56  # a Cairo instruction word must fit in one field element
