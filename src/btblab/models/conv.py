"""Conventional set-associative BTB storing full targets."""

from __future__ import annotations

from ..core import ALIGNED4, IsaProfile
from ..storage import conv_tag_bits
from .base import BtbModel, divisor_ways


class ConvBtb(BtbModel):
    """Full-target BTB with partial (hashed) tags and plain LRU.

    The entry count is taken at face value from the storage budget, so it is
    not always divisible by the nominal associativity; the constructor drops
    to the largest associativity that divides it (e.g. 116 entries -> 4-way
    over 29 sets) and indexes sets by modulo, which also covers
    non-power-of-two set counts.

    A full target does not depend on the pc, so an entry is just the
    prediction its hits return.  The tag is as wide as the profile's
    64-bit entry leaves room for (`storage.conv_tag_bits`).
    """

    name = "conv"

    def __init__(self, entries: int, isa: IsaProfile = ALIGNED4):
        if entries < 1:
            raise ValueError(f"entries must be >= 1, got {entries}")
        ways = divisor_ways(entries)
        super().__init__(entries // ways, ways, conv_tag_bits(isa), isa)
        self.entries = entries
