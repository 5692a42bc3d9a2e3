"""Address arithmetic, ISA profiles, the target-offset codec and the RAS
size; also the model names and errors that the CLI needs without the models.

The offset codec is the storage trick everything else builds on: instead of
keeping a full target address per branch, keep only the target's low-order
bits up to (and including) the most significant bit where the target differs
from the branch PC.  The full target is rebuilt by concatenation with the
PC's untouched high bits, so no adder is needed on the recovery path.  On an
ISA with fixed 4-byte instruction alignment the two trailing zero bits are
never stored, saving two more bits per entry.
"""

from __future__ import annotations

from enum import IntEnum
from functools import partial
from typing import NamedTuple, Tuple


MODEL_NAMES = ("conv", "rbtb", "pdede", "btbx")


class ConfigError(ValueError):
    """A model/budget combination that cannot be resolved."""


class InvariantError(AssertionError):
    """Internal model state violated a structural invariant (a bug)."""


class BranchKind(IntEnum):
    """Dynamic branch categories; values double as the on-disk trace codes."""

    CONDITIONAL = 0
    UNCONDITIONAL_DIRECT = 1
    CALL = 2
    RETURN = 3
    INDIRECT = 4
    INDIRECT_CALL = 5


# Plain ints, since a record's kind may be its raw trace code: compare kinds
# with these by value (`==`, `in`), never by identity.
RETURN = BranchKind.RETURN.value
CALL_KINDS = frozenset((BranchKind.CALL.value, BranchKind.INDIRECT_CALL.value))

KIND_NAMES = {
    BranchKind.CONDITIONAL: "cond",
    BranchKind.UNCONDITIONAL_DIRECT: "uncond",
    BranchKind.CALL: "call",
    BranchKind.RETURN: "ret",
    BranchKind.INDIRECT: "ind",
    BranchKind.INDIRECT_CALL: "ind_call",
}
KINDS_BY_NAME = {name: kind for kind, name in KIND_NAMES.items()}


VA_BITS = 48  # virtual address width of both ISA profiles
PAGE_SHIFT = 12  # 4 KB pages: the paged models' page, the generator's stride


class IsaProfile(NamedTuple):
    """Address-space shape a trace and all models agree on.

    mode and name are its isa_mode in binary and in text traces.
    align_shift is log2 of the instruction alignment in bytes: 2 for a
    fixed-width 4-byte-aligned ISA, 0 for a variable-length (byte-aligned)
    one.  Aligned mode never stores the guaranteed-zero low bits of a
    target, so the widest storable offset is VA_BITS - align_shift.
    """

    mode: int
    name: str
    align_shift: int

    @property
    def max_stored_target_bits(self) -> int:
        return VA_BITS - self.align_shift

    def valid_address(self, value: int) -> bool:
        if value < 0 or value >= (1 << VA_BITS):
            return False
        return value & ((1 << self.align_shift) - 1) == 0


# The ISA profiles, indexed by their trace isa_mode code; what else differs
# between them (way widths, tag widths, sizes) is derived from the profile.
PROFILES = (IsaProfile(0, "aligned4", align_shift=2),
            IsaProfile(1, "byte", align_shift=0))
ALIGNED4, BYTE = PROFILES


def profile_for_mode(mode: int) -> IsaProfile:
    for isa in PROFILES:
        if isa.mode == mode:
            return isa
    raise ValueError(f"unknown isa_mode code {mode!r}")


def profile_named(name: str) -> IsaProfile:
    for isa in PROFILES:
        if isa.name == name:
            return isa
    raise ValueError(f"unknown isa_mode {name!r}")


class OffsetEncoding(NamedTuple):
    """A stored target offset: the width kept and the bit pattern itself."""

    stored_width: int
    bits: int


# A record's fields (pc, target, kind, taken, gap), as a binary trace stores
# them: what the simulator and the models read.
Fields = Tuple[int, int, int, int, int]


class BranchRecord(NamedTuple):
    """One dynamic branch event.

    gap counts the non-branch instructions committed since the previous
    record, which is what MPKI denominators are built from.  A record is
    the tuple of its fields in a binary record's order, so code that reads
    records positionally takes it or a binary trace's raw `Fields` alike.
    """

    pc: int
    target: int
    kind: BranchKind
    taken: bool
    gap: int = 0


# Builds a BranchRecord from its fields' tuple in C, skipping the generated
# Python __new__; `load_trace` and `gen_records` build one per record.
new_record = partial(tuple.__new__, BranchRecord)


def required_offset_width(pc: int, target: int, isa: IsaProfile = ALIGNED4) -> int:
    """Minimum stored offset width for this pc/target pair.

    The governing position is the most significant bit where pc and target
    differ (1-based from the LSB); alignment bits below it are never stored.
    Zero when pc == target.
    """
    n = (pc ^ target).bit_length()
    if n == 0:
        return 0
    return n - isa.align_shift


def encode_offset(pc: int, target: int, isa: IsaProfile = ALIGNED4) -> OffsetEncoding:
    """Encode target relative to pc as (stored_width, low offset bits)."""
    width = required_offset_width(pc, target, isa)
    bits = (target >> isa.align_shift) & ((1 << width) - 1)
    return OffsetEncoding(width, bits)


def decode_target(pc: int, enc: OffsetEncoding, isa: IsaProfile = ALIGNED4) -> int:
    """Rebuild a full target by splicing stored offset bits into the pc.

    Pure concatenation: the pc keeps every bit above the stored region, the
    offset (shifted back up by the alignment) supplies the rest.
    """
    n = enc.stored_width + isa.align_shift
    return (pc & ~((1 << n) - 1)) | (enc.bits << isa.align_shift)


def xor_fold(value: int, bits: int) -> int:
    """Fold an arbitrarily wide value down to `bits` bits by repeated XOR.

    Used to hash full tags (and page numbers) into the short fields hardware
    actually stores; deterministic so aliasing is reproducible run to run.
    A negative value has no fold and raises ValueError.
    """
    if value < 0:
        raise ValueError(f"cannot fold a negative value: {value}")
    if bits <= 0:
        return 0
    mask = (1 << bits) - 1
    acc = 0
    while value > mask:
        acc ^= value & mask
        value >>= bits
    return acc ^ value


# A call's return address is its pc plus this many bytes in both ISA modes.
CALL_BYTES = 4

RAS_CAPACITY = 64  # return-address-stack entries of the simulated front end
