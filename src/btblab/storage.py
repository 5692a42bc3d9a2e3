"""Bit-exact storage accounting for the four BTB organizations.

Per-entry overhead everywhere is valid(1) + tag(12) + type(2) + lru(3) =
18 bits; that split is the unique common choice that makes a conventional
full-target entry come to 64 bits (1+12+2+46+3) and an asymmetric-way set
come to 224 bits (8x18 + 80 offset bits) at the same time.  The companion
full-target buffer uses valid(1) + tag(15) + type(2) + target(46) = 64-bit
entries and is direct-mapped, so it carries no lru bits.

Budgets are carried in bits internally; 1 KB = 8192 bits, and displayed KB
values round half-up at the precision carried by each preset row.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .core import ALIGNED4, BYTE, PAGE_SHIFT, IsaProfile

BITS_PER_KB = 8192

TAG_BITS = 12                      # main-array tag of every organization
PER_ENTRY_OVERHEAD_BITS = 18       # valid 1 + tag 12 + type 2 + lru 3
XC_ENTRY_BITS = 64                 # valid 1 + tag 15 + type 2 + target 46
RBTB_PAGE_ENTRY_BITS = 37          # valid 1 + page number 36

CONV_ENTRY_BITS = 64               # overhead 18 + target, tag trimmed to fit

# The 8 non-decreasing BTB-X way widths of each ISA profile; byte mode's are
# re-sized for byte-granular offsets, so its set costs 230 bits, not 224.
WAY_WIDTHS = {ALIGNED4: (0, 4, 5, 7, 9, 11, 19, 25),   # sum 80
              BYTE: (0, 5, 6, 7, 9, 12, 20, 27)}       # sum 86


class GeometryError(ValueError):
    """Structurally impossible geometry (zero or non-power-of-two sets...)."""


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class _BtbxShape(NamedTuple):
    sets: int
    isa: IsaProfile = ALIGNED4


class BtbxGeometry(_BtbxShape):
    """Asymmetric-way BTB shape: 8 ways of fixed, non-decreasing offset widths
    (the profile's `WAY_WIDTHS`) plus a tiny direct-mapped companion holding
    full targets."""

    __slots__ = ()
    tag_bits = TAG_BITS

    def __new__(cls, sets: int, isa: IsaProfile = ALIGNED4):
        if not _is_pow2(sets):
            raise GeometryError(f"sets must be a power of two, got {sets}")
        return super().__new__(cls, sets, isa)

    @classmethod
    def _make(cls, iterable) -> "BtbxGeometry":
        # NamedTuple's `_make`, which `_replace` calls, skips `__new__`.
        return cls(*iterable)

    @property
    def way_widths(self) -> tuple:
        return WAY_WIDTHS[self.isa]

    @property
    def ways(self) -> int:
        return len(self.way_widths)

    @property
    def xc_entries(self) -> int:
        # One companion entry per 8 sets; tiny test geometries keep a single
        # slot rather than rounding down to an unusable zero.
        return max(1, self.sets // 8)

    @property
    def set_bits(self) -> int:
        return self.ways * PER_ENTRY_OVERHEAD_BITS + sum(self.way_widths)

    @property
    def branch_capacity(self) -> int:
        return self.sets * self.ways + self.xc_entries


def conv_tag_bits(isa: IsaProfile = ALIGNED4) -> int:
    """Tag of a conventional entry: what its 64 bits leave besides the full
    target and the rest of the overhead, so byte-aligned mode's 48-bit
    target takes two tag bits (12 -> 10)."""
    return (CONV_ENTRY_BITS - PER_ENTRY_OVERHEAD_BITS + TAG_BITS
            - isa.max_stored_target_bits)


def arm64_geometry(sets: int = 512) -> BtbxGeometry:
    return BtbxGeometry(sets)


def btbx_total_bits(g: BtbxGeometry) -> int:
    """Total storage: all sets plus the direct-mapped companion."""
    return g.sets * g.set_bits + g.xc_entries * XC_ENTRY_BITS


def conv_capacity(budget_bits: int) -> int:
    """Whole entries a conventional BTB fits in the budget."""
    if budget_bits <= 0:
        raise ValueError(f"budget_bits must be positive, got {budget_bits}")
    return budget_bits // CONV_ENTRY_BITS


def kb(bits: int) -> float:
    return bits / BITS_PER_KB


def round_kb(value: float, places: int) -> float:
    """Round half-up at a fixed number of decimals (display convention)."""
    import decimal  # only this rounding needs it
    q = decimal.Decimal(10) ** -places
    return float(decimal.Decimal(repr(value)).quantize(q, rounding=decimal.ROUND_HALF_UP))


class PdedePreset(NamedTuple):
    """Published per-budget split for the page/region-deduplicating design.

    Its per-field bit layout is not fully itemized anywhere, so capacities
    are preset lookups rather than re-derived; the functional model is
    parameterized independently.  Region storage is fixed (4 entries,
    0.0107 KB) across budgets.
    """

    budget_kb: float
    page_btb_kb: float
    main_btb_kb: float
    avg_entry_bits: float
    branch_capacity: int  # the main-table entries
    page_entries: int
    region_entries: int = 4

    @property
    def page_ptr_bits(self) -> int:
        return max(1, (self.page_entries - 1).bit_length())


class BudgetPreset(NamedTuple):
    """One canonical budget row: geometry, exact bits, display precision,
    and the published page-dedup split at that budget."""

    sets: int
    kb_decimals: int
    pdede: PdedePreset

    def geometry(self, isa: IsaProfile = ALIGNED4) -> BtbxGeometry:
        return BtbxGeometry(self.sets, isa)

    def total_bits(self, isa: IsaProfile = ALIGNED4) -> int:
        return btbx_total_bits(self.geometry(isa))

    def budget_kb(self, isa: IsaProfile = ALIGNED4) -> float:
        return kb(self.total_bits(isa))

    def kb_label(self, isa: IsaProfile = ALIGNED4) -> str:
        rounded = round_kb(self.budget_kb(isa), self.kb_decimals)
        text = f"{rounded:.{self.kb_decimals}f}"
        return text


# The seven canonical budget points (256 .. 16K main entries).  The pdede
# page table halves along with the main table; pointer width tracks
# log2(page entries), which is why its average entry grows half a bit per
# doubling.
STANDARD_PRESETS = (
    BudgetPreset(32, 1, PdedePreset(0.90625, 0.078, 0.817, 32.0, 210, 32)),
    BudgetPreset(64, 1, PdedePreset(1.8125, 0.156, 1.645, 32.5, 415, 64)),
    BudgetPreset(128, 1, PdedePreset(3.625, 0.312, 3.3, 33.0, 820, 128)),
    BudgetPreset(256, 2, PdedePreset(7.25, 0.625, 6.6, 33.5, 1617, 256)),
    BudgetPreset(512, 1, PdedePreset(14.5, 1.25, 13.2, 34.0, 3190, 512)),
    BudgetPreset(1024, 0, PdedePreset(29.0, 2.5, 26.5, 34.5, 6292, 1024)),
    BudgetPreset(2048, 0, PdedePreset(58.0, 5.0, 53.0, 35.0, 12405, 2048)),
)

BUDGET_MATCH_TOLERANCE_KB = 0.01


def standard_budgets_kb(isa: IsaProfile = ALIGNED4) -> list:
    return [p.budget_kb(isa) for p in STANDARD_PRESETS]


def match_preset(budget_kb: float, isa: IsaProfile = ALIGNED4) -> Optional[BudgetPreset]:
    for preset in STANDARD_PRESETS:
        if abs(preset.budget_kb(isa) - budget_kb) <= BUDGET_MATCH_TOLERANCE_KB:
            return preset
    return None


def rbtb_main_entries(preset: BudgetPreset, isa: IsaProfile = ALIGNED4) -> int:
    """Main entries of rbtb at a budget.  Its page table has as many slots
    as the pdede preset's, each a full page number; the remaining bits buy
    main entries of the common overhead, the in-page offset and a page
    pointer."""
    pdede = preset.pdede
    entry_bits = (PER_ENTRY_OVERHEAD_BITS + PAGE_SHIFT - isa.align_shift
                  + pdede.page_ptr_bits)
    page_bits = pdede.page_entries * RBTB_PAGE_ENTRY_BITS
    return (preset.total_bits(isa) - page_bits) // entry_bits


def btbx_geometry_for_budget(budget_kb: float,
                             isa: IsaProfile = ALIGNED4) -> Optional[BtbxGeometry]:
    """Geometry for a budget: exact preset match, else the largest that fits."""
    preset = match_preset(budget_kb, isa)
    if preset is not None:
        return preset.geometry(isa)
    budget_bits = int(budget_kb * BITS_PER_KB)
    best = None
    sets = 8
    while True:
        g = BtbxGeometry(sets, isa)
        if btbx_total_bits(g) > budget_bits:
            break
        best = g
        sets *= 2
    return best


class CapacityRow(NamedTuple):
    """One row of the cross-organization branch-capacity comparison."""

    budget_kb: float
    budget_label: str
    budget_bits: int
    btbx: Optional[int]
    pdede: Optional[int]
    conv: int
    extrapolated: bool = False

    @property
    def ratio_conv(self) -> Optional[float]:
        if self.btbx is None or self.conv == 0:
            return None
        return self.btbx / self.conv

    @property
    def ratio_pdede(self) -> Optional[float]:
        if self.btbx is None or not self.pdede:
            return None
        return self.btbx / self.pdede


def capacity_table(budgets_kb: Optional[Iterable] = None,
                   isa: IsaProfile = ALIGNED4) -> list:
    """Branch counts per organization at each budget.

    Canonical budgets use preset geometries and the published page-dedup
    capacities; anything else is flagged extrapolated, with the pdede column
    left empty (there is no preset to quote) and a warning emitted.
    """
    if budgets_kb is None:
        budgets_kb = standard_budgets_kb(isa)
    rows = []
    for budget in budgets_kb:
        preset = match_preset(budget, isa)
        geometry = btbx_geometry_for_budget(budget, isa)
        if preset is None:
            bits, label, pdede = int(budget * BITS_PER_KB), f"{budget:g}", None
            import logging  # only this warning needs it
            logging.getLogger(__name__).warning(
                "budget %.5g KB matches no preset: pdede column omitted, "
                "other columns extrapolated", budget)
        else:
            bits, label = preset.total_bits(isa), preset.kb_label(isa)
            # page-dedup capacities were published for the aligned-mode
            # budgets only; byte-mode rows leave the column empty
            pdede = preset.pdede.branch_capacity if isa == ALIGNED4 else None
        rows.append(CapacityRow(
            budget_kb=kb(bits),
            budget_label=label,
            budget_bits=bits,
            btbx=geometry.branch_capacity if geometry else None,
            pdede=pdede,
            conv=conv_capacity(bits),
            extrapolated=preset is None,
        ))
    return rows


CAPACITY_CSV_HEADER = "budget_kb,btbx,pdede,conv,ratio_conv,ratio_pdede"


def capacity_table_csv(rows: Iterable) -> str:
    """Render capacity rows with the stable CSV schema."""
    lines = [CAPACITY_CSV_HEADER]
    for row in rows:
        btbx = "" if row.btbx is None else str(row.btbx)
        pdede = "" if row.pdede is None else str(row.pdede)
        rc = "" if row.ratio_conv is None else f"{row.ratio_conv:.4f}"
        rp = "" if row.ratio_pdede is None else f"{row.ratio_pdede:.4f}"
        lines.append(f"{row.budget_label},{btbx},{pdede},{row.conv},{rc},{rp}")
    return "\n".join(lines) + "\n"
