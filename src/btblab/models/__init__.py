"""Functional BTB models behind one lookup/commit-update interface."""

from __future__ import annotations

from typing import Optional

from ..core import ALIGNED4, MODEL_NAMES, ConfigError, IsaProfile
from .. import storage
from .base import (BtbModel, InvariantError, Prediction, SetArray,
                   UpdateOutcome)
from .btbx import BtbX
from .conv import ConvBtb
from .paged import PdedeBtb, RBtb


def _match_preset(budget_kb: float, isa: IsaProfile) -> storage.BudgetPreset:
    preset = storage.match_preset(budget_kb, isa)
    if preset is None:
        budgets = ", ".join(f"{b:g}" for b in storage.standard_budgets_kb(isa))
        raise ConfigError(f"budget {budget_kb:g} KB matches no preset geometry "
                          f"(within 0.01 KB); presets: {budgets}")
    return preset


def build_model(name: str, budget_kb: Optional[float] = None,
                sets: Optional[int] = None,
                isa: IsaProfile = ALIGNED4) -> BtbModel:
    """Instantiate a model sized for a canonical storage budget.

    Budgets resolve only to preset geometries (exact within 0.01 KB) so a
    typo cannot silently configure a different structure; `sets` sizes the
    set-associative models directly instead.
    """
    if name not in MODEL_NAMES:
        raise ConfigError(f"unknown model {name!r}; choose from {', '.join(MODEL_NAMES)}")
    if (budget_kb is None) == (sets is None):
        raise ConfigError("specify exactly one of budget_kb or sets")

    if name == "btbx":
        if sets is not None:
            try:
                return BtbX(storage.BtbxGeometry(sets, isa), isa)
            except storage.GeometryError as exc:
                raise ConfigError(str(exc)) from None
        return BtbX(_match_preset(budget_kb, isa).geometry(isa), isa)

    if name == "conv":
        if sets is not None:
            if sets < 1:
                raise ConfigError(f"sets must be >= 1, got {sets}")
            entries = sets * 8
        else:
            preset = _match_preset(budget_kb, isa)
            entries = storage.conv_capacity(preset.total_bits(isa))
        return ConvBtb(entries, isa)

    # The paged organizations are preset-driven; direct --sets sizing would
    # leave their side tables unspecified.
    if sets is not None:
        raise ConfigError(f"model {name!r} is sized by --budget-kb, not --sets")
    preset = _match_preset(budget_kb, isa)
    pp = preset.pdede
    if name == "pdede":
        return PdedeBtb(pp.branch_capacity, pp.page_entries, pp.region_entries,
                        isa=isa)
    return RBtb(storage.rbtb_main_entries(preset, isa), pp.page_entries,
                isa=isa)


__all__ = [
    "BtbModel", "BtbX", "ConfigError", "ConvBtb", "InvariantError",
    "MODEL_NAMES", "PdedeBtb", "Prediction", "RBtb", "SetArray",
    "UpdateOutcome", "build_model",
]
