"""Production conventional BTB vs the list-based brute-force reference."""

import random

import pytest

from refmodel import RefConv, drive_production, drive_reference
from test_reference import ORACLE_BUCKETS, ORACLE_KINDS
from btblab.core import ALIGNED4, BYTE, PROFILES, BranchKind
from btblab.models import build_model
from btblab.storage import conv_tag_bits
from btblab.trace import GeneratorSpec, gen_records


def churned_records(seed, isa, records=2000, branches=64):
    """`test_reference.oracle_records` in either profile: a uniform stream
    over a small hot set whose indirect targets hop at random, so entries
    are rewritten as well as hit and evicted."""
    spec = GeneratorSpec(static_branches=branches, records=records,
                         width_buckets=ORACLE_BUCKETS, kind_mix=ORACLE_KINDS,
                         taken_rate=0.8, pattern="uniform", seed=seed,
                         isa_mode=isa.mode)
    out = list(gen_records(spec))
    rng = random.Random(seed ^ 0x5EED)
    shift = isa.align_shift
    for i, rec in enumerate(out):
        if rec.kind is BranchKind.INDIRECT and rng.random() < 0.3:
            flip_width = rng.randint(1, 30)
            flip = (1 << (flip_width - 1)) | rng.getrandbits(flip_width - 1)
            out[i] = rec._replace(target=((rec.pc >> shift) ^ flip) << shift)
    return out


def streams(model, records, isa):
    ref = RefConv(model.entries, conv_tag_bits(isa), isa)
    return drive_production(model, records), drive_reference(ref, records)


@pytest.mark.parametrize("isa", PROFILES, ids=lambda isa: isa.name)
@pytest.mark.parametrize("sets", [2, 3, 16])
@pytest.mark.parametrize("seed", range(3))
def test_event_streams_identical(isa, sets, seed):
    records = churned_records(seed, isa, branches=16 * sets)
    prod, ref = streams(build_model("conv", sets=sets, isa=isa), records, isa)
    assert prod.splitlines() == ref.splitlines()
    # the stream rewrites entries and evicts valid ones
    assert " rewrite:" in prod
    assert any(line.endswith(":1") for line in prod.splitlines())


@pytest.mark.parametrize("isa, budget_kb, entries",
                         [(ALIGNED4, 14.5, 1856), (BYTE, 14.875, 1904)],
                         ids=["aligned4", "byte"])
def test_preset_on_a_generated_trace(isa, budget_kb, entries):
    spec = GeneratorSpec(static_branches=3000, records=12_000,
                         pattern="uniform", taken_rate=0.8, seed=4,
                         isa_mode=isa.mode)
    records = list(gen_records(spec))
    model = build_model("conv", budget_kb=budget_kb, isa=isa)
    prod, ref = streams(model, records, isa)
    assert model.entries == entries
    assert prod.splitlines() == ref.splitlines()
    assert any(line.endswith(":1") for line in prod.splitlines())


def test_reference_disagrees_with_mru_eviction():
    """The oracle has teeth: evicting the most recently used way instead of
    the least diverges on the same stream."""
    records = churned_records(3, ALIGNED4, branches=32)
    ref = RefConv(16, conv_tag_bits(ALIGNED4), ALIGNED4)
    mru = RefConv(16, conv_tag_bits(ALIGNED4), ALIGNED4)
    mru._victim = lambda s: next(
        (w for w in range(mru.ways) if mru.entries[s][w] is None),
        mru.recency[s][-1])
    assert drive_reference(mru, records) != drive_reference(ref, records)
