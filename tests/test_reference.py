"""Production asymmetric-way BTB vs the list-based brute-force reference."""

import random

import pytest

from refmodel import RefBtbX, drive_production, drive_reference
from btblab.core import ALIGNED4, BranchKind
from btblab.models.btbx import BtbX
from btblab.storage import BtbxGeometry
from btblab.trace import GeneratorSpec, gen_records

ORACLE_BUCKETS = ((0, 4, 0.35), (5, 9, 0.25), (10, 19, 0.2),
                  (20, 25, 0.1), (26, 40, 0.1))
ORACLE_KINDS = ((BranchKind.CONDITIONAL, 0.6),
                (BranchKind.UNCONDITIONAL_DIRECT, 0.1),
                (BranchKind.CALL, 0.1),
                (BranchKind.RETURN, 0.1),
                (BranchKind.INDIRECT, 0.1))


def oracle_records(seed, records=2000, branches=64):
    """Uniform random stream over a small hot set, widths spanning every way
    and the companion, plus seeded indirect-target churn to exercise the
    rewrite and migrate paths."""
    spec = GeneratorSpec(static_branches=branches, records=records,
                         width_buckets=ORACLE_BUCKETS, kind_mix=ORACLE_KINDS,
                         taken_rate=0.8, pattern="uniform", seed=seed)
    out = list(gen_records(spec))
    rng = random.Random(seed ^ 0x5EED)
    for i, rec in enumerate(out):
        if rec.kind is BranchKind.INDIRECT and rng.random() < 0.3:
            # hop the target anywhere nearby, often changing its width class
            flip_width = rng.randint(1, 30)
            flip = (1 << (flip_width - 1)) | rng.getrandbits(flip_width - 1)
            out[i] = rec._replace(target=((rec.pc >> 2) ^ flip) << 2)
    return out


@pytest.mark.parametrize("seed", range(5))
def test_two_set_event_streams_identical(seed):
    geometry = BtbxGeometry(sets=2)
    records = oracle_records(seed)
    prod = drive_production(BtbX(geometry, ALIGNED4), records)
    ref = drive_reference(RefBtbX(geometry, ALIGNED4), records)
    assert prod == ref


@pytest.mark.parametrize("sets", [8, 32])
def test_larger_geometries_agree_too(sets):
    geometry = BtbxGeometry(sets=sets)
    records = oracle_records(99, records=4000, branches=256)
    prod = drive_production(BtbX(geometry, ALIGNED4), records)
    ref = drive_reference(RefBtbX(geometry, ALIGNED4), records)
    assert prod == ref


def test_reference_disagrees_with_plain_lru():
    """Sanity-check the oracle has teeth: unrestricted LRU victimization
    diverges from the restricted policy on the same stream."""
    geometry = BtbxGeometry(sets=2)
    records = oracle_records(3)
    ref = RefBtbX(geometry, ALIGNED4)
    ref_restricted = drive_reference(ref, records)

    plain = RefBtbX(geometry, ALIGNED4)
    plain._victim = lambda s, eligible: next(  # ignore way widths entirely
        (w for w in range(8) if plain.entries[s][w] is None),
        plain.recency[s][0])
    assert drive_reference(plain, records) != ref_restricted
