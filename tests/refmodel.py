"""Brute-force reference models for the asymmetric-way BTB and conv.

Deliberately independent of the production implementation: each set is an
explicit recency-ordered list of way indices (oldest first) and entries are
plain dicts, so the only shared code is the tag fold and the required-width
helper (which must agree bit for bit for events to line up).  Used to check
the production model's (hit/miss, victim way) event stream byte for byte.
"""

from btblab.core import BranchKind, required_offset_width, xor_fold


class RefBtbX:
    def __init__(self, geometry, isa):
        self.widths = list(geometry.way_widths)
        self.sets = geometry.sets
        self.xc_entries = geometry.xc_entries
        self.tag_bits = geometry.tag_bits
        self.align = isa.align_shift
        self.isa = isa
        self.index_bits = (self.sets - 1).bit_length()
        # entries[s][w] is None or a dict; recency[s] lists ways oldest->newest
        self.entries = [[None] * 8 for _ in range(self.sets)]
        self.recency = [list(range(8)) for _ in range(self.sets)]
        self.xc = [None] * self.xc_entries

    def _where(self, pc):
        line = pc >> self.align
        return line & (self.sets - 1), xor_fold(line >> self.index_bits, self.tag_bits)

    def _xc_where(self, pc):
        line = pc >> self.align
        return line % self.xc_entries, xor_fold(line // self.xc_entries, 15)

    def _touch(self, s, way):
        order = self.recency[s]
        order.remove(way)
        order.append(way)

    def _decode(self, pc, way, bits):
        n = self.widths[way] + self.align
        return (pc & ~((1 << n) - 1)) | (bits << self.align)

    def _find(self, s, tag):
        for way in range(8):
            e = self.entries[s][way]
            if e is not None and e["tag"] == tag:
                return way
        return None

    def lookup(self, pc):
        """Returns (source, kind, target-or-None) or None on miss."""
        s, tag = self._where(pc)
        way = self._find(s, tag)
        if way is not None:
            self._touch(s, way)
            e = self.entries[s][way]
            if e["kind"] is BranchKind.RETURN:
                return (f"way{way}", e["kind"], None)
            return (f"way{way}", e["kind"], self._decode(pc, way, e["bits"]))
        slot, xtag = self._xc_where(pc)
        e = self.xc[slot]
        if e is not None and e["tag"] == xtag:
            target = None if e["kind"] is BranchKind.RETURN else e["target"]
            return ("xc", e["kind"], target)
        return None

    def _victim(self, s, eligible):
        for way in eligible:
            if self.entries[s][way] is None:
                return way
        for way in self.recency[s]:
            if way in eligible:
                return way
        raise AssertionError("unreachable")

    def commit_update(self, record):
        pc, target, kind = record.pc, record.target, record.kind
        req = 0 if kind is BranchKind.RETURN else required_offset_width(pc, target, self.isa)
        s, tag = self._where(pc)
        way = self._find(s, tag)
        if way is not None:
            self._touch(s, way)
            e = self.entries[s][way]
            if kind is BranchKind.RETURN:
                if e["kind"] is BranchKind.RETURN:
                    return ("hit", "main", way, False)
                e["kind"] = kind
                return ("rewrite", "main", way, False)
            if e["kind"] == kind and self._decode(pc, way, e["bits"]) == target:
                return ("hit", "main", way, False)
            if req <= self.widths[way]:
                e["bits"] = (target >> self.align) & ((1 << self.widths[way]) - 1)
                e["kind"] = kind
                return ("rewrite", "main", way, False)
            self.entries[s][way] = None
            return self._allocate(record, req, "migrate")
        slot, xtag = self._xc_where(pc)
        e = self.xc[slot]
        if e is not None and e["tag"] == xtag:
            if e["kind"] == kind and e["target"] == target:
                return ("hit", "xc", slot, False)
            if req <= self.widths[-1]:
                self.xc[slot] = None
                return self._allocate(record, req, "migrate")
            e["target"] = target
            e["kind"] = kind
            return ("rewrite", "xc", slot, False)
        return self._allocate(record, req, "alloc")

    def _allocate(self, record, req, outcome):
        pc, target, kind = record.pc, record.target, record.kind
        eligible = [w for w in range(8) if self.widths[w] >= req]
        if not eligible:
            slot, xtag = self._xc_where(pc)
            victim_valid = self.xc[slot] is not None
            self.xc[slot] = {"tag": xtag, "kind": kind, "target": target}
            return (outcome, "xc", slot, victim_valid)
        s, tag = self._where(pc)
        way = self._victim(s, eligible)
        victim_valid = self.entries[s][way] is not None
        bits = (target >> self.align) & ((1 << self.widths[way]) - 1)
        self.entries[s][way] = {"tag": tag, "kind": kind, "bits": bits}
        self._touch(s, way)
        return (outcome, "main", way, victim_valid)


def drive_production(model, records):
    """Run the commit-stage protocol against a production model, emitting one
    event line per record."""
    lines = []
    for rec in records:
        pred = model.lookup(rec.pc)
        if pred is None:
            look = "m"
        else:
            tgt = "ras" if pred.target is None else hex(pred.target)
            look = f"h:{pred.source}:{pred.kind.name}:{tgt}"
        if rec.taken:
            out = model.commit_update(rec)
            commit = f"{out.kind}:{out.structure}:{out.way}:{int(out.victim_valid)}"
        else:
            commit = "-"
        lines.append(f"{look} {commit}")
    return "\n".join(lines)


def drive_reference(ref, records):
    lines = []
    for rec in records:
        hit = ref.lookup(rec.pc)
        if hit is None:
            look = "m"
        else:
            source, kind, target = hit
            tgt = "ras" if target is None else hex(target)
            look = f"h:{source}:{kind.name}:{tgt}"
        if rec.taken:
            kind, structure, way, victim = ref.commit_update(rec)
            commit = f"{kind}:{structure}:{way}:{int(victim)}"
        else:
            commit = "-"
        lines.append(f"{look} {commit}")
    return "\n".join(lines)


class RefConv:
    """Brute-force conventional BTB: full targets, plain LRU over every way.

    Built like RefBtbX: each set is an explicit recency list of way indices
    (oldest first) and entries are dicts.  The set is line % sets, since a
    budget's entry count need not be a power of two, and the tag is
    line // sets through the shared fold.  `entries` is split into the most
    ways, up to 8, that divide it.
    """

    def __init__(self, entries, tag_bits, isa):
        self.ways = max(w for w in range(1, 9) if entries % w == 0)
        self.sets = entries // self.ways
        self.tag_bits = tag_bits
        self.align = isa.align_shift
        self.entries = [[None] * self.ways for _ in range(self.sets)]
        self.recency = [list(range(self.ways)) for _ in range(self.sets)]

    def _where(self, pc):
        line = pc >> self.align
        return line % self.sets, xor_fold(line // self.sets, self.tag_bits)

    def _touch(self, s, way):
        order = self.recency[s]
        order.remove(way)
        order.append(way)

    def _find(self, s, tag):
        for way in range(self.ways):
            e = self.entries[s][way]
            if e is not None and e["tag"] == tag:
                return way
        return None

    def _victim(self, s):
        for way in range(self.ways):
            if self.entries[s][way] is None:
                return way
        return self.recency[s][0]

    def lookup(self, pc):
        """Returns (source, kind, target-or-None) or None on miss."""
        s, tag = self._where(pc)
        way = self._find(s, tag)
        if way is None:
            return None
        self._touch(s, way)
        e = self.entries[s][way]
        target = None if e["kind"] is BranchKind.RETURN else e["target"]
        return (f"way{way}", e["kind"], target)

    def commit_update(self, record):
        pc, target, kind = record.pc, record.target, record.kind
        s, tag = self._where(pc)
        way = self._find(s, tag)
        if way is not None:
            self._touch(s, way)
            e = self.entries[s][way]
            if e["kind"] == kind and (kind is BranchKind.RETURN
                                      or e["target"] == target):
                return ("hit", "main", way, False)
            e["kind"], e["target"] = kind, target
            return ("rewrite", "main", way, False)
        way = self._victim(s)
        victim_valid = self.entries[s][way] is not None
        self.entries[s][way] = {"tag": tag, "kind": kind, "target": target}
        self._touch(s, way)
        return ("alloc", "main", way, victim_valid)
