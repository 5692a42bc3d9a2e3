"""Reference largest-remainder deal: the plain key-based maximum.

The generator's `_deal` finds the pick with `err.index(max(err))`; this
loop, which states the tie-break as an explicit key, is what it must agree
with, draw for draw.
"""


def deal_reference(weights, n):
    scaled = [round(w * 10**9) for w in weights]
    total = sum(scaled)
    err = [0] * len(scaled)
    out = []
    for _ in range(n):
        for i, w in enumerate(scaled):
            err[i] += w
        pick = max(range(len(scaled)), key=lambda i: (err[i], -i))
        err[pick] -= total
        out.append(pick)
    return out
