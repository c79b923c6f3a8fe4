"""Partition JSON bytes pinned at d=9, where numpy sums side lengths pairwise.

A cell's linear dimension is summed in numpy's order: in sequence below 8
axes, pairwise from 8 on.  Summing in plain sequence changes the low bits of
the clocks at d >= 8, and with them the JSON bytes, without changing any leaf
count.  The digests are fixed: a change that alters them alters the sampler.
"""

import hashlib

import pytest

from mondrianforest import BoxRegion, RngStream, extend, partition_to_json, prune, restrict, sample_mondrian

BOX9 = BoxRegion([-0.5 + 0.1 * j for j in range(9)], [0.25 + 0.15 * j for j in range(9)])
SUB9 = BoxRegion([-0.4 + 0.1 * j for j in range(9)], [0.1 + 0.12 * j for j in range(9)])

PINNED = {
    "sample": ("d5d8511743bd0625d88c3bdfcaf758332dc61a9d38cef4b6622a3af881dbddb0", 192),
    "extend": ("6c2e747e2fd6f1cd655f2fa3ba3cf7dc7099548b601f12c5aa11e2ca17f8b2fb", 1688),
    "prune": ("14bacc0d28c18598b56134845c4da04c9c0c3809a89c052afacb7c9254bce4f7", 44),
    "restrict": ("56244651cc011d4bb4ac6c86463a507cdb700ae2b5ded67ffb091999631a9db6", 244),
}


def legs(seed):
    rng = RngStream(seed)
    sampled = sample_mondrian(BOX9, 0.4, rng)
    extended = extend(sampled, 0.8, rng)
    return {"sample": sampled, "extend": extended, "prune": prune(extended, 0.2),
            "restrict": restrict(extended, SUB9)}


@pytest.mark.parametrize("op", sorted(PINNED))
def test_d9_partition_json_is_pinned(op):
    digest, leaves = hashlib.sha256(), 0
    for seed in range(10):
        part = legs(seed)[op]
        digest.update(partition_to_json(part).encode("utf-8"))
        leaves += part.n_leaves
    assert (digest.hexdigest(), leaves) == PINNED[op]
