"""Partition JSON bytes pinned for fixed seeds.

At d=9 numpy sums side lengths pairwise.  A cell's linear dimension is summed
in numpy's order: in sequence below 8 axes, pairwise from 8 on.  Summing in
plain sequence changes the low bits of the clocks at d >= 8, and with them the
JSON bytes, without changing any leaf count.

At d=2 the pins follow the benchmark's extension leg: sample at lifetime 2.5,
extend to 5 on the same stream, prune back to 2.5 and restrict the extension.
They fix the draws each operation takes from its stream, so a change in how
``RngStream`` serves uniforms shows here.

The digests are fixed: a change that alters them alters the sampler.
"""

import hashlib

import pytest

from mondrianforest import BoxRegion, RngStream, extend, partition_to_json, prune, restrict, sample_mondrian

BOX9 = BoxRegion([-0.5 + 0.1 * j for j in range(9)], [0.25 + 0.15 * j for j in range(9)])
SUB9 = BoxRegion([-0.4 + 0.1 * j for j in range(9)], [0.1 + 0.12 * j for j in range(9)])
SUB2 = BoxRegion([0.2, 0.1], [0.6, 0.4])

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


# (JSON digest, total leaves, total draws recorded in the operation's provenance)
PINNED_D2 = {
    "sample": ("038468485996431efca6a4922e9c28894d7aaa50d4c2c38d75613a79f3197849", 194, 716),
    "extend": ("582614202864640becb6fb04112c376e3066b3a907be7d17ec2e675d8c804a18", 662, 1872),
    "prune": ("77d6be1533d4cf7193cdcb8e0294b208f9cc4edd7144ea6c35e24800e30d9307", 194, 0),
    "restrict": ("a0090a2bab85d70b6f063356c6b624f98b8980095fd37857e64fcfb039175df9", 148, 0),
}


def extension_legs(index):
    rng = RngStream(0, (3, index))
    sampled = sample_mondrian(BoxRegion.unit(2), 2.5, rng)
    extended = extend(sampled, 5.0, rng)
    return {"sample": sampled, "extend": extended, "prune": prune(extended, 2.5),
            "restrict": restrict(extended, SUB2)}


@pytest.mark.parametrize("op", sorted(PINNED_D2))
def test_d2_extension_leg_is_pinned(op):
    digest, leaves, draws = hashlib.sha256(), 0, 0
    for index in range(20):
        part = extension_legs(index)[op]
        digest.update(partition_to_json(part).encode("utf-8"))
        leaves += part.n_leaves
        draws += part.seed_provenance.get("draws", 0)
    assert (digest.hexdigest(), leaves, draws) == PINNED_D2[op]
