"""Partition JSON bytes pinned for fixed seeds.

At d=9 numpy sums side lengths pairwise.  A cell's linear dimension is summed
in numpy's order: in sequence below 8 axes, pairwise from 8 on.  Summing in
plain sequence changes the low bits of the clocks at d >= 8, and with them the
JSON bytes, without changing any leaf count.

At d=2 the pins follow the benchmark's extension leg: sample at lifetime 2.5,
extend to 5 on the same stream, prune back to 2.5 and restrict the extension.
They fix the draws each operation takes from its stream, so a change in how
``RngStream`` serves uniforms shows here.  At d=1 the sample and extend legs
are pinned the same way, since the sampler's one-axis cells take their own
path through the axis draw.  The sample, extend and restrict legs are pinned
at d=3 and d=8 on boxes whose sides are not powers of two: d=3 is the
benchmark's law-verifier dimension, where sides sum in order, and d=8 is the
first dimension numpy sums pairwise.

The experiment reports are pinned too, one small report per experiment, as
the sha256 of ``to_json()`` and of ``to_csv()``.  ``verify_leaf_count`` runs at
d=1, where it adds the Poisson goodness-of-fit verdict; the classification
sweep runs at d=1 (exact risk) and d=2 (Monte-Carlo risk).  The ``risk``
report exists only in the CLI, so its two pins are the bytes of the files
that ``risk`` writes: one with a fixed lifetime and tree count, one with the
C² schedule and the ``c2`` tree rule.

The digests are fixed: a change that alters them alters the sampler or a
verdict.
"""

import hashlib

import pytest

from mondrianforest import BoxRegion, RngStream, cli, extend, harness, partition_to_json, prune, restrict, sample_mondrian
from mondrianforest.harness import SyntheticTask

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


# (JSON digest, total leaves, total draws recorded in the operation's provenance)
PINNED_D1 = {
    "sample": ("81662e937bd030ff41764c2e20f25f0906d8ec87360de4eed2190c3ceba5c037", 189, 696),
    "extend": ("739c6fa29fc408241f70bc155ec0dae65ce6e2e251dc74a1722fdf3150eb9e3f", 475, 1144),
}

BOX1 = BoxRegion([-1.0], [2.0])


@pytest.mark.parametrize("op", sorted(PINNED_D1))
def test_d1_sample_and_extend_are_pinned(op):
    # at d=1 every split takes the only axis, yet the axis draw still spends one uniform
    digest, leaves, draws = hashlib.sha256(), 0, 0
    for index in range(20):
        rng = RngStream(0, (5, index))
        sampled = sample_mondrian(BOX1, 3.0, rng)
        part = sampled if op == "sample" else extend(sampled, 8.0, rng)
        digest.update(partition_to_json(part).encode("utf-8"))
        leaves += part.n_leaves
        draws += part.seed_provenance.get("draws", 0)
    assert (digest.hexdigest(), leaves, draws) == PINNED_D1[op]


# (JSON digest, total leaves, total draws recorded in the operation's provenance)
PINNED_SMALL = {
    ("d3", "sample"): ("e47cb735da285367690e61a4518c0ce6eaa6c27969dc07cac3ac4f1cc8cf1507", 114, 426),
    ("d3", "extend"): ("44b9911917a6262d4a94c357f0c49bc41dc2004a7f828fd0f7b055e9c570dc61", 475, 1444),
    ("d3", "restrict"): ("00f594069f9a18b4b4e5759a8a2c2e98385b40f9a08cddf28906ee4501d2784e", 220, 0),
    ("d8", "sample"): ("4c206a6949bd053474f0cfe71592b674489dbb3562c48db717449b2d425ae941", 190, 730),
    ("d8", "extend"): ("bea487b9316781401cb4bfe266db82b5e52d1f2969c11657d79d8a4e8f84a685", 1948, 7032),
    ("d8", "restrict"): ("6a1e762de9306500039b2f20d1d9ef4a0c049f4ff2eb175c7f7b715755b6f39f", 829, 0),
}

BOX3 = BoxRegion([-0.3, 0.1, 0.25], [0.7, 0.45, 1.9])
SUB3 = BoxRegion([-0.1, 0.2, 0.3], [0.55, 0.4, 1.3])
BOX8 = BoxRegion([-0.7 + 0.13 * j for j in range(8)], [0.1 + 0.17 * j for j in range(8)])
SUB8 = BoxRegion([-0.6 + 0.13 * j for j in range(8)], [0.05 + 0.15 * j for j in range(8)])
# (root box, restriction sub-box, sampled lifetime, extended lifetime)
SMALL = {"d3": (BOX3, SUB3, 1.5, 3.0), "d8": (BOX8, SUB8, 0.5, 1.0)}


@pytest.mark.parametrize("d, op", sorted(PINNED_SMALL))
def test_d3_and_d8_legs_are_pinned(d, op):
    # d=3 sums a cell's sides in order; d=8 is the first size numpy sums pairwise
    box, sub, lifetime, longer = SMALL[d]
    digest, leaves, draws = hashlib.sha256(), 0, 0
    for seed in range(10):
        rng = RngStream(seed, (box.dim,))
        part = sample_mondrian(box, lifetime, rng)
        if op != "sample":
            part = extend(part, longer, rng)
        if op == "restrict":
            part = restrict(part, sub)
        digest.update(partition_to_json(part).encode("utf-8"))
        leaves += part.n_leaves
        draws += part.seed_provenance.get("draws", 0)
    assert (digest.hexdigest(), leaves, draws) == PINNED_SMALL[d, op]


# (sha256 of to_json(), sha256 of to_csv())
PINNED_REPORTS = {
    "verify-leaf-count-d1": (
        "f23b2c04b8ed51b40d4dbe690c7a0da1a5a587578017888c086b2d4b69a2548c",
        "cf745541a966c0fa0ca9d22aec63d3040451b0366afd280337136921b140f60d"),
    "verify-cell-dist": (
        "ebe226a279645dda1ee813a18e45084a25bdcc371377ed6686b1c868b8c80840",
        "2ae0b36a1e8c2888e080357dd40ee3fe37b9e64692a062beabf87adcbf000bdf"),
    "verify-diameter": (
        "9652f7644fc9cac61c27468d236d5bbda030a1847bb511be9ecf64bda58ef24e",
        "cd66a9a687772bb79f12f17f120ecc16397de884e32d0321d2721f480f24fb99"),
    "verify-restriction": (
        "701c6e6391985bc49862b08868b2c101d309449bed695f2d34386fb7880bc02a",
        "fa3ae1f6b25b521182165492f52cea7396563385afd3d87887a5caf967a8db52"),
    "rate-sweep": (
        "3eae9f9b5eb166f64ee2a4bfb86a7dec23bdfcb45ff34e4d258f65a21621da45",
        "f3868d84304486a7be9becea5156a994648551056fa686630ce3de0675603714"),
    "tree-vs-forest": (
        "0c5458bb845ffc88d81bf76277db457a3db8952396811f525fda929a7b00fa71",
        "192842d1e3b34c5a8695df022a2334631f227dacb9e251d4bede82c7fd9d0ab3"),
    "classify-sweep": (
        "361bea8c71001b7d23d59fc4804fa64eb96ead1a42f06602fb884a9fb70c664a",
        "18434bc2e4ea8a847a6bfd6710a93dcaef16e794e2c984ca313852864f2dd90d"),
    "classify-sweep-d2": (
        "20106b0afcd94870ce70c1a4f6f1ba311b5018ee810b53803ffe6f99e5742e09",
        "34028bdbe063231e0741ee7189593d757fd84a223544cb6ce74c75512d5b0285"),
}

REPORTS = {
    "verify-leaf-count-d1": lambda: harness.verify_leaf_count(1, 2.0, 200, 0),
    "verify-cell-dist": lambda: harness.verify_cell_distribution(2, 3.0, [0.3, 0.6], 200, 0),
    "verify-diameter": lambda: harness.verify_diameter(2, 3.0, [0.5, 0.5], 100, 0),
    "verify-restriction": lambda: harness.verify_restriction(
        2, 2.0, BoxRegion([0.1, 0.2], [0.6, 0.7]), 100, 0),
    "rate-sweep": lambda: harness.rate_sweep(
        SyntheticTask("lipschitz_1d", sigma=0.1), [32, 64, 128], "lipschitz", 1.0, 2, 2, 0,
        n_test=64),
    "tree-vs-forest": lambda: harness.tree_vs_forest(32, [1.0, 4.0], 3, 2, 0, n_test=64,
                                                     curved_n=64),
    "classify-sweep": lambda: harness.classification_sweep(1, [32, 128], "lipschitz", 2, 2, 0),
    # d = 2 takes the Monte-Carlo risk branch, which the exact 1-d risk never reaches
    "classify-sweep-d2": lambda: harness.classification_sweep(2, [32, 128], "lipschitz", 2, 2, 0,
                                                              n_test=64),
}


@pytest.mark.parametrize("experiment", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(experiment):
    report = REPORTS[experiment]()
    assert (hashlib.sha256(report.to_json().encode("utf-8")).hexdigest(),
            hashlib.sha256(report.to_csv().encode("utf-8")).hexdigest()) == PINNED_REPORTS[experiment]


# (sha256 of the --format json file, sha256 of the --format csv file)
PINNED_RISK = {
    "risk-fixed": (
        "risk --task linear_1d --sigma 0.5 --n 64 --lifetime 2 --trees 2 --replicates 3 "
        "--n-test 64 --seed 5",
        "56826e668d14f5ca4c26c24b5b3498f6e2a907a76d0d8c7efe8a788652d5662a",
        "bc3ab24acd3f47596b92a9910c2ab9400f2d9d9b1c8e6a61a8fd736af2d73741"),
    "risk-c2": (
        "risk --task c2_d --d 2 --sigma 0.1 --n 128 --schedule c2 --trees c2 --replicates 2 "
        "--n-test 64 --seed 5",
        "bae66340540245fd06c3acb29337efd5a7d6d049688270cf4998b18420877aed",
        "26169623181336d8ea52306072940cd5bea5644d525416e7e0c338fc5aeee4f7"),
}


@pytest.mark.parametrize("run", sorted(PINNED_RISK))
def test_risk_report_bytes_are_pinned(run, tmp_path):
    argv, *digests = PINNED_RISK[run]
    written = []
    for fmt in ("json", "csv"):
        path = tmp_path / f"report.{fmt}"
        assert cli.run(argv.split() + ["--format", fmt, "--output", str(path)]) == 0
        written.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert written == digests
