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

The CLI's own bytes are pinned from one small ``fit``: its model file, the
``predict`` files in JSON and CSV for values and ``--classify`` from both
``--data`` and ``--point``, and the ``--help`` text of the top level and of
each subcommand at 80 columns.

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


def write_rows(path, header, rows):
    path.write_text("\n".join([header] + [",".join(map(repr, row)) for row in rows]) + "\n")


def fit_small_model(tmp_path):
    """Fit the pinned 3-tree 2-d model; returns the model path and a query CSV path."""
    X = RngStream(9).generator.random((64, 2))
    y = (X[:, 0] > X[:, 1]).astype(float)
    train, query, model = tmp_path / "train.csv", tmp_path / "query.csv", tmp_path / "model.json"
    write_rows(train, "x1,x2,y", [[a, b, c] for (a, b), c in zip(X.tolist(), y.tolist())])
    write_rows(query, "x1,x2", RngStream(9, (1,)).generator.random((16, 2)).tolist())
    assert cli.run(["fit", "--data", str(train), "--lifetime", "4", "--trees", "3",
                    "--seed", "7", "--output", str(model)]) == 0
    return model, query


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


PINNED_MODEL = "e21a14ac8a958524aede20a7022c2058afe11402c457856c92bf43cfa1fa5afb"

# (input, predicted kind, format) -> sha256 of the file predict writes
PINNED_PREDICT = {
    ("data", "values", "json"): "59a8e2a9ba119c0dd278799e186c33fcda6f032e93c9ec1e92fe3a156ef5a7e7",
    ("data", "values", "csv"): "e60a4318c30cd9106984f4bccc35a0ac0245335e0dd242d88ac235d9e4230e38",
    ("data", "classes", "json"): "97a35716b258e2f866e86925ee253913fb2e97d5a4e33e725a16e528b75724cc",
    ("data", "classes", "csv"): "e09c7acbb76b407f090c81dfa1d2494858909978b8d371c345ea6425c6866316",
    ("point", "values", "json"): "61d0621001618ab03f8f03d4fa6aafca3b22c69dfc2db7c26aa27ae2a73f5bb7",
    ("point", "values", "csv"): "991da8b87f29211d2a8abe6ef41c0ba0c1a5b6c1d4496c48036deb505d8dbcaa",
    ("point", "classes", "json"): "03285d306edd3be6010013f57aa13363658370c3a75ec8f893e550a15535ccd8",
    ("point", "classes", "csv"): "4dbee3e1b1dcfe6a005df56eedaef33033c5099b264dfd67612a8b20978d61bc",
}


def test_cli_fit_and_predict_bytes_are_pinned(tmp_path):
    model, query = fit_small_model(tmp_path)
    assert sha256_file(model) == PINNED_MODEL
    written = {}
    for source, inputs in (("data", ["--data", str(query)]), ("point", ["--point", "0.25,0.75"])):
        for kind, flags in (("values", []), ("classes", ["--classify"])):
            for fmt in ("json", "csv"):
                out = tmp_path / f"{source}-{kind}.{fmt}"
                assert cli.run(["predict", "--model", str(model), *inputs, *flags,
                                "--format", fmt, "--output", str(out)]) == 0
                written[source, kind, fmt] = sha256_file(out)
    assert written == PINNED_PREDICT


# subcommand (None for the top level) -> sha256 of its --help text at 80 columns
PINNED_HELP = {
    None: "d647506f1763310a8eab9446dce514f3031a985686b4289c64cee7e40171ee3b",
    "sample": "5a592dc9502ad4eb65ecfd799f22bda9fd59b91fbfcf30a011aeb76a9b767112",
    "verify-leaf-count": "f5ac77fbe235c365954bb43c7933e2f35c47b5c1f4c8570888bbcb102fe3cd24",
    "verify-cell-dist": "84943771bb262cfc64b27f0164b4327700a2e2a29946d9675c7e52dd15a04c7f",
    "verify-diameter": "fefbf4febfba5d855b802ecee5bee3af7a28e5027ffdce963b1b52b8a057cf26",
    "verify-restriction": "a3657add3b0b8a8bde8550f32ba2165a3397f4a78b90ebd1a57a23be270cd746",
    "risk": "59cbcaf48fe75304d999e0ea5b07c5a9bbde4e659545eff4fae59a7051d440ec",
    "rate-sweep": "5c2a045876755be7d4169d960757c554eca5eaf5e5b769c98f6cd9f1cc959e5b",
    "tree-vs-forest": "cb61fcbd887d68ad76dab4ed8e85058d4167e9b4d2799b5b916e3c5535f349eb",
    "classify-sweep": "c8987f0541c44521a8f72d25360b605760cfb204a15325f7fa06ac49a7374149",
    "fit": "5ebdcc76c427dc9669b6724cf8e5a5bd106d2171efd2d8d69a1b8b2ea2969e81",
    "predict": "0f6df1557f153e84910d3803d98e5dd5b470d81d276c45b339d390e5f182e289",
}


@pytest.mark.parametrize("subcommand", list(PINNED_HELP), ids=str)
def test_cli_help_text_is_pinned(monkeypatch, capsys, subcommand):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.run([subcommand, "--help"] if subcommand else ["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_HELP[subcommand]
