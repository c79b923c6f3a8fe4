import argparse
import json
import os

import numpy as np
import pytest

from mondrianforest import cli
from mondrianforest.cli import _SUBCOMMANDS, load_config, run


def invoke(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = invoke([], capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sample", "--bogus", "1"])
    assert exc.value.code == 2


def test_sample_zero_lifetime_single_leaf(capsys):
    code, out, _ = invoke(["sample", "--d", "2", "--lifetime", "0", "--seed", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "mondrian-partition/1"
    assert len(doc["nodes"]) == 1 and "leaf" in doc["nodes"][0]


def test_sample_rejects_csv_format(capsys):
    code, _, err = invoke(["sample", "--d", "2", "--lifetime", "1", "--format", "csv"], capsys)
    assert code == 2
    assert "JSON" in err


def test_verify_leaf_count_passes_and_reports(capsys):
    code, out, _ = invoke(["verify-leaf-count", "--d", "2", "--lifetime", "5",
                           "--samples", "800", "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert abs(doc["grid"][0]["mean_leaves"] - 36.0) < 2.0


def test_failing_verdict_exits_one(capsys):
    # a coin-flip target has excess risk identically 0, so the strict-decrease
    # verdict cannot pass: deterministic exit 1
    code, out, _ = invoke(["classify-sweep", "--target", "coin_flip", "--d", "1",
                           "--n-grid", "8,16", "--schedule", "fixed", "--scale", "1",
                           "--trees", "1", "--replicates", "2", "--seed", "1"], capsys)
    assert code == 1
    assert json.loads(out)["passed"] is False


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_zero_lifetime_cell_report_is_strict_json(capsys):
    # at lifetime 0 every cell is the whole cube: no interior samples for the
    # KS tests and constant columns for the correlations
    code, out, _ = invoke(["verify-cell-dist", "--d", "1", "--lifetime", "0", "--x", "0.5",
                           "--samples", "10"], capsys)
    assert code == 1
    doc = json.loads(out, parse_constant=_reject_constant)
    ks = [v for v in doc["verdicts"] if v["name"].startswith("ks-")]
    assert [(v["passed"], v["statistic"], v["threshold"]) for v in ks] == [(False, 0, 2)] * 2


@pytest.mark.parametrize("lifetime, samples, bins", [("0.0001", "10000", 1), ("1", "10", 1),
                                                     ("1", "2", 0)])
def test_poisson_test_without_two_bins_fails_as_a_count_check(capsys, lifetime, samples, bins):
    # too few splits or samples for two chi-square bins: no p-value, a failed count
    # check instead (the leaf-count mean still passes)
    code, out, _ = invoke(["verify-leaf-count", "--d", "1", "--lifetime", lifetime,
                           "--samples", samples], capsys)
    assert code == 1
    doc = json.loads(out, parse_constant=_reject_constant)
    mean, gof = doc["verdicts"]
    assert (mean["name"], mean["passed"]) == ("leaf-count-mean", True)
    assert (gof["name"], gof["passed"], gof["statistic"], gof["threshold"]) == (
        "poisson-splits-gof", False, bins, 2)


def test_rate_sweep_two_grid_points_is_usage_error(capsys):
    code, _, err = invoke(["rate-sweep", "--n-grid", "256,512", "--seed", "1"], capsys)
    assert code == 2
    assert "at least 3" in err


def test_outputs_are_byte_identical(tmp_path, capsys):
    args = ["verify-diameter", "--d", "2", "--lifetime", "4", "--x", "0.5,0.5",
            "--samples", "300", "--seed", "3"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert invoke(args + ["--output", str(first)], capsys)[0] == 0
    assert invoke(args + ["--output", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_risk_lifetime_is_the_fixed_schedule(capsys, fmt):
    # risk takes the sweeps' four schedules; --lifetime X is --schedule fixed --scale X
    common = ["risk", "--task", "linear_1d", "--n", "48", "--trees", "2", "--replicates", "2",
              "--n-test", "32", "--seed", "3", "--format", fmt]
    lifetime = invoke(common + ["--lifetime", "2"], capsys)
    assert lifetime[0] == 0 and lifetime[1]
    assert invoke(common + ["--schedule", "fixed", "--scale", "2"], capsys) == lifetime


@pytest.mark.parametrize("argv", [
    ["verify-leaf-count", "--d", "1", "--lifetime", "3"],
    ["verify-cell-dist", "--lifetime", "4", "--x", "0.5,0.25"],
    ["verify-diameter", "--lifetime", "3", "--x", "0.5,0.5"],
    ["verify-restriction", "--lifetime", "4", "--sub-lower", "0.2,0.1", "--sub-upper", "0.6,0.4"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verifier_output_does_not_depend_on_threads(monkeypatch, capsys, argv, fmt):
    from mondrianforest import harness

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)  # so --threads 2 builds a real pool
    common = ["--samples", "60", "--seed", "4", "--format", fmt]
    serial = invoke(argv + common + ["--threads", "1"], capsys)
    assert serial[1] and serial[2] == ""
    assert invoke(argv + common + ["--threads", "2"], capsys) == serial


def test_csv_output_format(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, _, _ = invoke(["risk", "--task", "linear_1d", "--sigma", "0.5", "--n", "64",
                         "--lifetime", "2", "--trees", "2", "--replicates", "3",
                         "--n-test", "64", "--seed", "5", "--format", "csv",
                         "--output", str(out)], capsys)
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("n,lifetime,n_trees,risk,se")


def test_config_file_key_value_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 2\nlifetime = 5\nsamples = 400\nseed = 9\n")
    code, out, _ = invoke(["verify-leaf-count", "--config", str(cfg),
                           "--samples", "300"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["samples"] == 300  # flag wins
    assert doc["config"]["lifetime"] == 5.0
    assert doc["config"]["seed"] == 9


def test_config_file_json_form(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"d": 2, "lifetime": 3, "samples": 200}))
    code, out, _ = invoke(["verify-leaf-count", "--config", str(cfg), "--seed", "2"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["lifetime"] == 3.0


def test_config_duplicate_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("samples = 100\nsamples = 200\n")
    code, _, err = invoke(["verify-leaf-count", "--lifetime", "1", "--config", str(cfg)], capsys)
    assert code == 2
    assert "duplicate" in err


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples = 100\nfrobnicate = 1\n")
    code, _, err = invoke(["verify-leaf-count", "--lifetime", "1", "--config", str(cfg)], capsys)
    assert code == 2
    assert "frobnicate" in err


def test_config_nested_json_rejected(tmp_path, capsys):
    cfg = tmp_path / "nested.json"
    cfg.write_text(json.dumps({"samples": {"value": 3}}))
    code, _, err = invoke(["verify-leaf-count", "--lifetime", "1", "--config", str(cfg)], capsys)
    assert code == 2
    assert "flat" in err


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = invoke(["verify-leaf-count", "--d", "2"], capsys)
    assert code == 2
    assert "--lifetime" in err


def test_mf_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MF_SEED", "123")
    code, out, _ = invoke(["verify-leaf-count", "--d", "1", "--lifetime", "1",
                           "--samples", "50"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 123
    monkeypatch.delenv("MF_SEED")
    _, out2, _ = invoke(["verify-leaf-count", "--d", "1", "--lifetime", "1",
                         "--samples", "50"], capsys)
    assert json.loads(out2)["config"]["seed"] == 0


def test_every_subcommand_help_mentions_its_flags(capsys):
    for name, (_, opts) in _SUBCOMMANDS.items():
        with pytest.raises(SystemExit) as exc:
            run([name, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for opt in opts:
            assert "--" + opt.name in text
        for flag in ("--seed", "--output", "--format", "--config", "--threads"):
            assert flag in text


def test_parser_builds_options_only_for_the_invoked_subcommand(monkeypatch, capsys):
    flags = []
    add_argument = cli._Parser.add_argument

    def recording(self, *names, **kwargs):
        flags.extend(names)
        return add_argument(self, *names, **kwargs)

    monkeypatch.setattr(cli._Parser, "add_argument", recording)
    assert run(["sample", "--lifetime", "0"]) == 0
    # every parser adds its own -h; only sample's options are built besides
    assert flags.count("-h") == 2
    assert sorted(set(flags) - {"-h", "--help"}) == sorted(
        "--" + opt.name for opt in _SUBCOMMANDS["sample"][1] + cli._COMMON)


def registered(argv):
    """The subcommand names ``cli._build_parser(argv)`` registers."""
    parser = cli._build_parser(argv)
    return list(next(action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)).choices)


@pytest.mark.parametrize("argv", [["sample"], ["fit", "--help"], ["predict", "--point", "0.5"]])
def test_a_subcommand_named_first_is_the_only_one_registered(argv):
    assert registered(argv) == argv[:1]


@pytest.mark.parametrize("argv", [[], ["--help"], ["-h", "fit"], ["bogus"], ["--seed", "1", "fit"],
                                  ["Fit"]])
def test_an_option_or_unknown_name_first_registers_every_subcommand(argv):
    assert registered(argv) == list(_SUBCOMMANDS)


def test_help_and_invalid_choice_before_a_subcommand_list_every_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit) as exc:
        run(["-h", "fit"])
    assert exc.value.code == 0
    words = " ".join(capsys.readouterr().out.split())
    assert all(f" {name} {handler.__doc__} " in words
               for name, (handler, _) in _SUBCOMMANDS.items())
    with pytest.raises(SystemExit) as exc:
        run(["bogus", "--seed", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("mondrian-forest: error: argument SUBCOMMAND: invalid choice: ")
    choices = err.split("(choose from ", 1)[1].rstrip(")\n").split(", ")
    assert [choice.strip("'") for choice in choices] == list(_SUBCOMMANDS)


def test_top_level_help_lists_each_subcommand_with_its_handler_docstring(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # no wrapping inside a summary
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    words = " ".join(capsys.readouterr().out.split())
    for name, (handler, _) in _SUBCOMMANDS.items():
        assert f" {name} {handler.__doc__} " in words


def test_fit_and_predict_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(0)
    X = rng.random((120, 2))
    y = 1.0 + X[:, 0] - X[:, 1]
    data = tmp_path / "train.csv"
    lines = ["x1,x2,y"] + [
        f"{float(a)!r},{float(b)!r},{float(c)!r}" for (a, b), c in zip(X, y)
    ]
    data.write_text("\n".join(lines) + "\n")
    model_path = tmp_path / "model.json"
    code, _, err = invoke(["fit", "--data", str(data), "--lifetime", "3",
                           "--trees", "4", "--seed", "13",
                           "--output", str(model_path)], capsys)
    assert code == 0, err
    doc = json.loads(model_path.read_text())
    assert doc["schema"] == "mondrian-forest-model/2"
    assert len(doc["trees"]) == 4

    code, out, _ = invoke(["predict", "--model", str(model_path),
                           "--point", "0.5,0.5"], capsys)
    assert code == 0
    value = json.loads(out)["predictions"][0]
    assert 0.5 < value < 1.5

    test_csv = tmp_path / "test.csv"
    test_csv.write_text("x1,x2\n0.25,0.25\n0.75,0.75\n")
    code, out, _ = invoke(["predict", "--model", str(model_path), "--data",
                           str(test_csv), "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "prediction"
    assert len(out.splitlines()) == 3


def fit_step_classifier(tmp_path, capsys):
    """A model file fitted to the labels 1{x > 1/2} on 60 points."""
    rng = np.random.default_rng(1)
    X = rng.random((60, 1))
    y = (X[:, 0] > 0.5).astype(float)
    data = tmp_path / "train.csv"
    data.write_text("\n".join(
        ["x1,y"] + [f"{float(a)!r},{float(b)!r}" for (a,), b in zip(X, y)]) + "\n")
    model_path = tmp_path / "clf.json"
    assert invoke(["fit", "--data", str(data), "--lifetime", "4", "--trees", "8",
                   "--seed", "3", "--output", str(model_path)], capsys)[0] == 0
    return model_path


def test_predict_classify_flag(tmp_path, capsys):
    model_path = fit_step_classifier(tmp_path, capsys)
    code, out, _ = invoke(["predict", "--model", str(model_path), "--point", "0.9",
                           "--classify"], capsys)
    assert code == 0
    assert json.loads(out)["predictions"] == [1]


@pytest.mark.parametrize("flags", [[], ["--classify"]], ids=["values", "classes"])
def test_predict_writes_the_layouts_of_indented_json_and_repr(tmp_path, capsys, flags):
    model_path = fit_step_classifier(tmp_path, capsys)
    query = tmp_path / "query.csv"
    query.write_text("x1\n" + "".join(f"{v!r}\n" for v in np.linspace(0.0, 1.0, 41).tolist()))
    argv = ["predict", "--model", str(model_path), "--data", str(query), *flags]
    code, out, _ = invoke(argv, capsys)
    assert code == 0
    values = json.loads(out)["predictions"]
    assert out == json.dumps({"predictions": values}, indent=2) + "\n"
    code, out, _ = invoke(argv + ["--format", "csv"], capsys)
    assert code == 0
    assert out == "\n".join(["prediction", *map(repr, values)]) + "\n"


@pytest.mark.parametrize("value, classify", [("yes", True), ("off", False)])
def test_predict_classify_reads_a_config_boolean(tmp_path, capsys, value, classify):
    model_path = fit_step_classifier(tmp_path, capsys)
    config = tmp_path / "predict.cfg"
    config.write_text(f"classify={value}\n")
    code, out, _ = invoke(["predict", "--model", str(model_path), "--point", "0.9",
                           "--config", str(config)], capsys)
    assert code == 0
    [prediction] = json.loads(out)["predictions"]
    if classify:
        assert prediction == 1
    else:
        assert isinstance(prediction, float) and 0.5 < prediction <= 1.0


def test_predict_requires_exactly_one_input(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    rng = np.random.default_rng(2)
    data = tmp_path / "t.csv"
    data.write_text("x1,y\n0.5,1.0\n0.25,0.5\n")
    assert invoke(["fit", "--data", str(data), "--lifetime", "1", "--trees", "1",
                   "--seed", "1", "--output", str(model_path)], capsys)[0] == 0
    code, _, err = invoke(["predict", "--model", str(model_path)], capsys)
    assert code == 2
    assert "exactly one" in err


def test_load_config_parses_comments_and_blanks(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\n\nd = 3\nlifetime=2.5\n")
    assert load_config(str(cfg)) == {"d": "3", "lifetime": "2.5"}
