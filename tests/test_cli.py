import gc
import io
import json
import warnings
import weakref
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import click
import numpy as np
import pytest
from click.testing import CliRunner

from evifuse.cli import main
from evifuse.data import load_csv, load_grid, save_grid
from evifuse.model import ModelConfig, load_checkpoint

runner = CliRunner()


def run(args, expect=0):
    result = runner.invoke(main, args)
    assert result.exit_code == expect, (
        f"exit {result.exit_code} (wanted {expect})\nstdout: {result.stdout}\n"
        f"stderr: {result.stderr}"
    )
    return result


def out_json(result):
    return json.loads(result.stdout)


UNIFORM2 = '{"rates": [0.5, 0.5], "weight": 2.0}'


def write_opinions(path, ops):
    path.write_text(json.dumps([{"beliefs": list(b), "uncertainty": u} for b, u in ops]))


class TestFuse:
    def test_cbf_chain_hand_case(self, tmp_path):
        ops = tmp_path / "ops.json"
        write_opinions(ops, [((0.2, 0.4), 0.4), ((0.3, 0.1), 0.6)])
        result = run(["fuse", "--opinions", str(ops), "--base-rate", UNIFORM2, "--chain", "cbf"])
        doc = out_json(result)
        assert np.allclose(doc["opinion"]["beliefs"], [6 / 19, 7 / 19], atol=1e-12)
        assert doc["opinion"]["uncertainty"] == pytest.approx(6 / 19, abs=1e-12)
        assert np.allclose(doc["alpha"], [3.0, 10.0 / 3.0], atol=1e-12)
        assert np.allclose(doc["expected_probabilities"], [9 / 19, 10 / 19], atol=1e-12)
        assert doc["predicted_class"] == 1

    def test_composite_chain_is_bcf_for_two_opinions(self, tmp_path):
        ops = tmp_path / "ops.json"
        write_opinions(ops, [((0.1, 0.5), 0.4), ((0.4, 0.2), 0.4)])
        composite = out_json(run(["fuse", "--opinions", str(ops), "--base-rate", UNIFORM2]))
        bcf = out_json(run(["fuse", "--opinions", str(ops), "--base-rate", UNIFORM2, "--chain", "bcf"]))
        assert composite["opinion"] == bcf["opinion"]
        assert np.allclose(composite["opinion"]["beliefs"], [0.24 / 0.78, 0.38 / 0.78], atol=1e-12)

    def test_base_rate_from_file(self, tmp_path):
        ops = tmp_path / "ops.json"
        write_opinions(ops, [((0.2, 0.4), 0.4), ((0.3, 0.1), 0.6)])
        rate = tmp_path / "rate.json"
        rate.write_text(UNIFORM2)
        inline = out_json(run(["fuse", "--opinions", str(ops), "--base-rate", UNIFORM2]))
        from_file = out_json(run(["fuse", "--opinions", str(ops), "--base-rate", str(rate)]))
        assert inline == from_file

    def test_composite_chain_needs_two_opinions(self, tmp_path):
        ops = tmp_path / "ops.json"
        write_opinions(ops, [((0.2, 0.4), 0.4)])
        result = run(["fuse", "--opinions", str(ops), "--base-rate", UNIFORM2], expect=2)
        assert "at least two opinions" in result.stderr

    def test_total_conflict_exits_3(self, tmp_path):
        ops = tmp_path / "ops.json"
        write_opinions(ops, [((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0)])
        result = run(["fuse", "--opinions", str(ops), "--base-rate", UNIFORM2, "--chain", "bcf"], expect=3)
        assert "bcf stage 1 (opinion 1)" in result.stderr
        assert "total belief conflict" in result.stderr

    def test_closure_violation_exits_2(self, tmp_path):
        ops = tmp_path / "ops.json"
        write_opinions(ops, [((0.5, 0.5), 0.5), ((0.3, 0.1), 0.6)])
        result = run(["fuse", "--opinions", str(ops), "--base-rate", UNIFORM2], expect=2)
        assert "sum to 1" in result.stderr

    def test_missing_file_exits_4(self, tmp_path):
        run(["fuse", "--opinions", str(tmp_path / "nope.json"), "--base-rate", UNIFORM2], expect=4)

    def test_malformed_json_exits_2(self, tmp_path):
        ops = tmp_path / "ops.json"
        ops.write_text("[{broken")
        run(["fuse", "--opinions", str(ops), "--base-rate", UNIFORM2], expect=2)

    def test_class_mismatch_exits_2(self, tmp_path):
        ops = tmp_path / "ops.json"
        write_opinions(ops, [((0.2, 0.4), 0.4), ((0.3, 0.1), 0.6)])
        rate3 = '{"rates": [0.4, 0.3, 0.3], "weight": 3.0}'
        result = run(["fuse", "--opinions", str(ops), "--base-rate", rate3], expect=2)
        assert "disagree" in result.stderr


class TestGen:
    def test_writes_loadable_dataset(self, tmp_path):
        out = tmp_path / "train.csv"
        result = run([
            "gen", "--classes", "2", "--views", "2", "--dim", "3",
            "--n-per-class", "5", "--out", str(out),
        ])
        doc = out_json(result)
        assert doc["n"] == 10 and doc["out"] == str(out)
        ds = load_csv(out, 2, 2, (3, 3))
        assert len(ds) == 10

    def test_seed_determinism(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        run(["--seed", "3", "gen", "--n-per-class", "4", "--out", str(a)])
        run(["--seed", "3", "gen", "--n-per-class", "4", "--out", str(b)])
        run(["--seed", "4", "gen", "--n-per-class", "4", "--out", str(c)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_side_outputs(self, tmp_path):
        out, oodp, imb = (tmp_path / n for n in ("d.csv", "ood.csv", "imb.csv"))
        result = run([
            "gen", "--classes", "2", "--views", "2", "--dim", "2",
            "--n-per-class", "30", "--out", str(out),
            "--ood-shift", "5.0", "--ood-out", str(oodp),
            "--ratio", "3:1", "--imbalanced-out", str(imb),
        ])
        doc = out_json(result)
        assert doc["ood_n"] == 60
        sub = load_csv(imb, 2, 2, (2, 2))
        assert doc["imbalanced_n"] == len(sub)
        counts = np.bincount(sub.labels())
        assert counts[0] == 3 * counts[1]

    def test_paired_flags_enforced(self, tmp_path):
        result = run([
            "gen", "--out", str(tmp_path / "x.csv"), "--ood-shift", "2.0",
        ], expect=2)
        assert "together" in result.stderr


class TestViews:
    def test_tiles_and_roi(self, tmp_path):
        grid_path = tmp_path / "grid.txt"
        save_grid(np.arange(64.0).reshape(8, 8), grid_path)
        out_dir = tmp_path / "views"
        result = run([
            "views", str(grid_path), "--roi", "4", "--window", "2",
            "--stride", "2", "--out-dir", str(out_dir),
        ])
        doc = out_json(result)
        assert doc["patch_count"] == 4
        assert len(doc["locals"]) == 4
        roi = load_grid(doc["global"])
        assert roi.shape == (4, 4)
        first = load_grid(doc["locals"][0])
        assert np.array_equal(first, roi[0:2, 0:2])

    def test_bad_geometry_exits_2(self, tmp_path):
        grid_path = tmp_path / "grid.txt"
        save_grid(np.zeros((8, 8)), grid_path)
        result = run([
            "views", str(grid_path), "--roi", "5", "--window", "2",
            "--stride", "2", "--out-dir", str(tmp_path / "v"),
        ], expect=2)
        assert "divisible" in result.stderr

    def test_missing_grid_exits_4(self, tmp_path):
        run([
            "views", str(tmp_path / "nope.txt"), "--roi", "4", "--window", "2",
            "--stride", "2", "--out-dir", str(tmp_path / "v"),
        ], expect=4)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small gen + train + uniform-train, shared by the eval-side tests."""
    root = tmp_path_factory.mktemp("cli_flow")
    train_csv, valid_csv, ood_csv = (root / n for n in ("train.csv", "valid.csv", "ood.csv"))
    run([
        "--seed", "0", "gen", "--classes", "2", "--views", "2", "--dim", "2",
        "--separation", "4.0", "--n-per-class", "30", "--out", str(train_csv),
        "--ood-shift", "5.0", "--ood-out", str(ood_csv),
    ])
    run([
        "--seed", "1", "gen", "--classes", "2", "--views", "2", "--dim", "2",
        "--separation", "4.0", "--n-per-class", "15", "--out", str(valid_csv),
    ])
    common = [
        "--data", str(train_csv), "--valid", str(valid_csv),
        "--classes", "2", "--views", "2", "--dims", "2,2", "--hidden", "8",
        "--lr", "3e-3", "--epochs", "6", "--batch-size", "16",
    ]
    model_path, uniform_path = root / "model.json", root / "uniform.json"
    run(["--seed", "0", "train", *common, "--out", str(model_path)])
    run(["--seed", "0", "train", *common, "--out", str(uniform_path), "--base-rate", "uniform"])
    return {
        "root": root,
        "train": train_csv,
        "valid": valid_csv,
        "ood": ood_csv,
        "model": model_path,
        "uniform": uniform_path,
    }


class TestTrain:
    def test_checkpoint_and_summary(self, trained):
        model = load_checkpoint(trained["model"])
        assert model.config.epochs == 6
        assert np.allclose(model.base_rate.rates, [0.5, 0.5])

    def test_uniform_base_rate_mode(self, trained):
        model = load_checkpoint(trained["uniform"])
        assert np.array_equal(model.base_rate.rates, [0.5, 0.5])

    def test_prior_weight_flag_is_recorded(self, trained, tmp_path):
        out = tmp_path / "w6.json"
        run([
            "--seed", "0", "train", "--data", str(trained["train"]),
            "--valid", str(trained["valid"]), "--classes", "2", "--views", "2",
            "--dims", "2,2", "--hidden", "4", "--lr", "1e-3", "--epochs", "1",
            "--prior-weight", "6.0", "--out", str(out),
        ])
        model = load_checkpoint(out)
        assert model.base_rate.weight == 6.0
        assert model.config.prior_weight == 6.0

    def test_missing_data_exits_4(self, tmp_path):
        run([
            "train", "--data", str(tmp_path / "nope.csv"), "--valid", str(tmp_path / "nope2.csv"),
            "--classes", "2", "--views", "2", "--dims", "2,2", "--out", str(tmp_path / "m.json"),
        ], expect=4)

    def test_diverged_run_exits_3_without_numpy_warnings(self, trained, tmp_path):
        # a huge step overflows the combined evidence after the first update
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run([
                "--seed", "0", "train", "--data", str(trained["train"]),
                "--valid", str(trained["valid"]), "--classes", "2", "--views", "2",
                "--dims", "2,2", "--hidden", "4", "--lr", "1e300", "--epochs", "3",
                "--out", str(tmp_path / "m.json"),
            ], expect=3)
        assert "non-finite loss at epoch 0, sample " in result.stderr
        assert "Warning" not in result.stderr
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_exits_2(self, trained, tmp_path, lr):
        result = run([
            "--seed", "0", "train", "--data", str(trained["train"]),
            "--valid", str(trained["valid"]), "--classes", "2", "--views", "2",
            "--dims", "2,2", "--hidden", "4", "--lr", lr, "--epochs", "1",
            "--out", str(tmp_path / "m.json"),
        ], expect=2)
        assert "learning rate" in result.stderr
        assert not (tmp_path / "m.json").exists()

    def test_emits_curves(self, trained, tmp_path):
        out = tmp_path / "m.json"
        result = run([
            "--seed", "0", "train", "--data", str(trained["train"]),
            "--valid", str(trained["valid"]), "--classes", "2", "--views", "2",
            "--dims", "2,2", "--hidden", "4", "--lr", "1e-3", "--epochs", "2",
            "--out", str(out),
        ])
        doc = out_json(result)
        assert len(doc["curves"]["valid_acc"]) == 2
        assert set(doc["final"]) == {"train_loss", "train_acc", "valid_loss", "valid_acc"}
        assert all(doc["final"][name] == doc["curves"][name][-1] for name in doc["final"])
        assert doc["base_rate"]["weight"] == 2.0

    def test_zero_epochs_has_no_final_values(self, trained, tmp_path):
        result = run([
            "--seed", "0", "train", "--data", str(trained["train"]),
            "--valid", str(trained["valid"]), "--classes", "2", "--views", "2",
            "--dims", "2,2", "--hidden", "4", "--epochs", "0", "--out", str(tmp_path / "m.json"),
        ])
        assert '"final": {}' in result.stdout
        assert all(curve == [] for curve in out_json(result)["curves"].values())

    def test_help_shows_the_model_config_defaults(self):
        defaults = {f.name: f.default for f in fields(ModelConfig)}
        params = {p.name: p for p in main.commands["train"].params}
        shown = {"hidden": ",".join(map(str, defaults["hidden"])), "lr": defaults["learning_rate"],
                 "epochs": defaults["epochs"], "batch_size": defaults["batch_size"]}
        lines = {
            line.split()[0]: line
            for line in run(["train", "--help"]).stdout.splitlines() if line.lstrip().startswith("--")
        }
        for name, value in shown.items():
            assert params[name].default == value
            assert lines[f"--{name.replace('_', '-')}"].endswith(f"[default: {value}]")


class TestEval:
    def test_report_shape(self, trained):
        result = run(["eval", "--model", str(trained["model"]), "--data", str(trained["valid"])])
        doc = out_json(result)
        assert doc["n"] == 30 and len(doc["records"]) == 30
        assert 0.0 <= doc["ece"] <= 1.0
        assert doc["acc"] >= 0.8
        assert doc["base_rate_override"] is None

    def test_override_is_echoed(self, trained):
        result = run([
            "eval", "--model", str(trained["model"]), "--data", str(trained["valid"]),
            "--base-rate-override", "8:2",
        ])
        doc = out_json(result)
        assert np.allclose(doc["base_rate_override"], [0.8, 0.2])

    def test_bad_override_exits_2(self, trained):
        result = run([
            "eval", "--model", str(trained["model"]), "--data", str(trained["valid"]),
            "--base-rate-override", "8",
        ], expect=2)
        assert "two strictly positive" in result.stderr

    def test_byte_determinism(self, trained):
        args = ["eval", "--model", str(trained["model"]), "--data", str(trained["valid"])]
        assert run(args).stdout == run(args).stdout


class TestInProcess:
    def test_captured_streams_are_released(self, trained):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            main.main(
                args=["eval", "--model", str(trained["model"]), "--data", str(trained["valid"])],
                prog_name="evifuse", standalone_mode=False,
            )
        assert json.loads(out.getvalue())["n"] == 30
        assert "eval config" in err.getvalue()
        refs = [weakref.ref(out), weakref.ref(err)]
        del out, err
        gc.collect()
        assert all(ref() is None for ref in refs)


class TestBadCheckpoint:
    @pytest.mark.parametrize("edit,match", [
        (lambda doc: doc.pop("config"), "missing 'config'"),
        (lambda doc: doc.pop("base_rate"), "missing 'base_rate'"),
        (lambda doc: doc["heads"].pop(), "one head per view"),
        (lambda doc: doc["heads"][0]["layers"][0].update(weights=[[1.0, 2.0]]), "head 0: layer 0"),
        (lambda doc: doc["config"].update(hidden_size=[8]), "unknown config key 'hidden_size'"),
    ])
    def test_eval_exits_2_with_message(self, trained, tmp_path, edit, match):
        doc = json.loads(trained["model"].read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = run(["eval", "--model", str(bad), "--data", str(trained["valid"])], expect=2)
        assert match in result.stderr and str(bad) in result.stderr
        assert "Traceback" not in result.stderr

    def test_train_to_missing_directory_exits_4(self, trained, tmp_path):
        out = tmp_path / "missing" / "m.json"
        run([
            "--seed", "0", "train", "--data", str(trained["train"]),
            "--valid", str(trained["valid"]), "--classes", "2", "--views", "2",
            "--dims", "2,2", "--hidden", "4", "--epochs", "1", "--out", str(out),
        ], expect=4)
        assert not out.parent.exists()


# JSON nested far past the parser's recursion limit, bytes that are not
# UTF-8, and malformed JSON.
BAD_INPUTS = {
    "deep": ("[" * 100_000 + "]" * 100_000).encode(),
    "not_utf8": b"\xff\xfe{}",
    "malformed": b"[{broken",
}


class TestUnreadableInput:
    """Every file the CLI reads fails the same way on unreadable content."""

    @staticmethod
    def assert_one_line_naming(result, name):
        assert result.stdout == "" and "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert name in result.stderr, result.stderr

    @pytest.mark.parametrize("content", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    @pytest.mark.parametrize("where", ["config", "opinions", "base_rate", "model", "data", "grid"])
    def test_exits_2_naming_the_file(self, trained, tmp_path, where, content):
        bad = tmp_path / "bad.input"
        bad.write_bytes(content)
        ops = tmp_path / "ops.json"
        write_opinions(ops, [((0.2, 0.4), 0.4), ((0.3, 0.1), 0.6)])
        args = {
            "config": ["--config", str(bad), "gen", "--out", str(tmp_path / "a.csv")],
            "opinions": ["fuse", "--opinions", str(bad), "--base-rate", UNIFORM2],
            "base_rate": ["fuse", "--opinions", str(ops), "--base-rate", str(bad)],
            "model": ["eval", "--model", str(bad), "--data", str(trained["valid"])],
            "data": ["eval", "--model", str(trained["model"]), "--data", str(bad)],
            "grid": ["views", str(bad), "--roi", "4", "--window", "2", "--stride", "2",
                     "--out-dir", str(tmp_path / "v")],
        }[where]
        self.assert_one_line_naming(run(["--quiet", *args], expect=2), str(bad))

    @pytest.mark.parametrize("spec", [
        '{"rates": [0.5, 0.5], "weight": 2.0',
        '{"rates": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ], ids=["malformed", "deep"])
    def test_inline_base_rate_exits_2(self, tmp_path, spec):
        ops = tmp_path / "ops.json"
        write_opinions(ops, [((0.2, 0.4), 0.4), ((0.3, 0.1), 0.6)])
        result = run(["--quiet", "fuse", "--opinions", str(ops), "--base-rate", spec], expect=2)
        self.assert_one_line_naming(result, "inline base rate")


@pytest.fixture
def overflowing_model(trained, tmp_path):
    """The trained checkpoint with last-layer biases of 1e200: finite, so it loads."""
    doc = json.loads(trained["model"].read_text())
    for head in doc["heads"]:
        head["layers"][-1]["bias"] = [1e200] * len(head["layers"][-1]["bias"])
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    return path


class TestOverflowingEvidence:
    @pytest.mark.parametrize("command", ["eval", "eval-override", "ood", "adapt-sweep"])
    def test_exits_3_naming_a_sample(self, trained, overflowing_model, command):
        model, data = str(overflowing_model), str(trained["valid"])
        args = {
            "eval": ["eval", "--model", model, "--data", data],
            "eval-override": ["eval", "--model", model, "--data", data, "--base-rate-override", "7:3"],
            "ood": ["ood", "--model", model, "--id-data", data, "--ood-data", str(trained["ood"])],
            "adapt-sweep": ["adapt-sweep", "--model", model, "--uniform-model", str(trained["uniform"]),
                            "--data", data, "--ratios", "1:1"],
        }[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(args, expect=3)
        first = load_csv(trained["valid"], 2, 2, (2, 2)).ids[0]
        assert f"error: non-finite combined evidence for sample {first}" in result.stderr
        assert "Warning" not in result.stderr and "Traceback" not in result.stderr
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert result.stdout == ""


class TestOod:
    def test_report(self, trained):
        result = run([
            "ood", "--model", str(trained["model"]), "--id-data", str(trained["valid"]),
            "--ood-data", str(trained["ood"]),
        ])
        doc = out_json(result)
        assert 0.0 <= doc["detection_accuracy"] <= 1.0
        assert len(doc["id"]) == 30 and len(doc["ood"]) == 60
        # the pooled min-max scaling spans [0, 1] across both sides together
        scaled = [s["scaled"] for s in doc["id"]] + [s["scaled"] for s in doc["ood"]]
        assert min(scaled) == pytest.approx(0.0, abs=1e-12)
        assert max(scaled) == pytest.approx(1.0, abs=1e-12)
        for side in ("id", "ood"):
            for s in doc[side]:
                assert s["flag"] == (s["scaled"] > doc["threshold"])
        correct = sum(not s["flag"] for s in doc["id"]) + sum(s["flag"] for s in doc["ood"])
        assert doc["detection_accuracy"] == pytest.approx(correct / 90.0, abs=1e-12)

    def test_zero_shift_detection_is_chance(self, trained, tmp_path):
        # an unshifted pool is indistinguishable from the ID data
        plain, ood0 = tmp_path / "plain.csv", tmp_path / "ood0.csv"
        run([
            "--seed", "2", "gen", "--classes", "2", "--views", "2", "--dim", "2",
            "--separation", "4.0", "--n-per-class", "30", "--out", str(plain),
            "--ood-shift", "0.0", "--ood-out", str(ood0),
        ])
        result = run([
            "ood", "--model", str(trained["model"]), "--id-data", str(trained["valid"]),
            "--ood-data", str(ood0),
        ])
        doc = out_json(result)
        assert 0.4 <= doc["detection_accuracy"] <= 0.6


class TestAdaptSweep:
    def test_csv_shape(self, trained):
        result = run([
            "--seed", "7", "adapt-sweep", "--model", str(trained["model"]),
            "--uniform-model", str(trained["uniform"]), "--data", str(trained["train"]),
            "--ratios", "3:1,1:3",
        ])
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "ratio,strategy,auc,ece"
        assert len(lines) == 1 + 2 * 3
        strategies = [line.split(",")[1] for line in lines[1:]]
        assert strategies == ["no_prior", "train_prior", "train_test_prior"] * 2
        for line in lines[1:]:
            _, _, auc, ece = line.split(",")
            assert auc == "" or 0.0 <= float(auc) <= 1.0
            assert 0.0 <= float(ece) <= 1.0


class TestConfigPrecedence:
    def test_section_beats_default_and_flag_beats_section(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": {"n_per_class": 7, "seed": 3}}))
        a = out_json(run(["--config", str(cfg), "gen", "--out", str(tmp_path / "a.csv")]))
        assert a["n"] == 14  # 2 classes x 7 from the config section
        b = out_json(run([
            "--config", str(cfg), "gen", "--n-per-class", "9", "--out", str(tmp_path / "b.csv"),
        ]))
        assert b["n"] == 18

    def test_global_seed_beats_config_seed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": {"seed": 3}}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["--config", str(cfg), "--seed", "5", "gen", "--n-per-class", "4", "--out", str(a)])
        run(["--seed", "5", "gen", "--n-per-class", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": {"n_per_klass": 7}}))
        result = run(["--config", str(cfg), "gen", "--out", str(tmp_path / "a.csv")], expect=2)
        assert "unknown key" in result.stderr

    def test_config_root_must_be_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        result = run(["--config", str(cfg), "gen", "--out", str(tmp_path / "a.csv")], expect=2)
        assert "must be an object" in result.stderr

    def test_missing_config_exits_4(self, tmp_path):
        run(["--config", str(tmp_path / "nope.json"), "gen", "--out", str(tmp_path / "a.csv")], expect=4)

    @staticmethod
    def config(tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return ["--config", str(path)]

    @staticmethod
    def assert_one_line_error(result, *parts):
        assert result.stdout == "" and "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert all(part in result.stderr for part in parts), result.stderr

    @pytest.mark.parametrize("command,key,value,args", [
        ("fuse", "chain", "bogus", ["--opinions", "o.json", "--base-rate", UNIFORM2]),
        ("train", "base_rate_mode", "uniformm", []),
        ("eval", "bins", "ten", []),
    ])
    def test_value_outside_the_option_type_exits_2(self, tmp_path, command, key, value, args):
        cfg = self.config(tmp_path, {command: {key: value}})
        result = run([*cfg, command, *args], expect=2)
        self.assert_one_line_error(result, f"config section {command!r} key {key!r}", repr(value))

    @pytest.mark.parametrize("key,value", [
        ("classes", [1]), ("n_per_class", {"n": 3}), ("seed", [1]), ("out_path", ["a.csv"]),
    ])
    def test_list_or_object_value_exits_2(self, tmp_path, key, value):
        cfg = self.config(tmp_path, {"gen": {key: value}})
        result = run([*cfg, "gen", "--out", str(tmp_path / "a.csv")], expect=2)
        self.assert_one_line_error(result, f"config section 'gen' key {key!r}", json.dumps(value))
        assert not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("key,value", [
        ("classes", True), ("n_per_class", 2.7), ("seed", False), ("out_path", True),
        ("separation", True),
    ])
    def test_boolean_or_fractional_integer_exits_2(self, tmp_path, key, value):
        # click's casts would read true as 1 (or "True") and 2.7 as 2
        cfg = self.config(tmp_path, {"gen": {key: value}})
        result = run([*cfg, "gen", "--out", str(tmp_path / "a.csv")], expect=2)
        self.assert_one_line_error(result, f"config section 'gen' key {key!r}", json.dumps(value))
        assert not (tmp_path / "a.csv").exists()

    def test_integral_number_for_integer_option(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run([*self.config(tmp_path, {"gen": {"n_per_class": 4.0}}), "gen", "--out", str(a)])
        run(["gen", "--n-per-class", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_section_naming_no_subcommand_exits_2(self, tmp_path):
        cfg = self.config(tmp_path, {"gne": {"n_per_class": 3}})
        result = run([*cfg, "gen", "--out", str(tmp_path / "a.csv")], expect=2)
        self.assert_one_line_error(result, "config section 'gne'", "names no subcommand")
        assert not (tmp_path / "a.csv").exists()

    def test_null_means_the_declared_default(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = self.config(tmp_path, {"gen": {"seed": None, "classes": None, "n_per_class": 4}})
        with_nulls = run([*cfg, "gen", "--out", str(a)])
        plain = run(["gen", "--n-per-class", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert with_nulls.stderr.replace(str(a), str(b)) == plain.stderr

    def test_null_bins_uses_ten(self, trained, tmp_path):
        args = ["eval", "--model", str(trained["model"]), "--data", str(trained["valid"])]
        doc = out_json(run([*self.config(tmp_path, {"eval": {"bins": None}}), *args]))
        assert len(doc["bins"]) == 10
        assert doc == out_json(run(args))

    def test_required_train_options_from_config(self, trained, tmp_path):
        flags = {
            "--data": str(trained["train"]), "--valid": str(trained["valid"]), "--classes": 2,
            "--views": 2, "--dims": "2,2", "--hidden": "4", "--lr": 1e-3, "--epochs": 2,
        }
        by_flags, by_config = tmp_path / "flags.json", tmp_path / "config.json"
        a = run(["--seed", "0", "train", *(str(x) for kv in flags.items() for x in kv),
                 "--out", str(by_flags)])
        section = {
            "data_path": str(trained["train"]), "valid_path": str(trained["valid"]),
            "out_path": str(by_config), "classes": 2, "n_views": 2, "dims": "2,2",
            "hidden": "4", "lr": 1e-3, "epochs": 2, "seed": 0,
        }
        b = run([*self.config(tmp_path, {"train": section}), "train"])
        assert by_config.read_bytes() == by_flags.read_bytes()
        assert out_json(a)["curves"] == out_json(b)["curves"]

    @pytest.mark.parametrize("command,param", [
        (name, param)
        for name, command in sorted(main.commands.items())
        for param in [*command.params, None]
    ], ids=lambda x: x if isinstance(x, str) else getattr(x, "name", "seed"))
    def test_every_parameter_is_a_config_key(self, tmp_path, command, param):
        # Required parameters the config does not give come as flags; every
        # path is missing, so each command logs its parameters and stops.
        missing = str(tmp_path / "missing" / "file")
        args = []
        for p in main.commands[command].params:
            if p.required and p is not param:
                value = "2" if p.type is click.INT else missing
                args += [value] if isinstance(p, click.Argument) else [p.opts[0], value]
        if param is None:
            key, value = "seed", 3
        elif isinstance(param.type, click.Choice):
            key, value = param.name, next(c for c in param.type.choices if c != param.default)
        else:
            key, value = param.name, {click.INT: 3, click.FLOAT: 0.5}.get(param.type, missing)
        result = runner.invoke(main, [*self.config(tmp_path, {command: {key: value}}), command, *args])
        assert result.exit_code in (2, 4) and "Traceback" not in result.stderr
        logged = json.loads(result.stderr.split(" config: ", 1)[1].splitlines()[0])
        assert logged.get(key, value) == value and (param is None or key in logged)


class TestQuiet:
    def test_quiet_silences_stderr(self, tmp_path):
        out = tmp_path / "q.csv"
        result = run(["--quiet", "gen", "--n-per-class", "3", "--out", str(out)])
        assert result.stderr == ""
        noisy = run(["gen", "--n-per-class", "3", "--out", str(tmp_path / "n.csv")])
        assert "gen config" in noisy.stderr
