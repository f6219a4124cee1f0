import ast
import gc
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import warnings
import weakref
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import evifuse.data
import evifuse.cli
from evifuse.cli import exit_codes, main
from evifuse.data import load_csv, load_grid, save_grid
from evifuse.metrics import MAX_BINS
from evifuse.model import ModelConfig, NonFiniteEvidence, TrainingDiverged, load_checkpoint
from evifuse.opinions import FusionConflictError

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

    @pytest.mark.parametrize("doc", [[], {}, 0.4])
    def test_opinions_file_of_no_nonempty_list_exits_2(self, tmp_path, doc):
        ops = tmp_path / "ops.json"
        ops.write_text(json.dumps(doc))
        result = run(["--quiet", "fuse", "--opinions", str(ops), "--base-rate", UNIFORM2], expect=2)
        assert result.stderr == "error: opinions file must hold a nonempty JSON list\n"

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

    @pytest.mark.parametrize("field,value", [
        ("uncertainty", None), ("uncertainty", [0.4]), ("uncertainty", {}),
        ("uncertainty", "0.4"), ("uncertainty", True),
        ("beliefs", {"a": 1}), ("beliefs", ["0.2", "0.4"]),
    ])
    def test_opinion_field_that_is_no_number_exits_2(self, tmp_path, field, value):
        ops = tmp_path / "ops.json"
        doc = [{"beliefs": [0.2, 0.4], "uncertainty": 0.4}, {"beliefs": [0.3, 0.1], "uncertainty": 0.6}]
        doc[1][field] = value
        ops.write_text(json.dumps(doc))
        result = run(["--quiet", "fuse", "--opinions", str(ops), "--base-rate", UNIFORM2], expect=2)
        assert result.stderr.startswith(f"error: {field} must ") and result.stderr.count("\n") == 1

    @pytest.mark.parametrize("source", ["file", "inline"])
    @pytest.mark.parametrize("weight", [[1], {}, True])
    def test_base_rate_weight_that_is_no_number_exits_2(self, tmp_path, source, weight):
        ops = tmp_path / "ops.json"
        write_opinions(ops, [((0.2, 0.4), 0.4), ((0.3, 0.1), 0.6)])
        spec = json.dumps({"rates": [0.5, 0.5], "weight": weight})
        if source == "file":
            (tmp_path / "rate.json").write_text(spec)
            spec = str(tmp_path / "rate.json")
        result = run(["--quiet", "fuse", "--opinions", str(ops), "--base-rate", spec], expect=2)
        assert result.stderr.startswith("error: base rate weight must be a real number, not ")
        assert result.stderr.count("\n") == 1


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

    @pytest.mark.parametrize("views", ["1", "0"])
    def test_fewer_than_two_views_exits_2(self, tmp_path, views):
        out = tmp_path / "x.csv"
        result = run(["--quiet", "gen", "--views", views, "--out", str(out)], expect=2)
        assert result.stderr.count("\n") == 1 and "at least 2" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("ratio,match", [
        ("1:", "cannot parse ratio"),
        ("1e308:1e308", "ratio entries must have a finite sum"),
        ("1e-320:1", "not enough samples"),
    ])
    def test_bad_ratio_exits_2_before_writing(self, tmp_path, ratio, match):
        out, oodp, imb = (tmp_path / n for n in ("d.csv", "ood.csv", "imb.csv"))
        result = run([
            "--quiet", "gen", "--n-per-class", "3", "--out", str(out),
            "--ood-shift", "5.0", "--ood-out", str(oodp),
            "--ratio", ratio, "--imbalanced-out", str(imb),
        ], expect=2)
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert match in result.stderr and "Warning" not in result.stderr
        assert not any(p.exists() for p in (out, oodp, imb))

    def test_bad_ood_shift_writes_nothing(self, tmp_path):
        out, oodp = tmp_path / "d.csv", tmp_path / "ood.csv"
        result = run([
            "--quiet", "gen", "--dim", "1", "--n-per-class", "3", "--out", str(out),
            "--ood-shift", "5.0", "--ood-out", str(oodp),
        ], expect=2)
        assert result.stderr.startswith("error: ") and "view_dim" in result.stderr
        assert not out.exists() and not oodp.exists()

    def test_missing_out_directory_exits_4(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        result = run(["--quiet", "gen", "--out", str(out)], expect=4)
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
        assert not out.parent.exists()

    def test_out_of_memory_exits_2_with_one_line(self, tmp_path, monkeypatch):
        def exhausted(spec):
            raise MemoryError("Unable to allocate 5.82 TiB for an array")

        monkeypatch.setattr(evifuse.data, "gen_synthetic", exhausted)
        result = run(["--quiet", "gen", "--out", str(tmp_path / "x.csv")], expect=2)
        assert result.stderr == "error: gen: out of memory; ask for smaller sizes" \
            " (Unable to allocate 5.82 TiB for an array)\n"


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

    @pytest.mark.parametrize("value", ["nan", "1e999"])
    def test_non_finite_grid_exits_2(self, tmp_path, value):
        grid_path = tmp_path / "grid.txt"
        grid_path.write_text("0.0 1.0\n2.0 3.0\n" * 3 + f"0.0 {value}\n")
        result = run([
            "--quiet", "views", str(grid_path), "--roi", "2", "--window", "1",
            "--stride", "1", "--out-dir", str(tmp_path / "v"),
        ], expect=2)
        assert result.stdout == "" and result.stderr.count("\n") == 1
        assert result.stderr.startswith(f"error: {grid_path}: line 7: grid values must be finite")
        assert not (tmp_path / "v").exists()

    def test_missing_grid_exits_4(self, tmp_path):
        run([
            "views", str(tmp_path / "nope.txt"), "--roi", "4", "--window", "2",
            "--stride", "2", "--out-dir", str(tmp_path / "v"),
        ], expect=4)

    def _views_into(self, tmp_path, out_dir, expect):
        grid_path = tmp_path / "grid.txt"
        save_grid(np.arange(64.0).reshape(8, 8), grid_path)
        return run([
            "--quiet", "views", str(grid_path), "--roi", "4", "--window", "2",
            "--stride", "2", "--out-dir", str(out_dir),
        ], expect=expect)

    def test_creates_its_leaf_directory_only(self, tmp_path):
        out_dir = tmp_path / "a" / "b" / "c"
        result = self._views_into(tmp_path, out_dir, expect=4)
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
        assert not (tmp_path / "a").exists()
        (tmp_path / "a" / "b").mkdir(parents=True)
        self._views_into(tmp_path, out_dir, expect=0)
        assert (out_dir / "global.txt").exists()

    def test_writes_into_an_existing_directory(self, tmp_path):
        out_dir = tmp_path / "v"
        out_dir.mkdir()
        doc = out_json(self._views_into(tmp_path, out_dir, expect=0))
        assert doc["patch_count"] == 4

    def test_out_dir_that_is_a_file_exits_4(self, tmp_path):
        out_dir = tmp_path / "v"
        out_dir.write_text("")
        result = self._views_into(tmp_path, out_dir, expect=4)
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


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

    def test_empty_hidden_trains_a_model_without_hidden_layers(self, trained, tmp_path):
        out = tmp_path / "m.json"
        run([
            "--seed", "0", "train", "--data", str(trained["train"]),
            "--valid", str(trained["valid"]), "--classes", "2", "--views", "2",
            "--dims", "2,2", "--hidden", "", "--lr", "1e-3", "--epochs", "1", "--out", str(out),
        ])
        model = load_checkpoint(out)
        assert model.config.hidden == ()
        assert [w.shape for w in model.heads[0].weights] == [(2, 2)]

    @pytest.mark.parametrize("option,value", [
        ("--hidden", "4,"), ("--hidden", ",4"), ("--hidden", "4,,8"), ("--dims", "2,"),
    ])
    def test_empty_list_entry_exits_2(self, trained, tmp_path, option, value):
        options = {"--dims": "2,2", "--hidden": "4", option: value}
        result = run([
            "--quiet", "train", "--data", str(trained["train"]), "--valid", str(trained["valid"]),
            "--classes", "2", "--views", "2", *(x for kv in options.items() for x in kv),
            "--epochs", "1", "--out", str(tmp_path / "m.json"),
        ], expect=2)
        name = option.lstrip("-")
        assert result.stderr == f"error: cannot parse {name} {value!r}: invalid literal for int() with base 10: ''\n"
        assert not (tmp_path / "m.json").exists()

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

    def test_bins_above_the_cap_exit_2(self, trained):
        result = run([
            "--quiet", "eval", "--model", str(trained["model"]), "--data", str(trained["valid"]),
            "--bins", str(MAX_BINS + 1),
        ], expect=2)
        assert result.stdout == "" and result.stderr.count("\n") == 1
        assert f"at most {MAX_BINS} bins" in result.stderr

    @pytest.mark.parametrize("option,value,message", [
        ("--bins", "0", "need at least one bin"),
        ("--bins", str(MAX_BINS + 1), f"at most {MAX_BINS} bins"),
        ("--base-rate-override", "1:", "cannot parse base rate override"),
    ], ids=["bins-0", "bins-above-cap", "override"])
    def test_bad_option_exits_2_before_any_load(self, trained, tmp_path, option, value, message):
        # the option is refused before the checkpoint is read, so the missing one is never reached
        result = run([
            "--quiet", "eval", "--model", str(tmp_path / "missing.json"),
            "--data", str(trained["valid"]), option, value,
        ], expect=2)
        assert result.stdout == "" and result.stderr.count("\n") == 1
        assert message in result.stderr


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

    @pytest.mark.parametrize("key", ["epochs", "num_classes", "batch_size", "hidden", "view_dims"])
    def test_integer_setting_of_1e999_exits_2(self, trained, tmp_path, key):
        # 1e999 reads as inf, which no integer cast takes
        doc = json.loads(trained["model"].read_text())
        doc["config"][key] = ["@"] * len(doc["config"][key]) if key in ("hidden", "view_dims") else "@"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace('"@"', "1e999"))
        result = run(["--quiet", "eval", "--model", str(bad), "--data", str(trained["valid"])], expect=2)
        assert result.stderr.startswith(f"error: {bad}: malformed checkpoint: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("edit,field", [
        (lambda doc: doc["config"].update(hidden="32"), "hidden must hold only numbers, not '32'"),
        (lambda doc: doc["config"].update(epochs=1.9), "epochs must be an integer, not 1.9"),
        (lambda doc: doc["config"].update(epochs=True), "epochs must be an integer, not True"),
        (lambda doc: doc["heads"][0]["layers"][0].update(bias=[str(b) for b in doc["heads"][0]["layers"][0]["bias"]]),
         "head 0: layer 0 bias must hold only numbers, not ["),
    ], ids=["hidden-string", "epochs-fraction", "epochs-boolean", "bias-strings"])
    def test_setting_of_the_wrong_kind_exits_2_naming_it(self, trained, tmp_path, edit, field):
        doc = json.loads(trained["model"].read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = run(["--quiet", "eval", "--model", str(bad), "--data", str(trained["valid"])], expect=2)
        assert result.stderr.startswith(f"error: {bad}: malformed checkpoint: {field}")
        assert result.stdout == "" and result.stderr.count("\n") == 1

    def test_train_to_missing_directory_exits_4(self, trained, tmp_path):
        out = tmp_path / "missing" / "m.json"
        run([
            "--seed", "0", "train", "--data", str(trained["train"]),
            "--valid", str(trained["valid"]), "--classes", "2", "--views", "2",
            "--dims", "2,2", "--hidden", "4", "--epochs", "1", "--out", str(out),
        ], expect=4)
        assert not out.parent.exists()


# An integer literal of 401 digits, too large for any float.
HUGE_INT = "1" + "0" * 400

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

    @pytest.mark.parametrize("where", ["config", "opinions", "base_rate", "inline_base_rate", "model"])
    def test_integer_no_float_holds_exits_2(self, trained, tmp_path, where):
        # each of these once reached a float cast and ended in an OverflowError
        bad = tmp_path / "bad.json"
        ops = tmp_path / "ops.json"
        write_opinions(ops, [((0.2, 0.4), 0.4), ((0.3, 0.1), 0.6)])
        checkpoint = json.loads(trained["model"].read_text())
        checkpoint["base_rate"]["weight"] = int(HUGE_INT)
        huge_rate = f'{{"rates": [0.5, 0.5], "weight": {HUGE_INT}}}'
        content, args = {
            "config": (f'{{"gen": {{"separation": {HUGE_INT}}}}}',
                       ["--config", str(bad), "gen", "--out", str(tmp_path / "a.csv")]),
            "opinions": (f'[{{"beliefs": [{HUGE_INT}, 0], "uncertainty": 0.5}}]',
                         ["fuse", "--opinions", str(bad), "--base-rate", UNIFORM2]),
            "base_rate": (huge_rate, ["fuse", "--opinions", str(ops), "--base-rate", str(bad)]),
            "inline_base_rate": (None, ["fuse", "--opinions", str(ops), "--base-rate", huge_rate]),
            "model": (json.dumps(checkpoint), ["eval", "--model", str(bad), "--data", str(trained["valid"])]),
        }[where]
        if content is not None:
            bad.write_text(content)
        result = run(["--quiet", *args], expect=2)
        self.assert_one_line_naming(result, "inline base rate" if content is None else str(bad))
        assert "too large for a float" in result.stderr

    @pytest.mark.parametrize("spec", [
        '{"rates": [0.5, 0.5], "weight": 2.0',
        '{"rates": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ], ids=["malformed", "deep"])
    def test_inline_base_rate_exits_2(self, tmp_path, spec):
        ops = tmp_path / "ops.json"
        write_opinions(ops, [((0.2, 0.4), 0.4), ((0.3, 0.1), 0.6)])
        result = run(["--quiet", "fuse", "--opinions", str(ops), "--base-rate", spec], expect=2)
        self.assert_one_line_naming(result, "inline base rate")


# What one field of a valid JSON document is replaced with: the other JSON
# kinds, a numeric string, a literal that overflows to inf, and a fraction
# where an integer belongs. OVERFLOW is written out as the bare literal 1e999.
OVERFLOW = "@1e999"
REPLACEMENTS = [None, True, "0.4", [0.4], {}, OVERFLOW, 2.7]


def json_paths(doc, path=()):
    """The path of every object member and list entry of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from json_paths(value, (*path, key))


def replaced(doc, path, value) -> str:
    """The JSON text of `doc` with the field at `path` set to `value`."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return json.dumps(doc).replace(json.dumps(OVERFLOW), "1e999")


class TestJsonMutations:
    """One replaced field of a valid JSON input is held to the exit-code contract."""

    @staticmethod
    def assert_documented_exit(argv, case):
        result = runner.invoke(main, ["--quiet", *argv])
        assert_contract(result, f"{case}: exit {result.exit_code}\n{result.stderr}")

    @settings(max_examples=100)
    @given(data=st.data())
    def test_fuse_inputs(self, tmp_path_factory, data):
        ops_doc = [{"beliefs": [0.2, 0.4], "uncertainty": 0.4}, {"beliefs": [0.3, 0.1], "uncertainty": 0.6}]
        rate_doc = {"rates": [0.5, 0.5], "weight": 2.0}
        where = data.draw(st.sampled_from(["opinions", "base_rate", "inline_base_rate"]))
        doc = ops_doc if where == "opinions" else rate_doc
        path = data.draw(st.sampled_from(list(json_paths(doc))))
        text = replaced(doc, path, data.draw(st.sampled_from(REPLACEMENTS)))
        root = tmp_path_factory.mktemp("fuse")
        ops, rate = root / "ops.json", root / "rate.json"
        ops.write_text(text if where == "opinions" else json.dumps(ops_doc))
        rate.write_text(text if where == "base_rate" else json.dumps(rate_doc))
        spec = text if where == "inline_base_rate" else str(rate)
        self.assert_documented_exit(["fuse", "--opinions", str(ops), "--base-rate", spec], f"{where} {text}")

    @settings(max_examples=100)
    @given(data=st.data())
    def test_checkpoint(self, trained, tmp_path_factory, data):
        doc = json.loads(trained["model"].read_text())
        paths = [
            p for p in json_paths(doc)
            if p[0] in ("config", "base_rate") or (len(p) > 4 and p[:4] == ("heads", 0, "layers", 0))
        ]
        path = data.draw(st.sampled_from(paths))
        value = data.draw(st.sampled_from(REPLACEMENTS))
        model = tmp_path_factory.mktemp("checkpoint") / "model.json"
        model.write_text(replaced(doc, path, value))
        self.assert_documented_exit(
            ["eval", "--model", str(model), "--data", str(trained["valid"])], f"{path} = {value!r}"
        )


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

    @pytest.mark.parametrize("percentile", ["-1", "101", "nan"])
    def test_bad_percentile_exits_2_before_any_load(self, trained, tmp_path, percentile):
        # the percentile is refused before the checkpoint is read, so the missing one is never reached
        result = run([
            "--quiet", "ood", "--model", str(tmp_path / "missing.json"), "--id-data", str(trained["valid"]),
            "--ood-data", str(trained["ood"]), "--percentile", percentile,
        ], expect=2)
        assert result.stdout == "" and result.stderr.count("\n") == 1
        assert "percentile must lie in [0, 100]" in result.stderr

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

    def test_ratio_entries_are_stripped(self, trained):
        argv = ["--seed", "7", "adapt-sweep", "--model", str(trained["model"]),
                "--uniform-model", str(trained["uniform"]), "--data", str(trained["train"])]
        spaced = run([*argv, "--ratios", " 3:1 ,  1:3"]).stdout
        assert spaced == run([*argv, "--ratios", "3:1,1:3"]).stdout
        assert [line.split(",")[0] for line in spaced.splitlines()[1:]] == ["3:1"] * 3 + ["1:3"] * 3

    @pytest.mark.parametrize("ratios", ["3:1,", "3:1,,1:3", "3:1,x", "3:1, "])
    def test_bad_ratio_list_exits_2_before_any_load(self, trained, tmp_path, ratios):
        # the list is refused before the checkpoints are read, so a missing one is never reached
        result = run([
            "--quiet", "adapt-sweep", "--model", str(tmp_path / "missing.json"),
            "--uniform-model", str(trained["uniform"]), "--data", str(trained["train"]),
            "--ratios", ratios,
        ], expect=2)
        assert result.stdout == "" and result.stderr.startswith("error: cannot parse ratio ")

    def test_bins_above_the_cap_exit_2(self, trained):
        result = run([
            "--quiet", "adapt-sweep", "--model", str(trained["model"]),
            "--uniform-model", str(trained["uniform"]), "--data", str(trained["train"]),
            "--bins", str(MAX_BINS + 1),
        ], expect=2)
        assert result.stdout == "" and result.stderr.count("\n") == 1
        assert f"at most {MAX_BINS} bins" in result.stderr

    @pytest.mark.parametrize("bins,message", [
        ("0", "need at least one bin"), (str(MAX_BINS + 1), f"at most {MAX_BINS} bins"),
    ], ids=["bins-0", "bins-above-cap"])
    def test_bad_bins_exit_2_before_any_load(self, trained, tmp_path, bins, message):
        result = run([
            "--quiet", "adapt-sweep", "--model", str(tmp_path / "missing.json"),
            "--uniform-model", str(trained["uniform"]), "--data", str(trained["train"]),
            "--bins", bins,
        ], expect=2)
        assert result.stdout == "" and result.stderr.count("\n") == 1
        assert message in result.stderr


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

    def test_config_section_must_be_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": [1, 2]}))
        result = run(["--quiet", "--config", str(cfg), "gen", "--out", str(tmp_path / "a.csv")], expect=2)
        assert result.stderr == "error: config section 'gen' must be an object\n"

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


# Each value stands in for one parameter of an otherwise valid invocation.
# Values that allocate or multiply work (huge sizes or epoch counts, a
# one-cell window and stride) are left out: they need a child process
# under a memory limit, not an in-process runner.
CONTRACT_VALUES = ["0", "-1", "nan", "inf", "", "1:", "a,b", "1e308:1e308"]


def contract_invocations(trained, tmp_path):
    """A valid value for every parameter of every subcommand, keyed by name."""
    ops, grid = tmp_path / "ops.json", tmp_path / "grid.txt"
    write_opinions(ops, [((0.5, 0.2), 0.3), ((0.4, 0.4), 0.2)])
    save_grid(np.arange(100.0).reshape(10, 10), grid)
    model, uniform = str(trained["model"]), str(trained["uniform"])
    train, valid, ood = str(trained["train"]), str(trained["valid"]), str(trained["ood"])
    return {
        "fuse": {"opinions_path": str(ops), "base_rate_spec": UNIFORM2, "chain": "cbf"},
        "gen": {
            "classes": "2", "views": "2", "dim": "2", "n_per_class": "10", "separation": "3",
            "scale": "1", "out_path": "g.csv", "ood_shift": "2", "ood_out": "go.csv",
            "ratio": "1:2", "imbalanced_out": "gi.csv",
        },
        "views": {
            "grid_file": str(grid), "roi": "8", "window": "4", "stride": "2",
            "center": "5,5", "cutout": "0,0,2", "out_dir": "v",
        },
        "train": {
            "data_path": train, "valid_path": valid, "out_path": "m.json", "classes": "2",
            "n_views": "2", "dims": "2,2", "hidden": "4", "lr": "1e-3", "epochs": "1",
            "batch_size": "16", "anneal_epochs": "1", "prior_weight": "2",
            "base_rate_mode": "uniform",
        },
        "eval": {"model_path": model, "data_path": valid, "base_rate_override": "1:1", "bins": "5"},
        "ood": {"model_path": model, "id_path": valid, "ood_path": ood, "percentile": "50"},
        "adapt-sweep": {
            "model_path": model, "uniform_path": uniform, "data_path": train,
            "ratios": "1:1,2:1", "bins": "5",
        },
    }


def contract_argv(command, values):
    """`command` with each parameter in `values` on the command line."""
    argv = [command]
    for p in main.commands[command].params:
        if p.name in values:
            argv += [values[p.name]] if isinstance(p, click.Argument) else [p.opts[0], values[p.name]]
    return argv


def assert_contract(result, case):
    """Exit 0, 2, 3 or 4 with no traceback or warning, ending on an error line."""
    assert result.exit_code in (0, 2, 3, 4), case
    assert "Traceback" not in result.stderr and "Warning" not in result.stderr, case
    if result.exit_code:
        # click's own parse errors follow its usage text; library errors are one line
        lines = result.stderr.splitlines()
        assert lines[-1].startswith("Error:") or (len(lines) == 1 and lines[0].startswith("error:")), case


class TestExitCodeContract:
    @pytest.mark.parametrize("exc,command,prog,code,line", [
        (FusionConflictError("total belief conflict"), "fuse", None, 3, "error: total belief conflict"),
        (TrainingDiverged("non-finite loss"), None, "run.py", 3, "run.py: error: non-finite loss"),
        (NonFiniteEvidence("sample c"), "eval", None, 3, "error: sample c"),
        (FileNotFoundError(2, "No such file or directory", "x.json"), "eval", None, 4,
         "error: [Errno 2] No such file or directory: 'x.json'"),
        (ValueError("bad"), "gen", None, 2, "error: bad"),
        (MemoryError("Unable to\n allocate"), "gen", None, 2,
         "error: gen: out of memory; ask for smaller sizes (Unable to allocate)"),
        (MemoryError(), None, "run.py", 2, "run.py: error: out of memory; ask for smaller sizes (no detail)"),
    ])
    def test_exit_codes_table(self, capsys, exc, command, prog, code, line):
        with pytest.raises(SystemExit) as info, exit_codes(command, prog):
            raise exc
        assert info.value.code == code
        assert capsys.readouterr().err == line + "\n"

    @pytest.mark.parametrize("exc", [KeyError("x"), RuntimeError("bug"), click.UsageError("no such option")])
    def test_exit_codes_keeps_anything_else_raised(self, capsys, exc):
        with pytest.raises(type(exc)), exit_codes("gen"):
            raise exc
        assert capsys.readouterr().err == ""

    def test_each_failure_type_is_named_once(self):
        source = Path(evifuse.cli.__file__).read_text()
        names = [n.id for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name)]
        for name in ("FusionConflictError", "TrainingDiverged", "NonFiniteEvidence", "OSError", "MemoryError"):
            assert names.count(name) == 1, name

    @pytest.mark.parametrize("command,param", [
        (name, p.name) for name, command in sorted(main.commands.items()) for p in command.params
    ])
    def test_bad_values_exit_with_a_documented_code(self, trained, tmp_path, monkeypatch, command, param):
        # every output path is relative, so each run writes under tmp_path
        monkeypatch.chdir(tmp_path)
        values = contract_invocations(trained, tmp_path)[command]
        assert set(values) == {p.name for p in main.commands[command].params}
        assert run(["--quiet", *contract_argv(command, values)]).stderr == ""
        for bad in CONTRACT_VALUES:
            result = runner.invoke(main, ["--quiet", *contract_argv(command, dict(values, **{param: bad}))])
            assert_contract(result, f"{command} {param}={bad!r}: exit {result.exit_code}\n{result.stderr}")

    @pytest.mark.parametrize("command,key", [
        (name, key) for name, command in sorted(main.commands.items())
        for key in [*(p.name for p in command.params), "seed"]
    ])
    def test_config_literals_exit_with_a_documented_code(self, trained, tmp_path, monkeypatch, command, key):
        # the same contract for a value that comes from a config file: the
        # parameter under test is left off the command line
        monkeypatch.chdir(tmp_path)
        # read as an int, the huge literal would be 10**400 epochs in this process
        with pytest.raises(ValueError, match="too large for a float"):
            evifuse.data.parse_json(HUGE_INT, "literal")
        values = contract_invocations(trained, tmp_path)[command]
        values.pop(key, None)
        cfg = tmp_path / "cfg.json"
        for literal in [HUGE_INT, "1e999"]:
            cfg.write_text(f'{{"{command}": {{"{key}": {literal}}}}}')
            result = runner.invoke(main, ["--quiet", "--config", str(cfg), *contract_argv(command, values)])
            case = f"{command} {key}={literal[:8]}: exit {result.exit_code}\n{result.stderr}"
            assert_contract(result, case)
            if literal == HUGE_INT:
                assert result.exit_code == 2 and result.stderr.count("\n") == 1, case
                assert result.stderr.startswith(f"error: {cfg}: "), case


# Runs its arguments as a command under a 2 GiB address-space limit and
# prints the command's exit code and peak RSS in KiB. The command is forked
# from this small interpreter, not from the test process, so its peak RSS
# does not include the test process's pages.
_LAUNCHER = """
import os, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.argv[1], sys.argv[1:])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _run_limited(argv, timeout, **kwargs):
    """(exit code, peak RSS in MB) of `argv` run through the launcher.

    The launcher leads its own process group, so a command still running
    after `timeout` seconds is killed together with it.
    """
    launcher = subprocess.Popen(
        [sys.executable, "-c", _LAUNCHER, *argv],
        stdout=subprocess.PIPE, text=True, start_new_session=True, **kwargs,
    )
    try:
        out, _ = launcher.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(launcher.pid, signal.SIGKILL)
        launcher.communicate()
        pytest.fail(f"still running after {timeout} s")
    code, peak_kib = (int(field) for field in out.split())
    return code, peak_kib / 1024  # Linux reports KiB


class TestVeryLargeSizes:
    """Sizes far past any memory, each run in a child process under a 2 GiB
    address-space limit: a regression then fails as a MemoryError or a
    timeout in that child instead of swapping the machine. The child's peak
    RSS must stay small too, so a size is refused before large buffers are
    filled, not when the limit is reached."""

    @pytest.mark.parametrize("argv,message", [
        (["gen", "--n-per-class", "100000000000"], "gen: out of memory"),
        (["gen", "--classes", "100000000"], "gen: out of memory"),
        (["gen", "--dim", "100000000000"], "gen: out of memory"),
        (["train", "--dims", "2,2", "--hidden", "100000000000"], "train: out of memory"),
        (["train", "--dims", "1000000000000,1"], "header does not match"),
    ], ids=["n-per-class", "classes", "dim", "hidden", "dims"])
    def test_exits_2_with_one_line(self, trained, tmp_path, argv, message):
        if argv[0] == "gen":
            argv = [*argv, "--out", str(tmp_path / "g.csv")]
        else:
            argv = [*argv, "--data", str(trained["train"]), "--valid", str(trained["valid"]),
                    "--classes", "2", "--views", "2", "--out", str(tmp_path / "m.json")]
        src = os.path.dirname(os.path.dirname(evifuse.data.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        with tempfile.TemporaryFile("w+") as err:
            code, peak_mb = _run_limited(
                [sys.executable, "-m", "evifuse.cli", "--quiet", *argv],
                timeout=30, cwd=tmp_path, env=env, stderr=err,
            )
            err.seek(0)
            stderr = err.read()
        assert code == 2, stderr
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
        assert message in stderr
        assert not os.listdir(tmp_path)
        assert peak_mb < 300, f"peak RSS {peak_mb:.0f} MB"

    def test_peak_rss_excludes_the_test_process(self):
        # 200 MB written in this process must not count toward the command's peak
        ballast = bytearray(200 << 20)
        ballast[::4096] = b"\x01" * (len(ballast) // 4096)
        code, peak_mb = _run_limited([sys.executable, "-c", "pass"], timeout=30)
        del ballast
        assert code == 0 and peak_mb < 100, f"peak RSS {peak_mb:.0f} MB"
