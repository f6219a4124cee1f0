"""Command-line front end for fusion, data generation, training, and the
shift experiments.

Machine-readable JSON/CSV goes to stdout, human-readable progress to stderr,
so runs can be piped and diffed. Every subcommand resolves its parameters as
command line over config file over defaults, logs the resolved values, and
is byte-reproducible given the same inputs and seed.

Exit codes: 0 success, 2 usage or validation, 3 numeric failure (total
fusion conflict, a diverged training run, overflowing evidence at
evaluation), 4 file IO.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import dataclass, field

import click
import numpy as np

from . import data as datamod
from . import metrics as metricsmod
from .dirichlet import BaseRate, expected_probabilities, predict_class
from .model import (
    EvidentialModel,
    ModelConfig,
    NonFiniteEvidence,
    TrainingDiverged,
    compute_base_rate,
    evaluate,
    fit,
    load_checkpoint,
    save_checkpoint,
)
from .opinions import FusionConflictError, Opinion, bcf_fuse, cbf_fuse, combine_multiview, dirichlet_from_opinion

EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


@dataclass
class CliState:
    seed: int | None = None
    config: dict = field(default_factory=dict)
    quiet: bool = False


def _echo(text: str, err: bool = False):
    # click.echo caches what it resolves a default stream to in a
    # WeakKeyDictionary keyed by the stream. A StringIO needs no wrapping, so
    # the cached value is the key itself and the entry never dies: an
    # in-process caller that swaps one into sys.stdout would keep every
    # output in memory. Naming the stream skips that cache.
    click.echo(text, file=sys.stderr if err else sys.stdout)


def _fail(code: int, message: str):
    _echo(f"error: {message}", err=True)
    sys.exit(code)


def guarded(fn):
    """Map library errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (click.ClickException, click.exceptions.Exit, SystemExit):
            raise
        except (FusionConflictError, TrainingDiverged, NonFiniteEvidence) as exc:
            _fail(EXIT_NUMERIC, str(exc))
        except OSError as exc:
            _fail(EXIT_IO, str(exc))
        except ValueError as exc:
            _fail(EXIT_VALIDATION, str(exc))

    return wrapper


def _log(state: CliState, message: str):
    if not state.quiet:
        _echo(message, err=True)


def _emit(obj):
    _echo(json.dumps(obj, sort_keys=True))


def _resolve(ctx: click.Context, command: str, values: dict) -> dict:
    """Command line beats config file beats declared defaults."""
    state: CliState = ctx.obj
    section = state.config.get(command, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section {command!r} must be an object")
    known = set(values) | {"seed"}
    for key in section:
        if key not in known:
            raise ValueError(f"config section {command!r} has unknown key {key!r}")
    resolved = {}
    for name, value in values.items():
        source = ctx.get_parameter_source(name)
        if source == click.core.ParameterSource.COMMANDLINE:
            resolved[name] = value
        elif name in section:
            resolved[name] = section[name]
        else:
            resolved[name] = value
    return resolved


def _seed(state: CliState, command: str) -> int:
    if state.seed is not None:
        return state.seed
    section = state.config.get(command, {})
    if isinstance(section, dict) and "seed" in section:
        return int(section["seed"])
    return 0


def _log_config(state: CliState, command: str, resolved: dict, seed: int | None = None):
    shown = dict(resolved)
    if seed is not None:
        shown["seed"] = seed
    _log(state, f"{command} config: {json.dumps(shown, sort_keys=True, default=str)}")


def _parse_proportions(text: str, what: str) -> np.ndarray:
    parts = text.split(":") if ":" in text else text.split(",")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"cannot parse {what} {text!r}: {exc}") from exc
    if values.size < 2 or np.any(~np.isfinite(values)) or np.any(values <= 0.0):
        raise ValueError(f"{what} needs at least two strictly positive entries")
    return values / values.sum()


def _parse_ints(text: str, what: str) -> tuple:
    try:
        return tuple(int(p) for p in str(text).split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse {what} {text!r}: {exc}") from exc


@click.group()
@click.option("--seed", type=int, default=None, help="Override every subcommand seed.")
@click.option("--config", "config_path", type=str, default=None,
              help="JSON file with per-subcommand parameter sections.")
@click.option("--quiet", is_flag=True, help="Silence progress output on stderr.")
@click.pass_context
def main(ctx, seed, config_path, quiet):
    """Evidential multi-view classification toolkit."""
    config = {}
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            _fail(EXIT_IO, str(exc))
        except json.JSONDecodeError as exc:
            _fail(EXIT_VALIDATION, f"{config_path}: {exc}")
        if not isinstance(config, dict):
            _fail(EXIT_VALIDATION, f"{config_path}: config root must be an object")
    ctx.obj = CliState(seed=seed, config=config, quiet=quiet)


@main.command()
@click.option("--opinions", "opinions_path", required=True, type=str,
              help="JSON file holding a list of opinion objects.")
@click.option("--base-rate", "base_rate_spec", required=True, type=str,
              help="Base rate as a JSON file path or an inline JSON object.")
@click.option("--chain", type=click.Choice(["cbf", "bcf", "paper"]), default="paper",
              show_default=True,
              help="cbf/bcf fold one operator over all opinions; paper folds "
                   "cumulative fusion over all but the last, then one "
                   "constraint fusion with the last.")
@click.pass_context
@guarded
def fuse(ctx, opinions_path, base_rate_spec, chain):
    """Fuse opinions from a file and print the combined result."""
    state: CliState = ctx.obj
    resolved = _resolve(ctx, "fuse", {
        "opinions_path": opinions_path, "base_rate_spec": base_rate_spec, "chain": chain,
    })
    _log_config(state, "fuse", resolved)
    with open(resolved["opinions_path"], "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{resolved['opinions_path']}: {exc}") from exc
    if not isinstance(raw, list) or not raw:
        raise ValueError("opinions file must hold a nonempty JSON list")
    opinions = [Opinion.from_dict(o) for o in raw]

    spec = resolved["base_rate_spec"].strip()
    if spec.startswith("{"):
        base_doc = json.loads(spec)
    else:
        with open(spec, "r", encoding="utf-8") as fh:
            base_doc = json.load(fh)
    base = BaseRate.from_dict(base_doc)
    if base.num_classes != opinions[0].num_classes:
        raise ValueError("base rate and opinions disagree on the number of classes")

    chain = resolved["chain"]
    if chain == "paper":
        if len(opinions) < 2:
            raise ValueError("chain 'paper' needs at least two opinions")
        combined = combine_multiview(opinions[:-1], opinions[-1])
    else:
        op = cbf_fuse if chain == "cbf" else bcf_fuse
        combined = opinions[0]
        for i, other in enumerate(opinions[1:], start=1):
            try:
                combined = op(combined, other)
            except FusionConflictError as exc:
                raise FusionConflictError(f"{chain} stage {i} (opinion {i}): {exc}") from exc
    alpha = dirichlet_from_opinion(combined, base)
    _emit({
        "opinion": combined.to_dict(),
        "alpha": alpha.alpha.tolist(),
        "expected_probabilities": expected_probabilities(alpha).tolist(),
        "predicted_class": predict_class(alpha),
    })


@main.command()
@click.option("--classes", type=int, default=2, show_default=True)
@click.option("--views", type=int, default=4, show_default=True)
@click.option("--dim", type=int, default=4, show_default=True, help="Feature dimension per view.")
@click.option("--n-per-class", type=int, default=100, show_default=True)
@click.option("--separation", type=float, default=3.0, show_default=True)
@click.option("--scale", type=float, default=1.0, show_default=True)
@click.option("--out", "out_path", required=True, type=str)
@click.option("--ood-shift", type=float, default=None,
              help="Also write a feature-shifted copy displaced by this much.")
@click.option("--ood-out", type=str, default=None)
@click.option("--ratio", type=str, default=None,
              help="Also write a class-imbalanced subsample, e.g. 2:8.")
@click.option("--imbalanced-out", type=str, default=None)
@click.pass_context
@guarded
def gen(ctx, classes, views, dim, n_per_class, separation, scale, out_path,
        ood_shift, ood_out, ratio, imbalanced_out):
    """Generate synthetic multi-view datasets (ID, optional OOD/imbalanced)."""
    state: CliState = ctx.obj
    resolved = _resolve(ctx, "gen", {
        "classes": classes, "views": views, "dim": dim, "n_per_class": n_per_class,
        "separation": separation, "scale": scale, "out_path": out_path,
        "ood_shift": ood_shift, "ood_out": ood_out,
        "ratio": ratio, "imbalanced_out": imbalanced_out,
    })
    seed = _seed(state, "gen")
    _log_config(state, "gen", resolved, seed)
    if (resolved["ood_shift"] is None) != (resolved["ood_out"] is None):
        raise ValueError("--ood-shift and --ood-out must be given together")
    if (resolved["ratio"] is None) != (resolved["imbalanced_out"] is None):
        raise ValueError("--ratio and --imbalanced-out must be given together")

    spec = datamod.SyntheticSpec.blobs(
        num_classes=int(resolved["classes"]),
        num_views=int(resolved["views"]),
        view_dim=int(resolved["dim"]),
        separation=float(resolved["separation"]),
        scale=float(resolved["scale"]),
        n_per_class=int(resolved["n_per_class"]),
        seed=seed,
    )
    ds = datamod.gen_synthetic(spec)
    datamod.save_csv(ds, resolved["out_path"])
    _log(state, f"wrote {len(ds)} samples to {resolved['out_path']}")
    summary = {"out": resolved["out_path"], "n": len(ds),
               "ood_out": None, "ood_n": None,
               "imbalanced_out": None, "imbalanced_n": None}

    if resolved["ood_shift"] is not None:
        ood = datamod.gen_ood(spec, float(resolved["ood_shift"]))
        datamod.save_csv(ood, resolved["ood_out"])
        _log(state, f"wrote {len(ood)} shifted samples to {resolved['ood_out']}")
        summary["ood_out"] = resolved["ood_out"]
        summary["ood_n"] = len(ood)
    if resolved["ratio"] is not None:
        proportions = _parse_proportions(str(resolved["ratio"]), "ratio")
        sub = datamod.resample_class_ratio(ds, proportions, seed)
        datamod.save_csv(sub, resolved["imbalanced_out"])
        _log(state, f"wrote {len(sub)} resampled samples to {resolved['imbalanced_out']}")
        summary["imbalanced_out"] = resolved["imbalanced_out"]
        summary["imbalanced_n"] = len(sub)
    _emit(summary)


@main.command()
@click.argument("grid_file", type=str)
@click.option("--roi", type=int, default=160, show_default=True)
@click.option("--window", type=int, default=96, show_default=True)
@click.option("--stride", type=int, default=32, show_default=True)
@click.option("--center", type=str, default=None, help="ROI center as row,col.")
@click.option("--cutout", type=str, default=None, help="Zeroed square as row,col,size (ROI-local).")
@click.option("--out-dir", "out_dir", required=True, type=str)
@click.pass_context
@guarded
def views(ctx, grid_file, roi, window, stride, center, cutout, out_dir):
    """Tile a grid file into overlapping local views plus the global ROI."""
    state: CliState = ctx.obj
    resolved = _resolve(ctx, "views", {
        "grid_file": grid_file, "roi": roi, "window": window, "stride": stride,
        "center": center, "cutout": cutout, "out_dir": out_dir,
    })
    _log_config(state, "views", resolved)
    geom = datamod.ViewGeometry(int(resolved["roi"]), int(resolved["window"]), int(resolved["stride"]))
    grid = datamod.load_grid(resolved["grid_file"])
    center_xy = None
    if resolved["center"] is not None:
        center_xy = _parse_ints(resolved["center"], "center")
        if len(center_xy) != 2:
            raise ValueError("center must be row,col")
    cut = None
    if resolved["cutout"] is not None:
        cut = _parse_ints(resolved["cutout"], "cutout")
        if len(cut) != 3:
            raise ValueError("cutout must be row,col,size")
    patches, roi_patch = datamod.extract_views(grid, geom, center=center_xy, cutout=cut)
    os.makedirs(resolved["out_dir"], exist_ok=True)
    local_paths = []
    for i, patch in enumerate(patches):
        path = os.path.join(resolved["out_dir"], f"local_{i:02d}.txt")
        datamod.save_grid(patch, path)
        local_paths.append(path)
    global_path = os.path.join(resolved["out_dir"], "global.txt")
    datamod.save_grid(roi_patch, global_path)
    _log(state, f"wrote {len(local_paths)} local views and the ROI to {resolved['out_dir']}")
    _emit({"locals": local_paths, "global": global_path, "patch_count": len(local_paths)})


@main.command()
@click.option("--data", "data_path", required=True, type=str)
@click.option("--valid", "valid_path", required=True, type=str)
@click.option("--out", "out_path", required=True, type=str, help="Checkpoint destination.")
@click.option("--classes", type=int, required=True)
@click.option("--views", "n_views", type=int, required=True)
@click.option("--dims", type=str, required=True, help="Per-view dimensions, e.g. 4,4,4,4.")
@click.option("--hidden", type=str, default="32", show_default=True)
@click.option("--lr", type=float, default=1e-4, show_default=True)
@click.option("--epochs", type=int, default=200, show_default=True)
@click.option("--batch-size", type=int, default=32, show_default=True)
@click.option("--anneal-epochs", type=int, default=None)
@click.option("--prior-weight", type=float, default=None)
@click.option("--base-rate", "base_rate_mode", type=click.Choice(["train", "uniform"]),
              default="train", show_default=True,
              help="Prior from training class frequencies, or uniform.")
@click.pass_context
@guarded
def train(ctx, data_path, valid_path, out_path, classes, n_views, dims, hidden,
          lr, epochs, batch_size, anneal_epochs, prior_weight, base_rate_mode):
    """Train an evidential model and write its checkpoint."""
    state: CliState = ctx.obj
    resolved = _resolve(ctx, "train", {
        "data_path": data_path, "valid_path": valid_path, "out_path": out_path,
        "classes": classes, "n_views": n_views, "dims": dims, "hidden": hidden,
        "lr": lr, "epochs": epochs, "batch_size": batch_size,
        "anneal_epochs": anneal_epochs, "prior_weight": prior_weight,
        "base_rate_mode": base_rate_mode,
    })
    seed = _seed(state, "train")
    _log_config(state, "train", resolved, seed)
    view_dims = _parse_ints(resolved["dims"], "dims")
    config = ModelConfig(
        num_classes=int(resolved["classes"]),
        num_views=int(resolved["n_views"]),
        view_dims=view_dims,
        hidden=_parse_ints(resolved["hidden"], "hidden"),
        prior_weight=resolved["prior_weight"],
        learning_rate=float(resolved["lr"]),
        epochs=int(resolved["epochs"]),
        batch_size=int(resolved["batch_size"]),
        anneal_epochs=resolved["anneal_epochs"],
        seed=seed,
    )
    train_ds = datamod.load_csv(resolved["data_path"], config.num_classes, config.num_views, view_dims)
    valid_ds = datamod.load_csv(resolved["valid_path"], config.num_classes, config.num_views, view_dims)
    if resolved["base_rate_mode"] == "uniform":
        base = BaseRate(np.full(config.num_classes, 1.0 / config.num_classes), config.prior_weight)
    else:
        base = compute_base_rate(train_ds.labels(), config.num_classes, config.prior_weight)
    model = EvidentialModel.initialize(config, base)
    _log(state, f"training on {len(train_ds)} samples, validating on {len(valid_ds)}")
    report = fit(model, train_ds, valid_ds)
    save_checkpoint(model, resolved["out_path"])
    _log(state, f"checkpoint written to {resolved['out_path']}")
    final = {}
    if report.train_loss:
        final = {
            "train_loss": report.train_loss[-1],
            "train_acc": report.train_acc[-1],
            "valid_loss": report.valid_loss[-1],
            "valid_acc": report.valid_acc[-1],
        }
    _emit({
        "checkpoint": resolved["out_path"],
        "base_rate": model.base_rate.to_dict(),
        "epochs": config.epochs,
        "final": final,
        "curves": report.to_dict(),
    })


def _scores(model: EvidentialModel, ds, override: BaseRate | None):
    """(predicted classes, their confidences, combined uncertainties) of ds.

    Confidences are checked to lie in [0, 1] by `report_from_arrays`.
    """
    predicted, uncertainty, probs = evaluate(model, ds, override)
    metricsmod.check_unit_interval("uncertainty", uncertainty)
    return predicted, probs[np.arange(len(ds)), predicted], uncertainty


def _load_for_model(model: EvidentialModel, path):
    cfg = model.config
    return datamod.load_csv(path, cfg.num_classes, cfg.num_views, cfg.view_dims)


@main.command("eval")
@click.option("--model", "model_path", required=True, type=str)
@click.option("--data", "data_path", required=True, type=str)
@click.option("--base-rate-override", type=str, default=None,
              help="Test-time prior proportions, e.g. 8:2 or 0.8,0.2.")
@click.option("--bins", type=int, default=10, show_default=True)
@click.pass_context
@guarded
def eval_cmd(ctx, model_path, data_path, base_rate_override, bins):
    """Evaluate a checkpoint: accuracy, AUC, calibration, per-sample records."""
    state: CliState = ctx.obj
    resolved = _resolve(ctx, "eval", {
        "model_path": model_path, "data_path": data_path,
        "base_rate_override": base_rate_override, "bins": bins,
    })
    _log_config(state, "eval", resolved)
    model = load_checkpoint(resolved["model_path"])
    ds = _load_for_model(model, resolved["data_path"])
    override = None
    if resolved["base_rate_override"] is not None:
        rates = _parse_proportions(str(resolved["base_rate_override"]), "base rate override")
        override = BaseRate(rates, model.base_rate.weight)
    predicted, confidence, uncertainty = _scores(model, ds, override)
    labels = ds.labels()
    report = metricsmod.report_from_arrays(predicted, confidence, labels, int(resolved["bins"]))
    report["base_rate_override"] = None if override is None else override.rates.tolist()
    report["records"] = [
        {"id": i, "predicted": p, "confidence": c, "uncertainty": u, "label": y}
        for i, p, c, u, y in zip(
            ds.ids, predicted.tolist(), confidence.tolist(), uncertainty.tolist(), labels.tolist()
        )
    ]
    _emit(report)


@main.command()
@click.option("--model", "model_path", required=True, type=str)
@click.option("--id-data", "id_path", required=True, type=str)
@click.option("--ood-data", "ood_path", required=True, type=str)
@click.option("--percentile", type=float, default=50.0, show_default=True)
@click.pass_context
@guarded
def ood(ctx, model_path, id_path, ood_path, percentile):
    """Flag out-of-distribution samples by scaled combined uncertainty."""
    state: CliState = ctx.obj
    resolved = _resolve(ctx, "ood", {
        "model_path": model_path, "id_path": id_path, "ood_path": ood_path,
        "percentile": percentile,
    })
    _log_config(state, "ood", resolved)
    model = load_checkpoint(resolved["model_path"])
    id_ds = _load_for_model(model, resolved["id_path"])
    ood_ds = _load_for_model(model, resolved["ood_path"])
    id_u = _scores(model, id_ds, None)[2]
    ood_u = _scores(model, ood_ds, None)[2]
    result = metricsmod.ood_detect(id_u, ood_u, float(resolved["percentile"]))
    id_flags = result.scaled_val > result.threshold
    correct = int((~id_flags).sum()) + int(result.flags.sum())
    detection_acc = correct / (len(id_ds) + len(ood_ds))
    _emit({
        "threshold": result.threshold,
        "percentile": float(resolved["percentile"]),
        "detection_accuracy": detection_acc,
        "mean_uncertainty_id": float(id_u.mean()),
        "mean_uncertainty_ood": float(ood_u.mean()),
        "mean_scaled_id": float(result.scaled_val.mean()),
        "mean_scaled_ood": float(result.scaled_test.mean()),
        "id": _ood_rows(id_ds.ids, id_u, result.scaled_val, id_flags),
        "ood": _ood_rows(ood_ds.ids, ood_u, result.scaled_test, result.flags),
    })


def _ood_rows(ids, uncertainty, scaled, flags) -> list:
    return [
        {"id": i, "uncertainty": u, "scaled": s, "flag": f}
        for i, u, s, f in zip(ids, uncertainty.tolist(), scaled.tolist(), flags.tolist())
    ]


@main.command("adapt-sweep")
@click.option("--model", "model_path", required=True, type=str,
              help="Checkpoint trained with the training-frequency prior.")
@click.option("--uniform-model", "uniform_path", required=True, type=str,
              help="Checkpoint trained with the uniform prior.")
@click.option("--data", "data_path", required=True, type=str)
@click.option("--ratios", type=str, default="2:8,3:7,7:3,8:2", show_default=True)
@click.option("--bins", type=int, default=10, show_default=True)
@click.pass_context
@guarded
def adapt_sweep(ctx, model_path, uniform_path, data_path, ratios, bins):
    """Class-shift sweep: evaluate prior strategies across test ratios.

    Strategies per ratio: no_prior (uniform-prior model), train_prior
    (training-frequency model), train_test_prior (training-frequency model
    re-anchored to the true test ratio).
    """
    state: CliState = ctx.obj
    resolved = _resolve(ctx, "adapt-sweep", {
        "model_path": model_path, "uniform_path": uniform_path,
        "data_path": data_path, "ratios": ratios, "bins": bins,
    })
    seed = _seed(state, "adapt-sweep")
    _log_config(state, "adapt-sweep", resolved, seed)
    model = load_checkpoint(resolved["model_path"])
    uniform_model = load_checkpoint(resolved["uniform_path"])
    ds = _load_for_model(model, resolved["data_path"])
    num_bins = int(resolved["bins"])

    lines = ["ratio,strategy,auc,ece"]
    for ratio_text in str(resolved["ratios"]).split(","):
        ratio_text = ratio_text.strip()
        proportions = _parse_proportions(ratio_text, "ratio")
        sub = datamod.resample_class_ratio(ds, proportions, seed)
        test_rate = BaseRate(proportions, model.base_rate.weight)
        runs = (
            ("no_prior", uniform_model, None),
            ("train_prior", model, None),
            ("train_test_prior", model, test_rate),
        )
        for name, m, override in runs:
            predicted, confidence, _ = _scores(m, sub, override)
            report = metricsmod.report_from_arrays(predicted, confidence, sub.labels(), num_bins)
            auc = "" if report["auc"] is None else f"{report['auc']:.6f}"
            lines.append(f"{ratio_text},{name},{auc},{report['ece']:.6f}")
        _log(state, f"ratio {ratio_text}: evaluated {len(sub)} samples x 3 strategies")
    _echo("\n".join(lines))


if __name__ == "__main__":
    main()
