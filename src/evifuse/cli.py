"""Command-line front end for fusion, data generation, training, and the
shift experiments.

Machine-readable JSON/CSV goes to stdout, human-readable progress to stderr,
so runs can be piped and diffed. Every subcommand resolves its parameters as
command line over config file over defaults, logs the resolved values, and
is byte-reproducible given the same inputs and seed. A config file holds one
object per subcommand, keyed by parameter name; click checks its values with
each option's own type and choices.

Exit codes, mapped by `exit_codes` for every subcommand and the experiment
scripts alike: 0 success, 2 usage or validation (also a request too large
to fit in memory, and a calibration bin count above `metrics.MAX_BINS`), 3
numeric failure (total fusion conflict, a diverged training run,
overflowing evidence at evaluation), 4 file IO. No subcommand creates a
missing parent directory: an output path whose directory does not exist
exits 4, and `views` creates its `--out-dir` itself but not that
directory's parent.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from dataclasses import dataclass, fields

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
    fit,
    load_checkpoint,
    save_checkpoint,
    score,
)
from .opinions import FusionConflictError, Opinion, _fold, bcf_fuse, cbf_fuse, combine_multiview, dirichlet_from_opinion

# `train` defaults to the model's own field defaults.
_MODEL_DEFAULTS = {f.name: f.default for f in fields(ModelConfig)}


@dataclass
class CliState:
    seed: int = 0
    quiet: bool = False


def _echo(text: str, err: bool = False):
    # click.echo caches what it resolves a default stream to in a
    # WeakKeyDictionary keyed by the stream. A StringIO needs no wrapping, so
    # the cached value is the key itself and the entry never dies: an
    # in-process caller that swaps one into sys.stdout would keep every
    # output in memory. Naming the stream skips that cache.
    click.echo(text, file=sys.stderr if err else sys.stdout)


@contextlib.contextmanager
def exit_codes(command: str | None = None, prog: str | None = None):
    """Exit with the documented code and one stderr line, `[<prog>: ]error:
    <message>`, for a failure in the block; any other exception is a bug and
    keeps its traceback. Running out of memory names `command` when given.
    """
    try:
        yield
    except (FusionConflictError, TrainingDiverged, NonFiniteEvidence) as exc:
        code, message = 3, str(exc)
    except OSError as exc:
        code, message = 4, str(exc)
    except ValueError as exc:
        code, message = 2, str(exc)
    except MemoryError as exc:
        detail = " ".join(str(exc).split()) or "no detail"
        code, message = 2, f"out of memory; ask for smaller sizes ({detail})"
        if command:
            message = f"{command}: {message}"
    else:
        return
    _echo(f"{prog}: error: {message}" if prog else f"error: {message}", err=True)
    sys.exit(code)


def _log(state: CliState, message: str):
    if not state.quiet:
        _echo(message, err=True)


def _emit(obj):
    _echo(json.dumps(obj, sort_keys=True))


def _config_section(ctx: click.Context, config_path: str) -> dict:
    """The invoked subcommand's config section, its values cast by each option's type.

    Every top-level key must name a subcommand. Null values are dropped, so
    they mean the declared default. Every option takes a number or a string
    (none is a flag), so a boolean, list or object is rejected, and so is a
    non-integral number for an integer option, which click's cast would
    truncate. `seed` is allowed in every section and cast by the group's own
    `--seed`.
    """
    config = datamod.read_json(config_path)
    if not isinstance(config, dict):
        raise ValueError(f"{config_path}: config root must be an object")
    for key in config:
        if key not in ctx.command.commands:
            raise ValueError(f"{config_path}: config section {key!r} names no subcommand")
    name = ctx.invoked_subcommand
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"config section {name!r} must be an object")
    params = {p.name: p for p in ctx.command.commands[name].params}
    params["seed"] = next(p for p in ctx.command.params if p.name == "seed")
    values = {}
    for key, value in section.items():
        if key not in params:
            raise ValueError(f"config section {name!r} has unknown key {key!r}")
        where = f"config section {name!r} key {key!r}"
        if isinstance(value, (list, dict, bool)):
            raise ValueError(f"{where}: expected a number or a string, got {json.dumps(value)}")
        integer = isinstance(params[key].type, click.types.IntParamType)
        if integer and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{where}: expected an integer, got {json.dumps(value)}")
        if value is not None:
            try:
                values[key] = params[key].type_cast_value(ctx, value)
            except click.BadParameter as exc:
                raise ValueError(f"{where}: {exc.message}") from None
    return values


@click.group()
@click.option("--seed", type=int, default=None, help="Override every subcommand seed.")
@click.option("--config", "config_path", type=str, default=None,
              help="JSON file with per-subcommand parameter sections.")
@click.option("--quiet", is_flag=True, help="Silence progress output on stderr.")
@click.pass_context
def main(ctx, seed, config_path, quiet):
    """Evidential multi-view classification toolkit."""
    with exit_codes(ctx.invoked_subcommand):
        section = {} if config_path is None else _config_section(ctx, config_path)
    config_seed = section.pop("seed", 0)
    ctx.default_map = {ctx.invoked_subcommand: section}
    ctx.obj = CliState(seed=config_seed if seed is None else seed, quiet=quiet)


def subcommand(name: str | None = None, seeded: bool = False):
    """Register a subcommand of `main`; its body takes the CliState first.

    The body gets each parameter as click resolved it, logged to stderr
    together with the seed when `seeded`, and runs under `exit_codes`.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def callback(**params):
            ctx = click.get_current_context()
            state: CliState = ctx.obj
            shown = dict(params, seed=state.seed) if seeded else params
            _log(state, f"{ctx.info_name} config: {json.dumps(shown, sort_keys=True)}")
            with exit_codes(ctx.info_name):
                return fn(state, **params)

        return main.command(name)(callback)

    return decorate


@subcommand()
@click.option("--opinions", "opinions_path", required=True, type=str,
              help="JSON file holding a list of opinion objects.")
@click.option("--base-rate", "base_rate_spec", required=True, type=str,
              help="Base rate as a JSON file path or an inline JSON object.")
@click.option("--chain", type=click.Choice(["cbf", "bcf", "paper"]), default="paper",
              show_default=True,
              help="cbf/bcf fold one operator over all opinions; paper folds "
                   "cumulative fusion over all but the last, then one "
                   "constraint fusion with the last.")
def fuse(state, opinions_path, base_rate_spec, chain):
    """Fuse opinions from a file and print the combined result."""
    raw = datamod.read_json(opinions_path)
    if not isinstance(raw, list) or not raw:
        raise ValueError("opinions file must hold a nonempty JSON list")
    opinions = [Opinion.from_dict(o) for o in raw]

    spec = base_rate_spec.strip()
    if spec.startswith("{"):
        base_doc = datamod.parse_json(spec, "inline base rate")
    else:
        base_doc = datamod.read_json(spec)
    base = BaseRate.from_dict(base_doc)
    if base.num_classes != opinions[0].num_classes:
        raise ValueError("base rate and opinions disagree on the number of classes")

    if chain == "paper":
        if len(opinions) < 2:
            raise ValueError("chain 'paper' needs at least two opinions")
        combined = combine_multiview(opinions[:-1], opinions[-1])
    else:
        op = cbf_fuse if chain == "cbf" else bcf_fuse
        combined = _fold(op, opinions, chain + " stage {0} (opinion {0})")
    alpha = dirichlet_from_opinion(combined, base)
    _emit({
        "opinion": combined.to_dict(),
        "alpha": alpha.alpha.tolist(),
        "expected_probabilities": expected_probabilities(alpha).tolist(),
        "predicted_class": predict_class(alpha),
    })


@subcommand(seeded=True)
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
def gen(state, classes, views, dim, n_per_class, separation, scale, out_path,
        ood_shift, ood_out, ratio, imbalanced_out):
    """Generate synthetic multi-view datasets (ID, optional OOD/imbalanced)."""
    if views < 2:
        raise ValueError(f"--views must be at least 2, a local view and the global one, not {views}")
    if (ood_shift is None) != (ood_out is None):
        raise ValueError("--ood-shift and --ood-out must be given together")
    if (ratio is None) != (imbalanced_out is None):
        raise ValueError("--ratio and --imbalanced-out must be given together")
    proportions = None if ratio is None else datamod.parse_proportions(ratio, "ratio")

    spec = datamod.SyntheticSpec.blobs(
        num_classes=classes, num_views=views, view_dim=dim, separation=separation,
        scale=scale, n_per_class=n_per_class, seed=state.seed,
    )
    ds = datamod.gen_synthetic(spec)
    # Every output is made, and so checked, before the first write.
    ood = None if ood_shift is None else datamod.gen_ood(spec, ood_shift)
    sub = None if proportions is None else datamod.resample_class_ratio(ds, proportions, state.seed)
    datamod.save_csv(ds, out_path)
    _log(state, f"wrote {len(ds)} samples to {out_path}")
    if ood is not None:
        datamod.save_csv(ood, ood_out)
        _log(state, f"wrote {len(ood)} shifted samples to {ood_out}")
    if sub is not None:
        datamod.save_csv(sub, imbalanced_out)
        _log(state, f"wrote {len(sub)} resampled samples to {imbalanced_out}")
    # the paired-flag checks leave a side output's path None when it is not made
    _emit({"out": out_path, "n": len(ds),
           "ood_out": ood_out, "ood_n": None if ood is None else len(ood),
           "imbalanced_out": imbalanced_out, "imbalanced_n": None if sub is None else len(sub)})


@subcommand()
@click.argument("grid_file", type=str)
@click.option("--roi", type=int, default=160, show_default=True)
@click.option("--window", type=int, default=96, show_default=True)
@click.option("--stride", type=int, default=32, show_default=True)
@click.option("--center", type=str, default=None, help="ROI center as row,col.")
@click.option("--cutout", type=str, default=None, help="Zeroed square as row,col,size (ROI-local).")
@click.option("--out-dir", "out_dir", required=True, type=str)
def views(state, grid_file, roi, window, stride, center, cutout, out_dir):
    """Tile a grid file into overlapping local views plus the global ROI."""
    geom = datamod.ViewGeometry(roi, window, stride)
    grid = datamod.load_grid(grid_file)
    center_xy = None if center is None else datamod.parse_ints(center, "center")
    cut = None if cutout is None else datamod.parse_ints(cutout, "cutout")
    patches, roi_patch = datamod.extract_views(grid, geom, center=center_xy, cutout=cut)
    try:
        os.mkdir(out_dir)
    except FileExistsError:
        pass
    local_paths = []
    for i, patch in enumerate(patches):
        path = os.path.join(out_dir, f"local_{i:02d}.txt")
        datamod.save_grid(patch, path)
        local_paths.append(path)
    global_path = os.path.join(out_dir, "global.txt")
    datamod.save_grid(roi_patch, global_path)
    _log(state, f"wrote {len(local_paths)} local views and the ROI to {out_dir}")
    _emit({"locals": local_paths, "global": global_path, "patch_count": len(local_paths)})


@subcommand(seeded=True)
@click.option("--data", "data_path", required=True, type=str)
@click.option("--valid", "valid_path", required=True, type=str)
@click.option("--out", "out_path", required=True, type=str, help="Checkpoint destination.")
@click.option("--classes", type=int, required=True)
@click.option("--views", "n_views", type=int, required=True)
@click.option("--dims", type=str, required=True, help="Per-view dimensions, e.g. 4,4,4,4.")
@click.option("--hidden", type=str, default=",".join(map(str, _MODEL_DEFAULTS["hidden"])),
              show_default=True)
@click.option("--lr", type=float, default=_MODEL_DEFAULTS["learning_rate"], show_default=True)
@click.option("--epochs", type=int, default=_MODEL_DEFAULTS["epochs"], show_default=True)
@click.option("--batch-size", type=int, default=_MODEL_DEFAULTS["batch_size"], show_default=True)
@click.option("--anneal-epochs", type=int, default=None)
@click.option("--prior-weight", type=float, default=None)
@click.option("--base-rate", "base_rate_mode", type=click.Choice(["train", "uniform"]),
              default="train", show_default=True,
              help="Prior from training class frequencies, or uniform.")
def train(state, data_path, valid_path, out_path, classes, n_views, dims, hidden,
          lr, epochs, batch_size, anneal_epochs, prior_weight, base_rate_mode):
    """Train an evidential model and write its checkpoint."""
    view_dims = datamod.parse_ints(dims, "dims")
    config = ModelConfig(
        num_classes=classes,
        num_views=n_views,
        view_dims=view_dims,
        hidden=datamod.parse_ints(hidden, "hidden"),
        prior_weight=prior_weight,
        learning_rate=lr,
        epochs=epochs,
        batch_size=batch_size,
        anneal_epochs=anneal_epochs,
        seed=state.seed,
    )
    train_ds = datamod.load_csv(data_path, config.num_classes, config.num_views, view_dims)
    valid_ds = datamod.load_csv(valid_path, config.num_classes, config.num_views, view_dims)
    if base_rate_mode == "uniform":
        base = BaseRate(np.full(config.num_classes, 1.0 / config.num_classes), config.prior_weight)
    else:
        base = compute_base_rate(train_ds.labels(), config.num_classes, config.prior_weight)
    model = EvidentialModel.initialize(config, base)
    _log(state, f"training on {len(train_ds)} samples, validating on {len(valid_ds)}")
    report = fit(model, train_ds, valid_ds)
    save_checkpoint(model, out_path)
    _log(state, f"checkpoint written to {out_path}")
    curves = report.to_dict()
    _emit({
        "checkpoint": out_path,
        "base_rate": model.base_rate.to_dict(),
        "epochs": config.epochs,
        "final": {name: c[-1] for name, c in curves.items() if c and name != "skipped"},
        "curves": curves,
    })


def _load_for_model(model: EvidentialModel, path):
    cfg = model.config
    return datamod.load_csv(path, cfg.num_classes, cfg.num_views, cfg.view_dims)


@subcommand("eval")
@click.option("--model", "model_path", required=True, type=str)
@click.option("--data", "data_path", required=True, type=str)
@click.option("--base-rate-override", type=str, default=None,
              help="Test-time prior proportions, e.g. 8:2 or 0.8,0.2.")
@click.option("--bins", type=int, default=10, show_default=True)
def eval_cmd(state, model_path, data_path, base_rate_override, bins):
    """Evaluate a checkpoint: accuracy, AUC, calibration, per-sample records."""
    metricsmod.check_num_bins(bins)
    rates = None if base_rate_override is None else datamod.parse_proportions(
        base_rate_override, "base rate override"
    )
    model = load_checkpoint(model_path)
    ds = _load_for_model(model, data_path)
    override = None if rates is None else BaseRate(rates, model.base_rate.weight)
    predicted, confidence, uncertainty = score(model, ds, override)
    labels = ds.labels()
    report = metricsmod.report_from_arrays(predicted, confidence, labels, bins)
    report["base_rate_override"] = None if override is None else override.rates.tolist()
    report["records"] = [
        {"id": i, "predicted": p, "confidence": c, "uncertainty": u, "label": y}
        for i, p, c, u, y in zip(
            ds.ids, predicted.tolist(), confidence.tolist(), uncertainty.tolist(), labels.tolist()
        )
    ]
    _emit(report)


@subcommand()
@click.option("--model", "model_path", required=True, type=str)
@click.option("--id-data", "id_path", required=True, type=str)
@click.option("--ood-data", "ood_path", required=True, type=str)
@click.option("--percentile", type=float, default=50.0, show_default=True)
def ood(state, model_path, id_path, ood_path, percentile):
    """Flag out-of-distribution samples by scaled combined uncertainty."""
    metricsmod.check_percentile(percentile)
    model = load_checkpoint(model_path)
    id_ds = _load_for_model(model, id_path)
    ood_ds = _load_for_model(model, ood_path)
    id_u = score(model, id_ds)[2]
    ood_u = score(model, ood_ds)[2]
    result = metricsmod.ood_detect(id_u, ood_u, percentile)
    _emit({
        "threshold": result.threshold,
        "percentile": percentile,
        "detection_accuracy": result.detection_accuracy,
        "mean_uncertainty_id": float(id_u.mean()),
        "mean_uncertainty_ood": float(ood_u.mean()),
        "mean_scaled_id": float(result.scaled_val.mean()),
        "mean_scaled_ood": float(result.scaled_test.mean()),
        "id": _ood_rows(id_ds.ids, id_u, result.scaled_val, result.val_flags),
        "ood": _ood_rows(ood_ds.ids, ood_u, result.scaled_test, result.flags),
    })


def _ood_rows(ids, uncertainty, scaled, flags) -> list:
    return [
        {"id": i, "uncertainty": u, "scaled": s, "flag": f}
        for i, u, s, f in zip(ids, uncertainty.tolist(), scaled.tolist(), flags.tolist())
    ]


@subcommand("adapt-sweep", seeded=True)
@click.option("--model", "model_path", required=True, type=str,
              help="Checkpoint trained with the training-frequency prior.")
@click.option("--uniform-model", "uniform_path", required=True, type=str,
              help="Checkpoint trained with the uniform prior.")
@click.option("--data", "data_path", required=True, type=str)
@click.option("--ratios", type=str, default="2:8,3:7,7:3,8:2", show_default=True)
@click.option("--bins", type=int, default=10, show_default=True)
def adapt_sweep(state, model_path, uniform_path, data_path, ratios, bins):
    """Class-shift sweep: evaluate prior strategies across test ratios.

    Strategies per ratio: no_prior (uniform-prior model), train_prior
    (training-frequency model), train_test_prior (training-frequency model
    re-anchored to the true test ratio).
    """
    pools = datamod.parse_ratio_list(ratios, "ratio")
    metricsmod.check_num_bins(bins)
    model = load_checkpoint(model_path)
    uniform_model = load_checkpoint(uniform_path)
    ds = _load_for_model(model, data_path)

    lines = ["ratio,strategy,auc,ece"]
    for ratio_text, proportions in pools:
        sub = datamod.resample_class_ratio(ds, proportions, state.seed)
        test_rate = BaseRate(proportions, model.base_rate.weight)
        runs = (
            ("no_prior", uniform_model, None),
            ("train_prior", model, None),
            ("train_test_prior", model, test_rate),
        )
        for name, m, override in runs:
            predicted, confidence, _ = score(m, sub, override)
            report = metricsmod.report_from_arrays(predicted, confidence, sub.labels(), bins)
            auc = "" if report["auc"] is None else f"{report['auc']:.6f}"
            lines.append(f"{ratio_text},{name},{auc},{report['ece']:.6f}")
        _log(state, f"ratio {ratio_text}: evaluated {len(sub)} samples x 3 strategies")
    _echo("\n".join(lines))


if __name__ == "__main__":
    main()
