"""The three benchmark workloads.

Each workload is a closed loop with one client: `setup` builds the inputs
from the workload seed, and `run_once` does one timed repeat and checks its
outputs. A repeat's outputs must be byte-identical to every other repeat's,
which is acceptance criterion 12 applied inside one benchmark run.

The workloads split the library's work so that each module the ROADMAP plans
to optimise does most of the work in one workload and almost none in another:

- train-c07 trains the criterion-07 shape (K=2). Every specfun call there has
  at most 16 elements, so it takes specfun's scalar kernels; the per-epoch
  evaluation and the fusion-Jacobian loss+gradient dominate.
- train-wide trains K=20 classes, above specfun's `_SMALL = 16` size
  dispatch, so the vector kernels run and the (K+1)^2 fusion Jacobians grow.
- eval-cli only reads: it runs `eval`, `ood` and `adapt-sweep` in-process on
  checkpoints built during set-up. No loss and no specfun call runs there.
"""

from __future__ import annotations

import io
import json
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import click
import numpy as np

from evifuse import cli, data, model
from evifuse.dirichlet import BaseRate


class Checks:
    """Counts operations attempted and failed; keeps a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def add(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


@dataclass
class Repeat:
    """One timed repeat: `samples` processed in `wall` seconds."""

    wall: float
    samples: int
    outputs: dict  # name -> bytes; must be identical in every repeat
    quality: dict
    checks: Checks = field(default_factory=Checks)
    stdout_bytes: int = 0  # CLI output written by the timed calls


def _unit_interval(values) -> bool:
    """True for a nonempty set of numbers that all lie in [0, 1]."""
    try:
        arr = np.asarray(list(values), dtype=float)
    except (TypeError, ValueError):
        return False
    return arr.size > 0 and bool(np.all((arr >= 0.0) & (arr <= 1.0)))


def _files(paths) -> dict:
    return {p.name: p.read_bytes() for p in paths}


# -- training -----------------------------------------------------------------


@dataclass
class TrainState:
    train: data.MultiViewDataset
    valid: data.MultiViewDataset
    config: model.ModelConfig
    base: BaseRate
    files: list


class TrainWorkload:
    """`fit` plus a checkpoint save, on data that went through CSV files."""

    setup_repeats = 25

    def __init__(self, name, means, hidden, n_train_per_class, n_valid_per_class,
                 learning_rate, epochs):
        self.name = name
        self.means = np.asarray(means, dtype=float)
        self.hidden = hidden
        self.n_train = n_train_per_class
        self.n_valid = n_valid_per_class
        self.learning_rate = learning_rate
        self.epochs = epochs

    def setup(self, workdir: Path, seed: int) -> TrainState:
        k, v, d = self.means.shape
        paths = [workdir / "train.csv", workdir / "valid.csv"]
        for path, n, offset in zip(paths, (self.n_train, self.n_valid), (0, 1)):
            spec = data.SyntheticSpec(self.means, 1.0, n, 2 * seed + offset)
            data.save_csv(data.gen_synthetic(spec), path)
        train, valid = (data.load_csv(p, k, v, (d,) * v) for p in paths)
        config = model.ModelConfig(
            num_classes=k, num_views=v, view_dims=(d,) * v, hidden=self.hidden,
            learning_rate=self.learning_rate, epochs=self.epochs, batch_size=32, seed=seed,
        )
        base = model.compute_base_rate(train.labels(), k)
        return TrainState(train, valid, config, base, paths)

    def fingerprint(self, state: TrainState) -> dict:
        return _files(state.files)

    def run_once(self, state: TrainState, workdir: Path, span=None) -> Repeat:
        m = model.EvidentialModel.initialize(state.config, state.base)
        t0 = perf_counter()
        report = model.fit(m, state.train, state.valid)
        wall = perf_counter() - t0
        ckpt = workdir / "model.json"
        model.save_checkpoint(m, ckpt)

        samples = len(state.train) * state.config.epochs
        checks = Checks()
        skipped = int(sum(report.skipped))
        checks.attempted += samples
        checks.failed += skipped
        if skipped:
            checks.problems.append(f"{skipped} conflict-skipped training samples")
        checks.expect(len(report.valid_acc) == state.config.epochs, "one validation point per epoch")
        checks.expect(bool(np.all(np.isfinite(report.train_loss + report.valid_loss))),
                      "finite epoch losses")
        checks.expect(_unit_interval(report.train_acc + report.valid_acc), "accuracies in [0, 1]")
        outputs = {
            "checkpoint": ckpt.read_bytes(),
            "report": json.dumps(report.to_dict(), sort_keys=True).encode(),
        }
        quality = {
            "accuracy": report.final_valid_acc,
            "train_acc": report.train_acc[-1],
            "valid_loss": report.valid_loss[-1],
        }
        return Repeat(wall, samples, outputs, quality, checks)


def _c07_means():
    spec = data.SyntheticSpec.blobs(num_classes=2, num_views=4, view_dim=2, separation=4.0)
    return spec.means


def _wide_means():
    # Twenty classes on the axes of an 8-d space (+3, -3 and +6 along axis
    # c mod 8), the same in every view. Spreading the classes over all
    # coordinates lets two epochs reach about 0.8 validation accuracy, so the
    # accuracy is far from chance (0.05) and steady across seeds.
    means = np.zeros((20, 3, 8))
    for c in range(20):
        means[c, :, c % 8] = 3.0 * (1.0, -1.0, 2.0)[c // 8]
    return means


# -- evaluation through the CLI -------------------------------------------------

_SWEEP_RATIOS = "2:8,3:7,7:3,8:2"  # the adapt-sweep default
_OVERRIDE = "8:2"
_SWEEP_HEADER = "ratio,strategy,auc,ece"


def invoke_cli(args):
    """Run `evifuse <args>` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="evifuse", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


@dataclass
class EvalState:
    checkpoint: Path
    uniform_checkpoint: Path
    id_csv: Path
    ood_csv: Path
    n_id: int
    n_ood: int
    n_sweep: int  # samples scored by adapt-sweep over all ratios and strategies
    seed: int


class EvalCliWorkload:
    """`eval`, `eval --base-rate-override`, `ood` and `adapt-sweep` via the CLI."""

    setup_repeats = 3
    name = "eval-cli"

    def setup(self, workdir: Path, seed: int) -> EvalState:
        def blobs(n, data_seed):
            return data.SyntheticSpec.blobs(
                num_classes=2, num_views=4, view_dim=2, separation=4.0, n_per_class=n, seed=data_seed,
            )

        # Checkpoints: the criterion-07 shape, trained briefly on a 3:7
        # class-imbalanced set so the training-frequency prior differs from
        # the uniform one.
        train = data.resample_class_ratio(data.gen_synthetic(blobs(100, 4 * seed)), [0.3, 0.7], seed)
        valid = data.gen_synthetic(blobs(10, 4 * seed + 1))
        config = model.ModelConfig(
            num_classes=2, num_views=4, view_dims=(2, 2, 2, 2), hidden=(64,),
            learning_rate=1e-2, epochs=4, batch_size=32, seed=seed,
        )
        paths = {}
        for name, base in (
            ("model.json", model.compute_base_rate(train.labels(), 2)),
            ("uniform.json", BaseRate(np.full(2, 0.5), config.prior_weight)),
        ):
            m = model.EvidentialModel.initialize(config, base)
            model.fit(m, train, valid)
            paths[name] = workdir / name
            model.save_checkpoint(m, paths[name])

        # Scored data: in-distribution blobs and a feature-shifted pool.
        id_ds = data.gen_synthetic(blobs(200, 4 * seed + 2))
        ood_ds = data.gen_ood(blobs(200, 4 * seed + 3), 5.0)
        id_csv, ood_csv = workdir / "id.csv", workdir / "ood.csv"
        data.save_csv(id_ds, id_csv)
        data.save_csv(ood_ds, ood_csv)
        n_sweep = 3 * sum(
            len(data.resample_class_ratio(id_ds, [float(x) for x in r.split(":")], seed))
            for r in _SWEEP_RATIOS.split(",")
        )
        return EvalState(paths["model.json"], paths["uniform.json"], id_csv, ood_csv,
                         len(id_ds), len(ood_ds), n_sweep, seed)

    def fingerprint(self, state: EvalState) -> dict:
        return _files([state.checkpoint, state.uniform_checkpoint, state.id_csv, state.ood_csv])

    def _commands(self, s: EvalState):
        common = ["--seed", str(s.seed)]
        ck, ids = str(s.checkpoint), str(s.id_csv)
        return [
            ("eval", common + ["eval", "--model", ck, "--data", ids], s.n_id),
            ("eval_override", common + ["eval", "--model", ck, "--data", ids,
                                        "--base-rate-override", _OVERRIDE], s.n_id),
            ("ood", common + ["ood", "--model", ck, "--id-data", ids, "--ood-data", str(s.ood_csv)],
             s.n_id + s.n_ood),
            ("adapt_sweep", common + ["adapt-sweep", "--model", ck, "--uniform-model",
                                      str(s.uniform_checkpoint), "--data", ids,
                                      "--ratios", _SWEEP_RATIOS], s.n_sweep),
        ]

    def run_once(self, state: EvalState, workdir: Path, span=None) -> Repeat:
        span = span or (lambda name, group: nullcontext())
        wall, samples, results = 0.0, 0, {}
        for name, args, n in self._commands(state):
            t0 = perf_counter()
            with span("cli.main", "cli.main"):
                results[name] = invoke_cli(args)
            wall += perf_counter() - t0
            samples += n

        checks = Checks()
        for name, (code, _, err) in results.items():
            checks.expect(code == 0, f"{name}: exit code {code}: {err.strip()[-300:]}")
        report = self._check_eval(checks, results["eval"][1], state, None)
        self._check_eval(checks, results["eval_override"][1], state, [0.8, 0.2])
        ood = self._check_ood(checks, results["ood"][1], state)
        self._check_sweep(checks, results["adapt_sweep"][1])
        quality = {
            "accuracy": report.get("acc"), "ece": report.get("ece"), "auc": report.get("auc"),
            "ood_detection_acc": ood.get("detection_accuracy"),
            "mean_uncertainty_id": ood.get("mean_uncertainty_id"),
            "mean_uncertainty_ood": ood.get("mean_uncertainty_ood"),
        }
        outputs = {name: out.encode() for name, (_, out, _) in results.items()}
        stdout_bytes = sum(len(out) for out in outputs.values())
        return Repeat(wall, samples, outputs, quality, checks, stdout_bytes)

    @staticmethod
    def _parse(checks: Checks, text: str, what: str) -> dict:
        """The JSON object on stdout; {} (and a failed check) if there is none."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            doc = exc
        checks.expect(isinstance(doc, dict), f"{what}: stdout is not a JSON object: {doc!r:.200}")
        return doc if isinstance(doc, dict) else {}

    def _check_eval(self, checks, text, state, override) -> dict:
        what = "eval" if override is None else "eval --base-rate-override"
        doc = self._parse(checks, text, what)
        records = doc.get("records", [])
        checks.expect(doc.get("n") == state.n_id and len(records) == state.n_id,
                      f"{what}: n is {doc.get('n')} with {len(records)} records, input has {state.n_id} rows")
        checks.expect(_unit_interval(r.get("confidence") for r in records), f"{what}: confidence outside [0, 1]")
        checks.expect(_unit_interval(r.get("uncertainty") for r in records), f"{what}: uncertainty outside [0, 1]")
        checks.expect(_unit_interval([doc.get("acc"), doc.get("ece")]), f"{what}: acc or ece outside [0, 1]")
        checks.expect(doc.get("base_rate_override") == override, f"{what}: base_rate_override echoed wrong")
        return doc

    def _check_ood(self, checks, text, state) -> dict:
        doc = self._parse(checks, text, "ood")
        id_rows, ood_rows = doc.get("id", []), doc.get("ood", [])
        checks.expect(len(id_rows) == state.n_id and len(ood_rows) == state.n_ood,
                      f"ood: {len(id_rows)}/{len(ood_rows)} records for {state.n_id}/{state.n_ood} rows")
        rows = id_rows + ood_rows
        checks.expect(_unit_interval(r.get("uncertainty") for r in rows), "ood: uncertainty outside [0, 1]")
        checks.expect(_unit_interval(r.get("scaled") for r in rows), "ood: scaled uncertainty outside [0, 1]")
        checks.expect(_unit_interval([doc.get("detection_accuracy")]), "ood: detection accuracy outside [0, 1]")
        return doc

    def _check_sweep(self, checks, text):
        lines = text.splitlines()
        n_rows = 3 * len(_SWEEP_RATIOS.split(","))
        checks.expect(lines[:1] == [_SWEEP_HEADER] and len(lines) == 1 + n_rows,
                      f"adapt-sweep: expected a header and {n_rows} rows")
        values = []
        for line in lines[1:]:
            fields = line.split(",")
            try:
                values.extend(float(x) for x in fields[2:] if x)
            except ValueError:
                values.append(float("nan"))
        checks.expect(_unit_interval(values), "adapt-sweep: auc or ece outside [0, 1]")


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            "train-c07", _c07_means(), hidden=(64,), n_train_per_class=200, n_valid_per_class=100,
            learning_rate=1e-3, epochs=3,
        ),
        TrainWorkload(
            "train-wide", _wide_means(), hidden=(32,), n_train_per_class=20, n_valid_per_class=10,
            learning_rate=1e-2, epochs=2,
        ),
        EvalCliWorkload(),
    )
}
