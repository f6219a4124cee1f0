"""Feature-shift experiment: train on clean blobs, probe with shifted ones.

Trains a multi-view evidential classifier, then pushes a copy of the
in-distribution pool sideways along coordinate 1 and reads how far the
combined uncertainty separates the two pools. Defaults reproduce the
numbers asserted by the acceptance suite.
"""

import argparse
import time

from evifuse.data import SyntheticSpec, gen_ood, gen_synthetic, parse_ints
from evifuse.metrics import ood_detect
from evifuse.model import EvidentialModel, ModelConfig, compute_base_rate, fit, score


def build_parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--views", type=int, default=4)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--train-n", type=int, default=200, help="samples per class")
    p.add_argument("--valid-n", type=int, default=100)
    p.add_argument("--shift", type=float, default=5.0)
    p.add_argument("--hidden", type=str, default="64", help="comma-separated layer widths")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=25)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--percentile", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0)
    return p


def blob_spec(args, n_per_class, seed):
    return SyntheticSpec.blobs(
        num_classes=args.classes, num_views=args.views, view_dim=args.dim,
        separation=args.separation, scale=1.0, n_per_class=n_per_class, seed=seed,
    )


def main(argv=None):
    """Run the experiment; a ValueError from bad input exits 2 through argparse."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ValueError as exc:
        parser.error(str(exc))


def run(args):
    t0 = time.perf_counter()

    hidden = parse_ints(args.hidden, "hidden")
    train = gen_synthetic(blob_spec(args, args.train_n, args.seed))
    valid = gen_synthetic(blob_spec(args, args.valid_n, args.seed + 1))
    shifted = gen_ood(blob_spec(args, args.valid_n, args.seed + 2), shift=args.shift)

    cfg = ModelConfig(
        num_classes=args.classes, num_views=args.views,
        view_dims=(args.dim,) * args.views, hidden=hidden,
        learning_rate=args.lr, epochs=args.epochs,
        batch_size=args.batch_size, seed=args.seed,
    )
    model = EvidentialModel.initialize(cfg, compute_base_rate(train.labels(), args.classes))
    report = fit(model, train, valid)

    id_u = score(model, valid)[2]
    ood_u = score(model, shifted)[2]
    res = ood_detect(id_u, ood_u, percentile=args.percentile)
    gap = float(res.scaled_test.mean() - res.scaled_val.mean())

    print(f"train acc {report.train_acc[-1]:.3f}  valid acc {report.final_valid_acc:.3f}")
    print(f"mean uncertainty: id {id_u.mean():.4f}  shifted {ood_u.mean():.4f}")
    print(f"scaled mean gap {gap:.3f}  threshold {res.threshold:.4f} at pct {args.percentile:g}")
    print(f"detection accuracy {res.detection_accuracy:.3f}  (id {id_u.size}, shifted {ood_u.size})")
    print(f"elapsed {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
