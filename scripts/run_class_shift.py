"""Class-shift experiment: imbalanced training prior vs test-time re-anchoring.

Trains on a skewed class mix, then sweeps test pools with different label
ratios. For each pool the model is scored twice: once as trained, and once
with the base rate overridden to the pool's own mix. Defaults reproduce
the numbers asserted by the acceptance suite.
"""

import argparse

from evifuse.cli import exit_codes
from evifuse.data import SyntheticSpec, gen_synthetic, parse_ints, parse_proportions, parse_ratio_list, resample_class_ratio
from evifuse.dirichlet import BaseRate
from evifuse.metrics import check_num_bins, report_from_arrays
from evifuse.model import EvidentialModel, ModelConfig, compute_base_rate, fit, score


def build_parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--pool-n", type=int, default=300, help="per-class size of the train pool")
    p.add_argument("--train-ratio", type=str, default="8:2")
    p.add_argument("--valid-n", type=int, default=60)
    p.add_argument("--test-n", type=int, default=400, help="per-class size of the test pool")
    p.add_argument("--ratios", type=str, default="2:8,3:7,7:3,8:2")
    p.add_argument("--hidden", type=str, default="16")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--epochs", type=int, default=15)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    return p


def blob_spec(args, n_per_class, seed):
    return SyntheticSpec.blobs(
        num_classes=2, num_views=2, view_dim=2,
        separation=args.separation, scale=1.0, n_per_class=n_per_class, seed=seed,
    )


def report(model, ds, bins, override=None):
    return report_from_arrays(*score(model, ds, override)[:2], ds.labels(), bins)


def main(argv=None):
    """Run the experiment; a failure exits with the CLI's code and one `error:` line."""
    parser = build_parser()
    args = parser.parse_args(argv)
    with exit_codes(prog=parser.prog):
        return run(args)


def run(args):
    train_mix = parse_proportions(args.train_ratio, "train ratio")
    pools = parse_ratio_list(args.ratios, "ratio")
    hidden = parse_ints(args.hidden, "hidden")
    check_num_bins(args.bins)
    pool = gen_synthetic(blob_spec(args, args.pool_n, seed=10))
    train = resample_class_ratio(pool, train_mix, seed=100)
    valid = gen_synthetic(blob_spec(args, args.valid_n, seed=12))
    test_pool = gen_synthetic(blob_spec(args, args.test_n, seed=11))

    cfg = ModelConfig(
        num_classes=2, num_views=2, view_dims=(2, 2), hidden=hidden,
        learning_rate=args.lr, epochs=args.epochs,
        batch_size=args.batch_size, seed=args.seed,
    )
    base = compute_base_rate(train.labels(), 2, cfg.prior_weight)
    model = EvidentialModel.initialize(cfg, base)
    fit(model, train, valid)
    print(f"trained on {len(train)} samples, base rate {base.rates.round(3).tolist()}")

    print(f"{'ratio':<8}{'strategy':<14}{'acc':>8}{'auc':>8}{'ece':>10}")
    wins = 0
    for text, mix in pools:
        sub = resample_class_ratio(test_pool, mix, seed=200)
        tp = report(model, sub, args.bins)
        override = BaseRate(mix, model.base_rate.weight)
        tt = report(model, sub, args.bins, override)
        for name, rep in (("train-prior", tp), ("test-prior", tt)):
            auc = "n/a" if rep["auc"] is None else f"{rep['auc']:.3f}"
            print(f"{text:<8}{name:<14}{rep['acc']:>8.3f}{auc:>8}{rep['ece']:>10.4f}")
        if tt["ece"] <= tp["ece"]:
            wins += 1
    print(f"test-prior matches or beats train-prior ECE on {wins}/{len(pools)} ratios")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
