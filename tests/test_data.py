import itertools
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evifuse.data import (
    _csv_header,
    MAX_PATCHES,
    MultiViewDataset,
    MultiViewSample,
    SyntheticSpec,
    ViewGeometry,
    extract_views,
    gen_ood,
    gen_synthetic,
    load_csv,
    load_grid,
    parse_ints,
    parse_json,
    parse_proportions,
    parse_ratio_list,
    resample_class_ratio,
    save_csv,
    save_grid,
    view_groups,
)

from oracles import load_csv_reference, logistic_accuracy, save_csv_reference


def flat_features(ds):
    return np.array([np.concatenate(s.views) for s in ds.samples])


class TestContainers:
    def test_sample_rejects_bad_views(self):
        with pytest.raises(ValueError):
            MultiViewSample((np.array([1.0, float("nan")]),), 0, "s0")
        with pytest.raises(ValueError):
            MultiViewSample((), 0, "s0")
        with pytest.raises(ValueError):
            MultiViewSample((np.array([1.0]),), -1, "s0")

    def test_sample_views_read_only(self):
        s = MultiViewSample((np.array([1.0, 2.0]),), 0, "s0")
        with pytest.raises(ValueError):
            s.views[0][0] = 9.0

    def test_dataset_shape_checks(self):
        good = MultiViewSample((np.array([1.0, 2.0]), np.array([3.0])), 0, "a")
        bad_dim = MultiViewSample((np.array([1.0]), np.array([3.0])), 1, "b")
        with pytest.raises(ValueError, match="do not match"):
            MultiViewDataset((good, bad_dim), num_classes=2, view_dims=(2, 1))
        with pytest.raises(ValueError, match="outside"):
            MultiViewDataset(
                (MultiViewSample((np.array([1.0, 2.0]), np.array([3.0])), 5, "c"),),
                num_classes=2,
                view_dims=(2, 1),
            )
        with pytest.raises(ValueError, match="empty"):
            MultiViewDataset((), num_classes=2, view_dims=(2,))
        with pytest.raises(ValueError, match="^view_dims must be positive$"):
            MultiViewDataset((MultiViewSample((np.array([1.0]),), 0, "d"),), num_classes=2, view_dims=(0,))

    def test_labels_vector(self):
        ds = MultiViewDataset(
            tuple(MultiViewSample((np.array([float(i)]),), i % 2, f"s{i}") for i in range(4)),
            num_classes=2,
            view_dims=(1,),
        )
        assert np.array_equal(ds.labels(), [0, 1, 0, 1])
        assert len(ds) == 4 and ds.num_views == 1


def bits(arr):
    """The float64 bit patterns, so -0.0 and 0.0 compare unequal."""
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)


class TestColumnar:
    def sample_dataset(self):
        samples = tuple(
            MultiViewSample((np.array([i, -i, 0.5 * i]), np.array([float(i * i)])), i % 3, f"s{i}")
            for i in range(7)
        )
        return samples, MultiViewDataset(samples, num_classes=3, view_dims=(3, 1))

    def test_arrays_are_read_only(self):
        _, ds = self.sample_dataset()
        for arr in (*ds.views, ds.labels()):
            with pytest.raises(ValueError):
                arr[0] = 1
        with pytest.raises(AttributeError):
            ds.ids = ()

    def test_constructors_agree(self):
        samples, ds = self.sample_dataset()
        arrays = MultiViewDataset.from_arrays(
            [np.stack([s.views[v] for s in samples]) for v in range(2)],
            [s.label for s in samples], [s.id for s in samples], 3,
        )
        for a, b in zip(ds.views, arrays.views):
            assert a.dtype == np.float64 and a.flags.c_contiguous
            assert np.array_equal(bits(a), bits(b))
        assert np.array_equal(ds.labels(), arrays.labels())
        assert ds.ids == arrays.ids == tuple(s.id for s in samples)
        assert ds.view_dims == arrays.view_dims == (3, 1)
        assert ds.num_classes == arrays.num_classes == 3

    def test_samples_are_the_rows(self):
        samples, ds = self.sample_dataset()
        assert len(ds.samples) == len(ds) == 7
        for want, got in zip(samples, ds):
            assert got.id == want.id and got.label == want.label
            assert all(np.array_equal(a, b) for a, b in zip(got.views, want.views))

    def test_from_arrays_owns_its_arrays(self):
        x = np.zeros((2, 2))
        ds = MultiViewDataset.from_arrays([x], [0, 1], ["a", "b"], 2)
        x[0, 0] = 5.0
        assert ds.views[0][0, 0] == 0.0 and x.flags.writeable

    def test_from_arrays_checks(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError, match="number of samples"):
            MultiViewDataset.from_arrays([x, np.zeros((2, 1))], [0, 1, 0], "abc", 2)
        with pytest.raises(ValueError, match="3 labels and 3 ids"):
            MultiViewDataset.from_arrays([x], [0, 1], "abc", 2)
        with pytest.raises(ValueError, match="3 labels and 3 ids"):
            MultiViewDataset.from_arrays([x], [0, 1, 0], "ab", 2)
        with pytest.raises(ValueError, match="labels entry must be an integer, not 0.5"):
            MultiViewDataset.from_arrays([x], [0.0, 0.5, 0.0], "abc", 2)
        # an integral float is an integer, as it is for every integer the library reads
        labels = MultiViewDataset.from_arrays([x], [0.0, 1.0, 0.0], "abc", 2).labels()
        assert labels.dtype == np.int64 and labels.tolist() == [0, 1, 0]
        with pytest.raises(ValueError, match="sample b: label 2 outside"):
            MultiViewDataset.from_arrays([x], [0, 2, 3], "abc", 2)
        with pytest.raises(ValueError, match="sample a: label -1 outside"):
            MultiViewDataset.from_arrays([x], [-1, 0, 0], "abc", 2)
        bad = x.copy()
        bad[2, 1] = np.inf
        with pytest.raises(ValueError, match="sample c: features must be finite"):
            MultiViewDataset.from_arrays([x, bad], [0, 1, 0], "abc", 2)
        with pytest.raises(ValueError, match="empty"):
            MultiViewDataset.from_arrays([np.zeros((0, 2))], [], [], 2)
        with pytest.raises(ValueError, match="d >= 1"):
            MultiViewDataset.from_arrays([np.zeros((3, 0))], [0, 1, 0], "abc", 2)
        with pytest.raises(ValueError, match="two classes"):
            MultiViewDataset.from_arrays([x], [0, 0, 0], "abc", 1)


def two_stack_columns():
    """Columns of twelve samples whose views (2, 2, 3) form two stacks, the first of two views."""
    rng = np.random.default_rng(31)
    return [rng.normal(size=(12, d)) for d in (2, 2, 3)], np.arange(12) % 2, [f"s{i}" for i in range(12)]


def csv_round_trip(tmp_path):
    save_csv(MultiViewDataset.from_arrays(*two_stack_columns(), 2), tmp_path / "d.csv")
    return load_csv(tmp_path / "d.csv", 2, 3, (2, 2, 3))


# every builder of a dataset, each with the groups of its views;
# gen_synthetic draws one dimension for all views, so its layout is one stack
TWO_STACKS = [range(0, 2), range(2, 3)]
LAYOUT_BUILDERS = {
    "from_arrays": (lambda tmp_path: MultiViewDataset.from_arrays(*two_stack_columns(), 2), TWO_STACKS),
    "samples": (
        lambda tmp_path: MultiViewDataset(MultiViewDataset.from_arrays(*two_stack_columns(), 2), 2, (2, 2, 3)),
        TWO_STACKS,
    ),
    "load_csv": (csv_round_trip, TWO_STACKS),
    "gen_synthetic": (lambda tmp_path: gen_synthetic(SyntheticSpec.blobs(2, 3, 2, n_per_class=6)), [range(0, 3)]),
    "resample_class_ratio": (
        lambda tmp_path: resample_class_ratio(MultiViewDataset.from_arrays(*two_stack_columns(), 2), [0.4, 0.6], 1),
        TWO_STACKS,
    ),
}


class TestLayout:
    def test_view_groups_are_runs_of_consecutive_views(self):
        assert view_groups((2, 3, 2)) == [range(0, 1), range(1, 2), range(2, 3)]
        assert view_groups((5, 3, 5, 3, 7)) == [range(v, v + 1) for v in range(5)]
        assert view_groups((8, 8, 8)) == [range(0, 3)]
        assert view_groups((2, 2, 3, 3)) == [range(0, 2), range(2, 4)]
        assert view_groups(iter((3, 3, 2, 3, 3))) == [range(0, 2), range(2, 3), range(3, 5)]
        assert view_groups(()) == []

    @pytest.mark.parametrize("builder", list(LAYOUT_BUILDERS))
    def test_views_are_slots_of_read_only_stacks(self, tmp_path, builder):
        build, groups = LAYOUT_BUILDERS[builder]
        ds = build(tmp_path)
        assert view_groups(ds.view_dims) == groups and len(ds.stacks) == len(groups)
        for stack, group in zip(ds.stacks, groups):
            assert stack.dtype == np.float64 and stack.flags.c_contiguous and not stack.flags.writeable
            assert stack.shape == (len(group), len(ds), ds.view_dims[group[0]])
            for g, v in enumerate(group):
                assert ds.view_dims[v] == stack.shape[2] and np.shares_memory(ds.views[v], stack)
                assert ds.views[v].base is stack and np.array_equal(bits(ds.views[v]), bits(stack[g]))
                assert ds.views[v].flags.c_contiguous and not ds.views[v].flags.writeable

    def test_taken_stacks_are_kept_uncopied_and_must_group_the_views(self):
        stacks = [np.zeros((2, 3, 2)), np.ones((1, 3, 3))]
        ds = MultiViewDataset._of_stacks(stacks, (2, 2, 3), [0, 1, 0], "abc", 2)
        assert all(a is b for a, b in zip(ds.stacks, stacks)) and not stacks[0].flags.writeable
        with pytest.raises(ValueError, match=r"do not group views of \(3, 2, 2\)"):
            MultiViewDataset._of_stacks([np.zeros((2, 3, 2)), np.ones((1, 3, 3))], (3, 2, 2), [0, 1, 0], "abc", 2)

    def test_from_arrays_copies_its_inputs(self):
        views, labels, ids = two_stack_columns()
        ds = MultiViewDataset.from_arrays(views, labels, ids, 2)
        before = [bits(v).copy() for v in ds.views]
        for x in views:
            assert not any(np.shares_memory(x, stack) for stack in ds.stacks)
            x[:] = 7.0
        assert all(np.array_equal(bits(v), b) for v, b in zip(ds.views, before))

    def test_integers_beyond_int64_are_read_as_floats(self):
        ds = MultiViewDataset.from_arrays([[[2**70, 1]], [[-(2**64), 2]], [[3]]], [1], ["a"], 2)
        assert [s.dtype for s in ds.stacks] == [np.float64, np.float64]
        assert np.array_equal(ds.stacks[0], [[[2.0**70, 1.0]], [[-(2.0**64), 2.0]]])


class TestGeometry:
    @given(st.integers(1, 20), st.integers(1, 10), st.integers(1, 8))
    def test_patch_count_formula(self, win, stride, n):
        geom = ViewGeometry(win + stride * (n - 1), win, stride)
        assert geom.patches_per_side == n

    def test_patch_count_is_bounded(self):
        assert MAX_PATCHES == 100**2
        assert ViewGeometry(100, 1, 1).patches_per_side == 100
        with pytest.raises(ValueError, match=f"^the tiling makes 10201 local patches, more than {MAX_PATCHES}$"):
            ViewGeometry(101, 1, 1)
        with pytest.raises(ValueError, match="more than"):
            ViewGeometry(10**9, 1, 1)

    def test_reference_geometry(self):
        geom = ViewGeometry(160, 96, 32)
        assert geom.patches_per_side == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            ViewGeometry(10, 4, 4)
        with pytest.raises(ValueError, match="exceed"):
            ViewGeometry(4, 6, 1)
        with pytest.raises(ValueError):
            ViewGeometry(4, 2, 0)


class TestExtractViews:
    def test_hand_enumerated_quadrants(self):
        grid = np.arange(16.0).reshape(4, 4)
        patches, roi = extract_views(grid, ViewGeometry(4, 2, 2))
        assert np.array_equal(roi, grid)
        assert len(patches) == 4
        assert np.array_equal(patches[0], [[0.0, 1.0], [4.0, 5.0]])
        assert np.array_equal(patches[1], [[2.0, 3.0], [6.0, 7.0]])
        assert np.array_equal(patches[2], [[8.0, 9.0], [12.0, 13.0]])
        assert np.array_equal(patches[3], [[10.0, 11.0], [14.0, 15.0]])

    def test_patches_are_exact_roi_windows(self):
        rng = np.random.default_rng(0)
        grid = rng.normal(size=(12, 12))
        geom = ViewGeometry(6, 3, 1)
        patches, roi = extract_views(grid, geom, center=(5, 7))
        assert np.array_equal(roi, grid[2:8, 4:10])
        n = geom.patches_per_side
        assert len(patches) == n * n
        for i in range(n):
            for j in range(n):
                want = roi[i : i + 3, j : j + 3]
                assert np.array_equal(patches[i * n + j], want)

    def test_cutout_zeroes_square(self):
        grid = np.ones((6, 6))
        patches, roi = extract_views(grid, ViewGeometry(4, 2, 2), cutout=(1, 1, 2))
        assert roi[1:3, 1:3].sum() == 0.0
        assert roi.sum() == 12.0  # 16 cells minus the 4 zeroed
        assert patches[0][1, 1] == 0.0

    def test_roi_bounds(self):
        grid = np.zeros((8, 8))
        with pytest.raises(ValueError, match="leaves the grid"):
            extract_views(grid, ViewGeometry(6, 2, 2), center=(1, 4))
        with pytest.raises(ValueError, match="leaves the ROI"):
            extract_views(grid, ViewGeometry(4, 2, 2), cutout=(3, 3, 2))

    def test_non_2d_grid(self):
        with pytest.raises(ValueError):
            extract_views(np.zeros(5), ViewGeometry(2, 1, 1))

    @pytest.mark.parametrize("center,cutout,message", [
        ((4,), None, "center must be row,col"),
        ((4, 4, 5), None, "center must be row,col"),
        (None, (1, 1), "cutout must be row,col,size"),
        (None, (1, 1, 2, 2), "cutout must be row,col,size"),
    ])
    def test_center_and_cutout_lengths(self, center, cutout, message):
        # a short center once raised IndexError and a long one was cut to two entries
        with pytest.raises(ValueError, match=message):
            extract_views(np.zeros((8, 8)), ViewGeometry(4, 2, 2), center=center, cutout=cutout)


class TestSynthetic:
    def test_blobs_layout(self):
        spec = SyntheticSpec.blobs(num_classes=3, num_views=2, view_dim=4, separation=2.0)
        assert spec.means.shape == (3, 2, 4)
        # class signal along coordinate 0 only, scaled up for later views
        assert np.array_equal(spec.means[:, 0, 0], [-2.0, 0.0, 2.0])
        assert np.allclose(spec.means[:, 1, 0], [-2.2, 0.0, 2.2])
        assert np.all(spec.means[:, :, 1:] == 0.0)

    def test_generation_is_deterministic(self):
        spec = SyntheticSpec.blobs(2, 2, 3, n_per_class=20, seed=5)
        a, b = gen_synthetic(spec), gen_synthetic(spec)
        assert [s.id for s in a] == [s.id for s in b]
        assert np.array_equal(flat_features(a), flat_features(b))
        c = gen_synthetic(SyntheticSpec.blobs(2, 2, 3, n_per_class=20, seed=6))
        assert not np.array_equal(flat_features(a), flat_features(c))

    def test_sizes_and_balance(self):
        ds = gen_synthetic(SyntheticSpec.blobs(3, 2, 2, n_per_class=15, seed=0))
        assert len(ds) == 45
        assert np.array_equal(np.bincount(ds.labels()), [15, 15, 15])

    def test_separated_blobs_are_learnable(self):
        train = gen_synthetic(SyntheticSpec.blobs(2, 1, 2, separation=4.0, n_per_class=100, seed=1))
        test = gen_synthetic(SyntheticSpec.blobs(2, 1, 2, separation=4.0, n_per_class=100, seed=2))
        acc = logistic_accuracy(flat_features(train), train.labels(), flat_features(test), test.labels())
        assert acc > 0.9

    def test_equal_means_are_chance(self):
        train = gen_synthetic(SyntheticSpec.blobs(2, 1, 2, separation=0.0, n_per_class=100, seed=1))
        test = gen_synthetic(SyntheticSpec.blobs(2, 1, 2, separation=0.0, n_per_class=200, seed=2))
        acc = logistic_accuracy(flat_features(train), train.labels(), flat_features(test), test.labels())
        assert acc < 0.62


class TestOod:
    def test_shift_moves_coordinate_one_only(self):
        spec = SyntheticSpec.blobs(2, 2, 3, n_per_class=400, seed=3)
        base = gen_synthetic(spec)
        moved = gen_ood(spec, shift=5.0)
        mean_base = flat_features(base).mean(axis=0)
        mean_moved = flat_features(moved).mean(axis=0)
        delta = mean_moved - mean_base
        # coordinates 1 of both views shift by 5, everything else holds still
        assert delta[1] == pytest.approx(5.0, abs=0.2)
        assert delta[4] == pytest.approx(5.0, abs=0.2)
        assert abs(delta[0]) < 0.2 and abs(delta[2]) < 0.2

    def test_zero_shift_reproduces_the_clusters(self):
        spec = SyntheticSpec.blobs(2, 2, 2, n_per_class=10, seed=4)
        assert np.array_equal(flat_features(gen_ood(spec, 0.0)), flat_features(gen_synthetic(spec)))

    def test_validation(self):
        spec = SyntheticSpec.blobs(2, 2, 2)
        with pytest.raises(ValueError):
            gen_ood(spec, -1.0)
        flat = SyntheticSpec.blobs(2, 2, 1)
        with pytest.raises(ValueError, match="view_dim"):
            gen_ood(flat, 1.0)


class TestResample:
    def test_exact_counts(self):
        ds = gen_synthetic(SyntheticSpec.blobs(2, 1, 2, n_per_class=300, seed=7))
        sub = resample_class_ratio(ds, (0.8, 0.2), seed=0)
        assert np.array_equal(np.bincount(sub.labels()), [300, 75])

    def test_balanced_subset(self):
        ds = gen_synthetic(SyntheticSpec.blobs(2, 1, 2, n_per_class=50, seed=7))
        keep = [s for s in ds if s.label == 0][:50] + [s for s in ds if s.label == 1][:25]
        small = MultiViewDataset(tuple(keep), 2, ds.view_dims)
        sub = resample_class_ratio(small, (1.0, 1.0), seed=1)
        assert np.array_equal(np.bincount(sub.labels()), [25, 25])

    def test_preserves_order_and_is_seeded(self):
        ds = gen_synthetic(SyntheticSpec.blobs(2, 1, 2, n_per_class=40, seed=8))
        a = resample_class_ratio(ds, (0.75, 0.25), seed=3)
        b = resample_class_ratio(ds, (0.75, 0.25), seed=3)
        assert [s.id for s in a] == [s.id for s in b]
        ids = [s.id for s in ds]
        picked = [ids.index(s.id) for s in a]
        assert picked == sorted(picked)
        c = resample_class_ratio(ds, (0.75, 0.25), seed=4)
        assert [s.id for s in c] != [s.id for s in a]

    def test_keeps_rows_in_id_order(self):
        ds = gen_synthetic(SyntheticSpec.blobs(3, 2, 2, n_per_class=30, seed=5))
        sub = resample_class_ratio(ds, (0.5, 0.3, 0.2), seed=2)
        rows = [ds.ids.index(i) for i in sub.ids]
        assert rows == sorted(rows) and len(set(rows)) == len(rows)
        assert np.array_equal(sub.labels(), ds.labels()[rows])
        for full, part in zip(ds.views, sub.views):
            assert np.array_equal(bits(part), bits(full[rows]))

    def test_validation(self):
        ds = gen_synthetic(SyntheticSpec.blobs(2, 1, 2, n_per_class=20, seed=9))
        with pytest.raises(ValueError, match="length"):
            resample_class_ratio(ds, (0.3, 0.3, 0.4), seed=0)
        with pytest.raises(ValueError, match="positive"):
            resample_class_ratio(ds, (1.0, 0.0), seed=0)
        only_zero = MultiViewDataset(
            tuple(s for s in ds if s.label == 0), 2, ds.view_dims
        )
        with pytest.raises(ValueError, match="missing a class"):
            resample_class_ratio(only_zero, (0.5, 0.5), seed=0)

    # the suite turns warnings into errors, so these also show that no
    # overflow warning escapes on the way to the ValueError
    def test_overflowing_ratio_sum_is_a_value_error(self):
        ds = gen_synthetic(SyntheticSpec.blobs(2, 1, 2, n_per_class=20, seed=9))
        with pytest.raises(ValueError, match="finite sum"):
            resample_class_ratio(ds, (1e308, 1e308), seed=0)

    @pytest.mark.parametrize("ratio", [(1e-320, 1.0), (5e-324, 1.0), (1.0, 1e-300)])
    def test_vanishing_share_is_not_enough_samples(self, ratio):
        ds = gen_synthetic(SyntheticSpec.blobs(2, 1, 2, n_per_class=20, seed=9))
        with pytest.raises(ValueError, match="not enough samples"):
            resample_class_ratio(ds, ratio, seed=0)

    @pytest.mark.parametrize("minority", [1.0 / 19.0, 1.0 / 39.0, 1.0 / 78.0, 1.0 / 79.0, 1.0 / 80.0])
    def test_counts_match_the_unguarded_search_near_the_cutoff(self, minority):
        # with 40 samples a minority share of 1/80 and below never rounds to
        # a sample; the early refusal must agree with the full search
        ds = gen_synthetic(SyntheticSpec.blobs(2, 1, 2, n_per_class=20, seed=9))
        ratio = np.array([minority, 1.0]) / (minority + 1.0)
        counts = np.array([20, 20])
        total = int(np.min(np.floor(counts / ratio)))
        want = np.round(ratio * total).astype(int)
        while (np.any(want > counts) or np.any(want < 1)) and total >= 2:
            total -= 1
            want = np.round(ratio * total).astype(int)
        if np.any(want > counts) or np.any(want < 1):
            with pytest.raises(ValueError, match="not enough samples"):
                resample_class_ratio(ds, (minority, 1.0), seed=0)
        else:
            sub = resample_class_ratio(ds, (minority, 1.0), seed=0)
            assert np.array_equal(np.bincount(sub.labels()), want)


class TestParseProportions:
    @pytest.mark.parametrize("text,want", [
        ("2:8", [0.2, 0.8]), ("0.8,0.2", [0.8, 0.2]), ("1:1:2", [0.25, 0.25, 0.5]),
    ])
    def test_both_separators(self, text, want):
        assert np.allclose(parse_proportions(text, "ratio"), want, rtol=0, atol=1e-15)

    @given(st.lists(st.floats(min_value=5e-324, max_value=1.7976931348623157e308), min_size=2, max_size=6))
    def test_finite_sums_normalise_as_values_over_their_sum(self, values):
        values = np.array(values)
        with np.errstate(over="ignore"):
            total = values.sum()
        text = ":".join(repr(v) for v in values.tolist())
        if not np.isfinite(total):
            with pytest.raises(ValueError, match="finite sum"):
                parse_proportions(text, "ratio")
        else:
            assert np.array_equal(bits(parse_proportions(text, "ratio")), bits(values / total))

    @pytest.mark.parametrize("text,match", [
        ("1:", "cannot parse"), ("a,b", "cannot parse"), ("", "cannot parse"),
        ("1", "at least two"), ("1:0", "strictly positive"), ("1:-1", "strictly positive"),
        ("nan:1", "strictly positive"), ("inf:1", "strictly positive"), ("1:0:2", "strictly positive"),
        ("1e308:1e308", "base rate override entries must have a finite sum"),
    ])
    def test_rejects_with_a_message_naming_what(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_proportions(text, "base rate override")


class TestParseRatioList:
    def test_entries_are_stripped_and_read_as_proportions(self):
        got = parse_ratio_list(" 1:3,0.4:0.6 ", "ratio")
        assert [text for text, _ in got] == ["1:3", "0.4:0.6"]
        for (text, mix), want in zip(got, ["1:3", "0.4:0.6"]):
            assert np.array_equal(mix, parse_proportions(want, "ratio"))

    @pytest.mark.parametrize("text,match", [
        ("", "cannot parse ratio ''"), ("2:8,", "cannot parse ratio ''"), (",2:8", "cannot parse ratio ''"),
        ("2:8, ,3:7", "cannot parse ratio ''"), ("2:8,x", "cannot parse ratio 'x'"),
        ("2:8,1", "ratio needs at least two"), ("2:8,1:0", "ratio entries must be strictly positive"),
    ])
    def test_any_bad_entry_rejects_the_whole_list(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_ratio_list(text, "ratio")


class TestParseInts:
    @pytest.mark.parametrize("text,want", [
        ("", ()), ("4", (4,)), ("4,4,4,4", (4, 4, 4, 4)), (" 3, 5", (3, 5)), ("-1,0", (-1, 0)),
    ])
    def test_values(self, text, want):
        assert parse_ints(text, "dims") == want

    @pytest.mark.parametrize("text", ["4,", ",4", "4,,8", ",", " ", "4.0", "a"])
    def test_rejects_with_a_message_naming_what(self, text):
        with pytest.raises(ValueError, match=f"cannot parse hidden {re.escape(repr(text))}"):
            parse_ints(text, "hidden")


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5e-310,
]
FORMATS = [repr, str, "{:.17g}".format, "{:.16e}".format, "{:.3f}".format]
ID_CHARS = st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"), blacklist_characters=",")


@st.composite
def csv_files(draw):
    """(view dims, class count, CSV text) with edge-case floats, formats and blank lines."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    k = draw(st.integers(2, 4))
    header = ["id", "label"]
    for v, dim in enumerate(dims):
        header.extend(f"v{v}_{j}" for j in range(dim))
    lines = [",".join(header)]
    values = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
        fmt = draw(st.sampled_from(FORMATS))
        row = draw(st.lists(values, min_size=sum(dims), max_size=sum(dims)))
        sample_id = draw(st.text(ID_CHARS, max_size=6))
        lines.append(",".join([sample_id, str(draw(st.integers(0, k - 1))), *map(fmt, row)]))
    return dims, k, "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


# Feature tokens: malformed ones, then float()-legal oddities, then non-finite spellings.
MUTANT_FEATURES = [
    "oops", "", "0x1p3", "1.0.0", "1e", "- 1", "1__0", "1\x00",
    "1_0", "١", "-0", " 1", "+.5", "1e-400", " 2",
    "Infinity", "nan", "-nan", "1e999", "-inf",
]
MUTANT_LABELS = ["-1", "k", "1.5", "", "2", "99", "1_0", "١", " 1", "0x1"]


def mutate_csv(data, text: str) -> str:
    """`text` with one or two fields of its sample rows dropped, doubled or replaced.

    The two mutations may hit one line or two, in either order of kinds.
    """
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if i and line]
    for _ in range(data.draw(st.integers(1, 2))):
        i = data.draw(st.sampled_from(rows))
        fields = lines[i].split(",")
        kind = data.draw(st.sampled_from(["drop", "extra", "feature", "feature", "label"]))
        if kind == "drop":
            del fields[data.draw(st.integers(0, len(fields) - 1))]
        elif kind == "extra" or len(fields) < 3:
            fields.insert(data.draw(st.integers(0, len(fields))), data.draw(st.sampled_from(MUTANT_FEATURES)))
        elif kind == "feature":
            fields[data.draw(st.integers(2, len(fields) - 1))] = data.draw(st.sampled_from(MUTANT_FEATURES))
        else:
            fields[1] = data.draw(st.sampled_from(MUTANT_LABELS))
        lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


def outcome(load):
    """What `load()` gives: its result, or the message of its ValueError."""
    try:
        return load()
    except ValueError as exc:
        return str(exc)


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path):
        ds = gen_synthetic(SyntheticSpec.blobs(3, 2, 2, n_per_class=10, seed=11))
        path = tmp_path / "ds.csv"
        save_csv(ds, path)
        back = load_csv(path, ds.num_classes, ds.num_views, ds.view_dims)
        assert [s.id for s in back] == [s.id for s in ds]
        assert np.array_equal(back.labels(), ds.labels())
        assert np.array_equal(flat_features(back), flat_features(ds))

    @pytest.mark.parametrize("bad_id", ["a,b", "a\nb", "a\u2028b", "a\r"])
    def test_id_that_cannot_round_trip_is_rejected(self, tmp_path, bad_id):
        ds = MultiViewDataset.from_arrays([np.zeros((2, 1))], [0, 1], [bad_id, "c"], 2)
        path = tmp_path / "ds.csv"
        with pytest.raises(ValueError, match=re.escape(repr(bad_id))):
            save_csv(ds, path)
        assert not path.exists()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_csv(path, 2, 1, (2,))

    def test_view_dims_of_another_view_count(self, tmp_path):
        # refused before the file is read
        with pytest.raises(ValueError, match="^view_dims length must equal num_views$"):
            load_csv(tmp_path / "absent.csv", 2, 2, (1,))

    @pytest.mark.parametrize("header,row,view_dims", [
        ("id,label", "a,0", ()),  # no view
        ("id,label,v0_0,v0_1", "a,0,1.0,2.0", (2, 0)),  # a view of no feature
    ])
    def test_a_layout_without_views_or_with_an_empty_one_is_refused(self, tmp_path, header, row, view_dims):
        path = tmp_path / "d.csv"
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"view_dims {view_dims} must list one or more views")):
            load_csv(path, 2, len(view_dims), view_dims)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("id,label,v0_0,v0_1\n")
        with pytest.raises(ValueError, match="no sample rows"):
            load_csv(path, 2, 1, (2,))

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("id,label,x\na,0,1.0\n")
        with pytest.raises(ValueError, match="line 1"):
            load_csv(path, 2, 1, (1,))

    def test_field_count_names_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,label,v0_0\na,0,1.0\nb,1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path, 2, 1, (1,))

    def test_bad_float_names_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,label,v0_0\na,0,1.0\nb,1,oops\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path, 2, 1, (1,))

    def test_label_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,label,v0_0\na,0,1.0\nb,7,2.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path, 2, 1, (1,))


    @pytest.mark.parametrize("value", ["nan", "1e999", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        path = tmp_path / "f.csv"
        path.write_text(f"id,label,v0_0,v0_1\na,0,1.0,2.0\nb,1,{value},3.0\n")
        with pytest.raises(ValueError, match="line 3: features must be finite") as info:
            load_csv(path, 2, 1, (2,))
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("body", [
        "a,0,1.0\nb,1\n",
        "a,0,1.0\nb,1,2.0,3.0\n",
        "a,0,1.0\nb,0,1.0,\n",
        "a,0,1.0\nb,1,oops\n",
        "a,x,1.0\n",
        "a,1.5,1.0\n",
        "a,99999999999999999999999,1.0\n",
        "a,-1,1.0\n",
        "a,2,1.0\n",
        "a,0,nan\n",
        "a,0,1.0\n\n\nb,7,2.0\nc,0\n",
        "a,0,1.0\nb,0,1e999\nc,9,1.0\n",
    ])
    def test_errors_match_reference(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("id,label,v0_0\n" + body)
        with pytest.raises(ValueError) as want:
            load_csv_reference(path, 2, (1,))
        with pytest.raises(ValueError) as got:
            load_csv(path, 2, 1, (1,))
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{path}: line ")

    @given(csv_files())
    def test_parse_matches_reference(self, tmp_path_factory, case):
        dims, k, text = case
        path = tmp_path_factory.mktemp("csv") / "ds.csv"
        path.write_text(text, encoding="utf-8")
        ids, labels, views = load_csv_reference(path, k, dims)
        got = load_csv(path, k, len(dims), dims)
        assert got.ids == tuple(ids)
        assert np.array_equal(got.labels(), labels)
        assert len(got.views) == len(views)
        for a, b in zip(got.views, views):
            assert a.shape == b.shape and np.array_equal(bits(a), bits(b))

    @given(csv_files())
    def test_save_matches_reference(self, tmp_path_factory, case):
        dims, k, text = case
        root = tmp_path_factory.mktemp("csv")
        (root / "in.csv").write_text(text, encoding="utf-8")
        ids, labels, views = load_csv_reference(root / "in.csv", k, dims)
        ds = MultiViewDataset.from_arrays(views, labels, ids, k)
        save_csv(ds, root / "got.csv")
        save_csv_reference(ids, labels, views, root / "want.csv")
        assert (root / "got.csv").read_bytes() == (root / "want.csv").read_bytes()
        back = load_csv(root / "got.csv", k, len(dims), dims)
        assert back.ids == ds.ids
        assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(back.views, ds.views))

    @settings(max_examples=150)
    @given(case=csv_files(), data=st.data())
    def test_mutants_match_reference(self, tmp_path_factory, case, data):
        dims, k, text = case
        path = tmp_path_factory.mktemp("csv") / "ds.csv"
        path.write_text(mutate_csv(data, text), encoding="utf-8")
        want = outcome(lambda: load_csv_reference(path, k, dims))
        got = outcome(lambda: load_csv(path, k, len(dims), dims))
        if isinstance(want, str):
            assert got == want and want.startswith(f"{path}: line ")
        else:
            ids, labels, views = want
            assert got.ids == tuple(ids) and np.array_equal(got.labels(), labels)
            assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(got.views, views))

    @pytest.mark.parametrize("first,second", itertools.permutations(
        ["b,0", "b,0,oops", "b,k,1.0", "b,7,1.0", "b,0,nan", "b,7,nan", "b,0,inf,"], 2
    ))
    def test_the_first_of_two_bad_lines_is_named(self, tmp_path, first, second):
        path = tmp_path / "bad.csv"
        path.write_text(f"id,label,v0_0\na,0,1.0\n{first}\n\n{second}\nc,1,2.0\n")
        want = outcome(lambda: load_csv_reference(path, 2, (1,)))
        assert want.startswith(f"{path}: line 3: ")
        assert outcome(lambda: load_csv(path, 2, 1, (1,))) == want


# MERIT's row: nine 256-d patches and the 1024-d ROI they tile
PAPER_DIMS = (256,) * 9 + (1024,)


def paper_shaped(n, num_classes=3, seed=41):
    rng = np.random.default_rng(seed)
    views = [rng.normal(size=(n, d)) for d in PAPER_DIMS]
    return MultiViewDataset.from_arrays(views, np.arange(n) % num_classes, [f"s{i}" for i in range(n)], num_classes)


def traced_peak(call):
    """(call(), the peak bytes tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def feature_bytes(ds):
    return sum(stack.nbytes for stack in ds.stacks)


class TestMemory:
    """Each source copies its features once, so peaks stay small multiples of them."""

    def test_load_csv_of_paper_shaped_rows(self, tmp_path):
        path = tmp_path / "paper.csv"
        save_csv(paper_shaped(300), path)
        ds, peak = traced_peak(lambda: load_csv(path, 3, len(PAPER_DIMS), PAPER_DIMS))
        assert peak <= 7 * feature_bytes(ds), peak / feature_bytes(ds)

    def test_blank_lines_cost_only_their_own_bytes(self, tmp_path):
        row = ",".join(["a", "0", *["0.5"] * sum(PAPER_DIMS)])
        peaks = []
        for blanks in (50_000, 200_000):
            path = tmp_path / f"blank{blanks}.csv"
            path.write_text(_csv_header(PAPER_DIMS) + "\n" + row + "\n" * blanks)
            peaks.append(traced_peak(lambda: load_csv(path, 2, len(PAPER_DIMS), PAPER_DIMS))[1])
        # the raw and the decoded text hold each blank line's one byte; nothing else grows with them
        assert peaks[1] - peaks[0] <= 2 * 150_000 + 65_536, peaks

    def test_resample_class_ratio(self):
        ds = paper_shaped(600)
        got, peak = traced_peak(lambda: resample_class_ratio(ds, [0.2, 0.3, 0.5], 0))
        assert peak <= 1.3 * feature_bytes(got), peak / feature_bytes(got)

    def test_gen_synthetic(self):
        spec = SyntheticSpec.blobs(2, 10, 256, n_per_class=300)
        got, peak = traced_peak(lambda: gen_synthetic(spec))
        assert peak <= 2.3 * feature_bytes(got), peak / feature_bytes(got)


class TestParseJson:
    def test_integers_must_fit_a_float(self):
        largest = int(sys.float_info.max)
        # the tie halfway to 2**1024 is the least magnitude float() rounds up to inf
        edge = 2**1024 - 2**970
        assert parse_json(f"[{largest}, {-largest}, {edge - 1}]", "doc") == [largest, -largest, edge - 1]
        for text in [f"[{2**1024}]", f'{{"w": {-2**1024}}}', f"[{edge}]", f"[{-edge}]"]:
            with pytest.raises(ValueError, match=r"^doc: not a valid JSON document: integer of 309 digits"):
                parse_json(text, "doc")


class TestGridIo:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        grid = rng.normal(size=(5, 7))
        path = tmp_path / "g.txt"
        save_grid(grid, path)
        assert np.array_equal(load_grid(path), grid)

    def test_grid_of_another_rank_is_refused(self, tmp_path):
        path = tmp_path / "g.txt"
        with pytest.raises(ValueError, match="^grid must be 2-d$"):
            save_grid(np.zeros(4), path)
        assert not path.exists()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1.0 2.0\n\n3.0 4.0\n")
        assert np.array_equal(load_grid(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1.0 2.0\n3.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_grid(path)

    def test_bad_token_names_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1.0 2.0\n3.0 x\n")
        with pytest.raises(ValueError, match="line 2"):
            load_grid(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "g.txt"
        path.write_text(f"1.0 2.0\n\n3.0 {value}\n")
        with pytest.raises(ValueError, match="line 3: grid values must be finite") as info:
            load_grid(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_empty_grid(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="empty grid"):
            load_grid(path)
