import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evifuse.data import (
    MultiViewDataset,
    MultiViewSample,
    SyntheticSpec,
    ViewGeometry,
    extract_views,
    gen_ood,
    gen_synthetic,
    load_csv,
    load_grid,
    resample_class_ratio,
    save_csv,
    save_grid,
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
        with pytest.raises(ValueError, match="integers"):
            MultiViewDataset.from_arrays([x], [0.0, 1.0, 0.0], "abc", 2)
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


class TestGeometry:
    @given(st.integers(1, 20), st.integers(1, 10), st.integers(1, 8))
    def test_patch_count_formula(self, win, stride, n):
        geom = ViewGeometry(win + stride * (n - 1), win, stride)
        assert geom.patches_per_side == n

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


class TestGridIo:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        grid = rng.normal(size=(5, 7))
        path = tmp_path / "g.txt"
        save_grid(grid, path)
        assert np.array_equal(load_grid(path), grid)

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

    def test_empty_grid(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="empty grid"):
            load_grid(path)
