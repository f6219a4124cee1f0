"""Datasets, synthetic generators, grid view extraction, and file formats.

A sample is a tuple of per-view feature vectors with one label; a dataset
stores its samples as columns, one (N, d) feature matrix per view plus a
label vector and an id tuple. Synthetic data comes from Gaussian clusters
whose class separation lives along the first feature coordinate; the
out-of-distribution generator displaces every cluster along the second
coordinate, so the shift is orthogonal to anything the classifier can use.
CSV is the interchange format for datasets, whitespace text for 2-d grids,
and JSON for checkpoints, config files, opinions and base rates.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class MultiViewSample:
    """One labeled sample: a feature vector per view plus an identifier."""

    views: tuple
    label: int
    id: str

    def __post_init__(self):
        views = []
        for v in self.views:
            arr = np.asarray(v, dtype=float).copy()
            if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
                raise ValueError(f"sample {self.id}: views must be finite 1-d vectors")
            arr.flags.writeable = False
            views.append(arr)
        if not views:
            raise ValueError(f"sample {self.id}: needs at least one view")
        label = int(self.label)
        if label < 0:
            raise ValueError(f"sample {self.id}: negative label")
        object.__setattr__(self, "views", tuple(views))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "id", str(self.id))


@dataclass(frozen=True, eq=False, init=False)
class MultiViewDataset:
    """Columnar multi-view dataset, validated once when it is built.

    `views` holds one read-only (N, d_v) float64 array per view, row i of
    every view belonging to sample `ids[i]`; `labels()` is the read-only (N,)
    label vector. `MultiViewDataset(samples, num_classes, view_dims)` stacks
    per-sample objects; `from_arrays` takes the columns directly. Iterating,
    or reading `samples`, builds MultiViewSample rows on demand.
    """

    views: tuple
    ids: tuple
    num_classes: int
    view_dims: tuple
    _labels: np.ndarray = field(repr=False)

    def __init__(self, samples, num_classes: int, view_dims):
        samples = tuple(samples)
        if not samples:
            raise ValueError("dataset must not be empty")
        dims = tuple(int(d) for d in view_dims)
        if len(dims) == 0 or any(d < 1 for d in dims):
            raise ValueError("view_dims must be positive")
        for s in samples:
            if tuple(v.size for v in s.views) != dims:
                raise ValueError(f"sample {s.id}: view shapes do not match {dims}")
        views = [np.stack([s.views[v] for s in samples]) for v in range(len(dims))]
        self._assign(views, [s.label for s in samples], [s.id for s in samples], num_classes)

    @classmethod
    def from_arrays(cls, views, labels, ids, num_classes: int) -> "MultiViewDataset":
        """Dataset from per-view (N, d_v) feature arrays, N integer labels and N ids.

        The arrays are copied, so the dataset owns what it marks read-only.
        """
        ds = cls.__new__(cls)
        ds._assign(views, labels, ids, num_classes)
        return ds

    def _assign(self, views, labels, ids, num_classes):
        k = int(num_classes)
        if k < 2:
            raise ValueError("need at least two classes")
        views = [np.array(v, dtype=np.float64, order="C") for v in views]
        if not views or any(v.ndim != 2 or v.shape[1] < 1 for v in views):
            raise ValueError("views must be one or more (N, d) arrays with d >= 1")
        n = views[0].shape[0]
        if n == 0:
            raise ValueError("dataset must not be empty")
        if any(v.shape[0] != n for v in views):
            raise ValueError("views disagree on the number of samples")
        ids = tuple(map(str, ids))
        labels = np.array(labels)
        if labels.shape != (n,) or len(ids) != n:
            raise ValueError(f"need {n} labels and {n} ids, one per row of the views")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError("labels must be integers")
        labels = labels.astype(int)
        bad = np.flatnonzero((labels < 0) | (labels >= k))
        if bad.size:
            raise ValueError(f"sample {ids[bad[0]]}: label {labels[bad[0]]} outside [0, {k})")
        finite = np.logical_and.reduce([np.isfinite(v).all(axis=1) for v in views])
        if not finite.all():
            raise ValueError(f"sample {ids[np.argmin(finite)]}: features must be finite")
        for arr in (*views, labels):
            arr.flags.writeable = False
        object.__setattr__(self, "views", tuple(views))
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "num_classes", k)
        object.__setattr__(self, "view_dims", tuple(v.shape[1] for v in views))
        object.__setattr__(self, "_labels", labels)

    @property
    def num_views(self) -> int:
        return len(self.view_dims)

    @property
    def samples(self) -> tuple:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        for i, (label, sample_id) in enumerate(zip(self._labels.tolist(), self.ids)):
            yield MultiViewSample(tuple(v[i] for v in self.views), label, sample_id)

    def labels(self) -> np.ndarray:
        return self._labels


@dataclass(frozen=True)
class ViewGeometry:
    """Square ROI tiled by a sliding window: roi, window, stride in cells."""

    roi_size: int
    window_size: int
    stride: int

    def __post_init__(self):
        roi, win, stride = int(self.roi_size), int(self.window_size), int(self.stride)
        if win < 1 or stride < 1 or roi < 1:
            raise ValueError("geometry values must be positive")
        if win > roi:
            raise ValueError("window must not exceed the ROI")
        if (roi - win) % stride != 0:
            # Exact tiling only; silently cropping a ragged edge would move
            # the patch grid off the stated geometry.
            raise ValueError("(roi - window) must be divisible by stride")
        object.__setattr__(self, "roi_size", roi)
        object.__setattr__(self, "window_size", win)
        object.__setattr__(self, "stride", stride)

    @property
    def patches_per_side(self) -> int:
        return (self.roi_size - self.window_size) // self.stride + 1


def extract_views(grid, geom: ViewGeometry, center=None, cutout=None):
    """Cut the ROI around `center` out of `grid` and tile it.

    Returns (local patches in row-major order, the full ROI). `center`
    defaults to the grid center. `cutout`, if given, is (row, col, size) in
    ROI-local coordinates; that square is zeroed before extraction.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise ValueError("grid must be 2-d")
    rows, cols = grid.shape
    if center is None:
        center = (rows // 2, cols // 2)
    cr, cc = int(center[0]), int(center[1])
    half = geom.roi_size // 2
    top, left = cr - half, cc - half
    if top < 0 or left < 0 or top + geom.roi_size > rows or left + geom.roi_size > cols:
        raise ValueError(
            f"ROI of size {geom.roi_size} centered at ({cr}, {cc}) leaves the grid"
        )
    roi = grid[top : top + geom.roi_size, left : left + geom.roi_size].copy()
    if cutout is not None:
        r, c, size = (int(x) for x in cutout)
        if size < 1 or r < 0 or c < 0 or r + size > geom.roi_size or c + size > geom.roi_size:
            raise ValueError("cutout square leaves the ROI")
        roi[r : r + size, c : c + size] = 0.0
    patches = []
    for i in range(geom.patches_per_side):
        for j in range(geom.patches_per_side):
            r0, c0 = i * geom.stride, j * geom.stride
            patches.append(roi[r0 : r0 + geom.window_size, c0 : c0 + geom.window_size].copy())
    return patches, roi


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    """Gaussian cluster layout: one mean per (class, view), one shared scale."""

    means: np.ndarray  # shape (classes, views, dim)
    scale: float
    n_per_class: int
    seed: int

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float).copy()
        if means.ndim != 3 or means.shape[0] < 2:
            raise ValueError("means must have shape (classes >= 2, views, dim)")
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        if not np.isfinite(self.scale) or self.scale <= 0.0:
            raise ValueError("scale must be positive")
        if int(self.n_per_class) < 1:
            raise ValueError("n_per_class must be positive")
        means.flags.writeable = False
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "n_per_class", int(self.n_per_class))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def num_classes(self) -> int:
        return self.means.shape[0]

    @property
    def num_views(self) -> int:
        return self.means.shape[1]

    @property
    def view_dim(self) -> int:
        return self.means.shape[2]

    @classmethod
    def blobs(
        cls,
        num_classes: int,
        num_views: int,
        view_dim: int,
        separation: float = 3.0,
        scale: float = 1.0,
        n_per_class: int = 100,
        seed: int = 0,
    ) -> "SyntheticSpec":
        """Classes spread along coordinate 0, views mildly unequal in signal."""
        if view_dim < 1 or num_views < 1:
            raise ValueError("need positive view count and dimension")
        offsets = (np.arange(num_classes) - (num_classes - 1) / 2.0) * float(separation)
        means = np.zeros((num_classes, num_views, view_dim))
        view_gain = 1.0 + 0.1 * np.arange(num_views)
        means[:, :, 0] = offsets[:, None] * view_gain[None, :]
        return cls(means, scale, n_per_class, seed)


def gen_synthetic(spec: SyntheticSpec) -> MultiViewDataset:
    """Draw the spec's clusters; a pure function of the spec (seed included)."""
    rng = np.random.default_rng(spec.seed)
    k, v, d = spec.means.shape
    n = spec.n_per_class
    # One draw per class, then one permutation: the order the ids encode.
    feats = np.concatenate(
        [spec.means[c] + rng.normal(0.0, spec.scale, size=(n, v, d)) for c in range(k)]
    )
    order = rng.permutation(k * n)
    ids = [f"c{c}n{i:04d}" for c in range(k) for i in range(n)]
    return MultiViewDataset.from_arrays(
        [feats[order, j] for j in range(v)],
        np.repeat(np.arange(k), n)[order],
        [ids[i] for i in order.tolist()],
        num_classes=k,
    )


def gen_ood(spec: SyntheticSpec, shift: float) -> MultiViewDataset:
    """Same clusters displaced by `shift` along coordinate 1 of every view.

    Coordinate 1 carries no class signal in specs built by blobs(), so this
    is a pure feature shift: labels keep their meaning, the inputs move.
    `shift` is in feature units (the cluster sd is `spec.scale`).
    """
    if not np.isfinite(shift) or shift < 0.0:
        raise ValueError("shift must be a nonnegative real")
    if spec.view_dim < 2:
        raise ValueError("need view_dim >= 2 for an orthogonal shift direction")
    means = spec.means.copy()
    means[:, :, 1] += shift
    return gen_synthetic(SyntheticSpec(means, spec.scale, spec.n_per_class, spec.seed))


def resample_class_ratio(ds: MultiViewDataset, ratio, seed: int) -> MultiViewDataset:
    """Seeded subsample of ds hitting the requested class proportions.

    The subset is as large as the per-class supplies allow; counts match the
    ratio to within rounding and the original sample order is preserved.
    """
    ratio = np.asarray(ratio, dtype=float)
    if ratio.size != ds.num_classes:
        raise ValueError("ratio length must equal the number of classes")
    if np.any(~np.isfinite(ratio)) or np.any(ratio <= 0.0):
        raise ValueError("ratio entries must be strictly positive")
    ratio = ratio / ratio.sum()
    labels = ds.labels()
    counts = np.bincount(labels, minlength=ds.num_classes)
    if np.any(counts == 0):
        raise ValueError("dataset is missing a class entirely")
    total = int(np.min(np.floor(counts / ratio)))
    want = np.round(ratio * total).astype(int)
    while np.any(want > counts) or np.any(want < 1):
        if total < ds.num_classes:
            raise ValueError("not enough samples to honor the requested ratio")
        total -= 1
        want = np.round(ratio * total).astype(int)
    rng = np.random.default_rng(seed)
    keep = np.sort(np.concatenate([
        rng.choice(np.flatnonzero(labels == c), size=want[c], replace=False)
        for c in range(ds.num_classes)
    ]))
    return MultiViewDataset.from_arrays(
        [x[keep] for x in ds.views],
        labels[keep],
        [ds.ids[i] for i in keep.tolist()],
        ds.num_classes,
    )


def _csv_header(view_dims) -> str:
    cols = ["id", "label"]
    for v, dim in enumerate(view_dims):
        cols.extend(f"v{v}_{j}" for j in range(dim))
    return ",".join(cols)


def save_csv(ds: MultiViewDataset, path) -> None:
    """One row per sample: id, label, then view features in view order.

    Features are written as repr of the float, which reads back exactly.
    An id holding a comma or a line boundary would not read back, so it is
    a ValueError, raised before the file is opened.
    """
    for sample_id in ds.ids:
        # the appended character makes a trailing line boundary split too
        if "," in sample_id or len((sample_id + ".").splitlines()) > 1:
            raise ValueError(f"sample id {sample_id!r} holds a comma or a line break")
    rows = np.concatenate(ds.views, axis=1).tolist()
    lines = [_csv_header(ds.view_dims)]
    lines.extend(
        f"{sample_id},{label}," + ",".join(map(repr, row))
        for sample_id, label, row in zip(ds.ids, ds.labels().tolist(), rows)
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path, num_classes: int, num_views: int, view_dims) -> MultiViewDataset:
    """Parse a dataset saved by save_csv; errors name the offending line.

    Blank lines are skipped. The whole file is parsed into one (N, sum d)
    array and split per view; only a file that fails a check is scanned
    line by line, to name the first bad line.
    """
    dims = tuple(int(d) for d in view_dims)
    if len(dims) != num_views:
        raise ValueError("view_dims length must equal num_views")
    n_fields = 2 + sum(dims)
    lines = read_text(path).splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    if lines[0] != _csv_header(dims):
        raise ValueError(f"{path}: line 1: header does not match the declared shape")
    rows = [line.split(",") for line in lines[1:] if line]
    if not rows:
        raise ValueError(f"{path}: no sample rows")
    try:
        if set(map(len, rows)) != {n_fields}:
            raise ValueError("wrong field count")
        labels = np.array([int(fields[1]) for fields in rows])
        table = np.array([float(x) for fields in rows for x in fields[2:]]).reshape(len(rows), -1)
        valid = bool(np.all((labels >= 0) & (labels < num_classes)) and np.all(np.isfinite(table)))
    except (ValueError, OverflowError):
        valid = False
    if not valid:
        _raise_first_bad_line(path, lines, n_fields, num_classes)
    return MultiViewDataset.from_arrays(
        np.split(table, np.cumsum(dims)[:-1], axis=1),
        labels,
        [fields[0] for fields in rows],
        num_classes,
    )


def _raise_first_bad_line(path, lines, n_fields: int, num_classes: int):
    """Raise the error of the first malformed sample row of a CSV file."""
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != n_fields:
            raise ValueError(f"{path}: line {lineno}: expected {n_fields} fields, got {len(fields)}")
        try:
            label = int(fields[1])
            values = [float(x) for x in fields[2:]]
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
        if not 0 <= label < num_classes:
            raise ValueError(f"{path}: line {lineno}: label {label} outside [0, {num_classes})")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{path}: line {lineno}: features must be finite")
    raise ValueError(f"{path}: malformed sample rows")


def save_grid(grid, path) -> None:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise ValueError("grid must be 2-d")
    with open(path, "w", encoding="utf-8") as fh:
        for row in grid:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def load_grid(path) -> np.ndarray:
    """Whitespace-separated 2-d grid, one row per line."""
    rows = []
    width = None
    # newline=None splits lines as a file opened in text mode would
    for lineno, line in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        if not line.strip():
            continue
        try:
            row = [float(x) for x in line.split()]
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"{path}: line {lineno}: ragged row")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty grid")
    return np.array(rows, dtype=float)


def read_text(path) -> str:
    """The whole file as UTF-8 text; undecodable bytes are a ValueError naming the file.

    OSError passes through, so a missing or unreadable file stays an IO error.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def parse_json(text: str, source, what: str = "JSON document"):
    """`text` parsed as JSON; any parse failure is a ValueError naming `source`.

    That covers malformed JSON, integers too long to convert and nesting
    deeper than the parser's recursion limit.
    """
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"{source}: not a valid {what}: nested too deeply") from exc
    except ValueError as exc:
        raise ValueError(f"{source}: not a valid {what}: {exc}") from exc


def read_json(path, what: str = "JSON document"):
    """A JSON file, every failure but OSError a ValueError naming the file."""
    return parse_json(read_text(path), path, what)
