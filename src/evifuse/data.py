"""Datasets, synthetic generators, grid view extraction, and file formats.

A sample is a tuple of per-view feature vectors with one label; a dataset
stores its samples as columns, one (G, N, d) stack of the G views of each
feature dimension plus a label vector and an id tuple. Synthetic data comes
from Gaussian clusters whose class separation lives along the first feature
coordinate; the out-of-distribution generator displaces every cluster along
the second coordinate, so the shift is orthogonal to anything the classifier
can use. CSV is the interchange format for datasets, whitespace text for 2-d
grids, and JSON for checkpoints, config files, opinions and base rates.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._casts import _FLOAT_OVERFLOW, _cast_fields, _integer, _integers, _numeric, _real


def view_groups(view_dims) -> list:
    """The runs of consecutive views of one feature dimension, as ranges of view indices in view order."""
    runs = [len(list(run)) for _, run in itertools.groupby(view_dims)]
    return [range(stop - n, stop) for n, stop in zip(runs, itertools.accumulate(runs))]


@dataclass(frozen=True, eq=False)
class MultiViewSample:
    """One labeled sample: a feature vector per view plus an identifier."""

    views: tuple
    label: int
    id: str

    def __post_init__(self):
        views = []
        for v in self.views:
            arr = np.array(_numeric(v, f"sample {self.id}: view"), dtype=float)
            if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
                raise ValueError(f"sample {self.id}: views must be finite 1-d vectors")
            arr.flags.writeable = False
            views.append(arr)
        if not views:
            raise ValueError(f"sample {self.id}: needs at least one view")
        label = _integer(self.label, f"sample {self.id}: label")
        if label < 0:
            raise ValueError(f"sample {self.id}: negative label")
        object.__setattr__(self, "views", tuple(views))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "id", str(self.id))


@dataclass(frozen=True, eq=False, init=False)
class MultiViewDataset:
    """Columnar multi-view dataset, validated once when it is built.

    `stacks` holds one read-only, C-contiguous (G, N, d) float64 array per
    run of G consecutive views of one feature dimension d (`view_groups`);
    `views` is the stacks' (N, d) slots in order, so `views[v]` is view v.
    Row i of every view belongs to sample `ids[i]`; `labels()` is the
    read-only (N,) label vector.
    `MultiViewDataset(samples, num_classes, view_dims)` stacks per-sample
    objects; `from_arrays` takes the columns directly. Iterating, or reading
    `samples`, builds MultiViewSample rows on demand.
    """

    views: tuple
    stacks: tuple = field(repr=False)
    ids: tuple
    num_classes: int
    view_dims: tuple
    _labels: np.ndarray = field(repr=False)

    def __init__(self, samples, num_classes: int, view_dims):
        samples = tuple(samples)
        if not samples:
            raise ValueError("dataset must not be empty")
        dims = tuple(_integers(view_dims, "view_dims").tolist())
        if len(dims) == 0 or any(d < 1 for d in dims):
            raise ValueError("view_dims must be positive")
        for s in samples:
            if tuple(v.size for v in s.views) != dims:
                raise ValueError(f"sample {s.id}: view shapes do not match {dims}")
        stacks = [np.array([[s.views[v] for s in samples] for v in group]) for group in view_groups(dims)]
        self._assign(stacks, dims, [s.label for s in samples], [s.id for s in samples], num_classes)

    @classmethod
    def from_arrays(cls, views, labels, ids, num_classes: int) -> "MultiViewDataset":
        """Dataset from per-view (N, d_v) feature arrays, N integer labels and N ids.

        The arrays are copied once, into the stacks, so the dataset owns what it marks read-only.
        """
        views = [_numeric(v, f"view {i}") for i, v in enumerate(views)]
        if not views or any(v.ndim != 2 or v.shape[1] < 1 for v in views):
            raise ValueError("views must be one or more (N, d) arrays with d >= 1")
        if any(v.shape[0] != views[0].shape[0] for v in views):
            raise ValueError("views disagree on the number of samples")
        dims = [v.shape[1] for v in views]
        # "unsafe" admits the object arrays of big integers _numeric passed
        stacks = [np.stack([views[v] for v in g], dtype=np.float64, casting="unsafe") for g in view_groups(dims)]
        return cls._of_stacks(stacks, dims, labels, ids, num_classes)

    @classmethod
    def _of_stacks(cls, stacks, view_dims, labels, ids, num_classes) -> "MultiViewDataset":
        ds = cls.__new__(cls)
        ds._assign(stacks, view_dims, labels, ids, num_classes)
        return ds

    def _assign(self, stacks, view_dims, labels, ids, num_classes):
        """Take `stacks`, C-contiguous float64 (G, N, d) arrays of the runs of views
        `view_groups(view_dims)` that no caller keeps, as the dataset's own, without a copy."""
        k = _integer(num_classes, "num_classes")
        if k < 2:
            raise ValueError("need at least two classes")
        view_dims, groups = tuple(view_dims), view_groups(view_dims)
        if not view_dims or min(view_dims) < 1:
            raise ValueError(f"view_dims {view_dims} must list one or more views, each of dimension at least 1")
        n = stacks[0].shape[1]
        if [x.shape for x in stacks] != [(len(g), n, view_dims[g[0]]) for g in groups]:
            raise ValueError(f"stacks of shapes {[x.shape for x in stacks]} do not group views of {view_dims}")
        if n == 0:
            raise ValueError("dataset must not be empty")
        ids = tuple(map(str, ids))
        labels = _integers(labels, "labels")
        if labels.shape != (n,) or len(ids) != n:
            raise ValueError(f"need {n} labels and {n} ids, one per row of the views")
        bad = np.flatnonzero((labels < 0) | (labels >= k))
        if bad.size:
            raise ValueError(f"sample {ids[bad[0]]}: label {labels[bad[0]]} outside [0, {k})")
        labels = labels.astype(int)
        # a whole-array test first: the per-sample reduction is ten times slower on small views
        if not all(np.isfinite(x).all() for x in stacks):
            finite = np.logical_and.reduce([np.isfinite(x).all(axis=(0, 2)) for x in stacks])
            raise ValueError(f"sample {ids[np.argmin(finite)]}: features must be finite")
        for arr in (*stacks, labels):
            arr.flags.writeable = False
        object.__setattr__(self, "views", tuple(itertools.chain.from_iterable(stacks)))
        object.__setattr__(self, "stacks", tuple(stacks))
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "num_classes", k)
        object.__setattr__(self, "view_dims", view_dims)
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


# Most local patches a tiling may cut. Each patch is one file that `views`
# writes and one view of a model; a 1-cell window at stride 1 over the default
# 160-cell ROI would make 25,600 of them, a count no layout needs.
MAX_PATCHES = 10_000


@dataclass(frozen=True)
class ViewGeometry:
    """Square ROI tiled by a sliding window: roi, window, stride in cells."""

    roi_size: int = field(metadata={"cast": _integer})
    window_size: int = field(metadata={"cast": _integer})
    stride: int = field(metadata={"cast": _integer})

    def __post_init__(self):
        _cast_fields(self)
        if self.window_size < 1 or self.stride < 1 or self.roi_size < 1:
            raise ValueError("geometry values must be positive")
        if self.window_size > self.roi_size:
            raise ValueError("window must not exceed the ROI")
        if (self.roi_size - self.window_size) % self.stride != 0:
            # Exact tiling only; silently cropping a ragged edge would move
            # the patch grid off the stated geometry.
            raise ValueError("(roi - window) must be divisible by stride")
        if self.patches_per_side**2 > MAX_PATCHES:
            raise ValueError(f"the tiling makes {self.patches_per_side**2} local patches, more than {MAX_PATCHES}")

    @property
    def patches_per_side(self) -> int:
        return (self.roi_size - self.window_size) // self.stride + 1


def extract_views(grid, geom: ViewGeometry, center=None, cutout=None):
    """Cut the ROI around `center` out of `grid` and tile it.

    Returns (local patches in row-major order, the full ROI). `center`
    defaults to the grid center. `cutout`, if given, is (row, col, size) in
    ROI-local coordinates; that square is zeroed before extraction.
    """
    center = None if center is None else _integers(center, "center").tolist()
    if center is not None and len(center) != 2:
        raise ValueError("center must be row,col")
    cutout = None if cutout is None else _integers(cutout, "cutout").tolist()
    if cutout is not None and len(cutout) != 3:
        raise ValueError("cutout must be row,col,size")
    grid = np.asarray(_numeric(grid, "grid"), dtype=float)
    if grid.ndim != 2:
        raise ValueError("grid must be 2-d")
    rows, cols = grid.shape
    cr, cc = (rows // 2, cols // 2) if center is None else center
    half = geom.roi_size // 2
    top, left = cr - half, cc - half
    if top < 0 or left < 0 or top + geom.roi_size > rows or left + geom.roi_size > cols:
        raise ValueError(
            f"ROI of size {geom.roi_size} centered at ({cr}, {cc}) leaves the grid"
        )
    roi = grid[top : top + geom.roi_size, left : left + geom.roi_size].copy()
    if cutout is not None:
        r, c, size = cutout
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
    scale: float = field(metadata={"cast": _real})
    n_per_class: int = field(metadata={"cast": _integer})
    seed: int = field(metadata={"cast": _integer})

    def __post_init__(self):
        means = np.array(_numeric(self.means, "means"), dtype=float)
        if means.ndim != 3 or means.shape[0] < 2:
            raise ValueError("means must have shape (classes >= 2, views, dim)")
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        means.flags.writeable = False
        object.__setattr__(self, "means", means)
        _cast_fields(self)
        if not np.isfinite(self.scale) or self.scale <= 0.0:
            raise ValueError("scale must be positive")
        if self.n_per_class < 1:
            raise ValueError("n_per_class must be positive")

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
        num_classes, num_views = _integer(num_classes, "num_classes"), _integer(num_views, "num_views")
        view_dim, separation = _integer(view_dim, "view_dim"), _real(separation, "separation")
        if view_dim < 1 or num_views < 1:
            raise ValueError("need positive view count and dimension")
        # means first: a count too large to hold fails there, before offsets
        means = np.zeros((num_classes, num_views, view_dim))
        offsets = (np.arange(num_classes) - (num_classes - 1) / 2.0) * separation
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
    # row r of every view is draw order[r], put there through the inverse permutation: no gathered copy
    where = np.empty_like(order)
    where[order] = np.arange(k * n)
    stack = np.empty((v, k * n, d))
    stack[:, where] = feats.transpose(1, 0, 2)
    ids = [f"c{c}n{i:04d}" for c in range(k) for i in range(n)]
    return MultiViewDataset._of_stacks(
        [stack], (d,) * v, np.repeat(np.arange(k), n)[order], [ids[i] for i in order.tolist()], k
    )


def gen_ood(spec: SyntheticSpec, shift: float) -> MultiViewDataset:
    """Same clusters displaced by `shift` along coordinate 1 of every view.

    Coordinate 1 carries no class signal in specs built by blobs(), so this
    is a pure feature shift: labels keep their meaning, the inputs move.
    `shift` is in feature units (the cluster sd is `spec.scale`).
    """
    shift = _real(shift, "shift")
    if not np.isfinite(shift) or shift < 0.0:
        raise ValueError("shift must be a nonnegative real")
    if spec.view_dim < 2:
        raise ValueError("need view_dim >= 2 for an orthogonal shift direction")
    means = spec.means.copy()
    means[:, :, 1] += shift
    return gen_synthetic(SyntheticSpec(means, spec.scale, spec.n_per_class, spec.seed))


def _proportions(values: np.ndarray, what: str) -> np.ndarray:
    """Finite positive values over their sum; a ValueError naming `what`, not
    an overflow warning, when the sum is not finite."""
    if np.any(~np.isfinite(values)) or np.any(values <= 0.0):
        raise ValueError(f"{what} entries must be strictly positive")
    with np.errstate(over="ignore"):
        total = values.sum()
    if not np.isfinite(total):
        raise ValueError(f"{what} entries must have a finite sum")
    return values / total


def parse_proportions(text: str, what: str) -> np.ndarray:
    """Proportions summing to 1 from "a:b:..." or "a,b,...", e.g. 2:8 or 0.8,0.2;
    at least two finite positive entries with a finite sum, else a ValueError."""
    parts = text.split(":") if ":" in text else text.split(",")
    try:
        values = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"cannot parse {what} {text!r}: {exc}") from exc
    if values.size < 2:
        raise ValueError(f"{what} needs at least two strictly positive entries")
    return _proportions(values, what)


def parse_ratio_list(text: str, what: str) -> list:
    """[(entry, proportions), ...] of comma-separated a:b entries, e.g. "2:8, 3:7";
    each entry is stripped and read by parse_proportions, so an empty one is a ValueError."""
    return [(entry, parse_proportions(entry, what)) for entry in map(str.strip, text.split(","))]


def parse_ints(text: str, what: str) -> tuple:
    """Integers of "a,b,...", e.g. 4,4,4,4; "" is (), and an empty or
    non-integer entry is a ValueError naming `what`."""
    try:
        return tuple(int(p) for p in text.split(",")) if text else ()
    except ValueError as exc:
        raise ValueError(f"cannot parse {what} {text!r}: {exc}") from exc


def resample_class_ratio(ds: MultiViewDataset, ratio, seed: int) -> MultiViewDataset:
    """Seeded subsample of ds hitting the requested class proportions.

    The subset is as large as the per-class supplies allow; counts match the
    ratio to within rounding and the original sample order is preserved.
    """
    ratio, seed = np.asarray(_numeric(ratio, "ratio"), dtype=float), _integer(seed, "seed")
    if ratio.size != ds.num_classes:
        raise ValueError("ratio length must equal the number of classes")
    ratio = _proportions(ratio, "ratio")
    labels = ds.labels()
    counts = np.bincount(labels, minlength=ds.num_classes)
    if np.any(counts == 0):
        raise ValueError("dataset is missing a class entirely")
    # A share that rounds to no sample even at all N samples is never met;
    # refusing it here also keeps counts / ratio from overflowing.
    if ratio.min() * labels.size < 0.5:
        raise ValueError("not enough samples to honor the requested ratio")
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
    return MultiViewDataset._of_stacks(
        [x.take(keep, axis=1) for x in ds.stacks],
        ds.view_dims,
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
    """Parse a dataset saved by save_csv; errors name the first bad line.

    One pass: a nonblank line is split once, checked for its field count,
    its int() label and float() features and the label's range, and written
    into a float64 table of one row per nonblank line; blank lines cost
    nothing. Finiteness is checked once, over the rows read, before the
    error of a line that failed, so the first bad line is the one named.
    The stacks are copied out of the table.
    """
    num_classes, num_views = _integer(num_classes, "num_classes"), _integer(num_views, "num_views")
    dims = tuple(_integers(view_dims, "view_dims").tolist())
    if len(dims) != num_views:
        raise ValueError("view_dims length must equal num_views")
    n_fields = 2 + sum(dims)
    text = read_text(path)
    lines = itertools.chain.from_iterable(_pieces(text))
    header = next(lines, None)
    if header is None:
        raise ValueError(f"{path}: empty file")
    # the field count first: the names of a huge declared shape need not be built
    if header.count(",") != n_fields - 1 or header != _csv_header(dims):
        raise ValueError(f"{path}: line 1: header does not match the declared shape")
    n = sum(len(piece) - piece.count("") for piece in _pieces(text)) - 1
    if not n:
        raise ValueError(f"{path}: no sample rows")
    table, ids, labels, linenos, error = np.empty((n, n_fields - 2)), [], [], [], None
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        fields = line.split(",")
        try:
            if len(fields) != n_fields:
                raise ValueError(f"expected {n_fields} fields, got {len(fields)}")
            label = int(fields[1])
            table[len(ids)] = fields[2:]  # numpy reads each string as float() does, with its message
            if not 0 <= label < num_classes:
                raise ValueError(f"label {label} outside [0, {num_classes})")
        except ValueError as exc:
            error = f"{path}: line {lineno}: {exc}"
            break
        ids.append(fields[0])
        labels.append(label)
        linenos.append(lineno)
    # a non-finite feature above the first bad line comes first
    finite = np.isfinite(table[: len(ids)])
    if not finite.all():
        raise ValueError(f"{path}: line {linenos[np.argmin(finite.all(axis=1))]}: features must be finite")
    if error:
        raise ValueError(error)
    starts = np.cumsum((0, *dims))
    stacks = [np.stack([table[:, starts[v] : starts[v + 1]] for v in group]) for group in view_groups(dims)]
    return MultiViewDataset._of_stacks(stacks, dims, np.array(labels), ids, num_classes)


def _pieces(text: str):
    """text.splitlines() in consecutive lists, from pieces of 16,384 characters or more
    that end just after a newline, so no line or CR LF pair is cut."""
    start = 0
    while start < len(text):
        stop = text.find("\n", start + 16_384) + 1 or len(text)
        yield text[start:stop].splitlines()
        start = stop


def save_grid(grid, path) -> None:
    grid = np.asarray(_numeric(grid, "grid"), dtype=float)
    if grid.ndim != 2:
        raise ValueError("grid must be 2-d")
    with open(path, "w", encoding="utf-8") as fh:
        for row in grid:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def load_grid(path) -> np.ndarray:
    """Whitespace-separated 2-d grid of finite values, one row per line.

    Blank lines are skipped; a bad token, a non-finite value (nan, inf,
    1e999) or a ragged row is a ValueError naming the file and line.
    """
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
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}: line {lineno}: grid values must be finite")
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


def _json_int(literal: str) -> int:
    value = int(literal)
    if abs(value) >= _FLOAT_OVERFLOW:
        raise ValueError(f"integer of {len(literal.lstrip('-'))} digits is too large for a float")
    return value


def parse_json(text: str, source, what: str = "JSON document"):
    """`text` parsed as JSON; any parse failure is a ValueError naming `source`.

    That covers malformed JSON, integers too long to convert, integers no
    float can hold (every reader would cast them to float or fail on them
    later) and nesting deeper than the parser's recursion limit.
    """
    try:
        return json.loads(text, parse_int=_json_int)
    except RecursionError as exc:
        raise ValueError(f"{source}: not a valid {what}: nested too deeply") from exc
    except ValueError as exc:
        raise ValueError(f"{source}: not a valid {what}: {exc}") from exc


def read_json(path, what: str = "JSON document"):
    """A JSON file, every failure but OSError a ValueError naming the file."""
    return parse_json(read_text(path), path, what)
