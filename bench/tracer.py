"""Span recorder that traces evifuse from outside the library.

`install()` rebinds the public functions of each evifuse module, the names
other modules bound to them at import (for example `losses.digamma` or
`model.overall_loss_and_grad`), and the `__post_init__` of the value classes,
so that every call records a span: name, start, end and parent. Spans are kept
in compact arrays in memory and written out once, when the benchmark ends.
`uninstall()` puts every original back.

Helpers private to a module are not wrapped: their time is part of the
self time of the public function that called them. A layer's self time is the
duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

import evifuse
from evifuse import cli, data, dirichlet, losses, metrics, model, opinions, specfun

# (owner, attribute, group). A group collects the self time of its spans; the
# groups become the per-layer metrics in `layer_metrics`.
_FUNCTIONS = [
    (specfun, "ln_gamma", "specfun"),
    (specfun, "digamma", "specfun"),
    (specfun, "trigamma", "specfun"),
    (dirichlet, "kl_dirichlet", "dirichlet.kl"),
    (dirichlet, "strength", "dirichlet.ops"),
    (dirichlet, "expected_probabilities", "dirichlet.ops"),
    (dirichlet, "predict_class", "dirichlet.ops"),
    (dirichlet, "rebase", "dirichlet.ops"),
    (dirichlet.DirichletParams, "__post_init__", "dirichlet.validate"),
    (dirichlet.EvidenceVector, "__post_init__", "dirichlet.validate"),
    (dirichlet.BaseRate, "__post_init__", "dirichlet.validate"),
    (opinions, "combine_multiview", "opinions.combine"),
    (opinions, "cbf_fuse", "opinions.combine"),
    (opinions, "bcf_fuse", "opinions.combine"),
    (opinions, "dirichlet_from_evidence", "opinions.convert"),
    (opinions, "opinion_from_dirichlet", "opinions.convert"),
    (opinions, "dirichlet_from_opinion", "opinions.convert"),
    (opinions, "projected_probability", "opinions.convert"),
    (opinions.Opinion, "__post_init__", "opinions.validate"),
    (losses, "overall_loss_and_grad", "losses.loss_grad"),
    (losses, "overall_grad", "losses.loss_grad"),
    (losses, "overall_loss", "losses.loss"),
    (losses, "annealed_lambda", "losses.loss"),
    (model.EvidenceHead, "forward", "model.head_fwd"),
    (model.EvidenceHead, "forward_cached", "model.head_fwd"),
    (model.EvidenceHead, "backward", "model.head_bwd"),
    (model, "forward", "model.predict"),
    (model, "predict", "model.predict"),
    (model, "fit", "model.fit"),
    # Private, but it is the per-epoch evaluation that the ROADMAP measures.
    (model, "_dataset_eval", "model.epoch_eval"),
    (model, "save_checkpoint", "model.ckpt_save"),
    (model, "load_checkpoint", "model.ckpt_load"),
    (data, "gen_synthetic", "data.gen"),
    (data, "gen_ood", "data.gen"),
    (data, "load_csv", "data.csv_load"),
    (data, "save_csv", "data.csv_save"),
    (data, "resample_class_ratio", "data.resample"),
    (metrics, "metrics_report", "metrics.report"),
    (metrics, "accuracy", "metrics.report"),
    (metrics, "ece", "metrics.report"),
    (metrics, "auc_binary", "metrics.report"),
    (metrics, "ood_detect", "metrics.ood"),
]

# Click command callbacks of the CLI: (command name, group).
_COMMANDS = [("eval", "cli.eval"), ("ood", "cli.ood"), ("adapt-sweep", "cli.adapt_sweep")]

_MODULES = (evifuse, cli, data, dirichlet, losses, metrics, model, opinions, specfun)


class SpanRecorder:
    """Spans in parallel arrays; index i is one span, parent -1 marks a root."""

    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[tuple, float] = {}
        self.current_phase = ""
        self._restore: list[tuple] = []

    def _intern(self, name: str, group: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        return nid

    def count(self, key: str, amount: float) -> None:
        """Add work done (elements, bytes) to `key` in the current phase."""
        slot = (self.current_phase, key)
        self.counters[slot] = self.counters.get(slot, 0.0) + amount

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, group: str):
        """A span around code of the benchmark itself."""
        idx = self._open(self._intern(name, group))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def phase(self, phase: str):
        """Root span `bench.<phase>`; counts made inside go to that phase."""
        if self._stack:
            raise RuntimeError("phases do not nest")
        self.current_phase = phase
        try:
            with self.span(f"bench.{phase}", "bench"):
                yield
        finally:
            self.current_phase = ""

    def wrap(self, fn, name: str, group: str, after=None):
        """`fn` recording one span per call; `after(args, result)` counts work."""
        nid = self._intern(name, group)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- installing and removing the wrappers -------------------------------

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        after = {
            "specfun": self._count_specfun,
            "model.ckpt_save": lambda args, _: self.count("ckpt_bytes", os.path.getsize(args[1])),
            "model.ckpt_load": lambda args, _: self.count("ckpt_bytes", os.path.getsize(args[0])),
            "data.csv_save": lambda args, _: self.count("csv_bytes", os.path.getsize(args[1])),
            "data.csv_load": lambda args, _: self.count("csv_bytes", os.path.getsize(args[0])),
        }
        wrapped = {}
        for owner, attr, group in _FUNCTIONS:
            original = owner.__dict__[attr]
            owner_name = owner.__name__.rsplit(".", 1)[-1]
            wrapper = self.wrap(original, f"{owner_name}.{attr}", group, after.get(group))
            wrapped[id(original)] = wrapper
            self._rebind(owner, attr, wrapper)
        # Names other modules bound at import still point at the originals.
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                wrapper = wrapped.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._rebind(module, attr, wrapper)
        for command, group in _COMMANDS:
            cmd = cli.main.commands[command]
            self._rebind(cmd, "callback", self.wrap(cmd.callback, group, group))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _count_specfun(self, args, _result) -> None:
        # Mirror specfun's size dispatch: Python and 0-d scalars, and arrays of
        # at most `_SMALL` elements, take the scalar kernels.
        x = args[0]
        small = getattr(specfun, "_SMALL", None)
        n = 1 if isinstance(x, (float, int)) else int(np.size(x))
        scalar = small is not None and (isinstance(x, (float, int)) or np.ndim(x) == 0 or n <= small)
        self.count("specfun.scalar_calls" if scalar else "specfun.vector_calls", 1)
        self.count("specfun.elements", n)

    # -- results -------------------------------------------------------------

    def arrays(self):
        """(name ids, parents, starts, ends) as numpy arrays."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), groups=np.array(self.groups),
            name_id=name_id, parent=parent, start=start, end=end,
        )


class _Spans:
    """Span table with per-span phase, for summing by name or group.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly, so the children never overlap.
    """

    def __init__(self, rec: SpanRecorder):
        name_id, parent, start, end = rec.arrays()
        self.dur = end - start
        child = np.zeros_like(self.dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        root = np.arange(parent.size)
        for i in range(parent.size):  # parents always precede their children
            if parent[i] >= 0:
                root[i] = root[parent[i]]
        self.name = np.array(rec.names, dtype=str)[name_id]
        self.group = np.array(rec.groups, dtype=str)[name_id]
        self.phase = np.char.replace(self.name[root], "bench.", "")

    def _mask(self, phases, name=None, group=None):
        mask = np.isin(self.phase, phases)
        if name is not None:
            mask &= self.name == name
        if group is not None:
            mask &= self.group == group
        return mask

    def calls(self, phases, name=None, group=None) -> int:
        return int(self._mask(phases, name, group).sum())

    def self_s(self, phases, group) -> float:
        return float(self.self_time[self._mask(phases, group=group)].sum())

    def total_s(self, phases, name) -> float:
        """Summed duration of `name` spans; none of the wrapped functions recurse."""
        return float(self.dur[self._mask(phases, name=name)].sum())


RUN = ("run",)
BOTH = ("setup", "run")


def layer_metrics(rec: SpanRecorder, overhead_frac: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    Data and checkpoint IO happen mostly in set-up, so their metrics cover
    the traced set-up and the traced repeat; every other metric covers the
    traced repeat only, the work that the end-to-end throughput measures.
    """
    t = _Spans(rec)

    def counter(key, phases=RUN):
        return sum(rec.counters.get((p, key), 0.0) for p in phases)

    elements = counter("specfun.elements")
    specfun_s = t.self_s(RUN, "specfun")
    root_dur = t.total_s(RUN, "bench.run")
    root_self = t.self_s(RUN, "bench")
    head_fwd_calls = t.calls(RUN, name="EvidenceHead.forward") + t.calls(RUN, name="EvidenceHead.forward_cached")
    validate_calls = sum(
        t.calls(RUN, name=f"{cls}.__post_init__") for cls in ("DirichletParams", "EvidenceVector", "BaseRate")
    )
    cli_self = t.self_s(RUN, "cli.main") + sum(
        t.self_s(RUN, g) for g in ("cli.eval", "cli.ood", "cli.adapt_sweep")
    )
    return {
        "specfun.calls": (t.calls(RUN, group="specfun"), "count"),
        "specfun.scalar_calls": (counter("specfun.scalar_calls"), "count"),
        "specfun.vector_calls": (counter("specfun.vector_calls"), "count"),
        "specfun.elements": (elements, "count"),
        "specfun.s": (specfun_s, "s"),
        "specfun.ns_per_element": (specfun_s * 1e9 / elements if elements else 0.0, "ns"),
        "dirichlet.kl_calls": (t.calls(RUN, group="dirichlet.kl"), "count"),
        "dirichlet.kl_s": (t.self_s(RUN, "dirichlet.kl"), "s"),
        "dirichlet.validate_calls": (validate_calls, "count"),
        "dirichlet.validate_s": (t.self_s(RUN, "dirichlet.validate"), "s"),
        "dirichlet.ops_s": (t.self_s(RUN, "dirichlet.ops"), "s"),
        "opinions.combine_calls": (t.calls(RUN, name="opinions.combine_multiview"), "count"),
        "opinions.combine_s": (t.self_s(RUN, "opinions.combine"), "s"),
        "opinions.convert_s": (t.self_s(RUN, "opinions.convert"), "s"),
        "opinions.validate_calls": (t.calls(RUN, group="opinions.validate"), "count"),
        "opinions.validate_s": (t.self_s(RUN, "opinions.validate"), "s"),
        "losses.loss_grad_calls": (t.calls(RUN, name="losses.overall_loss_and_grad"), "count"),
        "losses.loss_grad_s": (t.self_s(RUN, "losses.loss_grad"), "s"),
        "losses.loss_grad_total_s": (t.total_s(RUN, "losses.overall_loss_and_grad"), "s"),
        "losses.loss_calls": (t.calls(RUN, name="losses.overall_loss"), "count"),
        "losses.loss_s": (t.self_s(RUN, "losses.loss"), "s"),
        "model.head_fwd_calls": (head_fwd_calls, "count"),
        "model.head_fwd_s": (t.self_s(RUN, "model.head_fwd"), "s"),
        "model.head_bwd_s": (t.self_s(RUN, "model.head_bwd"), "s"),
        "model.predict_calls": (t.calls(RUN, name="model.predict"), "count"),
        "model.predict_s": (t.self_s(RUN, "model.predict"), "s"),
        "model.predict_total_s": (t.total_s(RUN, "model.predict"), "s"),
        "model.fit_self_s": (t.self_s(RUN, "model.fit"), "s"),
        "model.fit_total_s": (t.total_s(RUN, "model.fit"), "s"),
        "model.epoch_eval_s": (t.self_s(RUN, "model.epoch_eval"), "s"),
        "model.epoch_eval_total_s": (t.total_s(RUN, "model._dataset_eval"), "s"),
        "model.ckpt_save_s": (t.self_s(BOTH, "model.ckpt_save"), "s"),
        "model.ckpt_load_s": (t.self_s(BOTH, "model.ckpt_load"), "s"),
        "model.ckpt_bytes": (counter("ckpt_bytes", BOTH), "B"),
        "data.gen_s": (t.self_s(BOTH, "data.gen"), "s"),
        "data.csv_load_s": (t.self_s(BOTH, "data.csv_load"), "s"),
        "data.csv_save_s": (t.self_s(BOTH, "data.csv_save"), "s"),
        "data.csv_bytes": (counter("csv_bytes", BOTH), "B"),
        "data.resample_s": (t.self_s(BOTH, "data.resample"), "s"),
        "metrics.report_s": (t.self_s(RUN, "metrics.report"), "s"),
        "metrics.ood_s": (t.self_s(RUN, "metrics.ood"), "s"),
        "cli.eval_s": (t.total_s(RUN, "cli.eval"), "s"),
        "cli.ood_s": (t.total_s(RUN, "cli.ood"), "s"),
        "cli.adapt_sweep_s": (t.total_s(RUN, "cli.adapt_sweep"), "s"),
        "cli.self_s": (cli_self, "s"),
        "cli.stdout_bytes": (counter("cli.stdout_bytes"), "B"),
        "trace.overhead_frac": (overhead_frac, "frac"),
        "trace.coverage_frac": (1.0 - root_self / root_dur if root_dur else 0.0, "frac"),
        "trace.spans": (len(t.dur), "count"),
    }
