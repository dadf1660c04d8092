"""Span recording around qrecsim's public functions, from outside the package.

A span is (name, start, end, parent, value, failed). ``value`` carries a count
read at the boundary (node touches, retry attempts, blob bytes, group count);
``failed`` marks a call that raised. Spans live in flat arrays until the run
ends; ``SpanTable`` then derives per-layer metrics from them.

Functions are wrapped where their callers look them up: ``svd`` is imported
by name into experiment, recsys, qproject and qsim, so every module attribute
bound to the original function object is replaced, not just the defining one.
Methods are replaced on their class, which every caller goes through.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from contextlib import contextmanager

import numpy as np


NO_PARENT = -1

# (module, owner class or None, attribute, value read from the result).
# The owner/attribute pair is also the span name, prefixed by the module.
TARGETS = [
    ("store", "MatrixStore", "from_dense", lambda store: store.node_touches),
    ("store", "MatrixStore", "to_dense", None),
    ("store", "MatrixStore", "insert", lambda touches: touches),
    ("store", "MatrixStore", "sample_entry", None),
    ("store", "MatrixStore", "serialize", len),
    ("store", "MatrixStore", "deserialize", None),
    ("linalg", None, "svd", None),
    ("subsample", None, "subsample", None),
    ("subsample", None, "derive_params", None),
    ("recsys", None, "generate_T", None),
    ("recsys", "RecommendContext", "__init__", None),
    ("recsys", "RecommendContext", "user_state", None),
    ("recsys", "RecommendContext", "recommend", lambda out: out.iterations),
    ("qproject", None, "estimated_spectrum", None),
    ("qproject", None, "kept_mask", None),
    ("qproject", None, "exact_kept_components", None),
    ("qproject", None, "threshold_project", lambda out: out.iterations),
    ("qsim", "WalkOperator", "from_store", None),
    ("qsim", "WalkOperator", "phase_groups", len),
    ("qsim", None, "sve_circuit", None),
    ("experiment", None, "run_experiment", None),
]

# ``from_dense`` inserts every nonzero cell through ``insert``; a span per
# cell would dominate the build it measures, so inserts under it pass through.
PASS_THROUGH_UNDER = {"store.MatrixStore.insert": "store.MatrixStore.from_dense"}


def span_name(module: str, owner: str | None, attr: str) -> str:
    if owner is None:
        return f"{module}.{attr}"
    return f"{module}.{owner}.{attr}"


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.value = array("d")
        self.failed = array("b")
        self._stack = [NO_PARENT]
        self.active = False
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.value.append(math.nan)
        self.failed.append(0)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, value: float = math.nan, failed: bool = False) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self.value[idx] = value
        self.failed[idx] = failed

    @contextmanager
    def span(self, name: str, value: float = math.nan):
        """A span opened by the benchmark itself (phase iterations and steps)."""
        if not self.active:
            yield
            return
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx, value)

    @contextmanager
    def paused(self):
        """Run output checks without recording their calls."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def top_name(self) -> int:
        top = self._stack[-1]
        return NO_PARENT if top == NO_PARENT else self.name[top]

    # -- installing wrappers ---------------------------------------------

    def install(self, program) -> None:
        """Wrap every target in the modules of ``program`` (see run.import_program)."""
        modules = [getattr(program, mod) for mod in program.module_names]
        for module, owner, attr, value_of in TARGETS:
            name = span_name(module, owner, attr)
            home = getattr(program, module)
            if owner is None:
                original = getattr(home, attr)
                wrapped = self._wrap(name, original, value_of)
                for mod in modules:
                    if mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, wrapped)
                continue
            cls = getattr(home, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__, value_of)))
            else:
                self._patch(cls, attr, self._wrap(name, raw, value_of))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, name: str, fn, value_of):
        name_id = self.name_id(name)
        skip_under = PASS_THROUGH_UNDER.get(name)
        skip_id = self.name_id(skip_under) if skip_under else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or (skip_id is not None and self.top_name() == skip_id):
                return fn(*args, **kwargs)
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # ProjectionEmptyError carries the attempts it used up.
                self.close(idx, float(getattr(exc, "iterations", math.nan)), failed=True)
                raise
            self.close(idx, math.nan if value_of is None else float(value_of(result)))
            return result

        return traced

    # -- output -----------------------------------------------------------

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            value=np.frombuffer(self.value, dtype=np.float64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )


class SpanTable:
    """Recorded spans as arrays, with self times and phase iterations.

    A benchmark span named ``bench.<phase>`` is one iteration of a phase; the
    ``bench.<phase>.<step>`` spans inside it mark its steps. Every recorded
    span is attributed to its outermost ancestor (``root``) and its nearest
    benchmark ancestor (``step``).
    """

    def __init__(self, tracer: Tracer):
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        self.dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(
            tracer.start, dtype=np.float64
        )
        self.value = np.frombuffer(tracer.value, dtype=np.float64).copy()
        self.failed = np.frombuffer(tracer.failed, dtype=np.int8).astype(bool)
        nested = parent >= 0
        child = np.zeros_like(self.dur)
        np.add.at(child, parent[nested], self.dur[nested])
        self.self_time = self.dur - child
        bench = {i for name, i in self._ids.items() if name.startswith("bench.")}
        # Parents precede children, so one forward pass resolves ancestors.
        root = [0] * len(self.name)
        step = [NO_PARENT] * len(self.name)
        for i, (p, n) in enumerate(zip(parent.tolist(), self.name.tolist())):
            root[i] = i if p < 0 else root[p]
            step[i] = i if n in bench else (NO_PARENT if p < 0 else step[p])
        self.root = np.array(root, dtype=np.int64)
        step_arr = np.array(step, dtype=np.int64)
        self.step_name = np.where(step_arr >= 0, self.name[np.maximum(step_arr, 0)], NO_PARENT)

    def _id(self, name: str) -> int:
        return self._ids.get(name, -2)

    def _select(self, phase: str, name: str, step: str | None):
        roots = np.flatnonzero(self.name == self._id(f"bench.{phase}"))
        pos = np.full(len(self.name), -1)
        pos[roots] = np.arange(roots.size)
        it = pos[self.root]
        mask = (self.name == self._id(name)) & (it >= 0)
        if step is not None:
            mask &= self.step_name == self._id(f"bench.{phase}.{step}")
        return it, mask, roots.size

    def per_iteration(self, phase, name, values, step=None, mean=False) -> np.ndarray:
        """Sum (or mean) of ``values`` over matching spans, one per iteration."""
        it, mask, count = self._select(phase, name, step)
        sums = np.bincount(it[mask], weights=values[mask], minlength=count)
        if not mean:
            return sums
        return sums / np.maximum(np.bincount(it[mask], minlength=count), 1)

    def first(self, phase, name) -> np.ndarray:
        """Mask of matching spans in the phase's first iteration."""
        it, mask, _ = self._select(phase, name, None)
        return mask & (it == 0)


def layer_metrics(table: SpanTable, records: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: wall-time medians over iterations, counts from iteration 0."""
    out: dict[str, tuple[float, str]] = {}

    def median_of(metric, unit, scale, phase, name, step=None, mean=False, self_time=False):
        values = table.self_time if self_time else table.dur
        per_it = table.per_iteration(phase, name, values, step, mean)
        out[metric] = (scale * float(np.median(per_it)), unit)

    def first_value(phase, name, reduce=np.nansum):
        return float(reduce(table.value[table.first(phase, name)]))

    def first_count(phase, name, ok_only=False):
        mask = table.first(phase, name)
        return int(np.sum(mask & ~table.failed) if ok_only else np.sum(mask))

    from_dense = "store.MatrixStore.from_dense"
    serialize = "store.MatrixStore.serialize"
    recommend = "recsys.RecommendContext.recommend"
    project = "qproject.threshold_project"

    median_of("store.from_dense_s", "s", 1.0, "experiment", from_dense)
    median_of("store.to_dense_s", "s", 1.0, "experiment", "store.MatrixStore.to_dense")
    out["store.node_touches"] = (first_value("experiment", from_dense), "count")
    median_of("store.insert_us", "us", 1e6, "stream", "store.MatrixStore.insert", mean=True)
    median_of("store.sample_entry_us", "us", 1e6, "stream", "store.MatrixStore.sample_entry", mean=True)
    median_of("store.serialize_ms", "ms", 1e3, "stream", serialize, mean=True)
    median_of("store.deserialize_ms", "ms", 1e3, "stream", "store.MatrixStore.deserialize", mean=True)
    out["store.blob_bytes"] = (first_value("stream", serialize, np.nanmax), "bytes")

    median_of("linalg.svd_s", "s", 1.0, "experiment", "linalg.svd")
    out["linalg.svd_calls"] = (first_count("experiment", "linalg.svd"), "count")
    median_of("subsample.subsample_s", "s", 1.0, "experiment", "subsample.subsample")

    median_of("recsys.generate_T_s", "s", 1.0, "experiment", "recsys.generate_T")
    median_of("recsys.context_ms", "ms", 1e3, "stream", "recsys.RecommendContext.__init__", mean=True)
    median_of(
        "recsys.user_state_ms", "ms", 1e3, "stream", "recsys.RecommendContext.user_state",
        step="cold", mean=True, self_time=True,
    )
    median_of("recsys.recommend_us", "us", 1e6, "stream", recommend, step="warm", mean=True)
    attempts = first_value("stream", recommend)
    out["recsys.attempts"] = (attempts, "count")
    out["recsys.accept_ratio"] = (first_count("stream", recommend, ok_only=True) / attempts, "ratio")
    failures = sum(
        first_count(phase, recommend) - first_count(phase, recommend, ok_only=True)
        for phase in ("experiment", "stream")
    )
    out["recsys.failures"] = (failures, "count")

    spectrum = "qproject.estimated_spectrum"
    out["qproject.estimated_spectrum_calls"] = (first_count("stream", spectrum), "count")
    median_of("qproject.estimated_spectrum_ms", "ms", 1e3, "stream", spectrum, mean=True)
    median_of("qproject.kept_mask_ms", "ms", 1e3, "experiment", "qproject.kept_mask")
    median_of("qproject.circuit_project_ms", "ms", 1e3, "circuit", project)
    circuit_attempts = first_value("circuit", project)
    out["qproject.circuit_attempts"] = (circuit_attempts, "count")
    out["qproject.circuit_accept_ratio"] = (
        first_count("circuit", project, ok_only=True) / circuit_attempts,
        "ratio",
    )
    out["qproject.sandwich_misses"] = (records["circuit"][0]["sandwich_misses"], "count")

    median_of("qsim.walk_build_ms", "ms", 1e3, "circuit", "qsim.WalkOperator.from_store")
    median_of("qsim.phase_groups_ms", "ms", 1e3, "circuit", "qsim.WalkOperator.phase_groups")
    median_of("qsim.sve_circuit_ms", "ms", 1e3, "circuit", "qsim.sve_circuit")
    out["qsim.phase_group_count"] = (records["circuit"][0]["phase_groups"], "count")
    # Not measured: the dense mn x mn float64 walk that phase_groups factors.
    out["qsim.walk_bytes"] = (8 * records["circuit"][0]["walk_dim"] ** 2, "bytes_computed")

    median_of("experiment.self_s", "s", 1.0, "experiment", "experiment.run_experiment", self_time=True)
    return out
