"""Spans and counters recorded from outside the library.

``Tracer.installed()`` replaces the public functions of each dpsketch
module with wrappers that record a span per call (name, start, end,
parent span, release id) and restores the originals on exit, so untraced
releases run the library exactly as shipped. Spans are kept in memory and
written out once, when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict

# Span name -> per-layer metric that takes its self time. Spans not listed
# here still count towards the accounting of the release.
SELF_TIME_METRIC = {
    "cli.parse": "cli.parse_s",
    "cli.load": "cli.parse_s",
    "cli.shape_probe": "cli.shape_probe_s",
    "release": "cli.other_self_s",
    "sketch.construct": "sketch.construct_s",
    "sketch.tile": "sketch.tile_s",
    "lra.ingest": "lra.ingest_s",
    "lra.finalize": "lra.finalize_self_s",
    "matprod.ingest": "matprod.ingest_self_s",
    "matprod.query": "matprod.query_s",
    "regress.ingest": "regress.ingest_self_s",
    "regress.query": "regress.query_self_s",
    "numerics.svd": "numerics.svd_s",
    "numerics.minres": "numerics.minres_s",
    "guard": "guard.s",
}
CALL_COUNT_METRIC = {
    "lra.ingest": "lra.ingest_calls",
    "matprod.ingest": "matprod.ingest_calls",
    "regress.ingest": "regress.ingest_calls",
    "regress.query": "regress.query_calls",
    "sketch.tile": "sketch.tile_calls",
    "numerics.svd": "numerics.svd_calls",
}
COUNTERS = ("cli.rows_parsed", "sketch.normals_generated", "sketch.max_tile_entries",
            "numerics.minres_rhs")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Each span is [name id, start ns, end ns, parent index, release id].
        self.spans: list[list[int]] = []
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self.release_id = -1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, counter: str, value: int) -> None:
        self.counters[self.release_id][counter] += value

    def peak(self, counter: str, value: int) -> None:
        cur = self.counters[self.release_id]
        cur[counter] = max(cur[counter], value)

    def wrap(self, name: str, fn, after=None):
        """A wrapper of ``fn`` that records a span; ``after`` updates counters."""
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name_id, 0, 0, stack[-1] if stack else -1, self.release_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if after is not None:
                    after(self, args, kwargs)

        return traced

    def wrap_generator(self, name: str, fn, counter: str):
        """Like ``wrap`` for a generator: one span per item it produces."""
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = [name_id, 0, 0, stack[-1] if stack else -1, self.release_id]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec[2] = clock()
                    stack.pop()
                self.count(counter, 1)
                yield item

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the library's public functions for the duration of the block."""
        patches = _patch_table(self)
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def release_summary(self, release_id: int) -> dict:
        """Per-layer metrics of one traced release, from its spans."""
        idx = [i for i, s in enumerate(self.spans) if s[4] == release_id]
        child_ns = defaultdict(int)
        for i in idx:
            s = self.spans[i]
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        root_s = 0.0
        for i in idx:
            s = self.spans[i]
            name = self.names[s[0]]
            dur = s[2] - s[1]
            self_s[name] += (dur - child_ns[i]) * 1e-9
            calls[name] += 1
            if s[3] < 0:
                root_s += dur * 1e-9
        out = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
        for name, secs in self_s.items():
            metric = SELF_TIME_METRIC.get(name)
            if metric is not None:
                out[metric] += secs
        for name, metric in CALL_COUNT_METRIC.items():
            out[metric] = calls.get(name, 0)
        counters = self.counters.get(release_id, {})
        for name in COUNTERS:
            out[name] = counters.get(name, 0)
        out["cli.parse_rows_per_s"] = _rate(out["cli.rows_parsed"], out["cli.parse_s"])
        out["sketch.normals_per_s"] = _rate(out["sketch.normals_generated"], out["sketch.tile_s"])
        out["trace.release_s"] = root_s
        out["trace.attributed_share"] = (root_s - self_s["release"]) / root_s
        out["self_s_by_span"] = dict(self_s)
        return out

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump(dict(extra, names=self.names, spans=self.spans,
                           counters={str(k): v for k, v in self.counters.items()}), fh)


def _rate(count: float, secs: float) -> float:
    return count / secs if secs > 0 else 0.0


def median_summary(summaries: list[dict]) -> dict:
    """Median of each metric over traced releases, and of each span's self time."""
    keys = [k for k in summaries[0] if k != "self_s_by_span"]
    out = {k: statistics.median(s[k] for s in summaries) for k in keys}
    names = {n for s in summaries for n in s["self_s_by_span"]}
    out["self_s_by_span"] = {
        n: statistics.median(s["self_s_by_span"].get(n, 0.0) for s in summaries) for n in names
    }
    return out


def _patch_table(tr: Tracer) -> list:
    """(owner, attribute, wrapper) for every function the benchmark traces."""
    from dpsketch import cli, guard, lra, matprod, numerics, regress, sketch

    def tile(t, args, kwargs):
        call = dict(zip(("sk", "j0", "j1"), args), **kwargs)
        entries = call["sk"].r * (call["j1"] - call["j0"])
        if not call["sk"].store_omega:
            t.count("sketch.normals_generated", entries)
        t.peak("sketch.max_tile_entries", entries)

    def minres(t, args, kwargs):
        rhs = args[1] if len(args) > 1 else kwargs["rhs"]
        shape = getattr(rhs, "shape", None) or (len(rhs),)
        t.count("numerics.minres_rhs", shape[0] if len(shape) > 1 else 1)

    table = []

    def fn(owner, attr, name, after=None):
        # A function the library no longer has is skipped: its layer then
        # reads 0 instead of breaking the release.
        if attr in owner.__dict__:
            table.append((owner, attr, tr.wrap(name, owner.__dict__[attr], after)))

    if "iter_matrix_rows" in cli.__dict__:
        table.append((cli, "iter_matrix_rows",
                      tr.wrap_generator("cli.parse", cli.iter_matrix_rows, "cli.rows_parsed")))
    fn(cli, "matrix_shape", "cli.shape_probe")
    fn(cli, "load_matrix", "cli.load")
    fn(cli, "save_matrix", "cli.write")
    fn(sketch.GaussianSketcher, "__init__", "sketch.construct")
    fn(sketch.GaussianSketcher, "column_block", "sketch.tile", tile)
    for owner in (lra, cli):
        fn(owner, "new_lra", "lra.setup")
        fn(owner, "reconstruct", "lra.reconstruct")
    fn(lra.LraState, "ingest_row", "lra.ingest")
    fn(lra.LraState, "finalize", "lra.finalize")
    for owner in (matprod, cli):
        fn(owner, "new_matprod", "matprod.setup")
        fn(owner, "lifted_matrix", "matprod.lifted_matrix")
    for attr in ("ingest_a_row", "ingest_b_row", "ingest_a_column", "ingest_b_column"):
        fn(matprod.MatProdState, attr, "matprod.ingest")
    fn(matprod.MatProdState, "product_query", "matprod.query")
    for owner in (regress, cli):
        fn(owner, "new_regress", "regress.setup")
    for attr in ("ingest_row", "ingest_column"):
        fn(regress.RegressState, attr, "regress.ingest")
    fn(regress.RegressState, "query", "regress.query")
    fn(numerics, "svd", "numerics.svd")
    fn(numerics, "orthonormal_range", "numerics.range")
    fn(numerics, "minres_solve", "numerics.minres", minres)
    for attr in ("sigma_min_psg1", "sigma_min_psg2", "lra_lift_w", "lift_scale_s",
                 "matmult_sketch_dim", "linreg_sketch_dim", "compose",
                 "verify_spectral_guard"):
        fn(guard, attr, "guard")
    return table
