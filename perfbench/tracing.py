"""Span tracing of vobs from outside the program.

``install`` replaces each traced function at the place where its caller looks
it up (a module global such as ``vobs.pipeline.run_closed_loop``, or a method
on its class such as ``LstmLayer.forward_seq``) with a wrapper that records a
span: name, start, end and the enclosing span. Spans stay in memory until
``summary`` folds them into calls, busy seconds, self seconds (busy time
minus the time of direct child spans) and counters. Nothing under ``src/``
changes. Tracing is single-threaded: the traced run uses ``workers: 1`` so
every call happens in the tracing process.
"""

from __future__ import annotations

import os
import time

STAGES = ("simulate_corpus", "build_dataset", "train_observer_model", "evaluate_run")
HIDDEN_LAYERS = 4  # the observer stacks have hidden sizes 32, 64, 64, 128


class Tracer:
    """Holds the spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counters: dict[str, dict[str, float]] = {}
        self.cell_index: dict[int, int] = {}  # id(recurrent layer) -> index in its stack
        self._stack: list[int] = []

    def wrap(self, name, fn, measure=None):
        """Wrap ``fn`` so each call records a span. ``name`` is a string or
        a function of the call's arguments; ``measure(args, result)`` returns
        counters to add under that name."""
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            rec = [span_name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            if measure is not None:
                bucket = tracer.counters.setdefault(span_name, {})
                for key, value in measure(args, result).items():
                    bucket[key] = bucket.get(key, 0.0) + value
            return result

        return traced

    def _child_s(self) -> list[float]:
        """Per span, the summed duration of its direct children."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        return child_s

    def summary(self) -> dict:
        """name -> {calls, s, self_s, **counters}."""
        child_s = self._child_s()
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += (end - start) - child_s[i]
        for name, counters in self.counters.items():
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0}).update(counters)
        return out

    def check(self) -> dict:
        """Count spans that end outside their parent or have negative self
        time; both must be 0 for a consistent trace."""
        outside = sum(1 for _, start, end, parent in self.spans if parent >= 0
                      and (start < self.spans[parent][1] or end > self.spans[parent][2]))
        child_s = self._child_s()
        negative = sum(1 for i, (_, start, end, _) in enumerate(self.spans)
                       if (end - start) - child_s[i] < -1e-9)
        return {"spans": len(self.spans), "child_outside_parent": outside,
                "negative_self": negative}


def _file_mb(index):
    return lambda args, result: {"mb": os.path.getsize(args[index]) / 1e6}


def install(tracer: Tracer) -> None:
    """Wrap every traced vobs function at its lookup site."""
    import vobs.baselines as bl
    import vobs.dataset as ds
    import vobs.evaluation as ev
    import vobs.pipeline as pl
    from vobs.neural.adam import Adam
    from vobs.neural.layers import Dense, GruLayer, LstmLayer
    from vobs.neural.network import RecurrentRegressor

    def patch(owner, attr, name, measure=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), measure))

    for stage in STAGES:
        patch(pl, stage, f"pipeline.{stage}")
    patch(pl, "run_maneuver", "simulator.run_maneuver",
          lambda args, traj: {"samples": len(traj)})
    patch(pl, "write_trajectory_csv", "domain.write_trajectory_csv", _file_mb(1))
    patch(pl, "read_trajectory_csv", "domain.read_trajectory_csv", _file_mb(0))
    for fn in ("fit_scaler", "make_windows", "read_cache"):
        patch(ds, fn, f"dataset.{fn}")
    patch(ds, "write_cache", "dataset.write_cache", _file_mb(1))

    original_init = RecurrentRegressor.__init__

    def init(self, kind, cells, *args, **kwargs):
        original_init(self, kind, cells, *args, **kwargs)
        for k, cell in enumerate(cells):
            tracer.cell_index[id(cell)] = k

    RecurrentRegressor.__init__ = init
    for cls, kind in ((LstmLayer, "lstm"), (GruLayer, "gru")):
        for method in ("forward_seq", "backward_seq"):
            patch(cls, method, lambda args, kind=kind, method=method:
                  f"neural.layers.{kind}{tracer.cell_index.get(id(args[0]), 'x')}.{method}")
    patch(Dense, "forward", "neural.layers.dense.forward")
    patch(Dense, "backward", "neural.layers.dense.backward")
    patch(RecurrentRegressor, "loss_and_gradients", "neural.network.loss_and_gradients")
    patch(RecurrentRegressor, "features", "neural.network.features",
          lambda args, feats: {"windows": feats.shape[0]})
    patch(RecurrentRegressor, "head_forward", "neural.network.head_forward",
          lambda args, out: {"rows": out.shape[0]})
    patch(Adam, "step", "neural.adam.step")
    patch(pl, "save_weights", "neural.weights_io.save_weights")
    patch(pl, "load_weights", "neural.weights_io.load_weights")

    patch(pl, "train_observer", "observer_lstm.train_observer")
    patch(bl, "train_observer", "observer_lstm.train_observer")
    patch(pl, "run_closed_loop", "observer_lstm.run_closed_loop")
    patch(pl, "write_trace_csv", "observer_lstm.write_trace_csv", _file_mb(1))
    for fn in ("train_gru", "run_gru", "run_ekf"):
        patch(pl, fn, f"baselines.{fn}")
    patch(bl, "ekf_predict", "baselines.ekf_predict")
    patch(bl, "ekf_update", "baselines.ekf_update")
    patch(ev, "mae", "evaluation.mae")
    patch(ev, "write_report_csv", "evaluation.write_report_csv")


def _layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    m = [(f"pipeline.{s}.s", "s", "lower") for s in STAGES]
    m += [("pipeline.evaluate_run.self_s", "s", "lower"),
          ("simulator.run_maneuver.calls", "count", "lower"),
          ("simulator.run_maneuver.s", "s", "lower"),
          ("simulator.run_maneuver.us_per_sample", "us", "lower")]
    for fn in ("write_trajectory_csv", "read_trajectory_csv"):
        m += [(f"domain.{fn}.s", "s", "lower"), (f"domain.{fn}.mb", "MB", "lower")]
    m += [(f"dataset.{fn}.s", "s", "lower")
          for fn in ("fit_scaler", "make_windows", "write_cache", "read_cache")]
    m += [("dataset.write_cache.mb", "MB", "lower")]
    for kind in ("lstm", "gru"):
        for k in range(HIDDEN_LAYERS):
            for method in ("forward_seq", "backward_seq"):
                m += [(f"neural.layers.{kind}{k}.{method}.s", "s", "lower"),
                      (f"neural.layers.{kind}{k}.{method}.ms_per_call", "ms", "lower")]
    m += [("neural.layers.dense.forward.s", "s", "lower"),
          ("neural.layers.dense.backward.s", "s", "lower"),
          ("neural.layers.dense.forward.calls", "count", "lower"),
          ("neural.network.loss_and_gradients.calls", "count", "lower"),
          ("neural.network.loss_and_gradients.s", "s", "lower"),
          ("neural.network.features.calls", "count", "lower"),
          ("neural.network.features.s", "s", "lower"),
          ("neural.network.features.windows_per_call", "windows", "higher"),
          ("neural.network.head_forward.calls", "count", "lower"),
          ("neural.network.head_forward.s", "s", "lower"),
          ("neural.network.head_forward.rows_per_call", "rows", "higher"),
          ("neural.adam.step.calls", "count", "lower"),
          ("neural.adam.step.s", "s", "lower"),
          ("neural.weights_io.save_weights.s", "s", "lower"),
          ("neural.weights_io.load_weights.s", "s", "lower"),
          ("observer_lstm.train_observer.s", "s", "lower"),
          ("observer_lstm.run_closed_loop.calls", "count", "lower"),
          ("observer_lstm.run_closed_loop.s", "s", "lower"),
          ("observer_lstm.run_closed_loop.self_s", "s", "lower"),
          ("observer_lstm.write_trace_csv.s", "s", "lower"),
          ("observer_lstm.write_trace_csv.mb", "MB", "lower")]
    m += [(f"baselines.{fn}.s", "s", "lower") for fn in ("train_gru", "run_gru", "run_ekf")]
    for fn in ("ekf_predict", "ekf_update"):
        m += [(f"baselines.{fn}.calls", "count", "lower"), (f"baselines.{fn}.s", "s", "lower")]
    m += [("evaluation.mae.s", "s", "lower"),
          ("evaluation.write_report_csv.s", "s", "lower"),
          ("trace.coverage", "ratio", "higher"),
          ("trace.overhead_ratio", "ratio", "lower")]
    return m


LAYER_METRICS = _layer_metric_specs()


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metric values from a span summary, all but
    ``trace.overhead_ratio``, which needs an untraced run. Layers a workload
    does not exercise read 0 calls and 0 s. ``trace.coverage`` is the
    smallest share of a pipeline stage's time that named child spans cover."""
    values: dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        span, _, field = name.rpartition(".")
        entry = summary.get(span, {})
        calls = entry.get("calls", 0)
        if field in ("calls", "s", "self_s"):
            values[name] = float(entry.get(field, 0))
        elif field == "mb":
            values[name] = entry.get("mb", 0.0)
        elif field == "ms_per_call":
            values[name] = 1e3 * entry.get("s", 0.0) / calls if calls else 0.0
        elif field == "us_per_sample":
            n = entry.get("samples", 0)
            values[name] = 1e6 * entry.get("s", 0.0) / n if n else 0.0
        elif field == "windows_per_call":
            values[name] = entry.get("windows", 0) / calls if calls else 0.0
        elif field == "rows_per_call":
            values[name] = entry.get("rows", 0) / calls if calls else 0.0
    shares = [1.0 - summary[f"pipeline.{s}"]["self_s"] / summary[f"pipeline.{s}"]["s"]
              for s in STAGES if summary.get(f"pipeline.{s}", {}).get("s")]
    values["trace.coverage"] = min(shares) if shares else 0.0
    return values
