"""Span tracing from outside the package, for the per-layer split.

Each public function is wrapped under the name its caller looks it up by:
a module attribute of the calling module, or a method on the class.  The
policy runners' ``observer`` argument (the harness's pairing digest) is
wrapped too.  Spans (run id, span id, parent id, name, start, end) are kept
in memory and written when the run ends.  A target that no longer exists
is reported as unmeasured instead of failing the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time

import numpy as np

# (module the caller looks the name up in, attribute path, span name)
TARGETS = (
    ("cbrap.harness", "make_env", "environment.make_env"),
    ("cbrap.environment", "Environment.draw_round", "environment.draw_round"),
    ("cbrap.environment", "Environment.realize_reward", "environment.realize_reward"),
    ("cbrap.environment", "Environment.instant_regret", "environment.instant_regret"),
    ("cbrap.environment", "derive_rng", "rng.derive_rng"),
    ("cbrap.policies", "derive_rng", "rng.derive_rng"),
    ("cbrap.harness", "build_projection", "projection.build_projection"),
    ("cbrap.policies", "build_projection", "projection.build_projection"),
    ("cbrap.harness", "project_rows", "projection.project_rows"),
    ("cbrap.policies", "project_rows", "projection.project_rows"),
    ("cbrap.harness", "sg_distortion_sample", "projection.sg_distortion_sample"),
    ("cbrap.estimator", "RidgeState.update", "estimator.update"),
    ("cbrap.estimator", "RidgeState.estimate", "estimator.estimate"),
    ("cbrap.policies", "cbrap_select", "policies.cbrap_select"),
    ("cbrap.harness", "cbrap_select", "policies.cbrap_select"),
    ("cbrap.harness", "cbrap_run", "policies.loop"),
    ("cbrap.harness", "linucb_run", "policies.loop"),
    ("cbrap.harness", "uniform_run", "policies.loop"),
    ("cbrap.policies", "beta_schedule", "theory.beta_schedule"),
    ("cbrap.harness", "beta_schedule", "theory.beta_schedule"),
    ("cbrap.harness", "confidence_distance", "theory.confidence_distance"),
    ("cbrap.harness", "oracle_theory_params", "harness.oracle_theory_params"),
    ("cbrap.harness", "emit_csv", "harness.emit_csv"),
    ("cbrap.harness", "emit_summary", "harness.emit_summary"),
    ("cbrap", "run_experiment", "harness.self"),
    ("cbrap", "coverage_experiment", "harness.self"),
    ("cbrap", "kaban_experiment", "harness.self"),
)
OBSERVER_SPAN = "harness.pairing_digest"
RUNNER_SPAN = "policies.loop"
SPANS = tuple(dict.fromkeys([name for _, _, name in TARGETS] + [OBSERVER_SPAN]))
STATS = (("calls", "count"), ("self_s", "s"), ("p50_us", "us"), ("p99_us", "us"))


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []  # [run, parent, name, start_ns, end_ns]
        self.run_id = 0
        self.unmeasured: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [self.run_id, stack[-1] if stack else -1, name, 0, 0]
            spans.append(span)
            stack.append(sid)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
        return traced

    def _wrap_runner(self, fn):
        """A policy runner whose ``observer`` argument is traced as well."""
        sig = inspect.signature(fn)
        traced = self.wrap(RUNNER_SPAN, fn)

        @functools.wraps(fn)
        def runner(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            if bound.arguments.get("observer") is not None:
                bound.arguments["observer"] = self.wrap(OBSERVER_SPAN,
                                                        bound.arguments["observer"])
            return traced(*bound.args, **bound.kwargs)
        return runner

    def install(self) -> None:
        for module, path, name in TARGETS:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if f"{module}:{path}" not in self.unmeasured:
                    self.unmeasured.append(f"{module}:{path}")
                continue
            wrapped = self._wrap_runner(original) if name == RUNNER_SPAN \
                else self.wrap(name, original)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("run,span,parent,name,start_ns,end_ns\n")
            for sid, (run, parent, name, start, end) in enumerate(self.spans):
                fh.write(f"{run},{sid},{parent},{name},{start},{end}\n")

    def per_layer(self, wall_s: float) -> dict[str, float]:
        """calls, self time and per-call self-time percentiles of every span
        name, plus the wall time that no span covers."""
        if self.spans:
            parent = np.array([s[1] for s in self.spans])
            dur = np.array([s[4] - s[3] for s in self.spans], dtype=np.float64)
        else:
            parent, dur = np.zeros(0, dtype=int), np.zeros(0)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        names = np.array([s[2] for s in self.spans], dtype=object)
        out: dict[str, float] = {}
        for name in SPANS:
            mine = own[names == name]
            out[f"{name}.calls"] = int(mine.size)
            out[f"{name}.self_s"] = float(mine.sum()) / 1e9
            p50, p99 = np.percentile(mine, [50, 99]) / 1e3 if mine.size else (0.0, 0.0)
            out[f"{name}.p50_us"] = float(p50)
            out[f"{name}.p99_us"] = float(p99)
        out["trace.untraced_s"] = wall_s - float(dur[~nested].sum()) / 1e9
        out["trace.unmeasured"] = len(self.unmeasured)
        return out


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{stat}": unit for name in SPANS for stat, unit in STATS}
    units.update({"trace.untraced_s": "s", "trace.overhead_frac": "1",
                  "trace.unmeasured": "count"})
    return units
