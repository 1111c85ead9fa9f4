"""Outside-in tracer for the twrnoma layers.

The tracer wraps public functions of the package from the benchmark's side:
it looks each function up in its home module, then replaces every reference
to that same object (by identity) in every loaded ``twrnoma`` module
namespace, so ``from .montecarlo import mc_outage_xl`` style imports are
covered too. Besides the functions named in ``REGISTRY``, every other public
function of every loaded package module is wrapped as a call of the layer
named after its module, so code added or moved later is still attributed.
A function that no longer exists is skipped and simply drops out of the
per-function table. Every replaced attribute is restored when the
``installed()`` block ends.

Calls down to the per-estimate and per-integral level are kept as spans
(name, start, end, parent, unit). Leaf calls that run hundreds of thousands
of times per command (density evaluations, integrands, per-chunk sampling and
SINR evaluation, derived constants, closed-form points) are only aggregated
into counts and busy time, which keeps the trace bounded in memory.

Busy time of a layer is the inclusive time of its outermost calls; self time
is the time during which the innermost traced call on the stack belongs to
that layer.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

_SPAN = True
_AGG = False


def _count_draws(tracer, args, kwargs):
    tracer.counters["model.sample.draws"] += int(kwargs["count"] if "count" in kwargs else args[2])
    return args, kwargs


def _count_elements(tracer, args, kwargs):
    sample = kwargs["sample"] if "sample" in kwargs else args[2]
    tracer.counters["sinr.elements"] += int(np.size(sample.g1))
    return args, kwargs


def _count_integrand(tracer, args, kwargs):
    counters = tracer.counters

    def counted(fn):
        @functools.wraps(fn)
        def integrand(z):
            counters["oracle.integrand_evals"] += 1
            return fn(z)

        return integrand

    if "fn" in kwargs:
        kwargs = dict(kwargs, fn=counted(kwargs["fn"]))
    else:
        args = (counted(args[0]),) + tuple(args[1:])
    return args, kwargs


def _count_text_bytes(tracer, result):
    tracer.counters["experiments.csv.bytes"] += len(result)


# (home module, function name, metric key, keep spans, hook on the arguments,
# hook on the result). The layer is the first component of the key. These are
# the functions on the workloads' paths that feed a per-layer metric.
REGISTRY = (
    ("twrnoma.cli", "main", "cli.main", _SPAN, None, None),
    ("twrnoma.experiments", "run_sweep", "experiments.run_sweep", _SPAN, None, None),
    ("twrnoma.experiments", "oracle_agreement", "experiments.oracle_agreement", _SPAN, None, None),
    ("twrnoma.experiments", "oma_outage", "experiments.oma", _AGG, None, None),
    ("twrnoma.experiments", "rows_to_csv", "experiments.csv", _SPAN, None, _count_text_bytes),
    ("twrnoma.montecarlo", "mc_outage_xl", "montecarlo.mc_outage_xl", _SPAN, None, None),
    ("twrnoma.montecarlo", "mc_outage_xt", "montecarlo.mc_outage_xt", _SPAN, None, None),
    ("twrnoma.model", "sample_channel_block", "model.sample", _AGG, _count_draws, None),
    ("twrnoma.model", "build_derived_constants", "model.derived", _AGG, None, None),
    ("twrnoma.sinr", "compute_sinrs", "sinr.compute_sinrs", _AGG, _count_elements, None),
    ("twrnoma.analysis", "outage_xl", "analysis.closed", _AGG, None, None),
    ("twrnoma.analysis", "outage_xt", "analysis.closed", _AGG, None, None),
    ("twrnoma.analysis", "outage_xl_asymptotic", "analysis.asymptotic", _AGG, None, None),
    ("twrnoma.analysis", "outage_xt_asymptotic", "analysis.asymptotic", _AGG, None, None),
    ("twrnoma.analysis", "hypoexp_pdf", "analysis.hypoexp_pdf", _AGG, None, None),
    ("twrnoma.oracle", "quad_outage_xl", "oracle.quad_outage_xl", _SPAN, None, None),
    ("twrnoma.oracle", "quad_outage_xt", "oracle.quad_outage_xt", _SPAN, None, None),
    ("twrnoma.oracle", "integrate_semi_infinite", "oracle.integral", _SPAN, _count_integrand, None),
)


def package_modules() -> list:
    """Every loaded module of the package, the package itself included."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "twrnoma" or name.startswith("twrnoma."))
    ]


def attribute_snapshot() -> dict:
    """(module, attribute) -> object for every loaded package module."""
    return {
        (module.__name__, attr): value
        for module in package_modules()
        for attr, value in list(vars(module).items())
    }


class Tracer:
    """Spans and per-layer aggregates for one traced phase."""

    def __init__(self, registry=REGISTRY):
        self.registry = registry
        self.unit = 0
        self.spans: list[list] = []
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self.layer_busy: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.outer_durations: dict[str, list] = defaultdict(list)
        self._depth: dict[str, int] = defaultdict(int)
        self._frames: list[list] = []
        self._span_stack: list[int] = []
        self._patches: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _targets(self) -> list[tuple]:
        """(original object, key, span, pre, post) for every function found."""
        targets = []
        seen = set()
        for home, name, key, span, pre, post in self.registry:
            module = sys.modules.get(home)
            fn = getattr(module, name, None) if module is not None else None
            if fn is None or not callable(fn) or id(fn) in seen:
                continue
            seen.add(id(fn))
            targets.append((fn, key, span, pre, post))
        # Every other public function of every loaded package module is traced
        # as an aggregated call of the layer named after its module, so modules
        # and functions added or renamed later still get their time attributed.
        for module in package_modules():
            home = module.__name__
            layer = home.rsplit(".", 1)[-1]
            for name, fn in sorted(vars(module).items()):
                if (
                    not name.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == home
                    and id(fn) not in seen
                ):
                    seen.add(id(fn))
                    targets.append((fn, f"{layer}.{name}", _AGG, None, None))
        return targets

    def _wrap(self, fn, key: str, span: bool, pre, post):
        tracer = self
        layer = key.split(".", 1)[0]
        stats = self.stats[key]
        frames = self._frames
        span_stack = self._span_stack
        depth = self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(tracer, args, kwargs)
            outer = depth[layer] == 0
            depth[layer] += 1
            frame = [0.0]
            frames.append(frame)
            if span:
                span_id = len(tracer.spans)
                parent = span_stack[-1] if span_stack else None
                record = [key, 0.0, 0.0, parent, tracer.unit]
                tracer.spans.append(record)
                span_stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(tracer, result)
                return result
            finally:
                end = clock()
                duration = end - start
                frames.pop()
                depth[layer] -= 1
                if frames:
                    frames[-1][0] += duration
                stats[0] += 1
                stats[1] += duration
                tracer.layer_self[layer] += duration - frame[0]
                if outer:
                    tracer.layer_busy[layer] += duration
                    tracer.outer_durations[layer].append(duration)
                if span:
                    span_stack.pop()
                    record[1] = start
                    record[2] = end

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every reference to the traced functions; restore on exit."""
        wrappers = {id(fn): (fn, self._wrap(fn, *rest)) for fn, *rest in self._targets()}
        try:
            for module in package_modules():
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, hit[1])
            yield self
        finally:
            while self._patches:
                module, attr, value = self._patches.pop()
                setattr(module, attr, value)

    # -- results ----------------------------------------------------------

    def self_outside(self, layer: str) -> float:
        """Time during which the innermost traced call is not in ``layer``."""
        return sum(own for name, own in self.layer_self.items() if name != layer)

    def function_table(self) -> dict:
        """Calls and busy time of every traced function that was called."""
        return {
            key: {"calls": calls, "busy_s": busy}
            for key, (calls, busy) in sorted(self.stats.items())
            if calls
        }

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent, "unit": unit}
            for i, (name, start, end, parent, unit) in enumerate(self.spans)
        ]
