"""Spans around fockbench's public functions, and the per-layer metrics.

The tracer wraps every public function of the fockbench modules from outside:
no file of the package changes.  The modules import each other's functions
by name (``generation.apply_exponential`` is ``fock.apply_exponential``), and
``states`` dispatches through a dict of constructors, so every module
attribute and module-level dict entry bound to a wrapped function is patched.

Spans (name, start, end, parent, op index, attributes) are kept in memory
and written out when the run ends.  A span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time

MODULES = ("fock", "distributions", "states", "algebra", "generation", "measure", "cli")

# Evaluated once per basis state inside the state constructors and sums; a
# span each would cost more than the work.  Their time counts as self time of
# the caller.
UNWRAPPED = frozenset({
    "distributions.poisson_log_pmf", "distributions.poisson_pmf",
    "distributions.binomial_log_pmf", "distributions.binomial_pmf",
    "distributions.neg_binomial_log_pmf", "distributions.neg_binomial_pmf",
    "distributions.multinomial_log_pmf", "distributions.multinomial_pmf",
    "distributions.neg_multinomial_log_pmf", "distributions.neg_multinomial_pmf",
    "distributions.multiple_poisson_log_pmf", "distributions.multiple_poisson_pmf",
})

_REALIZATIONS = ("su11_bilinear", "su11_hp", "su2_bilinear", "su2_hp", "su_r1_bilinear",
                 "su_r1_hp", "su_rp1_bilinear", "su_rp1_hp")
_CONSTRUCTORS = ("build_state", "coherent_state", "binomial_state", "neg_binomial_state",
                 "multinomial_state", "neg_multinomial_state")

# layer -> the wrapped functions whose self time it sums
LAYERS = {
    "fock.apply_exponential": ("fock.apply_exponential",),
    "fock.op_exponential": ("fock.op_exponential",),
    "fock.enumerate_basis": ("fock.enumerate_basis",),
    "fock.state_to_json_dict": ("fock.state_to_json_dict",),
    "algebra.realize": tuple(f"algebra.{n}" for n in _REALIZATIONS),
    "algebra.verify_algebra": ("algebra.verify_algebra",),
    "algebra.intertwining_check": ("algebra.intertwining_check",),
    "generation.sequential": ("generation.sequential_nms", "generation.sequential_ms"),
    "generation.routes": tuple(f"generation.{n}" for n in (
        "path_equivalence", "displacement_state", "disentangling_identity_check",
        "disentangled_product", "exp_form_state", "displacement_leakage",
        "displacement_zeta")),
    "generation.dynamical": tuple(f"generation.{n}" for n in (
        "dynamical_binomial", "dynamical_binomial_target", "dynamical_coherent",
        "coherent_amplitude")),
    "generation.contraction_check": ("generation.contraction_check",),
    "measure.resolution_check": ("measure.resolution_check",),
    "measure.slicing_check": ("measure.slicing_check",),
    "distributions.cutoff": ("distributions.neg_binomial_cutoff", "distributions.poisson_cutoff"),
    "distributions.waiting_time_simulate": ("distributions.waiting_time_simulate",),
    "distributions.poisson_limit_distance": ("distributions.poisson_limit_distance",),
    "states.build_state": tuple(f"states.{n}" for n in _CONSTRUCTORS),
    "states.auto_basis": ("states.auto_basis",),
    "cli": ("cli.main",),
}

# name -> (unit, better), in the order the benchmark reports them
METRICS = {
    "fock.apply_exponential.self_s": ("s", "lower"),
    "fock.apply_exponential.calls": ("count", "lower"),
    "fock.apply_exponential.d_exponent": ("log-log", "lower"),
    "fock.operator_bytes.max": ("bytes-computed", "lower"),
    "fock.op_exponential.self_s": ("s", "lower"),
    "fock.op_exponential.calls": ("count", "lower"),
    "fock.op_exponential.d_exponent": ("log-log", "lower"),
    "fock.enumerate_basis.self_s": ("s", "lower"),
    "fock.enumerate_basis.states": ("count", "lower"),
    "fock.state_to_json_dict.self_s": ("s", "lower"),
    "algebra.realize.self_s": ("s", "lower"),
    "algebra.realize.calls": ("count", "lower"),
    "algebra.verify_algebra.self_s": ("s", "lower"),
    "algebra.verify_algebra.d_exponent": ("log-log", "lower"),
    "algebra.intertwining_check.self_s": ("s", "lower"),
    "algebra.interior_fraction": ("fraction", "higher"),
    "generation.sequential.self_s": ("s", "lower"),
    "generation.routes.self_s": ("s", "lower"),
    "generation.dynamical.self_s": ("s", "lower"),
    "generation.contraction_check.self_s": ("s", "lower"),
    "measure.resolution_check.self_s": ("s", "lower"),
    "measure.quadrature_points": ("points-computed", "lower"),
    "measure.slicing_check.self_s": ("s", "lower"),
    "distributions.cutoff.self_s": ("s", "lower"),
    "distributions.cutoff.calls": ("count", "lower"),
    "distributions.waiting_time_simulate.self_s": ("s", "lower"),
    "distributions.samples_per_s": ("1/s", "higher"),
    "distributions.poisson_limit_distance.self_s": ("s", "lower"),
    "states.build_state.self_s": ("s", "lower"),
    "states.auto_basis.self_s": ("s", "lower"),
    "states.amplitudes_per_s": ("1/s", "higher"),
    "states.refused": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs", "error")

    def __init__(self, id, name, start, end=None, parent=None, op=None, attrs=None, error=None):
        self.id, self.name, self.start, self.end = id, name, start, end
        self.parent, self.op, self.error = parent, op, error
        self.attrs = {} if attrs is None else attrs

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _array_bytes(value):
    """Bytes of a dense array, or of a scipy sparse matrix's three arrays."""
    if hasattr(value, "indptr"):
        return value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
    return value.nbytes


def _operator_size(attrs, args, kwargs, result):
    operator = _arg(args, kwargs, 0, "a")
    attrs["d"] = len(operator.basis)
    attrs["bytes"] = _array_bytes(operator.matrix)


def _verify_algebra(attrs, args, kwargs, result):
    d = len(_arg(args, kwargs, 0, "realization").basis)
    attrs["d"] = d
    if result is not None:
        attrs["interior"] = sum(rep["interior_count"] for rep in result)
        attrs["slots"] = len(result) * d


def _basis_states(attrs, args, kwargs, result):
    if result is not None:
        attrs["states"] = len(result)


def _quadrature_points(attrs, args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    attrs["points"] = spec.nodes_radial ** spec.r * spec.nodes_angular ** spec.r


def _trials(attrs, args, kwargs, result):
    attrs["trials"] = int(_arg(args, kwargs, 1, "trials"))


def _amplitudes(attrs, args, kwargs, result):
    if result is not None:
        attrs["amplitudes"] = len(result.amplitudes)


ANNOTATORS = {
    "fock.apply_exponential": _operator_size,
    "fock.op_exponential": _operator_size,
    "algebra.verify_algebra": _verify_algebra,
    "fock.enumerate_basis": _basis_states,
    "measure.resolution_check": _quadrature_points,
    "distributions.waiting_time_simulate": _trials,
    "states.build_state": _amplitudes,
}


class Tracer:
    """Records spans while ``active``; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.op = None
        self._stack = []
        self._patches = []

    def wrap(self, name, fn):
        annotate = ANNOTATORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(len(self.spans), name, 0.0,
                        parent=self._stack[-1] if self._stack else None, op=self.op)
            self.spans.append(span)
            self._stack.append(span.id)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if annotate is not None:
                    try:
                        annotate(span.attrs, args, kwargs, result)
                    except (AttributeError, KeyError, TypeError, IndexError) as exc:
                        # an API change must not change what the traced call returns
                        span.attrs["annotate_error"] = f"{type(exc).__name__}: {exc}"

        return traced

    def install(self, package):
        """Wrap the public functions of ``package``'s modules and patch every binding."""
        modules = [importlib.import_module(f"{package.__name__}.{name}") for name in MODULES]
        wrapped = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name not in UNWRAPPED:
                    wrapped[value] = self.wrap(name, value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patches.append((module.__dict__, attr, value))
                    setattr(module, attr, wrapped[value])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if inspect.isfunction(entry) and entry in wrapped:
                            self._patches.append((value, key, entry))
                            value[key] = wrapped[entry]

    def uninstall(self):
        for table, key, original in reversed(self._patches):
            table[key] = original
        self._patches.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def self_times(spans):
    """Self time of each span: its duration minus the union of its children."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def loglog_slope(points):
    """Least-squares slope of log(seconds) against log(d); 0.0 with < 2 sizes."""
    points = [(d, s) for d, s in points if d > 0 and s > 0]
    if len({d for d, _ in points}) < 2:
        return 0.0
    xs = [math.log(d) for d, _ in points]
    ys = [math.log(s) for _, s in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def layer_metrics(spans, bytes_written, overhead_frac):
    """Every per-layer metric in METRICS, from one traced run's spans."""
    own = self_times(spans)
    layer_of = {fn: layer for layer, fns in LAYERS.items() for fn in fns}
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    by_name = {}
    for span, seconds in zip(spans, own):
        layer = layer_of.get(span.name)
        if layer is not None:
            self_s[layer] += seconds
            calls[layer] += 1
        by_name.setdefault(span.name, []).append(span)

    def spans_of(name):
        return by_name.get(name, [])

    def duration(span):
        return span.end - span.start

    def slope(name):
        return loglog_slope([(s.attrs.get("d", 0), duration(s)) for s in spans_of(name)])

    def rate(name, key):
        total = sum(duration(s) for s in spans_of(name))
        return sum(s.attrs.get(key, 0) for s in spans_of(name)) / total if total > 0 else 0.0

    exps = spans_of("fock.apply_exponential") + spans_of("fock.op_exponential")
    algebra_spans = [s for s in spans_of("algebra.verify_algebra") if "slots" in s.attrs]
    slots = sum(s.attrs["slots"] for s in algebra_spans)
    values = {
        "fock.operator_bytes.max": max((s.attrs.get("bytes", 0) for s in exps), default=0),
        "fock.apply_exponential.d_exponent": slope("fock.apply_exponential"),
        "fock.op_exponential.d_exponent": slope("fock.op_exponential"),
        "algebra.verify_algebra.d_exponent": slope("algebra.verify_algebra"),
        "fock.enumerate_basis.states": sum(s.attrs.get("states", 0)
                                           for s in spans_of("fock.enumerate_basis")),
        "algebra.interior_fraction": (sum(s.attrs["interior"] for s in algebra_spans) / slots
                                      if slots else 0.0),
        "measure.quadrature_points": sum(s.attrs.get("points", 0)
                                         for s in spans_of("measure.resolution_check")),
        "distributions.samples_per_s": rate("distributions.waiting_time_simulate", "trials"),
        "states.amplitudes_per_s": rate("states.build_state", "amplitudes"),
        "states.refused": sum(1 for s in spans_of("states.build_state")
                              if s.error == "ValueError"),
        "cli.bytes_written": bytes_written,
        "trace.overhead_frac": overhead_frac,
    }
    for name in METRICS:
        if name in values:
            continue
        layer, _, field = name.rpartition(".")
        values[name] = self_s[layer] if field == "self_s" else calls[layer]
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in METRICS.items()}
