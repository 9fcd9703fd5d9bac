"""Span tracing of the bergman package, installed from outside it.

``install`` rebinds every public function of the six layer modules (domains,
jets, kernels, oracle, zeros, cli) to a wrapper that records one span per
call: name, start, end and parent span.  A name that another bergman module
imported with ``from .x import name`` is rebound there too, so calls through
``bergman.kernels.jet_rpow`` or ``bergman.zeros.jet1_variable`` are caught;
rebinding ``bergman.jets.jet_arith`` catches every Jet1/Jet2 operator, since
the operator methods look the name up at call time.

Slice evaluations (the ``eval`` of each SliceFunction built by a public
constructor) are counted, not spanned: there are tens of thousands per
winding count, and a span each would swamp what it measures.

Aggregates (calls, inclusive and self time, work units, parent-child calls)
are kept as the spans close, and the spans themselves are kept in memory up
to a cap and written out at the end.  A layer's self time is the time spent
inside its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import array
import inspect
import os
import statistics
import subprocess
import sys
import time

LAYERS = ("domains", "jets", "kernels", "oracle", "zeros", "cli")

_SLICE_CONSTRUCTORS = ("axis1_slice", "axis2_slice", "mixed_slice",
                       "simplex_slice", "k2_axis_slice")


class Tracer:
    """In-memory span store and running per-name aggregates."""

    def __init__(self, span_cap: int = 100_000):
        self.enabled = True
        self.span_cap = span_cap
        self.stack: list[list] = []     # open spans: [child_ns, span_id, base]
        self.next_id = 0
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        # flattened (span_id, parent_id, name_index, start_ns, end_ns)
        self.spans = array.array("q")
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.units: dict[str, float] = {}
        self.child_calls: dict[tuple[str, str], int] = {}
        self.child_ns: dict[tuple[str, str], int] = {}
        self.evals: dict[str | None, int] = {}

    def record(self, base: str, key: str, units: float, frame: list,
               parent: list | None, start: int, end: int) -> None:
        dur = end - start
        self.calls[key] = self.calls.get(key, 0) + 1
        self.total_ns[key] = self.total_ns.get(key, 0) + dur
        self.self_ns[key] = self.self_ns.get(key, 0) + dur - frame[0]
        if units:
            self.units[key] = self.units.get(key, 0.0) + units
        parent_id = -1
        if parent is not None:
            parent[0] += dur
            parent_id = parent[1]
            pair = (parent[2], base)
            self.child_calls[pair] = self.child_calls.get(pair, 0) + 1
            self.child_ns[pair] = self.child_ns.get(pair, 0) + dur
        if frame[1] < self.span_cap:
            idx = self.name_index.get(key)
            if idx is None:
                idx = self.name_index[key] = len(self.names)
                self.names.append(key)
            self.spans.extend((frame[1], parent_id, idx, start, end))

    def aggregates(self) -> "Aggregates":
        return Aggregates(self)

    def count_eval(self) -> None:
        where = self.stack[-1][2] if self.stack else None
        self.evals[where] = self.evals.get(where, 0) + 1

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write("span_id\tparent_id\tname\tstart_ns\tend_ns\n")
            s = self.spans
            for i in range(0, len(s), 5):
                handle.write(f"{s[i]}\t{s[i + 1]}\t{self.names[s[i + 2]]}"
                             f"\t{s[i + 3]}\t{s[i + 4]}\n")


# ---------------------------------------------------------------- classifiers
# Each returns (key suffix, work units) from the call's arguments and result.

def _jet_arith_class(args, kwargs, result):
    a, op = args[0], args[2]
    if type(a).__name__ == "Jet2":
        return f"{op}.j2", 0
    return f"{op}.o{len(a.coeffs) - 1}", 0


def _jet_rpow_class(args, kwargs, result):
    order = len(args[0].coeffs) - 1
    if order <= 1:
        return f"o{order}", 0
    return ("o2_7" if order <= 7 else "o8_up"), 0


def _limit_class(args, kwargs, result):
    return ("limit" if result.near_singular_limit else "direct"), 0


def _fold_class(args, kwargs, result):
    return ("series" if result.near_singular_limit else "direct"), 0


def _points_class(args, kwargs, result):
    return "", getattr(result, "size", 1)


def _mc_samples_class(args, kwargs, result):
    return "", args[1]


def _reproducing_samples_class(args, kwargs, result):
    return "", result.samples


def _main_class(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return (argv[0] if argv else "none"), 0


_CLASSIFIERS = {
    "jets.jet_arith": _jet_arith_class,
    "jets.jet_rpow": _jet_rpow_class,
    "kernels.slice_kernel_kp": _limit_class,
    "kernels.general_folded_kernel": _fold_class,
    "kernels.k2_values": _points_class,
    "kernels.slice_kp_values": _points_class,
    "oracle.mc_volume": _mc_samples_class,
    "oracle.reproducing_check": _reproducing_samples_class,
    "cli.main": _main_class,
}


def _span_wrapper(tr: Tracer, fn, base: str, classify):
    perf = time.perf_counter_ns

    def traced(*args, **kwargs):
        if not tr.enabled:
            return fn(*args, **kwargs)
        stack = tr.stack
        parent = stack[-1] if stack else None
        frame = [0, tr.next_id, base]
        tr.next_id += 1
        stack.append(frame)
        key, units = base, 0
        start = perf()
        try:
            result = fn(*args, **kwargs)
            if classify is not None:
                suffix, units = classify(args, kwargs, result)
                if suffix:
                    key = f"{base}:{suffix}"
            return result
        finally:
            end = perf()
            stack.pop()
            tr.record(base, key, units, frame, parent, start, end)

    return traced


def _counting_slice(tr: Tracer, slc):
    """The same SliceFunction with every evaluation counted."""
    inner = slc.eval

    def ev(t):
        if tr.enabled:
            tr.count_eval()
        return inner(t)

    return type(slc)(eval=ev, description=slc.description)


def _slice_constructor(tr: Tracer, fn):
    def build(*args, **kwargs):
        return _counting_slice(tr, fn(*args, **kwargs))

    return build


def _pair_slice_constructor(tr: Tracer, fn):
    def build(*args, **kwargs):
        two = fn(*args, **kwargs)
        restrict = two.restrict_x
        if restrict is None:
            return two
        return type(two)(eval_many=two.eval_many, description=two.description,
                         restrict_x=lambda y0: _counting_slice(tr, restrict(y0)))

    return build


def install(tr: Tracer) -> None:
    """Rebind the public functions of every layer module to span wrappers."""
    import bergman

    modules = {name: sys.modules[f"bergman.{name}"] for name in LAYERS}
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj):
                continue
            fn = obj
            if layer == "zeros" and attr in _SLICE_CONSTRUCTORS:
                fn = _slice_constructor(tr, obj)
            elif layer == "zeros" and attr == "k2_pair_slice":
                fn = _pair_slice_constructor(tr, obj)
            base = f"{layer}.{attr}"
            replaced[id(obj)] = _span_wrapper(tr, fn, base, _CLASSIFIERS.get(base))
    package_modules = [bergman] + [m for n, m in sys.modules.items()
                                   if n.startswith("bergman.")]
    for mod in package_modules:
        for attr, obj in list(vars(mod).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)


# ------------------------------------------------------------- layer probe
# Runs after a traced workload, under the same tracer, so every time metric
# has a measured value even where the workload leaves that call idle.  The
# workload's aggregates are frozen before it runs, and a metric the workload
# measured itself never includes it.

def run_probe() -> None:
    import contextlib
    import io

    import numpy as np

    import bergman.cli as C
    import bergman.domains as D
    import bergman.jets as J
    import bergman.kernels as K
    import bergman.oracle as O
    import bergman.zeros as Z

    d22 = D.diagonal_domain(2.0, 2.0)
    pt = (0.3 + 0.1j, 0.2 - 0.1j)
    D.contains(d22, pt)
    D.volume(d22)
    x = J.jet1_variable(0.2 + 0.1j, 1)
    for _ in range(4):
        x * x / (x + 1.0)
        J.jet_rpow(x, -2.0)
    J.jet_rpow(J.jet1_variable(0.1j, 4), 0.5)
    J.jet_rpow(J.jet1_variable(0.1j, 12), 0.5)
    K.k2_closed_form(0.1 + 0.05j, 0.04j)
    K.slice_kernel_kp(4.0, 0.1 + 0.05j, 0.04j)
    K.slice_kernel_kp(4.0, 1e-8 + 0j, 0.04j)
    K.ball_kernel(3, (0.1, 0.2j, 0.1), (0.2, 0.1, 0.1j))
    K.hartogs2_kernel(3.0, 0.3, 0.2j, 0.1, 0.3)
    K.pflate_kernel(2, 2, 3.0, (0.1, 0.2), (0.1j, 0.2), (0.2, 0.1), (0.3, 0.1j))
    K.mixed_family_kernel(3, (0.2, 0.1j, 0.3), (0.3, 0.2, 0.1))
    K.general_folded_kernel([2, 2], 3.0, K.KernelPoint((0.1, 0.2j, 0.1),
                                                       (0.2, 0.1, 0.3)))
    K.general_folded_kernel([2, 2], 3.0, K.KernelPoint((1e-4, 0.2j, 0.1),
                                                       (2e-4, 0.1, 0.3)))
    xs = 0.2 * np.exp(2j * np.pi * np.arange(256) / 256)
    K.k2_values(xs, 0.5 * xs)
    K.slice_kp_values(3.0, xs, 0.5 * xs)
    O.series_kernel(d22, pt, pt)
    O.mc_volume(d22, 10_000, 1)
    O.reproducing_check(d22, lambda z, w: K.k2_values(z[0] * np.conj(w[:, 0]),
                                                      z[1] * np.conj(w[:, 1])),
                        {(1, 0): 1.0}, (0.2, 0.1), 10_000, 1)
    Z.newton_refine(Z.axis1_slice(3.0), 0.4j, tol=1e-12)
    Z.grid_zero_scan(Z.k2_pair_slice(), 8, tol=1e-9)
    Z.axis2_zero_locus(3.0)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["eval", "--domain", '{"blocks":[{"dim":1,"p":2},{"dim":1,"p":2}]}',
                      "--z", "0.1,0.2"],
                     ["locus", "--family", "axis1", "--p", "3", "--res", "8"],
                     ["verify", "--suite", "origin-values"],
                     ["zeros", "--family", "k2", "--res", "8"]):
            C.main(argv)


def cli_startup_ms(env: dict, repeats: int = 5) -> tuple[float, float]:
    """Median wall ms of a bare interpreter, and of ``import bergman`` minus it."""
    def wall(code: str) -> float:
        runs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            runs.append(time.perf_counter() - t0)
        return 1e3 * statistics.median(runs)

    bare = wall("pass")
    return bare, wall("import bergman") - bare


# ------------------------------------------------------------------ metrics

# Conventions: ``<layer>.self_s`` is the layer's self time per workload op;
# ``*_us``, ``*_ms`` and ``*_s`` are mean times per call of the function
# named, except that ``zeros.grid_scan_s`` and ``zeros.locus_s`` leave out
# the winding count inside them (that is ``zeros.winding_s``); ``*_ns_pt``
# and ``*_ns_sample`` are per array point and per Monte Carlo sample.
# ``*_calls`` are per op; ``*_evals`` (slice evaluations), ``*_terms`` and
# ``*_combos`` are per call of the function named.
PER_LAYER = [
    # name, unit
    ("domains.self_s", "s"),
    ("domains.contains_us", "us"),
    ("domains.log_norm_us", "us"),
    ("domains.log_norm_calls", "count"),
    ("domains.volume_us", "us"),
    ("jets.self_s", "s"),
    ("jets.arith_calls", "count"),
    ("jets.rpow_calls", "count"),
    ("jets.mul_us.o1", "us"),
    ("jets.div_us.o1", "us"),
    ("jets.rpow_us.o1", "us"),
    ("jets.rpow_us.o2_7", "us"),
    ("jets.rpow_us.o8_up", "us"),
    ("jets.jet2_arith_us", "us"),
    ("kernels.self_s", "s"),
    ("kernels.k2_closed_us", "us"),
    ("kernels.slice_kp_us", "us"),
    ("kernels.slice_kp_limit_us", "us"),
    ("kernels.ball_us", "us"),
    ("kernels.hartogs2_us", "us"),
    ("kernels.pflate_us", "us"),
    ("kernels.mixed_family_us", "us"),
    ("kernels.general_fold_us", "us"),
    ("kernels.general_fold_series_us", "us"),
    ("kernels.general_fold_combos", "count"),
    ("kernels.k2_values_ns_pt", "ns/pt"),
    ("kernels.slice_kp_values_ns_pt", "ns/pt"),
    ("zeros.self_s", "s"),
    ("zeros.winding_s", "s"),
    ("zeros.winding_calls", "count"),
    ("zeros.winding_evals", "count"),
    ("zeros.newton_us", "us"),
    ("zeros.newton_evals", "count"),
    ("zeros.grid_scan_s", "s"),
    ("zeros.grid_evals", "count"),
    ("zeros.locus_s", "s"),
    ("oracle.self_s", "s"),
    ("oracle.series_ms", "ms"),
    ("oracle.series_terms", "count"),
    ("oracle.mc_ns_sample", "ns/sample"),
    ("oracle.reproducing_ns_sample", "ns/sample"),
    ("cli.interp_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms.eval", "ms"),
    ("cli.main_ms.locus", "ms"),
    ("cli.main_ms.verify", "ms"),
    ("cli.main_ms.zeros", "ms"),
    ("cli.stdout_bytes", "count"),
    ("trace.ops_per_s", "op/s"),
]


class Aggregates:
    """Frozen copies of a tracer's running aggregates."""

    FIELDS = ("calls", "total_ns", "self_ns", "units", "child_calls", "child_ns", "evals")

    def __init__(self, tr: Tracer | None = None):
        for f in self.FIELDS:
            setattr(self, f, dict(getattr(tr, f)) if tr is not None else {})

    def minus(self, earlier: "Aggregates") -> "Aggregates":
        out = Aggregates()
        for f in self.FIELDS:
            before = getattr(earlier, f)
            setattr(out, f, {k: v - before.get(k, 0) for k, v in getattr(self, f).items()
                             if v != before.get(k, 0)})
        return out


def _calls(a: Aggregates, *prefixes: str) -> int:
    return sum(v for k, v in a.calls.items() for p in prefixes
               if k == p or k.startswith(p + ":"))


def _mean_ns(a: Aggregates, *prefixes: str) -> tuple[float, int]:
    keys = [k for k in a.calls for p in prefixes if k == p or k.startswith(p + ":")]
    calls = sum(a.calls[k] for k in keys)
    return (sum(a.total_ns[k] for k in keys) / calls if calls else 0.0), calls


def _per_unit_ns(a: Aggregates, base: str) -> tuple[float, int]:
    units = sum(v for k, v in a.units.items() if k.split(":")[0] == base)
    total = sum(v for k, v in a.total_ns.items() if k.split(":")[0] == base)
    return (total / units if units else 0.0), _calls(a, base)


def _excluding_winding_ns(a: Aggregates, *bases: str) -> tuple[float, int]:
    calls = _calls(a, *bases)
    if not calls:
        return 0.0, 0
    total = sum(v for k, v in a.total_ns.items() if k.split(":")[0] in bases)
    inner = sum(a.child_ns.get((b, "zeros.count_zeros_winding"), 0) for b in bases)
    return (total - inner) / calls, calls


def _layer_self_ns(a: Aggregates, layer: str) -> tuple[float, int]:
    keys = [k for k in a.self_ns if k.startswith(layer + ".")]
    return sum(a.self_ns[k] for k in keys), sum(a.calls.get(k, 0) for k in keys)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# time metrics: name -> (how to measure on an aggregate, scale to the unit)
_TIMES = {
    "domains.contains_us": (lambda a: _mean_ns(a, "domains.contains"), 1e-3),
    "domains.log_norm_us": (lambda a: _mean_ns(a, "domains.log_monomial_norm_sq"), 1e-3),
    "domains.volume_us": (lambda a: _mean_ns(a, "domains.volume"), 1e-3),
    "jets.mul_us.o1": (lambda a: _mean_ns(a, "jets.jet_arith:mul.o1"), 1e-3),
    "jets.div_us.o1": (lambda a: _mean_ns(a, "jets.jet_arith:div.o1"), 1e-3),
    "jets.rpow_us.o1": (lambda a: _mean_ns(a, "jets.jet_rpow:o1"), 1e-3),
    "jets.rpow_us.o2_7": (lambda a: _mean_ns(a, "jets.jet_rpow:o2_7"), 1e-3),
    "jets.rpow_us.o8_up": (lambda a: _mean_ns(a, "jets.jet_rpow:o8_up"), 1e-3),
    "jets.jet2_arith_us": (lambda a: _mean_ns(a, *(f"jets.jet_arith:{op}.j2" for op in
                                                   ("add", "sub", "mul", "div"))), 1e-3),
    "kernels.k2_closed_us": (lambda a: _mean_ns(a, "kernels.k2_closed_form"), 1e-3),
    "kernels.slice_kp_us": (lambda a: _mean_ns(a, "kernels.slice_kernel_kp:direct"), 1e-3),
    "kernels.slice_kp_limit_us":
        (lambda a: _mean_ns(a, "kernels.slice_kernel_kp:limit"), 1e-3),
    "kernels.ball_us": (lambda a: _mean_ns(a, "kernels.ball_kernel"), 1e-3),
    "kernels.hartogs2_us": (lambda a: _mean_ns(a, "kernels.hartogs2_kernel"), 1e-3),
    "kernels.pflate_us": (lambda a: _mean_ns(a, "kernels.pflate_kernel"), 1e-3),
    "kernels.mixed_family_us": (lambda a: _mean_ns(a, "kernels.mixed_family_kernel"), 1e-3),
    "kernels.general_fold_us":
        (lambda a: _mean_ns(a, "kernels.general_folded_kernel:direct"), 1e-3),
    "kernels.general_fold_series_us":
        (lambda a: _mean_ns(a, "kernels.general_folded_kernel:series"), 1e-3),
    "kernels.k2_values_ns_pt": (lambda a: _per_unit_ns(a, "kernels.k2_values"), 1.0),
    "kernels.slice_kp_values_ns_pt":
        (lambda a: _per_unit_ns(a, "kernels.slice_kp_values"), 1.0),
    "zeros.winding_s": (lambda a: _mean_ns(a, "zeros.count_zeros_winding"), 1e-9),
    "zeros.newton_us": (lambda a: _mean_ns(a, "zeros.newton_refine"), 1e-3),
    "zeros.grid_scan_s": (lambda a: _excluding_winding_ns(a, "zeros.grid_zero_scan"), 1e-9),
    "zeros.locus_s": (lambda a: _excluding_winding_ns(a, "zeros.axis1_zero_locus",
                                                      "zeros.axis2_zero_locus"), 1e-9),
    "oracle.series_ms": (lambda a: _mean_ns(a, "oracle.series_kernel"), 1e-6),
    "oracle.mc_ns_sample": (lambda a: _per_unit_ns(a, "oracle.mc_volume"), 1.0),
    "oracle.reproducing_ns_sample":
        (lambda a: _per_unit_ns(a, "oracle.reproducing_check"), 1.0),
}
for _cmd in ("eval", "locus", "verify", "zeros"):
    _TIMES[f"cli.main_ms.{_cmd}"] = (lambda a, c=_cmd: _mean_ns(a, f"cli.main:{c}"), 1e-6)


def layer_metrics(work: Aggregates, probe: Aggregates, first: Aggregates,
                  ops: int, first_ops: int,
                  extra: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric of PER_LAYER, and the names measured on the probe.

    A time comes from the workload's own spans (``work``); where the workload
    never made the call it times, it comes from the layer probe's spans
    (``probe``) instead, and its name is returned in the second list.  A
    layer's self time is per workload op, or, for a layer the workload leaves
    idle, the probe's total.  Counts come from ``first``, the first complete
    cycle of ``first_ops`` operations, so they repeat exactly for a fixed
    seed; ``extra`` holds the metrics measured outside spans, and takes
    precedence over a time of the same name.
    """
    out: dict[str, float] = {}
    from_probe: list[str] = []
    for name, (measure, scale) in _TIMES.items():
        if name in extra:
            continue
        value, calls = measure(work)
        if not calls:
            value, _ = measure(probe)
            from_probe.append(name)
        out[name] = value * scale
    for layer in LAYERS[:-1]:
        name = f"{layer}.self_s"
        value, calls = _layer_self_ns(work, layer)
        if calls:
            out[name] = value * 1e-9 / max(ops, 1)
        else:
            out[name] = _layer_self_ns(probe, layer)[0] * 1e-9
            from_probe.append(name)

    def per_op(prefix: str) -> float:
        return _ratio(_calls(first, prefix), first_ops)

    def per_call(where: str, what: float) -> float:
        return _ratio(what, _calls(first, where))

    out.update({
        "domains.log_norm_calls": per_op("domains.log_monomial_norm_sq"),
        "jets.arith_calls": per_op("jets.jet_arith"),
        "jets.rpow_calls": per_op("jets.jet_rpow"),
        "kernels.general_fold_combos": per_call(
            "kernels.general_folded_kernel",
            first.child_calls.get(("kernels.general_folded_kernel", "jets.jet_rpow"), 0)),
        "zeros.winding_calls": per_op("zeros.count_zeros_winding"),
        "zeros.winding_evals": per_call(
            "zeros.count_zeros_winding", first.evals.get("zeros.count_zeros_winding", 0)),
        "zeros.newton_evals": per_call(
            "zeros.newton_refine", first.evals.get("zeros.newton_refine", 0)),
        "zeros.grid_evals": per_call(
            "zeros.grid_zero_scan", first.evals.get("zeros.grid_zero_scan", 0)),
        "oracle.series_terms": per_call(
            "oracle.series_kernel",
            first.child_calls.get(("oracle.series_kernel", "domains.log_monomial_norm_sq"), 0)),
    })
    out.update(extra)
    missing = [name for name, _ in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return out, from_probe
