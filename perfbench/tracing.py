"""In-process spans and counters around the circletrace layers.

``install`` replaces every public function of each layer module, and every
public method of the classes those modules define, by a wrapper that records
a span (name, start, end, parent) in memory when the call crosses into the
layer: from the benchmark or from another layer.  A function is replaced
under every name the package binds it to outside its own module
(``from .fourier import symbol_eval`` in another module, the re-exports in
``circletrace/__init__``), so calls between layers are seen wherever they are
made.  Inside its own module a function keeps its own name, so the calls a
layer makes to itself (``report.format_float`` once per printed number) cost
nothing; only the functions in ``COUNTERS`` are replaced there too, since
every call of them is counted.  Callers that reach a layer through its
module object (the benchmark, ``cf.integral_trace`` in ``cli``) are given a
view of the module whose functions are the wrapped ones.  Nothing outside
this process is touched and no file of the package is changed.

A layer's self time is the time its spans cover minus the time covered by
their child spans, so each second is attributed to exactly one layer.
Counters are computed from arguments and results at the call sites below.
A counter that scans matrix entries runs inside a ``trace.count`` span, so
its cost is charged to the tracer and not to the layer that called it.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import defaultdict

LAYERS = (
    "cli",
    "report",
    "fourier",
    "littlewood_paley",
    "operators",
    "spectral",
    "dixmier",
    "closed_forms",
    "nc_torus",
)

# Private entry points wrapped in addition to the public names: the batch
# parser the CLI runs for every config, where configs are counted, and the
# constructor every operator matrix passes through, where entries are counted.
EXTRA = ("cli._config_from_json_obj", "operators.TruncatedOperator.__post_init__")


def _config(counts, args, kwargs, result):
    counts["cli.ops"] += 1


def _svd(counts, args, kwargs, result):
    rows, cols = args[0].shape
    counts["spectral.svd_n3"] += rows * cols * min(rows, cols)
    counts["spectral.values"] += len(result)


def _operator_built(counts, args, kwargs, result):
    matrix = args[0].matrix
    counts["operators.built"] += 1
    counts["operators.entries_built"] += matrix.size
    if not matrix.imag.any():
        counts["operators.real_built"] += 1


def _matmul(counts, args, kwargs, result):
    ops = args[0]
    for left, right in zip(ops, ops[1:]):
        m, k = left.shape
        # complex multiply-add: 8 real floating-point operations
        counts["operators.matmul_flops"] += 8 * m * k * right.shape[1]


def _kernel(counts, args, kwargs, result):
    counts["closed_forms.kernel_points"] += args[2].grid ** 2


def _comb(counts, args, kwargs, result):
    counts["closed_forms.comb_terms"] += args[1] + 1


def _hat(counts, args, kwargs, result):
    counts["littlewood_paley.hat_entries"] += len(result.profile.coeffs)


def _hat_hits(counts, args, kwargs, result):
    counts["littlewood_paley.hat_hits"] += len(result.coeffs)


def _eval(counts, args, kwargs, result):
    counts["fourier.eval_points"] += len(args[0].coeffs) * result.size


def _rule_values(counts, args, kwargs, result):
    counts["fourier.rule_coeffs"] += len(result)


def _rule_value(counts, args, kwargs, result):
    counts["fourier.rule_coeffs"] += 1


def _classified(counts, args, kwargs, result):
    counts["dixmier.classified_len"] += len(args[0])


def _ball(counts, args, kwargs, result):
    counts["nc_torus.ball_points"] += len(result)


def _phase_product(counts, args, kwargs, result):
    counts["nc_torus.phase_products"] += 1


def _emitted(counts, args, kwargs, result):
    counts["report.bytes"] += len(result)


# span name -> (counter, scans entries)
COUNTERS = {
    "cli._config_from_json_obj": (_config, False),
    "spectral.singular_values": (_svd, False),
    "operators.TruncatedOperator.__post_init__": (_operator_built, True),
    "operators.operator_product": (_matmul, False),
    "closed_forms.integral_trace": (_kernel, False),
    "closed_forms.sphere_kernel": (_comb, False),
    "littlewood_paley.lp_block": (_hat, False),
    "littlewood_paley.lp_convolve": (_hat_hits, False),
    "fourier.symbol_eval": (_eval, False),
    "fourier.CoefficientRule.values": (_rule_values, False),
    "fourier.CoefficientRule.value": (_rule_value, False),
    "dixmier.classify_limit": (_classified, False),
    "nc_torus.lattice_ball": (_ball, False),
    "nc_torus.phase_product_matrix": (_phase_product, False),
    "report.emit_report": (_emitted, False),
}


class Tracer:
    """Spans kept in parallel lists; ``stack`` holds the open span ids."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.layers: list[str] = []  # layer of each open span
        self.counts: defaultdict[str, int] = defaultdict(int)

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(sid)
        return sid

    def wrap(self, name: str, fn):
        counter, scans = COUNTERS.get(name, (None, False))
        layer = name.split(".", 1)[0]
        perf_counter = time.perf_counter
        starts, ends, stack, layers = self.starts, self.ends, self.stack, self.layers

        def traced(*args, **kwargs):
            if layers and layers[-1] == layer:
                # a call inside the layer already open: its time stays in
                # that span, which belongs to the same layer
                result = fn(*args, **kwargs)
            else:
                sid = self._open(name)
                layers.append(layer)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[sid] = perf_counter()
                    starts[sid] = start
                    stack.pop()
                    layers.pop()
            if counter is not None:
                if scans:
                    cid = self._open("trace.count")
                    starts[cid] = perf_counter()
                    counter(self.counts, args, kwargs, result)
                    ends[cid] = perf_counter()
                    stack.pop()
                else:
                    counter(self.counts, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def layer_self_seconds(self) -> dict[str, float]:
        """Span time minus child-span time, summed per layer (name prefix)."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[sid] - self.starts[sid]
        out: dict[str, float] = {}
        for name, seconds in zip(self.names, own):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def write_spans(self, path, origin: float) -> None:
        """One JSON object per line: id, name, start, end (s from origin), parent."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                fh.write(
                    f'{{"id": {sid}, "name": "{name}", "start": {start - origin:.9f}, '
                    f'"end": {end - origin:.9f}, "parent": {parent}}}\n'
                )


def _targets(modules: dict):
    """(span name, owner, attribute, function) for every function to wrap."""
    for layer in LAYERS:
        mod = modules[layer]
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                if not attr.startswith("_") or name in EXTRA:
                    yield name, mod, attr, obj
            elif (
                inspect.isclass(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                for mattr, mobj in list(vars(obj).items()):
                    name = f"{layer}.{attr}.{mattr}"
                    if mattr.startswith("_") and name not in EXTRA:
                        continue
                    if inspect.isfunction(mobj) or isinstance(mobj, classmethod):
                        yield name, obj, mattr, mobj


def install(tracer: Tracer, package, modules: dict) -> dict:
    """Wrap every target under every module-level name bound to it.

    ``modules`` maps each layer name to its module.  Returns, per layer, a
    view of the module in which its own functions are the wrapped ones: the
    benchmark calls the layers through these views, and so does every
    module that holds a layer module as an attribute.
    """
    own: dict[str, dict] = {layer: {} for layer in modules}
    for name, owner, attr, obj in list(_targets(modules)):
        if isinstance(obj, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, obj.__func__)))
        elif inspect.isclass(owner):
            setattr(owner, attr, tracer.wrap(name, obj))
        else:
            wrapped = tracer.wrap(name, obj)
            own[name.split(".", 1)[0]][attr] = wrapped
            for ns in [package, *modules.values()]:
                if ns is owner and name not in COUNTERS:
                    continue
                for key, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, key, wrapped)
    views = {
        layer: types.SimpleNamespace(**{**vars(mod), **own[layer]})
        for layer, mod in modules.items()
    }
    # a layer reached as a module object (``from . import closed_forms as cf``
    # in ``cli``) is replaced by its view, so ``cf.name(...)`` is traced too
    layer_of = {id(mod): layer for layer, mod in modules.items()}
    for ns in [package, *modules.values()]:
        for key, value in list(vars(ns).items()):
            if id(value) in layer_of and value is not ns:
                setattr(ns, key, views[layer_of[id(value)]])
    return views
