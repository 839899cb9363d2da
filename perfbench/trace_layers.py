"""Per-layer spans for the traced run, recorded from outside the program.

`Tracer.install()` replaces the public functions and methods of each
courantlab layer module with wrappers that open a span per call.  It
also replaces every other module's imported binding of the same
function (such as `from .exactlin import dot` in `lagrel`), so a call
is attributed to the module that defines the function whatever module
it is reached through.

Spans are aggregated in memory as they close: a span's self time is its
duration minus the durations of its direct child spans, and is added to
the (module, function) it belongs to.  Millions of exact-kernel calls
happen per pass, so individual span records are not kept.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from fractions import Fraction

PACKAGE = "courantlab"
# Modules of the package whose calls are traced, in the order the
# per-layer metrics are reported.
LAYERS = ("exactlin", "randgen", "quadlie", "lagrel", "anchored", "diffnum",
          "liegrp", "contexts", "suites", "cli")
# Private names traced because a per-layer metric counts them.
PRIVATE_TRACED = {("quadlie", "_tabulate")}
# Dunder methods that do the work of a public operation.
DUNDER_TRACED = ("__call__", "__mul__")

PRODUCTS = ("dot", "vec_mat", "mat_vec", "mat_mul")
ELIMINATIONS = ("rref", "det")
ELIM_CALLERS = ("rank", "nullspace", "solve", "inverse")
# Functions whose distinct exact inputs are counted.
DISTINCT = {("lagrel", "splitting_bivector"), ("diffnum", "splitting_tensor_tables")}


def _max_bits(value, depth: int = 0) -> int:
    """Largest numerator or denominator bit length in a Fraction, a
    vector or a matrix of Fractions (tuples nested at most twice)."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if depth < 2 and isinstance(value, (tuple, list)):
        return max((_max_bits(v, depth + 1) for v in value), default=0)
    return 0


def _key(args: tuple, kwargs: dict):
    """The exact inputs of a call, as a hashable value."""
    try:
        key = (args, tuple(sorted(kwargs.items())))
        hash(key)
        return key
    except TypeError:
        return repr((args, sorted(kwargs.items())))


class Tracer:
    def __init__(self):
        # (module, qualified name) -> [calls, self seconds]
        self.stats: dict[tuple[str, str], list] = {}
        self.distinct: dict[tuple[str, str], set] = {key: set() for key in DISTINCT}
        self.max_bits = 0
        # child-time accumulators of the open spans; index 0 is the root
        self._stack = [0.0]

    def _wrap(self, layer: str, qualname: str, fn):
        stat = self.stats.setdefault((layer, qualname), [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        fname = qualname.rsplit(".", 1)[-1]
        scan_bits = layer == "exactlin" and fname in PRODUCTS + ELIMINATIONS + ELIM_CALLERS
        inputs = self.distinct.get((layer, fname))

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if inputs is not None:
                inputs.add(_key(args, kwargs))
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += elapsed - children
                stack[-1] += elapsed
            if scan_bits:
                bits = _max_bits(result)
                if bits > self.max_bits:
                    self.max_bits = bits
            return result

        return span

    def install(self) -> None:
        """Wrap every layer's functions and methods, then rebind the
        names other modules imported."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if name.startswith("_") and (layer, name) not in PRIVATE_TRACED:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapped = self._wrap(layer, name, obj)
                    replaced[id(obj)] = wrapped
                    setattr(mod, name, wrapped)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(PACKAGE):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and getattr(mod, name) is obj:
                    setattr(mod, name, replaced[id(obj)])

    def _wrap_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDER_TRACED:
                continue
            qual = f"{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(layer, qual, attr.__func__)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(layer, qual, attr.__func__)))
            elif isinstance(attr, property) and attr.fget is not None:
                setattr(cls, name, property(self._wrap(layer, qual, attr.fget),
                                            attr.fset, attr.fdel, attr.__doc__))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(layer, qual, attr))

    def _sum(self, layer: str, names=None) -> tuple[int, float]:
        calls, self_s = 0, 0.0
        for (lay, qual), (n, s) in self.stats.items():
            if lay == layer and (names is None or qual in names):
                calls += n
                self_s += s
        return calls, self_s

    def _calls(self, layer: str, *names: str) -> int:
        return self._sum(layer, names)[0]

    def _distinct_ratio(self, layer: str, name: str) -> float:
        calls = self._calls(layer, name)
        return len(self.distinct[(layer, name)]) / calls if calls else 0.0

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, except those
        run.py adds (trace overhead and workload properties)."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            calls, self_s = self._sum(layer)
            out[f"{layer}.self_s"] = self_s
            if layer not in ("contexts", "suites", "cli"):
                out[f"{layer}.calls"] = calls
        out["exactlin.products.calls"], out["exactlin.products.self_s"] = self._sum("exactlin", PRODUCTS)
        out["exactlin.elim.calls"] = self._calls("exactlin", *ELIMINATIONS)
        out["exactlin.elim.self_s"] = self._sum("exactlin", ELIMINATIONS + ELIM_CALLERS)[1]
        out["exactlin.max_bits"] = self.max_bits
        out["quadlie.bracket_basis.calls"] = self._calls("quadlie", "QuadraticLieAlgebra.bracket_basis")
        out["quadlie.tabulate.calls"] = self._calls("quadlie", "_tabulate")
        out["lagrel.compose.calls"] = self._calls("lagrel", "LinearRelation.compose")
        out["lagrel.splitting_bivector.calls"] = self._calls("lagrel", "splitting_bivector")
        out["lagrel.splitting_bivector.distinct_ratio"] = self._distinct_ratio("lagrel", "splitting_bivector")
        out["anchored.bivector_at.calls"] = self._calls("anchored", "bivector_at")
        out["anchored.diagonal_backward.calls"] = self._calls("anchored", "diagonal_backward")
        out["diffnum.tensor_tables.calls"] = self._calls("diffnum", "splitting_tensor_tables")
        out["diffnum.tensor_tables.distinct_ratio"] = self._distinct_ratio("diffnum", "splitting_tensor_tables")
        out["diffnum.sampler_evals"] = self._calls("diffnum", "ChartBivectorField.__call__")
        out["liegrp.expm_np.calls"] = self._calls("liegrp", "expm_np")
        return out
