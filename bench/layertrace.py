"""Layer tracing from outside the library.

`Tracer.install()` rebinds every public function of each cyclocover
layer module, and the public methods and arithmetic operators of its
public classes, to a wrapper.  Library modules import each other's
functions by name, so the wrapper replaces the binding in every
cyclocover module that holds the original; otherwise calls between
layers would escape the trace.  `uninstall()` restores every binding.

A span is recorded only when a call crosses into another layer (or
comes from the benchmark itself): a call that stays inside the caller's
layer is already covered by the caller's span.  Scalar field elements
(`FpElt`, `Fraction`) and the coefficient-ring objects are not wrapped;
their cost is counted in the layer that does the arithmetic.

Spans live in flat arrays (layer, parent, start, end) until `fold()`
derives each layer's self time: its spans' durations minus the parts
covered by child spans.  Exact size counters are taken from call
arguments and results at the same boundaries.
"""

import functools
import inspect
import sys
from array import array
from math import comb
from time import perf_counter

PACKAGE = "cyclocover"
LAYERS = ("cli", "serialize", "modules", "normal_forms", "matrices", "linfield",
          "covers", "periodicity", "classnumbers", "rings", "arith")

# operators worth a span; comparison and hashing are too cheap to trace
OPERATORS = ("__init__", "__add__", "__sub__", "__mul__", "__neg__", "__pow__",
             "__divmod__", "__truediv__", "__floordiv__", "__mod__")

# scalar elements and coefficient rings: their cost belongs to the caller
UNWRAPPED_CLASSES = ("FpElt", "PrimeField")

COUNTERS = ("normal_forms.snf_cells", "normal_forms.max_factor_bits",
            "matrices.minors", "matrices.det_cells", "linfield.rref_cells",
            "covers.cover_cells", "classnumbers.primes")


def _coeff_bits(c):
    if hasattr(c, "numerator"):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return int(c.v).bit_length()


def _snf_cells(counts, args, kw, res):
    rows = args[0]
    counts["normal_forms.snf_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _factor_bits(counts, args, kw, res):
    bits = max((_coeff_bits(c) for f in res[0] for c in f.coeffs), default=0)
    if bits > counts["normal_forms.max_factor_bits"]:
        counts["normal_forms.max_factor_bits"] = bits


def _minors(counts, args, kw, res):
    mat, size = args[0], args[1]
    counts["matrices.minors"] += comb(mat.nrows, size) * comb(mat.ncols, size)


def _det_cells(counts, args, kw, res):
    counts["matrices.det_cells"] += len(args[0]) ** 2


def _rref_cells(counts, args, kw, res):
    rows = args[1]
    counts["linfield.rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _cover_cells(counts, args, kw, res):
    x, q = args[0], args[2]
    counts["covers.cover_cells"] += sum(x.ranks) * q


def _primes(counts, args, kw, res):
    counts["classnumbers.primes"] += 1


HOOKS = {
    ("normal_forms", "smith_normal_form"): _snf_cells,
    ("normal_forms", "laurent_cokernel"): _factor_bits,
    ("matrices", "laurent_minor_gcd"): _minors,
    ("matrices", "det_int"): _det_cells,
    ("linfield", "rref"): _rref_cells,
    ("covers", "cover_homology_field"): _cover_cells,
    ("classnumbers", "hp_minus"): _primes,
}


class Tracer:
    def __init__(self):
        self.layer = -1          # layer of the innermost open span
        self.cur = -1            # index of the innermost open span
        self.layers = array("b")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._restore = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, li, hook):
        tr = self

        def span(*args, **kw):
            if tr.layer == li:
                res = fn(*args, **kw)
            else:
                idx = len(tr.starts)
                parent, outer = tr.cur, tr.layer
                tr.layers.append(li)
                tr.parents.append(parent)
                tr.ends.append(0.0)
                tr.cur, tr.layer = idx, li
                tr.starts.append(perf_counter())
                try:
                    res = fn(*args, **kw)
                finally:
                    tr.ends[idx] = perf_counter()
                    tr.cur, tr.layer = parent, outer
            if hook is not None:
                hook(tr.counts, args, kw, res)
            return res

        # copies __dict__ too: cyclotomic keeps its cache as an attribute
        return functools.update_wrapper(span, fn)

    def _set(self, obj, name, value):
        self._restore.append((obj, name, obj.__dict__[name]))
        setattr(obj, name, value)

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        replaced = {}                      # id(original) -> wrapper
        for li, layer in enumerate(LAYERS):
            mod = modules[f"{PACKAGE}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    w = self._wrap(obj, li, HOOKS.get((layer, name)))
                    replaced[id(obj)] = w
                elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
                      and name not in UNWRAPPED_CLASSES):
                    self._wrap_class(obj, li)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None:
                    self._set(mod, name, w)

    def _wrap_class(self, cls, li):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            if isinstance(attr, classmethod):
                self._set(cls, name, classmethod(self._wrap(attr.__func__, li, None)))
            elif isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(self._wrap(attr.__func__, li, None)))
            elif inspect.isfunction(attr):
                self._set(cls, name, self._wrap(attr, li, None))

    def uninstall(self):
        while self._restore:
            obj, name, value = self._restore.pop()
            setattr(obj, name, value)

    # -- results ------------------------------------------------------------

    def mark(self):
        return len(self.starts), dict(self.counts)

    def rollback(self, mark):
        """Forget the spans and counts recorded since `mark`.

        A failed operation stops at a point that depends on the machine,
        so what it recorded would make the exact counts inexact.
        """
        n, counts = mark
        for a in (self.layers, self.parents, self.starts, self.ends):
            del a[n:]
        self.counts = counts

    def fold(self):
        """Per-layer (self seconds, span count) of the spans so far; clears them."""
        n = len(self.starts)
        child = [0.0] * n
        starts, ends, parents, layers = self.starts, self.ends, self.parents, self.layers
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s = [0.0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        for i in range(n):
            self_s[layers[i]] += ends[i] - starts[i] - child[i]
            calls[layers[i]] += 1
        for a in (self.layers, self.parents, self.starts, self.ends):
            del a[:]
        return self_s, calls, n

    def take_counts(self):
        out = self.counts
        self.counts = dict.fromkeys(COUNTERS, 0)
        return out
