"""Layer probes installed from outside the library, on one pass at a time.

``Tracer`` records a span around each call into a layer: name, start, end,
parent span and op id, plus self time (duration minus the time child spans
cover).  ``Counter`` counts operator calls and work sizes.  The two are
never installed together, because the counting wrappers cost more than the
arithmetic they count.  Both wrap by name; a target the library no longer
has is skipped and listed in ``missing``, so the metric reads 0 instead of
the benchmark breaking.
"""

from __future__ import annotations

import importlib
import sys
import time

# layer -> wrapped callables ("module.function" or "module.Class.method")
SPAN_LAYERS = {
    "rings.root_search": [
        "rings.primitive_nth_root", "rings.PrimeField.primitive_nth_root",
        "rings.ExtField.primitive_nth_root", "rings.RationalField.primitive_nth_root",
        "cyclotomic.CyclotomicField.primitive_nth_root"],
    "rings.find_irreducible": ["rings.find_irreducible"],
    "cyclotomic": [
        *(f"cyclotomic.CycloElem.{op}" for op in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__neg__", "__truediv__", "__pow__")),
        "cyclotomic.CyclotomicField.__init__", "cyclotomic.CyclotomicField.inv",
        "cyclotomic.CyclotomicField.from_residue", "cyclotomic.CyclotomicField.embed_from",
        "cyclotomic.cyclotomic_polynomial", "cyclotomic.galois_conjugates",
        "cyclotomic.norm_to_rationals", "cyclotomic.complementary_factor",
        "cyclotomic.complementary_inverse", "cyclotomic.rational_basis_cyclic"],
    "abelian": [
        *(f"abelian.AbelianGroup.{m}" for m in (
            "index", "char_index", "pairing_exponent", "mul", "inverse",
            "elements", "characters")),
        "abelian.character_matrix", "abelian.character_matrix_inverse",
        "abelian.parse_group"],
    "transform.fft": ["transform.fft"],
    "transform.inverse_fft": ["transform.inverse_fft"],
    "transform.convolve": ["transform.convolve"],
    "linalg.mat_rank": ["linalg.mat_rank"],
    "linalg.mat_det": ["linalg.mat_det"],
    "multipoly.mul": ["multipoly.MultiPoly.__mul__"],
    "multipoly.evaluate": ["multipoly.MultiPoly.evaluate"],
    "multipoly.symbolic_det": ["multipoly.symbolic_det"],
    "factorize.verify": ["factorize.verify_product_identity"],
    "factorize.build": [
        "factorize.det_over_rationals", "factorize.det_over_finite_field",
        "factorize.det_split_field", "factorize.norm_form", "factorize.linear_forms",
        "factorize.factor_xn_minus_one", "factorize.factor_cyclotomic",
        "factorize.vandermonde_det"],
    "frobenius": [
        "frobenius.block_diagonalize_s3", "frobenius.frobenius_factorization",
        "frobenius.frobenius_polynomial", "frobenius.s3", "frobenius.extended_character",
        "frobenius.cyclic_group"],
    "cli.main": ["cli.main"],
}

# counter -> callables whose every call adds one
CALL_COUNTS = {
    "rings.fp_arith": [f"rings.PrimeFieldElem.{op}" for op in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")],
    "rings.field_inv": ["rings.PrimeField.inv", "rings.ExtField.inv"],
    "rings.ext_mul": ["rings.ExtFieldElem.__mul__", "rings.ExtFieldElem.__rmul__"],
    "rings.field_eq": ["rings.PrimeField.__eq__", "rings.ExtField.__eq__",
                       "rings.RationalField.__eq__", "cyclotomic.CyclotomicField.__eq__"],
    "cyclotomic.mul": ["cyclotomic.CycloElem.__mul__", "cyclotomic.CycloElem.__rmul__"],
    "abelian.lookups": ["abelian.AbelianGroup.index", "abelian.AbelianGroup.char_index",
                        "abelian.AbelianGroup.pairing_exponent"],
    "transform.fft.calls": ["transform.fft"],
    "multipoly.evaluate.calls": ["multipoly.MultiPoly.evaluate"],
}

ROOT_SEARCH_METHODS = SPAN_LAYERS["rings.root_search"][1:]

COUNTERS = (*CALL_COUNTS, "rings.root_search.calls", "rings.root_search.misses",
            "transform.fft.terms", "linalg.elim_cells", "multipoly.mul.term_pairs",
            "factorize.verify.points", "factorize.verify.symbolic")


class _Patcher:
    """Replaces library callables by wrappers, everywhere they are bound."""

    def __init__(self, package: str = "groupfft"):
        self.package = package
        self.missing: list[str] = []

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(self.package + "."))]

    def original(self, target: str):
        parts = target.split(".")
        try:
            obj = importlib.import_module(f"{self.package}.{parts[0]}")
            for attr in parts[1:]:
                obj = getattr(obj, attr)
        except (ImportError, AttributeError):
            return None
        return obj

    def patch(self, target: str, make_wrapper):
        """Wrap one callable; a wrapper made earlier for it is wrapped again."""
        fn = self.original(target)
        if fn is None:
            self.missing.append(target)
            return
        wrapped = make_wrapper(fn)
        parts = target.split(".")
        if len(parts) == 3:  # module.Class.method
            setattr(self.original(".".join(parts[:2])), parts[2], wrapped)
            return
        for module in self._modules():
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, wrapped)


class Tracer:
    """Spans around each layer call; self time per layer, summed while an op runs."""

    SPAN_CAP = 50_000

    def __init__(self):
        self.layers = ["op", *SPAN_LAYERS]
        self.self_time = [0.0] * len(self.layers)
        self.ids: list[int] = []
        self.child: list[float] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.op_id = -1
        self.active = False
        self.patcher = _Patcher()
        for layer_id, layer in enumerate(self.layers[1:], start=1):
            for target in SPAN_LAYERS[layer]:
                self.patcher.patch(target, lambda fn, lid=layer_id: self._wrap(fn, lid))

    def _enter(self):
        sid = self.next_id
        self.next_id += 1
        parent = self.ids[-1] if self.ids else -1
        self.ids.append(sid)
        self.child.append(0.0)
        return sid, parent

    def _exit(self, layer_id, sid, parent, t0, t1):
        self.ids.pop()
        duration = t1 - t0
        self.self_time[layer_id] += duration - self.child.pop()
        if self.child:
            self.child[-1] += duration
        if len(self.spans) < self.SPAN_CAP:
            self.spans.append((sid, layer_id, parent, self.op_id, t0, t1))
        else:
            self.dropped += 1

    def _wrap(self, fn, layer_id):
        clock = time.perf_counter

        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid, parent = self._enter()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(layer_id, sid, parent, t0, clock())

        return span

    def begin(self, op_id: int):
        self.op_id = op_id
        self.active = True
        self._root = self._enter()
        self._t0 = time.perf_counter()

    def end(self):
        self._exit(0, *self._root, self._t0, time.perf_counter())
        self.active = False

    def summary(self) -> dict:
        return {"self_time": dict(zip(self.layers, self.self_time)),
                "spans_recorded": len(self.spans), "spans_dropped": self.dropped,
                "missing": self.patcher.missing}

    def dump(self) -> dict:
        return {"layers": self.layers,
                "columns": ["span", "layer", "parent", "op", "start_s", "end_s"],
                "spans": self.spans, "dropped": self.dropped}


class Counter:
    """Exact operation counts, summed over the timed interval of each op."""

    def __init__(self, gf):
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.totals = dict.fromkeys(COUNTERS, 0)
        self.in_verify = 0
        self.verify_used_symbolic = False
        self.patcher = patcher = _Patcher()
        counts = self.counts
        for name, targets in CALL_COUNTS.items():
            for target in targets:
                patcher.patch(target, lambda fn, key=name: _counting(fn, counts, key))
        no_root = gf.NoRootOfUnity
        for target in ROOT_SEARCH_METHODS:
            patcher.patch(target, lambda fn: self._root_search(fn, no_root))
        patcher.patch("transform.fft", self._fft_terms)
        patcher.patch("linalg.mat_rank", lambda fn: self._elimination(fn, is_det=False))
        patcher.patch("linalg.mat_det", lambda fn: self._elimination(fn, is_det=True))
        patcher.patch("multipoly.MultiPoly.__mul__", self._term_pairs)
        patcher.patch("multipoly.symbolic_det", self._symbolic)
        patcher.patch("factorize.verify_product_identity", self._verify)

    def _root_search(self, fn, no_root):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["rings.root_search.calls"] += 1
            try:
                return fn(*args, **kwargs)
            except no_root:
                counts["rings.root_search.misses"] += 1
                raise

        return wrapper

    def _fft_terms(self, fn):
        def wrapper(b, *args, **kwargs):
            self.counts["transform.fft.terms"] += b.group.order ** 2
            return fn(b, *args, **kwargs)

        return wrapper

    def _elimination(self, fn, is_det):
        def wrapper(rows, *args, **kwargs):
            n_rows = len(rows)
            n_cols = len(rows[0]) if n_rows else 0
            self.counts["linalg.elim_cells"] += n_rows * n_cols * min(n_rows, n_cols)
            if is_det and self.in_verify:
                self.counts["factorize.verify.points"] += 1
            return fn(rows, *args, **kwargs)

        return wrapper

    def _term_pairs(self, fn):
        def wrapper(a, b):
            terms = getattr(b, "terms", None)
            if terms is not None:
                self.counts["multipoly.mul.term_pairs"] += len(a.terms) * len(terms)
            return fn(a, b)

        return wrapper

    def _symbolic(self, fn):
        def wrapper(*args, **kwargs):
            if self.in_verify:
                self.verify_used_symbolic = True
            return fn(*args, **kwargs)

        return wrapper

    def _verify(self, fn):
        def wrapper(*args, **kwargs):
            outer = self.verify_used_symbolic
            self.in_verify += 1
            self.verify_used_symbolic = False
            try:
                return fn(*args, **kwargs)
            finally:
                self.in_verify -= 1
                if self.verify_used_symbolic:
                    self.counts["factorize.verify.symbolic"] += 1
                self.verify_used_symbolic = outer

        return wrapper

    def begin(self, op_id: int):
        self._before = dict(self.counts)

    def end(self):
        for key, value in self.counts.items():
            self.totals[key] += value - self._before[key]

    def summary(self) -> dict:
        return {"counts": self.totals, "missing": self.patcher.missing}


def _counting(fn, counts, key):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper
