"""In-memory spans and counters around kralldh's public functions.

The tracer wraps each function listed in ``LAYERS`` and patches the name
in every already-imported module that holds the original object (the
package re-exports most names, and modules import each other's
functions by name).  Nothing in kralldh itself changes; ``uninstall``
puts every original back.

A span is (name, start, end, parent, request).  Spans live in flat
arrays while the traced pass runs, so a pass with a few hundred
thousand ``poly_gcd`` calls stays within a few megabytes.  A layer's
self time is the sum over its spans of duration minus the time covered
by direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

# (module, attribute, span name).  Several attributes may share one span
# name; self times of nested spans of one name add up without overlap.
LAYERS = (
    ("kralldh.exact", "det_exact", "exact.det_exact"),
    ("kralldh.exact", "det_with_poly_row", "exact.det_with_poly_row"),
    ("kralldh.exact", "nullspace_exact", "exact.nullspace_exact"),
    ("kralldh.exact", "poly_gcd", "exact.poly_gcd"),
    ("kralldh.classical", "hahn_poly", "classical.hahn_poly"),
    ("kralldh.classical", "dual_hahn_poly", "classical.dual_hahn_poly"),
    ("kralldh.wpoly", "w_family", "wpoly.w_family"),
    ("kralldh.constructors", "construct_basic", "constructors.construct"),
    ("kralldh.constructors", "construct_selected_rows", "constructors.construct"),
    ("kralldh.constructors", "construct_dropped_rows", "constructors.construct"),
    ("kralldh.constructors", "construct_shifted", "constructors.construct"),
    ("kralldh.constructors", "construct_mirror", "constructors.construct"),
    ("kralldh.measures", "inner_product", "measures.inner_product"),
    ("kralldh.verify", "orthogonality_report", "verify.orthogonality_report"),
    ("kralldh.verify", "verify_moment_identity", "verify.moment_identity"),
    ("kralldh.verify", "triangular_product_report", "verify.moment_identity"),
    ("kralldh.verify", "verify_limits", "verify.limits"),
    ("kralldh.verify", "verify_measure_limit_basic", "verify.limits"),
    ("kralldh.verify", "verify_measure_limit_transformed", "verify.limits"),
    ("kralldh.verify", "verify_row_parameter_limit", "verify.limits"),
    ("kralldh.verify", "verify_row_window_limit", "verify.limits"),
    ("kralldh.verify", "verify_evaluation_limit", "verify.limits"),
    ("kralldh.verify", "verify_quotient_identity", "verify.limits"),
    ("kralldh.verify", "operator_search", "verify.operator_search"),
    ("kralldh.verify", "LatticeOperator.maps_lattice_powers", "verify.maps_lattice_powers"),
    ("kralldh.cli", "family_to_json", "cli.family_to_json"),
)

# Wrapped for counting only: they are cheap and called often, and their
# time belongs to the span that called them.
COUNTED = (
    ("kralldh.wpoly", "w_poly", "wpoly.w_poly"),
    ("kralldh.exact", "RationalFunction.__init__", "exact.RationalFunction.new"),
)


def _coeff_bits(family) -> int:
    """Largest numerator or denominator bit length in a family's polynomials."""
    bits = 0
    for poly in family.polys:
        for c in poly.coeffs:
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """Spans and exact counters for one traced pass."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.current_request = -1
        self.calls = {}
        self.max_n = 0
        self.max_cells = 0
        self.coeff_bits_max = 0
        self.w_poly_keys = set()
        self._search_rungs = {}
        self._stack = []
        self._patches = []

    # -- patching -------------------------------------------------------

    def install(self):
        for module_name, attr, name in LAYERS:
            self._patch(module_name, attr, self._span_wrapper(name, self._hook(attr)))
        for module_name, attr, name in COUNTED:
            self._patch(module_name, attr, self._count_wrapper(name, attr))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module_name, attr, make_wrapper):
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[method]
            self._patches.append((owner, method, original))
            setattr(owner, method, make_wrapper(original))
            return
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kralldh" or mod_name.startswith("kralldh.")):
                continue
            if mod.__dict__.get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    # -- wrappers -------------------------------------------------------

    def _hook(self, attr):
        if attr == "det_exact":
            return self._on_det
        if attr == "nullspace_exact":
            return self._on_nullspace
        return None

    def _span_wrapper(self, name, before):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        is_construct = name == "constructors.construct"
        clock = time.perf_counter_ns
        stack = self._stack

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                idx = len(self.start)
                self.name_id.append(nid)
                self.parent.append(stack[-1] if stack else -1)
                self.request.append(self.current_request)
                self.end.append(0)
                stack.append(idx)
                self.start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end[idx] = clock()
                    stack.pop()
                if is_construct:
                    self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(result))
                return result

            return wrapper

        return make

    def _count_wrapper(self, name, attr):
        self.calls[name] = 0
        calls = self.calls

        def make(fn):
            if attr == "w_poly":
                signature = inspect.signature(fn)
                as_scalar = sys.modules["kralldh.exact"].as_scalar

                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    g, a, b, N, free, orientation = bound.args
                    self.w_poly_keys.add(
                        (g, a, b, as_scalar(N), tuple(as_scalar(m) for m in free), orientation)
                    )
                    return fn(*args, **kwargs)

                return wrapper

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _on_det(self, args):
        matrix = args[0]
        n = matrix.rows if hasattr(matrix, "rows") else len(matrix)
        self.max_n = max(self.max_n, n)

    def _on_nullspace(self, args):
        rows = args[0]
        cells = len(rows) * (len(rows[0]) if rows else 0)
        self.max_cells = max(self.max_cells, cells)
        search = self._name_ids["verify.operator_search"]
        for idx in reversed(self._stack):
            if self.name_id[idx] == search:
                self._search_rungs[idx] = self._search_rungs.get(idx, 0) + 1
                break

    # -- results --------------------------------------------------------

    def self_times_ns(self):
        """Per span name: (span count, summed self time in ns)."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        count = [0] * len(self.names)
        total = [0] * len(self.names)
        for i in range(n):
            nid = self.name_id[i]
            count[nid] += 1
            total[nid] += self.end[i] - self.start[i] - child[i]
        return {name: (count[k], total[k]) for k, name in enumerate(self.names)}

    def rung_max(self) -> int:
        return max(self._search_rungs.values(), default=0)

    def w_poly_hit_ratio(self) -> float:
        calls = self.calls["wpoly.w_poly"]
        return 1 - len(self.w_poly_keys) / calls if calls else 0.0

    def dump(self, path):
        """Write every span as a tab-separated line, times relative to the
        first span, after a header naming the columns."""
        origin = self.start[0] if len(self.start) else 0
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i] - origin}\t"
                    f"{self.end[i] - origin}\t{self.parent[i]}\t{self.request[i]}\n"
                )
