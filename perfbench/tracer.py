"""Span tracer that measures the ringwaves layers from outside the package.

`Tracer.install()` replaces the public functions of each ringwaves module by
timing wrappers: in the defining module and under every name another loaded
ringwaves module imported it as (`from .x import f`).  Constructors are
wrapped on the class.  Spans (name, start, end, parent, request) stay in
memory; `self_times` subtracts the time covered by child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _count_lattice(counts, args, result):
    lattice = args[0]
    counts["groups.subgroups"] += len(lattice.subgroups)
    counts["groups.classes"] += lattice.n_classes


def _count_context(counts, args, result):
    counts["twisted.types"] += args[0].n_types


def _count_closure(counts, args, result):
    counts["reps.closure_elements"] += len(result)


def _count_critical_points(counts, args, result):
    if result is None:
        return
    # a list from enumerate_critical_points, a single (alpha, beta) pair from
    # critical_point; pairs found inside the enumeration are not counted twice
    counts["spectrum.critical_points"] += len(result) if isinstance(result, list) else 1


def _count_predictions(counts, args, result):
    counts["bifurcation.predictions"] += len(result.predictions)
    counts["bifurcation.withheld"] += len(result.withheld)


def _count_fd(counts, args, result):
    counts["verify.fd_unknowns"] += args[0].shape[0]


# (module, attribute, span name, counter); "Class.method" wraps on the class
TARGETS = [
    ("groups", "SubgroupClassLattice.__init__", "groups.lattice", _count_lattice),
    ("twisted", "TwistedContext.__init__", "twisted.context", _count_context),
    ("twisted", "module_product", "twisted.module_product", None),
    ("burnside", "multiply", "burnside.multiply", None),
    ("burnside", "multiplication_table", "burnside.table", None),
    ("reps", "generated_group", "reps.closure", _count_closure),
    ("reps", "fixed_dim", "reps.fixed_dim", None),
    ("degrees", "twisted_basic_degree", "degrees.twisted_basic_degree", None),
    ("degrees", "linear_iso_degree", "degrees.linear_iso_degree", None),
    ("spectrum", "enumerate_critical_points", "spectrum.critical_points", _count_critical_points),
    ("spectrum", "critical_point", "spectrum.critical_points", _count_critical_points),
    ("spectrum", "index_sets", "spectrum.index_sets", None),
    ("bifurcation", "h_fixed_invariant", "bifurcation.invariant", None),
    ("bifurcation", "local_invariant", "bifurcation.invariant", None),
    ("bifurcation", "maximal_orbit_generators", "bifurcation.generators", None),
    ("bifurcation", "generators_to_type", "bifurcation.orbit_type", None),
    ("bifurcation", "symmetry_relations", "bifurcation.relations", None),
    ("bifurcation", "predict_branches", "bifurcation.predict", _count_predictions),
    ("verify", "sigma_min_scan", "verify.scan", None),
    ("verify", "assemble", "verify.assemble", None),
    ("verify", "smallest_singular_value", "verify.sigma_min", _count_fd),
    ("verify", "spectral_eigenvalue_deviation", "verify.spectral", None),
    ("verify", "eigenfunction", "verify.eigenfunction", None),
    ("verify", "symmetry_check", "verify.symmetry_check", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, request]
        self.counts = defaultdict(Counter)  # request -> counter
        self.request = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def add_span(self, name, start, end, request):
        self.spans.append([name, start, end, -1, request])

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = bool(stack) and spans[stack[-1]][0] == name
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            counts = self.counts[self.request]
            counts[name + ".calls"] += 1
            if count is not None and not nested:
                count(counts, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target in every loaded ringwaves module (once)."""
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ringwaves" or n.startswith("ringwaves."))]
        for mod_name, attr, name, count in TARGETS:
            owner = sys.modules["ringwaves." + mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, count))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_name, start, end, _parent, _req) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans, requests):
    """Sum of self times per span name over spans of the given requests."""
    totals = Counter()
    for span, own in zip(spans, self_times(spans)):
        if span[4] in requests:
            totals[span[0]] += own
    return totals
