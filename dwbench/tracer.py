"""Outside-in tracer: wraps named dwlab functions and numpy.linalg from here.

Nothing inside ``src/`` is changed.  Each target is replaced by a wrapper that
records a span (name, start, end, parent) into flat arrays, and every global
of a loaded dwlab module that still holds the original function object is
rebound to the wrapper, because several modules import names directly
(``from .weights import class_report``).  A target missing from the program
is skipped, so its metrics read zero calls instead of failing.

Self time of a span is its duration minus the durations of its direct child
spans.  The sum of self times over all spans therefore equals the summed
duration of the root spans; the rest of the traced section is the untraced
remainder.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("grid", "weights", "stopping", "tb", "cones", "harness", "cli", "matrices", "linalg")

# (span name, module, attribute paths).  An attribute path is either a module
# global or "Class.method".  All paths of one entry share the span name.
SPANS = (
    ("grid.box_weights", "dwlab.grid", ("Grid.box_weights",)),
    ("grid.measure_box", "dwlab.grid", ("Grid.measure_box",)),
    ("grid.doubling_constant", "dwlab.grid", ("Grid.doubling_constant",)),
    ("grid.weight_field_init", "dwlab.grid", ("WeightField.__init__",)),
    ("grid.avg_entries", "dwlab.grid", ("WeightField.avg_entries",)),
    ("grid.read_weight_field", "dwlab.grid", ("read_weight_field",)),
    ("weights.cube_ratios", "dwlab.weights", ("cube_ratios",)),
    ("weights.class_report", "dwlab.weights", ("class_report",)),
    ("weights.thewest_constant", "dwlab.weights", ("thewest_constant",)),
    ("stopping.first_generation", "dwlab.stopping", ("_first_generation",)),
    ("stopping.run_stopping", "dwlab.stopping", ("run_stopping",)),
    ("stopping.iterated_sawtooth", "dwlab.stopping", ("iterated_sawtooth",)),
    ("stopping.box_cubes", "dwlab.stopping", ("box_cubes",)),
    ("tb.tb_run", "dwlab.tb", ("tb_run",)),
    ("tb.verify_hypotheses", "dwlab.tb", ("verify_hypotheses",)),
    ("tb.testfun_carleson", "dwlab.tb", ("testfun_carleson",)),
    ("tb.c3", "dwlab.tb", ("TestFamily.c3",)),
    ("tb.expectation", "dwlab.tb", ("TestFamily.expectation", "CanonicalFamily.expectation")),
    ("cones.build_net", "dwlab.cones", ("build_net",)),
    ("cones.cover_indices", "dwlab.cones", ("ConeNet.cover_indices",)),
    ("harness.inclusion_search", "dwlab.harness", ("inclusion_search",)),
    ("cli.canonical_json", "dwlab.config", ("canonical_json",)),
    ("cli.main", "dwlab.cli", ("main",)),
)

# Factories whose returned criterion closure is wrapped as "stopping.fires".
FIRES_FACTORIES = ("corona_criterion", "volberg_criterion", "_kato_fires_factory")

LINALG = ("solve", "inv", "svd", "eigh", "eigvalsh")



def _both(span):
    return (f"{span}.calls", f"{span}.self_s")


# Span metrics reported by name; ratios, per-layer totals and the trace's own
# figures are added by the benchmark.
SPAN_METRICS = (
    *_both("grid.box_weights"),
    *_both("grid.measure_box"),
    *_both("grid.doubling_constant"),
    *_both("grid.weight_field_init"),
    *_both("grid.avg_entries"),
    "grid.read_weight_field.self_s",
    *_both("weights.cube_ratios"),
    *_both("weights.class_report"),
    *_both("weights.thewest_constant"),
    *_both("stopping.first_generation"),
    *_both("stopping.run_stopping"),
    *_both("stopping.iterated_sawtooth"),
    *_both("stopping.box_cubes"),
    "stopping.fires.calls",
    "tb.tb_run.self_s",
    "tb.verify_hypotheses.self_s",
    *_both("tb.testfun_carleson"),
    "tb.c3.self_s",
    *_both("tb.expectation"),
    *_both("cones.build_net"),
    *_both("cones.cover_indices"),
    "harness.inclusion_search.self_s",
    "cli.canonical_json.self_s",
    *(m for attr in LINALG for m in _both(f"linalg.{attr}")),
)


def _layer(name):
    return name.split(".", 1)[0]


class Tracer:
    """Span recorder plus the counters that spans alone cannot give."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self._stack = [-1]
        self.errors = dict.fromkeys(LAYERS, 0)
        self.fires_selected = 0
        self.avg_keys = set()
        self._serial = {}
        self._undo = []

    # Recording ---------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, before=None, after=None):
        """Span-recording stand-in for ``fn``."""
        nid = self._name_id(name)
        layer = _layer(name)
        start, end, names, parents, stack = (
            self.start, self.end, self.name, self.parent, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(start)
            names.append(nid)
            parents.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            return after(result) if after is not None else result

        return wrapper

    def _count_fire(self, selected):
        if selected:
            self.fires_selected += 1
        return selected

    def _wrap_fires(self, crit):
        """Wrap the closure a criterion factory returned."""
        if dataclasses.is_dataclass(crit) and hasattr(crit, "fires"):
            wrapped = self.wrap("stopping.fires", crit.fires, after=self._count_fire)
            return dataclasses.replace(crit, fires=wrapped)
        if callable(crit):
            return self.wrap("stopping.fires", crit, after=self._count_fire)
        return crit

    def _avg_key_hook(self, fn):
        """Record the (field, cube, exponent) argument of each avg_entries call."""
        params = list(inspect.signature(fn).parameters.values())[1:]
        defaults = tuple(p.default for p in params)
        serial = self._serial

        def before(args, kwargs):
            field = args[0]
            ident = serial.setdefault(id(field), (len(serial), field))[0]
            given = args[1:]
            rest = tuple(
                kwargs.get(p.name, d) for p, d in zip(params[len(given):], defaults[len(given):])
            )
            self.avg_keys.add((ident, given + rest))

        return before

    # Installing --------------------------------------------------------------

    def _replace(self, owner, attr, new):
        """Set ``owner.attr`` and remember the old value for ``uninstall``."""
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def _rebind(self, original, new):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dwlab" or mod_name.startswith("dwlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, new)

    def _install_path(self, name, module, path, **hooks):
        parts = path.split(".")
        owner = module
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return
        attr = parts[-1]
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(raw):
            return
        if name == "grid.avg_entries":
            hooks = dict(hooks, before=self._avg_key_hook(raw))
        new = self.wrap(name, raw, **hooks)
        if isinstance(owner, type):
            self._replace(owner, attr, new)
        else:
            self._rebind(raw, new)

    def install(self):
        """Wrap every target present in the loaded dwlab modules and numpy.linalg."""
        for name, mod_name, paths in SPANS:
            module = sys.modules.get(mod_name)
            if module is None:
                continue
            for path in paths:
                self._install_path(name, module, path)
        stopping = sys.modules.get("dwlab.stopping")
        for attr in FIRES_FACTORIES:
            if stopping is not None and callable(getattr(stopping, attr, None)):
                self._install_path(
                    f"stopping.{attr.strip('_')}", stopping, attr, after=self._wrap_fires
                )
        # Every public function of the matrix kernel plus each SpdMatrix
        # construction counts towards matrices.calls.
        matrices = sys.modules.get("dwlab.matrices")
        if matrices is not None:
            for attr in getattr(matrices, "__all__", ()):
                if inspect.isfunction(getattr(matrices, attr, None)):
                    self._install_path(f"matrices.{attr}", matrices, attr)
            if isinstance(getattr(matrices, "SpdMatrix", None), type):
                self._install_path("matrices.SpdMatrix", matrices, "SpdMatrix.__init__")
        for attr in LINALG:
            fn = getattr(np.linalg, attr)
            self._replace(np.linalg, attr, self.wrap(f"linalg.{attr}", fn))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self._serial.clear()

    # Reading -----------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, parent index, start, end."""
        return (
            np.asarray(self.name, dtype=np.int64),
            np.asarray(self.parent, dtype=np.int64),
            np.asarray(self.start, dtype=np.float64),
            np.asarray(self.end, dtype=np.float64),
        )

    def summary(self):
        """Calls and self seconds per span name, with the counters and totals."""
        names, parents, start, end = self.arrays()
        dur = end - start
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        selfs = np.bincount(names, weights=self_time, minlength=k)
        return {
            "spans": {
                nm: {"calls": int(calls[i]), "self_s": float(selfs[i])}
                for i, nm in enumerate(self.names)
            },
            "root_s": float(dur[~child].sum()),
            "avg_distinct": len(self.avg_keys),
            "fires_selected": self.fires_selected,
            "errors": dict(self.errors),
        }

    def save(self, path):
        names, parents, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=names, parent=parents, start=start, end=end
        )
