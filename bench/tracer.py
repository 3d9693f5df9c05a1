"""Outside-in tracing of the hightrans package for the benchmark.

A ``Tracer`` replaces public functions and methods of ``hightrans`` with
wrappers, runs the caller's code, and puts every original back.  Nothing
inside the package changes: every module binding that refers to a wrapped
function (``engine.search_E_set``, ``graphs.audit_hcf``, the package's
re-exports, ...) is swapped for the same wrapper, and class attributes are
swapped on the class that defines them.

Two kinds of wrapper:

* a *span* boundary (command, engine step, ``search_E_set``,
  ``check_equivariance``) records ``(id, name, start, end, parent, run)``
  plus a few attributes, and keeps spans in memory;
* every other wrapped name is *aggregated*: a call count, outermost total
  time and self time per name, and a count and self time per
  ``(name, parent span)``, because the hot names are called millions of
  times in one run.

Self time is a call's duration minus the durations of the wrapped calls
made inside it.  Wrapper overhead is part of every measured time; the
benchmark reports it as ``trace.overhead_frac``.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

PACKAGE = "hightrans"

MODULES = ("groups", "embeddings", "normal_forms", "hcf", "action", "engine",
           "graphs", "problem", "cli", "fixtures")

STRATEGIES = ("TrivialStrategy", "FiniteImageStrategy", "LatticeStrategy",
              "CyclicFreeStrategy", "FactorStrategy", "BoundedStrategy")

GROUP_KINDS = (("free", "FreeGroup"), ("free_abelian", "FreeAbelianGroup"),
               ("finite", "FiniteGroup"), ("semidirect", "SemidirectGroup"),
               ("amalgam", "AmalgamGroup"), ("hnn", "HnnGroup"))

# (trace name, module, attribute path) of every span boundary inside the package
SPANS = (
    ("engine.extend_transitivity", "engine", "extend_transitivity"),
    ("engine.ensure_faithful", "engine", "ensure_faithful"),
    ("hcf.search_E_set", "hcf", "search_E_set"),
    ("action.check_equivariance", "action", "IntertwinerState.check_equivariance"),
)

# (trace name, module, attribute path) of every aggregated name
AGGREGATES = (
    ("engine.run_schedule", "engine", "run_schedule"),
    ("engine.verify_certificate_report", "engine", "verify_certificate_report"),
    ("hcf.audit_hcf", "hcf", "audit_hcf"),
    ("hcf.certify_structural", "hcf", "certify_structural"),
    ("hcf.audit_highly_faithful", "hcf", "audit_highly_faithful"),
    ("action.twist", "action", "IntertwinerState.twist"),
    ("action.commit_batch", "action", "IntertwinerState.commit_batch"),
    ("action.evaluate_pi", "action", "evaluate_pi"),
    ("action.allocate_fresh_orbits", "action", "allocate_fresh_orbits"),
    ("action.LevelAction.act", "action", "LevelAction.act"),
    ("embeddings.decompose", "embeddings", "Embedding.decompose"),
    ("embeddings.contains", "embeddings", "Embedding.contains"),
    *((f"embeddings.{s}.{m}", "embeddings", f"{s}.{m}")
      for s in STRATEGIES for m in ("contains", "decompose")),
    ("normal_forms.reduce_amalgam_tokens", "normal_forms", "reduce_amalgam_tokens"),
    ("normal_forms.reduce_hnn_tokens", "normal_forms", "reduce_hnn_tokens"),
    ("normal_forms.parse_word", "normal_forms", "parse_word"),
    *((f"groups.{kind}.multiply", "groups", f"{cls}.multiply") for kind, cls in GROUP_KINDS),
    ("graphs.reduce_edge", "graphs", "reduce_edge"),
    ("graphs.validate_main_hypotheses", "graphs", "validate_main_hypotheses"),
    ("problem.parse_problem", "problem", "parse_problem"),
    ("problem.emit_certificate", "problem", "emit_certificate"),
    ("problem.load_certificate", "problem", "load_certificate"),
)

# argument-size probes: name -> f(args) giving a number summed per call
_SIZES = {
    "normal_forms.reduce_amalgam_tokens": lambda args: len(args[1]),
    "normal_forms.reduce_hnn_tokens": lambda args: len(args[1]),
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "attrs")

    def __init__(self, id, name, start, parent, run):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.attrs = {}


class Stat:
    """Per-name aggregate: calls, outermost total, self time, size sum, errors."""

    __slots__ = ("calls", "total_s", "self_s", "size", "errors", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.size = 0
        self.errors = {}
        self.depth = 0


def package_modules():
    pkg = importlib.import_module(PACKAGE)
    return [pkg] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]


def _resolve(module, path):
    mod = importlib.import_module(f"{PACKAGE}.{module}")
    owner = mod
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Wraps hightrans from outside; use ``installed()`` as a context manager."""

    def __init__(self, run_id="run"):
        self.run_id = run_id
        self.spans = []
        self.stats = {}
        self.by_parent = {}      # (name, parent span id) -> [calls, self_s]
        self._open = [None]      # open span ids; None is the root
        self._child = [0.0]      # per open frame: time spent in wrapped children
        self._saved = []         # (module or class, attribute, original)
        self.originals = {}      # trace name -> original callable

    # -- recording ------------------------------------------------------------

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _enter(self):
        self._child.append(0.0)
        return time.perf_counter()

    def _leave(self, name, st, t0):
        elapsed = time.perf_counter() - t0
        child = self._child.pop()
        self._child[-1] += elapsed
        own = elapsed - child
        st.calls += 1
        st.self_s += own
        st.depth -= 1
        if st.depth == 0:
            st.total_s += elapsed
        key = (name, self._open[-1])
        slot = self.by_parent.get(key)
        if slot is None:
            self.by_parent[key] = [1, own]
        else:
            slot[0] += 1
            slot[1] += own
        return elapsed

    @contextmanager
    def span(self, name, **attrs):
        """A span around caller code, e.g. one CLI command."""
        st = self.stat(name)
        st.depth += 1
        sp = Span(len(self.spans), name, None, self._open[-1], self.run_id)
        sp.attrs.update(attrs)
        self.spans.append(sp)
        self._open.append(sp.id)
        t0 = sp.start = self._enter()
        try:
            yield sp
        finally:
            self._open.pop()
            sp.end = sp.start + self._leave(name, st, t0)

    def _span_wrapper(self, name, fn, annotate):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as sp:
                if annotate is not None:
                    annotate(sp, args, None, False)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except Exception as exc:
                    sp.attrs["raised"] = type(exc).__name__
                    raise
                finally:
                    if annotate is not None:
                        annotate(sp, args, result, True)

        wrapper.__wrapped__ = fn
        return wrapper

    def _aggregate_wrapper(self, name, fn):
        tracer = self
        st = self.stat(name)
        child = self._child
        clock = time.perf_counter
        size_of = _SIZES.get(name)

        def wrapper(*args, **kwargs):
            st.depth += 1
            if size_of is not None:
                st.size += size_of(args)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                kind = type(exc).__name__
                st.errors[kind] = st.errors.get(kind, 0) + 1
                raise
            finally:
                tracer._leave(name, st, t0)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------------

    def _swap(self, owner, attr, new):
        # vars() raises KeyError for an inherited method: wrap it where defined
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _install_one(self, name, module, path, wrap):
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        wrapped = wrap(name, original)
        self.originals[name] = original
        if isinstance(owner, type):
            self._swap(owner, attr, wrapped)
            return
        # a module-level function: replace every binding in the package
        for mod in package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._swap(mod, key, wrapped)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, module, path in SPANS:
            self._install_one(name, module, path,
                              lambda n, f: self._span_wrapper(n, f, _ANNOTATE.get(n)))
        for name, module, path in AGGREGATES:
            self._install_one(name, module, path, self._aggregate_wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading ----------------------------------------------------------------

    def calls(self, name):
        st = self.stats.get(name)
        return st.calls if st else 0

    def calls_under(self, name, span_id):
        slot = self.by_parent.get((name, span_id))
        return slot[0] if slot else 0

    def spans_named(self, name):
        return [s for s in self.spans if s.name == name]


def _annotate_search(sp, args, result, done):
    """search_E_set(action, xs, F, radius): tuple length, |F|, outcome."""
    if not done:
        sp.attrs["n"] = len(args[1])
        sp.attrs["protected"] = len(args[2])
    else:
        sp.attrs["found"] = result is not None and "raised" not in sp.attrs


_ANNOTATE = {"hcf.search_E_set": _annotate_search}


def snapshot():
    """Every binding a Tracer may replace, as the package holds it now: the
    attributes of each package module and of each class it wraps methods on.
    Comparing two snapshots by identity shows whether an uninstall restored
    every original."""
    out = {}
    for mod in package_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
    for _, module, path in SPANS + AGGREGATES:
        owner, _ = _resolve(module, path)
        if isinstance(owner, type):
            for key, value in vars(owner).items():
                out[(owner.__module__, owner.__qualname__, key)] = value
    return out
