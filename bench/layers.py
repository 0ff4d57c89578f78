"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install()`` wraps the public functions and constructors listed
in ``LAYERS`` and rebinds each wrapper in every ``sslift`` module
namespace that holds the original (``solve_integer``, for one, is bound
in both ``homology`` and ``transport``).  ``uninstall()`` puts the
originals back.  A wrapped call is a span: its self time is its
duration minus the time of wrapped calls made inside it.  Spans and
counters stay in memory, summed per layer and per question, and are
written out when the run ends.

``words`` is not wrapped: its helpers are called once per simplex
operation, too finely for a wrapper from outside to cost less than the
work it measures.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict


class Stat:
    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts: dict[str, float] = defaultdict(float)


class Tracer:
    """Spans and counters for one benchmark process."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.by_question: dict[str, dict[str, list]] = defaultdict(dict)
        self.question: str | None = None
        self._stack: list[list[float]] = []  # per open span: time of its children
        self._saved: list[tuple[object, str, object]] = []
        self.matrices: set = set()  # distinct factorized matrices this round
        self.distinct_matrices = 0  # summed over rounds
        self.factorizing_calls = 0
        self.max_matrix_entries = 0

    # -- recording ---------------------------------------------------------

    def _record(self, name: str, dt: float, child: float) -> None:
        st = self.stats[name]
        st.calls += 1
        st.self_s += dt - child
        if self.question is not None:
            row = self.by_question[self.question].setdefault(name, [0, 0.0])
            row[0] += 1
            row[1] += dt - child

    def span(self, name: str, fn, after=None):
        """fn wrapped as a span; after(tracer, stat, args, result) counts."""
        stack = self._stack
        clock = time.perf_counter
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self._record(name, dt, frame[0])
            if after is not None:
                h0 = clock()
                after(self, stat, args, result)
                if stack:  # counting is tracing overhead, not the caller's work
                    stack[-1][0] += clock() - h0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted_generator(self, name: str, fn):
        """fn, a generator function, with its yields counted; no span, as
        its work runs interleaved with the consumer's."""
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                stat.counts["yielded"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def factorization(self, m) -> None:
        rows = m.data if hasattr(m, "data") else m
        key = tuple(tuple(r) for r in rows)
        self.factorizing_calls += 1
        self.matrices.add(key)
        entries = len(rows) * (len(rows[0]) if rows else 0)
        self.max_matrix_entries = max(self.max_matrix_entries, entries)

    def begin_question(self, qid: str) -> None:
        """Open the root span of one question."""
        self.question = qid
        self._stack.append([0.0])

    def end_question(self, dt: float) -> None:
        """Close the root span; its self time is the question's time
        outside every wrapped layer."""
        frame = self._stack.pop()
        self._record("bench.question", dt, frame[0])
        self.question = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer in LAYERS across the loaded sslift modules."""
        import sslift.cli  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n == "sslift" or n.startswith("sslift.")]
        for module_name, attr, kind, after in LAYERS:
            owner = sys.modules[f"sslift.{module_name}"]
            name = f"{module_name}.{attr}"
            if kind in ("init", "method"):
                cls_name, _, meth = attr.partition(".")
                cls = getattr(owner, cls_name)
                meth = meth or "__init__"
                self._swap(cls, meth, self.span(name, cls.__dict__[meth], after))
                continue
            original = getattr(owner, attr)
            if kind == "generator":
                wrapped = self.counted_generator(name, original)
            else:
                wrapped = self.span(name, original, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, key, wrapped)

    def _swap(self, holder, key: str, value) -> None:
        self._saved.append((holder, key, holder.__dict__[key]))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        """Put the originals back; this ends a traced round."""
        self.distinct_matrices += len(self.matrices)
        self.matrices.clear()
        while self._saved:
            holder, key, value = self._saved.pop()
            setattr(holder, key, value)

    # -- results -------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round values of every per-layer metric."""
        out: dict[str, float] = {}
        for name, fields in METRICS.items():
            st = self.stats.get(name) or Stat()
            for f in fields:
                if f == "calls":
                    out[f"{name}.calls"] = st.calls / rounds
                elif f == "self_s":
                    out[f"{name}.self_s"] = st.self_s / rounds
                elif f.endswith("_frac"):
                    out[f"{name}.{f}"] = st.counts[f] / st.calls if st.calls else 0.0
                else:
                    out[f"{name}.{f}"] = st.counts[f] / rounds
        distinct = self.distinct_matrices
        out["homology.factorizing_calls"] = self.factorizing_calls / rounds
        out["homology.distinct_matrices"] = distinct / rounds
        out["homology.factorizations_per_matrix"] = (
            self.factorizing_calls / distinct if distinct else 0.0
        )
        out["homology.max_matrix_entries"] = float(self.max_matrix_entries)
        return out


# -- the layers -----------------------------------------------------------------


def _cells_built(tracer, stat, args, result):
    stat.counts["cells"] += args[0].sset.total_cells()


def _cells_validated(tracer, stat, args, result):
    stat.counts["cells"] += args[0].total_cells()


def _entries(tracer, stat, args, result):
    stat.counts["entries"] += sum(m.rows * m.cols for m in result.boundaries)


def _factorizing(tracer, stat, args, result):
    tracer.factorization(args[0])


def _solved(tracer, stat, args, result):
    stat.counts["solved_frac"] += result is not None


def _verdict(tracer, stat, args, result):
    stat.counts["true_frac"] += bool(result[0])


def _path_bytes(tracer, stat, args, result):
    stat.counts["bytes"] += os.path.getsize(args[0])


def _text_bytes(tracer, stat, args, result):
    stat.counts["bytes"] += len(result.encode("utf-8"))


# (module, attribute, how to wrap, counter)
LAYERS = [
    ("cat", "Nerve", "init", _cells_built),
    ("cat", "comma_category", "function", None),
    ("products", "PairedSSet", "init", _cells_built),
    ("products", "pullback_induced", "function", None),
    ("sset", "SimplicialSet.validate", "method", _cells_validated),
    ("sset", "SMap.validate", "method", None),
    ("homology", "chain_complex", "function", _entries),
    ("homology", "homology", "function", None),
    ("homology", "solve_integer", "function", _factorizing),
    ("homology", "kernel_basis", "function", _factorizing),
    ("homology", "smith_normal_form", "function", _factorizing),
    ("homology", "induced_homology", "function", None),
    ("lifting", "certify_fibration_class", "function", None),
    ("lifting", "iter_horn_problems", "generator", None),
    ("lifting", "solve_horn_lift", "function", _solved),
    ("lifting", "is_cartesian_edge", "function", _verdict),
    ("lifting", "lift_homotopy", "function", None),
    ("transport", "transport_homology", "function", None),
    ("theoremb", "theorem_b_report", "function", None),
    ("verify", "realization_fibration_certificate", "function", None),
    ("verify", "ltg_check", "function", None),
    ("formats", "load_path", "function", _path_bytes),
    ("formats", "canonical_json", "function", _text_bytes),
    ("cli", "main", "function", None),
]

# Reported fields per layer: calls, self_s and counters per round;
# *_frac counters as a share of the layer's calls.  "bench.question" is
# the time of questions spent outside every wrapped layer.
METRICS = {
    "cat.Nerve": ("calls", "self_s", "cells"),
    "cat.comma_category": ("self_s",),
    "products.PairedSSet": ("calls", "self_s", "cells"),
    "products.pullback_induced": ("self_s",),
    "sset.SimplicialSet.validate": ("calls", "self_s", "cells"),
    "sset.SMap.validate": ("calls", "self_s"),
    "homology.chain_complex": ("calls", "self_s", "entries"),
    "homology.homology": ("calls", "self_s"),
    "homology.solve_integer": ("calls", "self_s"),
    "homology.kernel_basis": ("calls", "self_s"),
    "homology.smith_normal_form": ("calls", "self_s"),
    "homology.induced_homology": ("calls", "self_s"),
    "lifting.certify_fibration_class": ("calls", "self_s"),
    "lifting.iter_horn_problems": ("yielded",),
    "lifting.solve_horn_lift": ("calls", "self_s", "solved_frac"),
    "lifting.is_cartesian_edge": ("calls", "self_s", "true_frac"),
    "lifting.lift_homotopy": ("calls", "self_s"),
    "transport.transport_homology": ("calls", "self_s"),
    "theoremb.theorem_b_report": ("self_s",),
    "verify.realization_fibration_certificate": ("self_s",),
    "verify.ltg_check": ("self_s",),
    "formats.load_path": ("calls", "self_s", "bytes"),
    "formats.canonical_json": ("self_s", "bytes"),
    "cli.main": ("calls", "self_s"),
    "bench.question": ("self_s",),
}
