"""The wall ladder: scaling steps up to where sslift stops finishing.

Informational only: recorded once per invocation, after the measured
run, never gated and never an end-to-end metric.  Each step runs in
this process under a wall-clock timeout (SIGALRM) and is recorded as
seconds or "timeout"; the steps above a timeout on the same ladder are
recorded as "skipped" rather than run, since they are larger.
"""

from __future__ import annotations

import signal
import time

STEP_TIMEOUT_S = 2.0


class StepTimeout(Exception):
    pass


def _theorem_b_chain(n):
    from sslift.cat import chain_poset, identity_functor
    from sslift.theoremb import theorem_b_report

    return lambda: theorem_b_report(identity_functor(chain_poset(n))).status


def _cyclic_homology(n):
    from sslift.cat import cyclic_group_category, nerve
    from sslift.homology import homology

    return lambda: homology(nerve(cyclic_group_category(n), 4).sset).describe()


def _product(k):
    from sslift.products import Product
    from sslift.sset import standard_simplex

    return lambda: sum(Product(standard_simplex(k), standard_simplex(1)).sset.counts())


LADDERS = {
    "theorem_b_identity_chain": [(n, _theorem_b_chain) for n in (2, 3, 4)],
    "homology_cyclic_nerve_cap4": [(n, _cyclic_homology) for n in (3, 4, 5, 6)],
    "product_simplex_interval": [(k, _product) for k in (3, 4, 5, 6, 7)],
}


def _alarm(signum, frame):
    raise StepTimeout()


def run_ladders() -> dict:
    """{ladder: [{"size", "seconds" or "timeout"/"skipped", "result"}]}"""
    previous = signal.signal(signal.SIGALRM, _alarm)
    out: dict[str, list[dict]] = {}
    try:
        for name, steps in LADDERS.items():
            rows = []
            blocked = False
            for size, make in steps:
                if blocked:
                    rows.append({"size": size, "seconds": "skipped"})
                    continue
                job = make(size)
                t0 = time.perf_counter()
                try:
                    try:
                        signal.setitimer(signal.ITIMER_REAL, STEP_TIMEOUT_S)
                        result = job()
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                    row = {"size": size, "seconds": time.perf_counter() - t0,
                           "result": result}
                except StepTimeout:
                    row = {"size": size, "seconds": "timeout", "timeout_s": STEP_TIMEOUT_S}
                    blocked = True
                rows.append(row)
            out[name] = rows
    finally:
        signal.signal(signal.SIGALRM, previous)
    return out
