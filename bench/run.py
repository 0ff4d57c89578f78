"""sslift benchmark: one closed-loop client asking seeded questions.

From the root of a checkout::

    python3 bench/run.py --workload nerves --seed 3 --seconds 10 --trace 0
    python3 bench/run.py --pin   # re-pin the answer digests of the default seed

One process, one thread: the client asks sslift one question at a time
and asks the next only when the answer is in.  A question is the
in-process ``sslift.cli.main(["--json", ...])`` on documents written
during set-up, or, for homotopy lifting (no subcommand), the public API
starting from a parsed document.  Every question builds its objects
from its document inside the timed region, so no per-object cache
survives from one question to the next.  Garbage is collected between
questions, outside the timed region.

The run asks whole rounds (see ``gen.py``: the workload's core plus the
next entries of its seeded pool) until ``--seconds`` have gone by and at
least ``MIN_ANSWERS`` questions are asked.  With ``--trace 0`` it prints the
end-to-end metrics.  With ``--trace 1`` an untraced and a traced round
ask each batch in turn, and it prints the per-layer metrics of the
traced rounds, per round, with the tracing overhead.

Every answer is checked: exit code, the oracle in ``oracles.py`` (once
per distinct question; later answers must repeat its bytes), and the
digest pinned in ``pinned.json`` where one exists for the question.
The last line of stdout is the JSON result; a full record (provenance,
failures, per-round counts, per-question spans, the wall ladder) is
written under ``.bench_out/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
PINS = os.path.join(HERE, "pinned.json")
DEFAULT_SEED = 0
SETUPS = 3  # set-ups per run; setup_s is their median
MIN_ANSWERS = 100  # so that at least ten answers lie above p90
KEY_HEX = 16  # hex digits kept of question keys and pinned answer digests

sys.path.insert(0, HERE)
import gen  # noqa: E402
import ladder  # noqa: E402
from oracles import Oracles, check_lift  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "answer_s.p50": "s",
    "answer_s.p90": "s",
    "peak_rss_mb": "MB",
}


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- set-up ------------------------------------------------------------------------


def run_setup(workload: str, seed: int, out: str) -> float:
    """One set-up in a fresh interpreter; its wall time from start to exit."""
    cmd = [sys.executable, os.path.join(HERE, "gen.py"),
           "--workload", workload, "--seed", str(seed), "--out", out]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: set-up failed with exit code {proc.returncode}")
    return dt


def tree_bytes(path: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


class Questions:
    """The seed's questions with their inputs resolved to paths, and the
    rounds they are asked in."""

    def __init__(self, docdir: str):
        with open(os.path.join(docdir, "questions.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        self.docdir = docdir
        self.seed = manifest["seed"]
        self.core = manifest["core"]
        self.pool = manifest["pool"]
        self.per_round = manifest["per_round"]
        for q in self.all():
            q["args"] = [self.path(a) if a.startswith("@") else a for a in q["argv"]]
            q["key"] = digest_text(json.dumps(
                [q["kind"]] + [sha256_file(self.path(a)) if a.startswith("@") else a
                               for a in q["argv"]]))[:KEY_HEX]

    def path(self, ref: str) -> str:
        where, name = ref[1:].split(":", 1)
        base = self.docdir if where == "doc" else os.path.join(ROOT, "fixtures")
        return os.path.join(base, name)

    def all(self) -> list[dict]:
        return self.core + [q for entry in self.pool for q in entry]

    def round(self, batch: int) -> list[dict]:
        """The core plus the batch-th run of pool entries, in a seeded order."""
        k, m = self.per_round, len(self.pool)
        qs = self.core + [q for j in range(k) for q in self.pool[(batch * k + j) % m]]
        random.Random(self.seed * 1_000_003 + batch).shuffle(qs)
        return qs


# -- asking ------------------------------------------------------------------------


class Client:
    """Asks one question at a time; looks up sslift names at call time so
    that the tracer's wrappers take effect when installed."""

    def __init__(self):
        gen.import_sslift()
        import sslift.cli  # noqa: F401  (the package does not import it)

        self.m = sys.modules

    def ask(self, q: dict):
        """(seconds, exit code, stdout, stderr, lift context or None)"""
        if q["kind"] == "lift":
            return self._lift(*q["args"])
        cli = self.m["sslift.cli"]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["--json", *q["args"]])
            except SystemExit as e:
                code = e.code
        dt = time.perf_counter() - t0
        return dt, code, out.getvalue(), err.getvalue(), None

    def _lift(self, variant: str, path: str):
        formats = self.m["sslift.formats"]
        lifting = self.m["sslift.lifting"]
        sset = self.m["sslift.sset"]
        t0 = time.perf_counter()
        y = formats.load_path(path)
        p = sset.identity_map(y)
        if variant == "contraction":
            homotopy, prism = lifting.last_vertex_contraction(y.dimension)
        else:
            prism = lifting.cylinder(y)
            homotopy = p.compose(prism.to_left)
        region = lifting.cylinder_region(prism)
        start = sset.restrict_map(homotopy, region)
        lift = lifting.lift_homotopy(p, prism, homotopy, start)
        dt = time.perf_counter() - t0
        doc = json.dumps(formats.emit_document(lift), ensure_ascii=False, sort_keys=True,
                         indent=2) + "\n"
        return dt, 0, doc, "", (homotopy, lift)


class Run:
    """Answers, checks and bookkeeping for one invocation."""

    def __init__(self, questions: Questions, pins: dict, require_pins: bool, tracer=None):
        self.qs = questions
        self.pins = pins
        self.require_pins = require_pins
        self.client = Client()
        self.oracles = Oracles(questions.path)
        self.tracer = tracer
        self.first: dict[str, str] = {}
        self.latencies: list[float] = []  # untraced answers
        self.rounds: list[tuple[int, float]] = []  # untraced (answers, seconds)
        self.traced_rounds: list[tuple[int, float]] = []
        self.failures: list[dict] = []
        self.attempted = 0
        self.trace_mismatch = False

    def fail(self, q, round_no, cause):
        self.failures.append({"id": q["id"], "label": q["label"], "round": round_no,
                              "cause": cause})

    def one(self, q: dict, round_no: int, traced: bool) -> float | None:
        """Ask and check one question; its latency, or None if it raised."""
        gc.collect()
        self.attempted += 1
        if traced:
            self.tracer.begin_question(q["id"])
        t0 = time.perf_counter()
        try:
            dt, code, out, err, lift = self.client.ask(q)
        except Exception as e:  # a traceback is a failed answer, not a crash
            if traced:
                self.tracer.end_question(time.perf_counter() - t0)
            self.fail(q, round_no, f"raised {type(e).__name__}: {e}")
            return None
        if traced:
            self.tracer.end_question(dt)
        self.check(q, round_no, code, out, err, lift, traced)
        return dt

    def check(self, q, round_no, code, out, err, lift, traced=False):
        digest = digest_text(f"{code}\n{out}")
        first = self.first.get(q["id"])
        if first is None:
            self.first[q["id"]] = digest
            try:
                cause = self.oracles.check(q, code, out)
                if cause is None and lift is not None:
                    cause = check_lift(*lift)
            except Exception as e:
                cause = f"oracle raised {type(e).__name__}: {e}"
            if cause is not None:
                if err.strip():
                    cause += f" (stderr: {err.strip().splitlines()[-1]})"
                self.fail(q, round_no, cause)
                return
        elif digest != first:
            self.trace_mismatch |= traced
            self.fail(q, round_no, "answer bytes differ from its earlier answer")
            return
        pinned = self.pins.get(q["key"])
        if pinned is not None and pinned != digest[:KEY_HEX]:
            self.fail(q, round_no, "answer digest differs from the pinned one")
        elif pinned is None and self.require_pins:
            self.fail(q, round_no, "no pinned digest for a default-seed question")

    def run_round(self, round_no: int, batch: int, traced: bool) -> None:
        if traced:
            self.tracer.install()
        try:
            times = [self.one(q, round_no, traced) for q in self.qs.round(batch)]
        finally:
            if traced:
                self.tracer.uninstall()
        times = [t for t in times if t is not None]
        (self.traced_rounds if traced else self.rounds).append((len(times), sum(times)))
        if not traced:
            self.latencies += times

    def loop(self, seconds: float, trace: bool) -> int:
        """Whole rounds until the time and the answer count are reached.
        With trace, an untraced and a traced round ask each batch in turn."""
        t_end = time.perf_counter() + seconds
        r = 0
        while True:
            traced = trace and r % 2 == 1
            self.run_round(r, r // 2 if trace else r, traced)
            r += 1
            done = time.perf_counter() >= t_end and self.attempted >= MIN_ANSWERS
            if done and (not trace or r % 2 == 0):
                return r


# -- metrics -----------------------------------------------------------------------


def rate(rounds) -> float:
    """Answers per second of answering, over all the given rounds."""
    return sum(n for n, _ in rounds) / sum(s for _, s in rounds)


def end_to_end(run: Run, setup_s: float) -> tuple[dict, dict]:
    lat = sorted(run.latencies)
    if len(lat) < MIN_ANSWERS:
        raise SystemExit(f"bench: only {len(lat)} of {run.attempted} questions answered")
    p90 = statistics.quantiles(lat, n=10)[8]
    values = {
        "setup_s": setup_s,
        "answers_per_s": rate(run.rounds),
        "answer_s.p50": statistics.median(lat),
        "answer_s.p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"answers": len(lat), "p90_samples_above": sum(1 for v in lat if v > p90)}
    return values, extra


def per_layer(run: Run) -> dict:
    values = run.tracer.metrics(len(run.traced_rounds))
    untraced, traced = rate(run.rounds), rate(run.traced_rounds)
    values["trace.answers_per_s"] = traced
    values["trace.untraced_answers_per_s"] = untraced
    values["trace.overhead_frac"] = 1.0 - traced / untraced
    values["failed_frac"] = len(run.failures) / run.attempted
    return values


def layer_units() -> dict:
    from layers import METRICS

    units = {}
    for name, fields in METRICS.items():
        for f in fields:
            units[f"{name}.{f}"] = ("s" if f == "self_s" else "frac" if f.endswith("_frac")
                                    else "B" if f == "bytes" else "count")
    units.update({
        "homology.factorizing_calls": "count",
        "homology.distinct_matrices": "count",
        "homology.factorizations_per_matrix": "ratio",
        "homology.max_matrix_entries": "count",
        "trace.answers_per_s": "1/s",
        "trace.untraced_answers_per_s": "1/s",
        "trace.overhead_frac": "frac",
        "failed_frac": "frac",
    })
    return units


def provenance(seed: int, workload: str) -> dict:
    src = os.path.join(ROOT, "src", "sslift")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
        "seed": seed,
        "workload": workload,
    }


def load_pins() -> dict:
    if not os.path.exists(PINS):
        return {}
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


# -- entry points ------------------------------------------------------------------


def bench(args) -> int:
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    try:
        dirs = [os.path.join(work, f"setup{k}") for k in range(SETUPS)]
        setup_times = [run_setup(args.workload, args.seed, d) for d in dirs]
        other = os.path.join(work, "other-seed")
        run_setup(args.workload, args.seed + 1, other)
        questions = Questions(dirs[0])
        self_checks = {
            "same_seed_identical_documents": all(
                tree_bytes(d) == tree_bytes(dirs[0]) for d in dirs[1:]),
            "other_seed_asks_other_questions": (
                {q["key"] for q in Questions(other).all()}
                != {q["key"] for q in questions.all()}),
        }
        tracer = None
        if args.trace:
            from layers import Tracer

            tracer = Tracer()
        run = Run(questions, load_pins(), args.seed == DEFAULT_SEED, tracer)
        rounds = run.loop(args.seconds, bool(args.trace))
        if args.trace:
            metrics, units = per_layer(run), layer_units()
            extra = {"spans_by_question": tracer.by_question,
                     "trace_digests_agree": not run.trace_mismatch}
        else:
            metrics, extra = end_to_end(run, statistics.median(setup_times))
            units = END_TO_END_UNITS
        walls = ladder.run_ladders()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not run.failures and all(self_checks.values())
    record = {
        "provenance": provenance(args.seed, args.workload),
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "round_answers_seconds": run.rounds + run.traced_rounds,
        "questions": {"core": len(questions.core), "pool_entries": len(questions.pool),
                      "pool_entries_per_round": questions.per_round},
        "answers_per_workload": {args.workload: run.attempted},
        "setup_times_s": setup_times,
        "self_checks": self_checks,
        "metrics": metrics,
        "failures": run.failures,
        "wall_ladder": walls,
        "notes": ["module 'words' is not measured: it is called too finely to wrap "
                  "from outside the program"],
        **extra,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    with open(os.path.join(OUT, "results", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for f in run.failures[:20]:
        print(f"bench: FAILED {f['id']} ({f['label']}) round {f['round']}: {f['cause']}",
              file=sys.stderr)
    for check, ok in self_checks.items():
        if not ok:
            print(f"bench: self-check failed: {check}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def pin() -> int:
    """Answer every default-seed question once, check it, and write the
    digests of the answers to pinned.json."""
    digests = {}
    failures = []
    for workload in gen.WORKLOADS:
        work = os.path.join(OUT, f"pin-{workload}-{os.getpid()}")
        try:
            run_setup(workload, DEFAULT_SEED, work)
            qs = Questions(work)
            run = Run(qs, {}, False)
            for q in qs.all():
                dt, code, out, err, lift = run.client.ask(q)
                run.check(q, 0, code, out, err, lift)
                digests[q["key"]] = digest_text(f"{code}\n{out}")[:KEY_HEX]
            failures += run.failures
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if failures:
        for f in failures:
            print(f"bench: FAILED {f['label']}: {f['cause']}", file=sys.stderr)
        return 1
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(digests)} answers for seed {DEFAULT_SEED}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="re-pin default-seed answer digests")
    args = ap.parse_args(argv)
    for where in (os.path.join(ROOT, "src", "sslift"), os.path.join(ROOT, "fixtures")):
        if not os.path.isdir(where):
            print(f"bench: {os.path.relpath(where, ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    if args.pin:
        return pin()
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
