"""Command line front end.

Every subcommand reads document files (JSON with a "kind" field) and
reports either human-readable lines or, with --json, a single
canonical JSON document whose bytes are stable across runs.

Exit codes: 0 success or certified, 1 refuted with a witness,
2 inconclusive because a cap or truncation got in the way, 3 bad
input, usage errors included, 4 an internal fault of sslift itself.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import words as W
from .cat import FiniteCategory, Functor, nerve
from .formats import FormatError, canonical_json, emit_document, load_path
from .homology import TruncationError, euler_characteristic, homology
from .lifting import certify_edge_lifts, certify_fibration_class, certify_inner_fibration
from .products import Fiber
from .sset import SMap, SimplexRef, SimplicialError, SimplicialSet, ValidationError
from .theoremb import theorem_b_report
from .transport import transport_homology
from .verify import ltg_check, realization_fibration_certificate

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


class InputProblem(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are input problems, reported on one line."""

    def error(self, message):
        raise InputProblem(message)


def _load(path: str, want, what: str):
    try:
        obj = load_path(path)
    except OSError as e:
        raise InputProblem(f"{path}: {e.strerror or e}") from None
    except (FormatError, ValidationError, SimplicialError) as e:
        raise InputProblem(f"{path}: {e}") from None
    if not isinstance(obj, want):
        raise InputProblem(f"{path}: expected a {what} document, got {type(obj).__name__}")
    return obj


def _find_ref(x: SimplicialSet, text: str, degree: int | None = None) -> SimplexRef:
    """Resolve a command line simplex reference.

    Accepts a JSON pair ["word", "cell"] with a comma-separated
    degeneracy word, or a bare nondegenerate cell id.
    """
    word = ()
    cell = text
    try:
        entry = json.loads(text)
    except (ValueError, RecursionError):  # not JSON: a bare cell id
        entry = None
    if isinstance(entry, list) and len(entry) == 2 and all(isinstance(s, str) for s in entry):
        try:
            word = W.parse_word(entry[0])
        except ValueError as exc:
            raise InputProblem(f"{text!r}: {exc}") from None
        cell = entry[1]
    hits = [n for n in x.degrees() if x.has_cell(n, cell)]
    if not hits:
        raise InputProblem(f"no cell named {cell!r}")
    if len(hits) > 1:
        raise InputProblem(f"cell id {cell!r} is ambiguous between degrees {hits}")
    ref = SimplexRef(hits[0] + len(word), word, cell)
    try:
        x.resolve(ref)
    except (SimplicialError, ValidationError, KeyError, IndexError):
        raise InputProblem(f"{text!r} is not a simplex of the object") from None
    if degree is not None and ref.degree != degree:
        raise InputProblem(f"{text!r} has degree {ref.degree}, wanted {degree}")
    return ref


def _emit(args, payload: dict, human: list[str]) -> None:
    """Set the subcommand's output; main writes it once the exit code is known."""
    if args.json:
        args.output = canonical_json(payload)
    else:
        args.output = "".join(f"{line}\n" for line in human)


def _describe_witness(w) -> str:
    if isinstance(w, tuple) and len(w) == 2:
        edge, vertex = w
        return f"no good lift of edge {edge} ending at {vertex}"
    return str(w)


def _cmd_certify(args) -> int:
    p = _load(args.map, SMap, "map")
    rep = certify_fibration_class(p, args.cap)
    certs = [rep.inner, rep.cartesian, rep.cocartesian]
    lines = []
    for c in certs:
        extra = f"  problems: {c.problems_checked}  cap: {c.effective_cap}"
        if c.status == "refuted" and c.witness is not None:
            extra += f"  witness: {_describe_witness(c.witness)}"
        if c.notes:
            extra += "  (" + "; ".join(c.notes) + ")"
        lines.append(f"{c.kind:<12} {c.status}{extra}")
    _emit(args, rep.to_json(), lines)
    if any(c.status == "refuted" for c in certs):
        return EXIT_REFUTED
    if any(c.status == "inconclusive" for c in certs):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_fibers(args) -> int:
    p = _load(args.map, SMap, "map")
    if args.simplex is not None:
        ref = _find_ref(p.target, args.simplex)
        fib = Fiber(p, ref)
        prof = homology(fib.sset)
        payload = {
            "simplex": ref.to_json(),
            "cells": list(fib.sset.counts()),
            "homology": prof.to_json(),
        }
        lines = [f"fiber over {ref}: cells {fib.sset.counts()}", prof.describe()]
        _emit(args, payload, lines)
        return EXIT_INCONCLUSIVE if prof.truncated_at is not None else EXIT_OK
    rep = realization_fibration_certificate(p)
    lines = []
    for deg, comps in sorted(rep.by_degree().items()):
        ok = sum(1 for c in comps if c.first_iso and c.last_iso)
        lines.append(f"degree {deg}: {ok}/{len(comps)} simplices with both vertex legs iso")
    if rep.witness is not None:
        lines.append(f"refuted at {rep.witness[0]} ({rep.witness[1]} vertex leg)")
    else:
        lines.append("certified: vertex fibers match simplex fibers everywhere")
    _emit(args, rep.to_json(), lines)
    return EXIT_OK if rep.status == "certified" else EXIT_REFUTED


def _cmd_transport(args) -> int:
    p = _load(args.map, SMap, "map")
    edge = _find_ref(p.target, args.edge, degree=1)
    kind = "cartesian" if args.backward else "cocartesian"
    cert = certify_edge_lifts(p, kind, certify_inner_fibration(p))
    res = transport_homology(p, edge, backward=args.backward, certificate=cert)
    lines = [
        f"{'backward' if res.backward else 'forward'} transport along {edge}",
        f"certificate: {res.certificate_status}",
        f"leg invertible: {res.leg_invertible}",
    ]
    if res.matrices is not None:
        for k, m in enumerate(res.matrices):
            lines.append(f"H_{k}: {m.to_lists()}  iso: {res.iso_flags[k]}")
    _emit(args, res.to_json(), lines)
    if not res.leg_invertible:
        return EXIT_REFUTED
    if res.certificate_status == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_theorem_b(args) -> int:
    f = _load(args.functor, Functor, "functor")
    rep = theorem_b_report(f, args.cap)
    lines = [f"status: {rep.status}"]
    if rep.failing_edge is not None:
        lines.append(f"failing edge: {rep.failing_edge}")
    for d in sorted(rep.vertex_fibers):
        lines.append(f"fiber over {d}: {rep.vertex_fibers[d].describe()}")
    if rep.status != "hypothesis-failed":
        lines.append(f"slice agreement: {rep.slice_agreement}")
        lines.append(f"coslice contractible: {rep.coslice_contractible}")
        lines.append(f"projection iso: {rep.projection_iso}")
        lines.append(f"homotopy ends match: {rep.homotopy_ends_match}")
        if rep.chi is not None:
            lines.append(f"chi: {rep.chi}")
    _emit(args, rep.to_json(), lines)
    if rep.status == "verified":
        return EXIT_OK
    if rep.status == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_REFUTED


def _cmd_ltg_check(args) -> int:
    f = _load(args.cospan[0], SMap, "map")
    p = _load(args.cospan[1], SMap, "map")
    try:
        rep = ltg_check(f, p, args.cap)
    except SimplicialError as e:
        raise InputProblem(str(e)) from None
    lines = [f"status: {rep.status}"]
    if rep.witness is not None:
        lines.append(f"witness: {rep.witness}")
    lines.append(f"inherited: {rep.inherited}")
    if rep.vertex_case is not None:
        lines.append(f"vertex pullback matches fiber: {rep.vertex_case}")
    lines.append(f"component constancy: {rep.component_constancy}")
    if rep.chi is not None:
        lines.append(f"chi: {rep.chi}")
    _emit(args, rep.to_json(), lines)
    return {"certified": EXIT_OK, "refuted": EXIT_REFUTED}.get(rep.status, EXIT_INCONCLUSIVE)


def _cmd_homology(args) -> int:
    x = _load(args.object, SimplicialSet, "simplicial set")
    prof = homology(x)
    payload = {"cells": list(x.counts()), "homology": prof.to_json()}
    lines = [f"cells by degree: {x.counts()}", prof.describe()]
    try:
        payload["euler_characteristic"] = euler_characteristic(x)
        lines.append(f"euler characteristic: {payload['euler_characteristic']}")
    except TruncationError:
        lines.append(f"truncated at degree {x.truncated_at}; groups above are unknown")
    _emit(args, payload, lines)
    return EXIT_INCONCLUSIVE if prof.truncated_at is not None else EXIT_OK


def _cmd_nerve(args) -> int:
    c = _load(args.cat, FiniteCategory, "category")
    nv = nerve(c, args.cap)
    x = nv.sset
    payload = emit_document(x)
    lines = [f"cells by degree: {x.counts()}"]
    if x.truncated_at is not None:
        lines.append(f"truncated at degree {x.truncated_at}")
    _emit(args, payload, lines)
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    ap = _Parser(
        prog="sslift",
        description="certify lifting properties of maps of finite simplicial sets",
    )
    ap.add_argument("--json", action="store_true", help="machine output, canonical JSON")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("certify", help="inner/cartesian/cocartesian certificates for a map")
    s.add_argument("map")
    s.add_argument("--cap", type=int, default=None)
    s.set_defaults(func=_cmd_certify)

    s = sub.add_parser("fibers", help="fiber homology over a simplex, or the full comparison")
    s.add_argument("map")
    s.add_argument("--simplex", default=None, help="cell id or [\"word\",\"cell\"]")
    s.set_defaults(func=_cmd_fibers)

    s = sub.add_parser("transport", help="homology transport along a base edge")
    s.add_argument("map")
    s.add_argument("--edge", required=True, help="cell id or [\"word\",\"cell\"]")
    s.add_argument("--backward", action="store_true")
    s.set_defaults(func=_cmd_transport)

    s = sub.add_parser("theorem-b", help="comma construction report for a functor")
    s.add_argument("functor")
    s.add_argument("--cap", type=int, default=None)
    s.set_defaults(func=_cmd_theorem_b)

    s = sub.add_parser("ltg-check", help="base-change coherence for a cospan of maps")
    s.add_argument("--cospan", nargs=2, required=True, metavar=("F", "P"))
    s.add_argument("--cap", type=int, default=None)
    s.set_defaults(func=_cmd_ltg_check)

    s = sub.add_parser("homology", help="integral homology of a simplicial set")
    s.add_argument("object")
    s.set_defaults(func=_cmd_homology)

    s = sub.add_parser("nerve", help="nerve of a category, emitted as a document")
    s.add_argument("cat")
    s.add_argument("--cap", type=int, default=None)
    s.set_defaults(func=_cmd_nerve)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.output = ""
        code = args.func(args)
    except (InputProblem, FormatError, ValidationError, SimplicialError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:  # a fault in sslift, not in the input
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        sys.stdout.write(args.output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the flush
        # at interpreter exit cannot fail again, and keep the exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
