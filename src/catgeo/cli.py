"""Build a finite category from a document and compute its arrow algebra.

Exit status: 0 success, 1 usage or parse error, 2 semantic error
(axiom violation, ungenerated arrows, unknown arrow, builder rejection,
an interval result with more digits than sys.get_int_max_str_digits()),
and 0, silently, when the reader closes stdout early (`| head -1`).

--json output is indented by 2 with sorted keys and non-ASCII text kept.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from . import realline
from .category import FiniteCategory
from .documents import _json_text, builtin_document, builtin_names, load_category
from .errors import AxiomViolation, CatGeoError, ParseError
from .geometry import Multivector, clifford_report, geometric
from .render import _multivector_dict, _write_table, export_dot, export_embedding
from .vectors import atomic_basis, compute_norms

USAGE_EXIT = 1
SEMANTIC_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-31/7" or "-1e3" as an option, as it knows only
        # negative integers and decimals; no catgeo option starts with a
        # digit, so a token that starts like a negative number is a
        # positional, and parse_endpoint judges it
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # semantic errors, so usage problems exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _load(path: str) -> FiniteCategory:
    try:
        if path == "-":  # decoded strictly, as a file is, under any locale
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not valid UTF-8: %s" % ("stdin" if path == "-" else path, exc)) from None
    return load_category(text)


def _write(args, data, lines) -> None:
    """Print a record: under --json, `data` as one JSON document; otherwise
    each of `lines`, an iterable that only text mode consumes, so that
    --json formats no text line and a reader's early close stops the rest."""
    if args.json:
        print(_json_text(data))
    else:
        for line in lines:
            print(line)


def cmd_validate(args) -> int:
    # loading validates an explicit table, once, and refuses a broken one
    # with every violation; a thin or free category composes by rule, so it
    # satisfies the axioms by construction and is not checked
    violations = []
    try:
        _load(args.file)
    except AxiomViolation as exc:
        violations = exc.violations
    data = {"violations": [{"kind": v.kind, "detail": v.detail} for v in violations]}
    _write(args, data, [*violations, "violations: %d" % len(violations)])
    return 0 if not violations else SEMANTIC_EXIT


def cmd_basis(args) -> int:
    basis = atomic_basis(_load(args.file))
    _write(args, {"basis": list(basis)}, basis)
    return 0


def cmd_norms(args) -> int:
    category = _load(args.file)
    norms = compute_norms(category, atomic_basis(category))
    _write(args, {"norms": norms, "zero": 0}, ("%s = %d" % item for item in norms.items()))
    return 0


def cmd_product(args) -> int:
    category = _load(args.file)
    norms = compute_norms(category, atomic_basis(category))
    f, g = args.f, args.g
    # every value follows from fg = f·g + f∧g and gf: the inner products
    # are their scalars, the outer product fg's blades
    geometric_fg = geometric(category, norms, f, g)
    geometric_gf = geometric(category, norms, g, f)
    outer_fg = Multivector(0, geometric_fg.blades)
    anticommutator_fg = geometric_fg + geometric_gf
    data = {
        "inner_fg": geometric_fg.scalar,
        "inner_gf": geometric_gf.scalar,
        "orthogonal": geometric_fg.scalar == 0 and geometric_gf.scalar == 0,
        "parallel": geometric_fg.scalar != 0 and geometric_gf.scalar != 0,
        "outer_fg": _multivector_dict(outer_fg, norms),
        "geometric_fg": _multivector_dict(geometric_fg, norms),
        "geometric_gf": _multivector_dict(geometric_gf, norms),
        "anticommutator": _multivector_dict(anticommutator_fg, norms),
    }

    def lines():
        yield "inner %s.%s = %s" % (f, g, data["inner_fg"])
        yield "inner %s.%s = %s" % (g, f, data["inner_gf"])
        yield "orthogonal: %s" % str(data["orthogonal"]).lower()
        yield "parallel: %s" % str(data["parallel"]).lower()
        yield "outer: %r" % outer_fg
        yield "geometric %s%s: %r" % (f, g, geometric_fg)
        yield "geometric %s%s: %r" % (g, f, geometric_gf)
        yield "anticommutator: %r" % anticommutator_fg

    _write(args, data, lines())
    return 0


def cmd_table(args) -> int:
    category = _load(args.file)
    _write_table(category, compute_norms(category, atomic_basis(category)), args.json)
    return 0


def cmd_clifford(args) -> int:
    category = _load(args.file)
    basis = atomic_basis(category)
    norms = compute_norms(category, basis)
    report = clifford_report(category, norms, basis)
    squares, pairs = report.unit_square_failures, report.anticommutation_failures
    data = {
        "holds": report.holds,
        "unit_square_failures": [{"basis_vector": e, "square": _multivector_dict(mv, norms)} for e, mv in squares],
        "anticommutation_failures": [{"f": f, "g": g} for f, g in pairs],
    }

    def lines():
        yield "basis squares to 1: %s" % ("NO" if squares else "yes")
        yield from ("  %s^2 = %r" % failure for failure in squares)
        yield "orthogonal pairs anticommute: %s" % ("NO" if pairs else "yes")
        yield from ("  counterexample: %s, %s" % pair for pair in pairs)

    _write(args, data, lines())
    return 0 if report.holds else SEMANTIC_EXIT


def cmd_embed(args) -> int:
    points, arcs = export_embedding(_load(args.file))

    def lines():
        yield from ("point %s: (%.4f, %.4f, %.1f)" % (obj, *xyz) for obj, xyz in points.items())
        yield from ("arc %s: %d samples, peak |z| = %.4f" % (a, len(line), max(abs(p[2]) for p in line)) for a, line in arcs.items())

    _write(args, {"points": points, "arcs": arcs}, lines())
    return 0


def cmd_dot(args) -> int:
    category = _load(args.file)
    basis = atomic_basis(category)
    norms = compute_norms(category, basis)
    sys.stdout.write(export_dot(category, basis if args.basis_only else None, norms))
    return 0


def cmd_example(args) -> int:
    text = builtin_document(args.name)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def _interval(lo: str, hi: str) -> realline.IntervalArrow:
    """The interval of two endpoint literals, each a value that prints back."""
    ends = []
    for text in (lo, hi):
        value = realline.parse_endpoint(text)
        try:
            str(value)
        except ValueError:  # str() refuses an integer beyond sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            raise ParseError("bad endpoint literal %r: more than %d digits" % (text, limit)) from None
        ends.append(value)
    return realline.interval(*ends)


def cmd_interval(args) -> int:
    command, ends = args.interval_command, args.args
    expected = 2 if command == "norm" else 4
    if len(ends) != expected:
        print("catgeo: interval %s takes %d endpoint arguments" % (command, expected), file=sys.stderr)
        return USAGE_EXIT
    f = _interval(ends[0], ends[1])
    g = _interval(ends[2], ends[3]) if command != "norm" else None
    try:
        if command == "norm":
            norm = str(realline.interval_norm(f))
            data, lines = {"norm": norm}, [norm]
        elif command == "add":
            total = realline.interval_add(f, g)
            data, lines = {"lo": str(total.lo), "hi": str(total.hi)}, [repr(total)]
        else:
            inner_fg, outer_fg, geom_fg = realline.interval_products(f, g)
            inner_gf, _, geom_gf = realline.interval_products(g, f)
            anticommutator_fg = geom_fg + geom_gf
            data = {
                "inner_fg": str(inner_fg),
                "inner_gf": str(inner_gf),
                "outer_fg": _multivector_dict(outer_fg),
                "geometric_fg": _multivector_dict(geom_fg),
                "anticommutator": _multivector_dict(anticommutator_fg),
            }
            lines = [
                "inner fg = %s" % inner_fg,
                "inner gf = %s" % inner_gf,
                "outer: %r" % outer_fg,
                "geometric fg: %r" % geom_fg,
                "anticommutator: %r" % anticommutator_fg,
            ]
    except ValueError:  # str() refuses an integer beyond sys.get_int_max_str_digits()
        raise CatGeoError(
            "result has more than %d digits, the limit sys.get_int_max_str_digits() sets on printing a number"
            % sys.get_int_max_str_digits()
        ) from None
    _write(args, data, lines)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # building the nine subparsers costs far more than a parse, so one
    # parser serves every main call in a process
    parser = _Parser(prog="catgeo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def file_command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", nargs="?", default="-", help="category document (default: stdin)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(handler=handler)

    file_command("validate", cmd_validate, "axiom report for a category document")
    file_command("basis", cmd_basis, "atomic basis of the arrow vector space")
    file_command("norms", cmd_norms, "minimal factorization lengths of all arrows")
    file_command("table", cmd_table, "full pairwise anticommutator matrix")
    file_command("clifford", cmd_clifford, "Clifford condition report")
    file_command("embed", cmd_embed, "3-D layout of objects and arrow arcs")

    p = sub.add_parser("dot", help="DOT graph export")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--basis-only", action="store_true", help="restrict edges to the atomic basis")
    p.set_defaults(handler=cmd_dot)

    p = sub.add_parser("product", help="inner/outer/geometric products of two arrows")
    p.add_argument("file")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_product)

    p = sub.add_parser("example", help="emit a built-in document (%s)" % ", ".join(builtin_names()))
    p.add_argument("name")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(handler=cmd_example)

    p = sub.add_parser("interval", help="real-line backend with exact rational endpoints")
    p.add_argument("interval_command", choices=["norm", "add", "product"])
    p.add_argument("args", nargs="+", help="endpoint literals, decimal or fraction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_interval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print("catgeo: parse error: %s" % exc, file=sys.stderr)
        return USAGE_EXIT
    except (CatGeoError, ValueError) as exc:
        print("catgeo: error: %s" % exc, file=sys.stderr)
        return SEMANTIC_EXIT
    except BrokenPipeError:  # fd 1 goes to devnull, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except OSError as exc:
        print("catgeo: %s" % exc, file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
