"""Oracles for the benchmark: closed forms and output checks, free of catgeo code.

Multivectors are plain pairs ``(scalar, {(first, second): coefficient})``
with zero coefficients dropped.  A blade is canonical when ``first`` sorts
before ``second`` (arrow ids as strings, intervals as (lo, hi) tuples);
wedging in the other order carries coefficient -1.

Every ``check_*`` function returns None when the output is right and a
short reason otherwise, so a failing op can say why.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

ZERO_MV = (0, {})


class NoDifference(Exception):
    """Closed-form distance: no l with f = g (+) l."""


def mv(scalar=0, blades=None):
    return scalar, {b: c for b, c in (blades or {}).items() if c != 0}


def mv_add(a, b):
    blades = dict(a[1])
    for blade, c in b[1].items():
        blades[blade] = blades.get(blade, 0) + c
    return mv(a[0] + b[0], blades)


def wedge(f, g):
    return mv(0, {(f, g): 1}) if f < g else mv(0, {(g, f): -1})


# --- arrow products -------------------------------------------------------

def products(model, f, g) -> dict:
    """What the library's pair products must return for arrows f and g."""
    nf, ng = model.norms[f], model.norms[g]
    fg, gf = model.composable(f, g), model.composable(g, f)
    inner_fg = nf * ng if f == g or fg else 0
    inner_gf = nf * ng if f == g or gf else 0
    outer_fg = ZERO_MV if f == g or fg else wedge(f, g)
    outer_gf = ZERO_MV if f == g or gf else wedge(g, f)
    geometric_fg = mv_add(mv(inner_fg), outer_fg)
    geometric_gf = mv_add(mv(inner_gf), outer_gf)
    return {
        "inner_fg": inner_fg,
        "inner_gf": inner_gf,
        "orthogonal": inner_fg == 0 and inner_gf == 0,
        "parallel": f == g or (fg and gf),
        "outer_fg": outer_fg,
        "geometric_fg": geometric_fg,
        "geometric_gf": geometric_gf,
        "anticommutator": anticommutator(model, f, g),
    }


def anticommutator(model, f, g):
    """The four-case closed form of fg + gf."""
    nf, ng = model.norms[f], model.norms[g]
    fg, gf = f == g or model.composable(f, g), f == g or model.composable(g, f)
    if fg and gf:
        return mv(2 * nf * ng)
    if fg:
        return mv_add(mv(nf * ng), wedge(g, f))
    if gf:
        return mv_add(mv(nf * ng), wedge(f, g))
    return ZERO_MV


def mv_json(value, norms=None) -> dict:
    """The CLI's JSON form of a multivector; areas only when norms are known."""
    blades = []
    for (first, second), c in sorted(value[1].items()):
        entry = {"first": str(first), "second": str(second), "coefficient": c}
        if norms is not None:
            entry["area"] = norms[first] * norms[second]
        blades.append(entry)
    return {"scalar": value[0], "blades": blades}


def distance(model, f, g) -> int:
    """min ||l|| with f = g (+) l, i.e. f = l∘g; raises NoDifference."""
    if f == g:
        return 0
    kf, kg = model.key[f], model.key[g]
    if model.family == "thin":
        rest = (kg[1], kf[1])
        if kf[0] == kg[0] and rest in model.by_key:
            return model.norms[model.by_key[rest]]
    elif kf[: len(kg)] == kg:
        return len(kf) - len(kg)
    raise NoDifference(f, g)


def associativity_violations(arrows, table) -> int:
    """Composable non-identity triples (f, g, k) whose two bracketings differ."""
    out = {}
    for a, (dom, _) in arrows.items():
        out.setdefault(dom, []).append(a)
    count = 0
    for f, (_, b) in arrows.items():
        for g in out.get(b, ()):
            gf = table[(f, g)]
            for k in out.get(arrows[g][1], ()):
                if table[(gf, k)] != table[(f, table[(g, k)])]:
                    count += 1
    return count


# --- real line -------------------------------------------------------------

def interval_products(f, g):
    """(inner, outer, geometric) for intervals given as (lo, hi) Fractions."""
    width = (f[1] - f[0]) * (g[1] - g[0])
    composes = f == g or f[1] == g[0]
    inner = width if composes else Fraction(0)
    outer = ZERO_MV if composes else wedge(f, g)
    return inner, outer, mv_add(mv(inner), outer)


def interval_add(f, g):
    """(lo, hi) of f (+) g, or None when the intervals do not meet."""
    return (f[0], g[1]) if f[1] == g[0] else None


def parse_interval(text):
    lo, hi = text.strip("()").split(", ")
    return Fraction(lo), Fraction(hi)


def interval_mv_from_json(data):
    blades = {}
    for b in data["blades"]:
        blades[(parse_interval(b["first"]), parse_interval(b["second"]))] = b["coefficient"]
    return Fraction(data["scalar"]), blades


# --- CLI output checks ------------------------------------------------------

def _json(out):
    try:
        return json.loads(out)
    except ValueError:
        return None


def check_error(rc, out, err, code):
    """A documented failure: the exit code, nothing on stdout, a message on stderr."""
    if rc != code:
        return "exit %s, expected %d" % (rc, code)
    if out or not err.startswith("catgeo:"):
        return "exit %d without a clean error message" % code
    return None


def check_validate(model, rc, out, err):
    if model.planted:
        lines = out.splitlines()
        if rc != 2 or not lines or lines[-1] != "violations: %d" % model.planted:
            return "validate: exit %s, last line %r, expected %d violations" % (rc, lines[-1:] or "", model.planted)
        if len(lines) != model.planted + 1 or not all(v.startswith("associativity: ") for v in lines[:-1]):
            return "validate: expected only associativity violations"
        return None
    if rc != 0 or out != "violations: 0\n":
        return "validate: exit %s, output %r" % (rc, out[-60:])
    return None


def check_basis(model, rc, out, err):
    if model.planted:
        return check_error(rc, out, err, 2)
    if rc != 0 or _json(out) != {"basis": sorted(model.basis)}:
        return "basis: exit %s, wrong basis" % rc
    return None


def check_norms(model, rc, out, err):
    if model.planted:
        return check_error(rc, out, err, 2)
    data = _json(out)
    if rc != 0 or data != {"norms": model.norms, "zero": 0}:
        return "norms: exit %s, %s" % (rc, _first_diff(model.norms, (data or {}).get("norms")))
    return None


def _first_diff(expected, got):
    if not isinstance(got, dict):
        return "no norms object"
    for k in sorted(set(expected) | set(got)):
        if expected.get(k) != got.get(k):
            return "arrow %s: got %s, expected %s" % (k, got.get(k), expected.get(k))
    return "equal"


def parse_dot(out):
    """(objects, edges) of a DOT export; edges are (dom, cod, label)."""
    lines = out.splitlines()
    if not lines or lines[0] != "digraph category {" or lines[-1] != "}":
        return None
    objects, edges = [], []
    for line in lines[1:-1]:
        body = line.strip()
        if " -> " in body:
            head, label = body.split(" [label=", 1)
            dom, cod = head.split(" -> ")
            edges.append((dom.strip('"'), cod.strip('"'), label[1:-3]))
        else:
            objects.append(body.rstrip(";").strip('"'))
    return objects, edges


def check_dot(model, rc, out, err):
    if model.planted:
        return check_error(rc, out, err, 2)
    parsed = parse_dot(out) if rc == 0 else None
    expected = sorted((d, c, "%s (%d)" % (a, model.norms[a])) for a, (d, c) in model.arrows.items())
    if parsed is None or parsed[0] != model.objects or sorted(parsed[1]) != expected:
        return "dot: exit %s, wrong graph" % rc
    return None


def check_clifford(model, rc, out, err):
    if rc != 0 or _json(out) != {"holds": True, "unit_square_failures": [], "anticommutation_failures": []}:
        return "clifford: exit %s, law reported broken on a valid category" % rc
    return None


def check_table(model, rc, out, err):
    data = _json(out) if rc == 0 else None
    vectors = sorted(model.arrows)
    if data is None or len(data.get("entries", ())) != len(vectors) ** 2:
        return "table: exit %s, wrong entry count" % rc
    it = iter(data["entries"])
    for f in vectors:
        for g in vectors:
            entry = next(it)
            if entry["f"] != f or entry["g"] != g:
                return "table: entry order differs at (%s, %s)" % (f, g)
            if entry["anticommutator"] != mv_json(anticommutator(model, f, g), model.norms):
                return "table: (%s, %s) differs from the closed form" % (f, g)
    return None


def check_product(model, f, g, rc, out, err):
    if f not in model.arrows or g not in model.arrows:
        return check_error(rc, out, err, 2)
    want = products(model, f, g)
    for name in ("outer_fg", "geometric_fg", "geometric_gf", "anticommutator"):
        want[name] = mv_json(want[name], model.norms)
    if rc != 0 or _json(out) != want:
        return "product %s %s: exit %s, differs from the closed forms" % (f, g, rc)
    return None


def check_embed(model, rc, out, err):
    """Layout properties the README promises, not the layout formula."""
    data = _json(out) if rc == 0 else None
    if data is None or set(data.get("points", ())) != set(model.objects) or set(data.get("arcs", ())) != set(model.arrows):
        return "embed: exit %s, wrong points or arcs" % rc
    points = {o: tuple(p) for o, p in data["points"].items()}
    radii = {round(math.hypot(x, y), 9) for x, y, _ in points.values()}
    if any(z != 0 for _, _, z in points.values()) or len(set(points.values())) != len(points) or len(radii) != 1:
        return "embed: objects not distinct points of one circle in z = 0"
    heights = {}
    for a, line in data["arcs"].items():
        dom, cod = model.arrows[a]
        if tuple(line[0]) != points[dom] or tuple(line[-1]) != points[cod]:
            return "embed: arc %s does not join its endpoints" % a
        if any(p[2] == 0 for p in line[1:-1]):
            return "embed: arc %s stays in the plane" % a
        heights.setdefault((dom, cod), []).append(max(line[1:-1], key=lambda p: abs(p[2]))[2])
    if any(len(set(h)) != len(h) for h in heights.values()):
        return "embed: parallel arcs share a height"
    return None


def check_example(model, rc, out, err):
    if rc != 0 or _json(out) != model.doc:
        return "example %s: exit %s, document differs" % (model.label, rc)
    return None


def check_interval(command, values, rc, out, err):
    """``catgeo interval`` with endpoint literals, against Fraction arithmetic."""
    try:
        ends = [Fraction(v) for v in values]
    except ValueError:
        return check_error(rc, out, err, 1)
    f = (ends[0], ends[1])
    if command == "add" and interval_add(f, (ends[2], ends[3])) is None:
        return check_error(rc, out, err, 2)
    data = _json(out) if rc == 0 else None
    if data is None:
        return "interval %s: exit %s" % (command, rc)
    if command == "norm":
        ok = Fraction(data["norm"]) == f[1] - f[0]
    elif command == "add":
        ok = (Fraction(data["lo"]), Fraction(data["hi"])) == interval_add(f, (ends[2], ends[3]))
    else:
        g = (ends[2], ends[3])
        inner_fg, outer_fg, geom_fg = interval_products(f, g)
        inner_gf, _, geom_gf = interval_products(g, f)
        ok = (
            Fraction(data["inner_fg"]) == inner_fg
            and Fraction(data["inner_gf"]) == inner_gf
            and interval_mv_from_json(data["outer_fg"]) == outer_fg
            and interval_mv_from_json(data["geometric_fg"]) == geom_fg
            and interval_mv_from_json(data["anticommutator"]) == mv_add(geom_fg, geom_gf)
        )
    return None if ok else "interval %s %s: differs from exact arithmetic" % (command, " ".join(values))


STRUCTURE_COMMANDS = (
    (("validate",), check_validate),
    (("basis", "--json"), check_basis),
    (("norms", "--json"), check_norms),
    (("dot",), check_dot),
)


def check_collision(results):
    """Verdict on the thin id-collision reproducer: "ok", "known" or a reason.

    A correct program either builds the three-arrow poset x < y < z (norms
    1, 1, 2) or rejects the document cleanly on every command.  The known
    defect (ROADMAP item 4) is the derived arrow x->z overwriting the
    generator of that name, which validate reports as closure violations.
    """
    if all(check_error(rc, out, err, rc) is None and rc in (1, 2) for rc, out, err in results):
        return "ok"
    (vrc, vout, _), _, (nrc, nout, _), (drc, dout, _) = results
    norms = (_json(nout) or {}).get("norms") if nrc == 0 else None
    dot = parse_dot(dout) if drc == 0 else None
    if (
        vrc == 0 and vout == "violations: 0\n"
        and isinstance(norms, dict) and sorted(norms.values()) == [1, 1, 2]
        and dot is not None and sorted((d, c) for d, c, _ in dot[1]) == [("x", "y"), ("x", "z"), ("y", "z")]
    ):
        return "ok"
    lines = vout.splitlines()
    if vrc == 2 and lines and all(v.startswith("closure: ") for v in lines[:-1]) and len(lines) > 1:
        return "known"
    return "collision: exit %s, %r" % (vrc, vout[-80:])
