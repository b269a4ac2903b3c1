"""Shared test utilities: random category generation and independent oracles."""

from __future__ import annotations

import json
import random
from typing import Sequence

from catgeo import (
    Arrow,
    Blade2,
    CyclicGraph,
    FiniteCategory,
    Multivector,
    NontrivialCycle,
    ParseError,
    Violation,
    build_free,
    build_thin,
)
from catgeo.category import IDENTITY_PREFIX
from catgeo.documents import MODES, CategoryDocument


def random_thin(rng: random.Random, max_objects: int = 8, max_edges: int = 14) -> FiniteCategory:
    """Thin category of a random DAG; edges only go i -> j with i < j."""
    n = rng.randint(1, max_objects)
    objects = ["a%d" % i for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    m = rng.randint(0, min(max_edges, len(pairs)))
    generators = [("g%d" % k, "a%d" % i, "a%d" % j) for k, (i, j) in enumerate(pairs[:m])]
    return build_thin(objects, generators)


def random_free(rng: random.Random, max_objects: int = 6, max_edges: int = 8) -> FiniteCategory:
    """Free category on a random acyclic multigraph (parallel edges allowed)."""
    n = rng.randint(1, max_objects)
    objects = ["a%d" % i for i in range(n)]
    m = rng.randint(0, max_edges) if n > 1 else 0
    generators = []
    for k in range(m):
        i = rng.randint(0, n - 2)
        j = rng.randint(i + 1, n - 1)
        generators.append(("g%d" % k, "a%d" % i, "a%d" % j))
    return build_free(objects, generators)


def random_presentation(rng: random.Random, max_objects: int = 6, max_edges: int = 9):
    """Objects a0..a<n-1> and generators on any ordered pairs: cycles,
    self-loops, parallel edges and ids named like thin's derived arrows
    (a<i>->a<j>) all occur."""
    n = rng.randint(1, max_objects)
    objects = ["a%d" % i for i in range(n)]
    names = ["g%d" % k for k in range(max_edges)] + ["a%d->a%d" % (i, j) for i in range(n) for j in range(n) if i != j]
    if rng.random() < 0.6:  # acyclic, so that most presentations build
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(n)]
    m = rng.randint(0, min(max_edges, len(names)))
    if rng.random() < 0.5:  # parallel edges
        ends = [rng.choice(pairs) for _ in range(m)] if pairs else []
    else:
        ends = rng.sample(pairs, min(m, len(pairs)))
    ids = rng.sample(names, len(ends))
    return objects, [(gid, objects[i], objects[j]) for gid, (i, j) in zip(ids, ends)]


def _closure(objects, generators) -> dict[str, set[str]]:
    """Nonempty-path reachability: each object's set of edge targets,
    grown by the sets of its members until no set changes."""
    reach = {o: {cod for _, dom, cod in generators if dom == o} for o in objects}
    changed = True
    while changed:
        changed = False
        for a in objects:
            grown = reach[a].union(*(reach[b] for b in reach[a]))
            if grown != reach[a]:
                reach[a] = grown
                changed = True
    return reach


def _unit_entries(table, arrows) -> None:
    for a in arrows:
        table[("id:" + a.dom, a.id)] = a.id
        table[(a.id, "id:" + a.cod)] = a.id


def oracle_build_thin(objects, generators):
    """(arrows, table) of the thin category, from the reachability closure.

    Assumes distinct, declared ids (what build_thin's presentation check
    admits); raises NontrivialCycle for an object on a cycle, then
    ParseError for two generators on one pair or a taken derived name.
    """
    reach = _closure(objects, generators)
    if any(o in reach[o] for o in objects):
        raise NontrivialCycle("cycle")
    name = {}
    for gid, dom, cod in generators:
        if (dom, cod) in name:
            raise ParseError("two generators on one pair")
        name[dom, cod] = gid
    taken = {gid for gid, _, _ in generators}
    arrows = [Arrow("id:" + o, o, o, True) for o in objects]
    for a in objects:
        for b in sorted(reach[a]):
            if (a, b) not in name:
                name[a, b] = "%s->%s" % (a, b)
                if name[a, b] in taken:
                    raise ParseError("derived name taken")
            arrows.append(Arrow(name[a, b], a, b))
    table = {}
    for f in arrows:
        for g in arrows:
            if not f.is_identity and not g.is_identity and f.cod == g.dom:
                table[(f.id, g.id)] = name[f.dom, g.cod]
    _unit_entries(table, arrows)
    return arrows, table


def oracle_build_free(objects, generators):
    """(arrows, table) of the free category, by recursive path listing.

    Paths from an object are listed depth first: each out-edge in
    generator order, then that edge followed by every path from its
    target.  Raises CyclicGraph when some object reaches itself.
    """
    reach = _closure(objects, generators)
    if any(o in reach[o] for o in objects):
        raise CyclicGraph("cycle")

    def paths_from(o):
        for gid, dom, cod in generators:
            if dom == o:
                yield (gid,), cod
                for rest, end in paths_from(cod):
                    yield (gid,) + rest, end

    def name(path):
        return "∘".join(reversed(path))

    paths = [(path, o, end) for o in objects for path, end in paths_from(o)]
    arrows = [Arrow("id:" + o, o, o, True) for o in objects] + [Arrow(name(p), o, end) for p, o, end in paths]
    table = {(name(p), name(q)): name(p + q) for p, _, b in paths for q, c, _ in paths if b == c}
    _unit_entries(table, arrows)
    return arrows, table


def oracle_vectors(category: FiniteCategory) -> tuple[str, ...]:
    """The non-identity arrow ids, sorted, read from the arrows themselves
    rather than from the category's `vectors` index."""
    return tuple(sorted(a.id for a in category.arrows.values() if not a.is_identity))


def oracle_norms(category: FiniteCategory, basis: Sequence[str], depth_bound: int) -> dict[str, int]:
    """Brute-force minima over all composable basis sequences up to the bound.

    Enumerates every sequence (no visited pruning), recording the minimal
    length realizing each arrow; independent of the BFS implementation.
    """
    best: dict[str, int] = {}

    def extend(arrow: str, length: int) -> None:
        if best.get(arrow, depth_bound + 1) > length:
            best[arrow] = length
        if length >= depth_bound:
            return
        cod = category.arrows[arrow].cod
        for e in basis:
            if category.arrows[e].dom == cod:
                composite = category.table[(arrow, e)]
                if not category.arrows[composite].is_identity:
                    extend(composite, length + 1)

    for e in basis:
        extend(e, 1)
    return best


def oracle_atomic_basis(category: FiniteCategory) -> tuple[str, ...]:
    """The non-identity arrows h, in order, that no pair of non-identity
    arrows f, g (both distinct from h, cod f = dom g) composes to."""
    vectors = oracle_vectors(category)
    arrows, table = category.arrows, category.table

    def composite(h):
        return any(
            table.get((f, g)) == h
            for f in vectors
            for g in vectors
            if h not in (f, g) and arrows[f].cod == arrows[g].dom
        )

    return tuple(h for h in vectors if not composite(h))


def _oriented_blade(f: str, g: str) -> Multivector:
    """f∧g written out: the id-ordered blade, coefficient -1 when g < f."""
    if f < g:
        return Multivector(0, {Blade2(f, g): 1})
    return Multivector(0, {Blade2(g, f): -1})


def closed_form_anticommutator(category, norms, f: str, g: str) -> Multivector:
    """The four-case closed form of fg + gf for distinct non-zero vectors."""
    fa, ga = category.arrows[f], category.arrows[g]
    fg_composes = fa.cod == ga.dom
    gf_composes = ga.cod == fa.dom
    if fg_composes and gf_composes:
        return Multivector(2 * norms[f] * norms[g])
    if fg_composes:
        return Multivector(norms[f] * norms[g]) + _oriented_blade(g, f)
    if gf_composes:
        return Multivector(norms[g] * norms[f]) + _oriented_blade(f, g)
    return Multivector(0)


def oracle_clifford_failures(category, norms, basis):
    """What clifford_report must list, derived from composability alone.

    e² is the scalar ||e||².  For distinct f, g, fg is the scalar
    ||f|| ||g|| when cod(f) = dom(g) and a blade otherwise; the pair is
    orthogonal when both scalars are 0, and then fg = -gf exactly when
    both products are blades (they are opposite) or neither is.
    """
    unit = [(e, norms[e] ** 2) for e in basis if norms[e] ** 2 != 1]
    anti = []
    vectors = oracle_vectors(category)
    for f in vectors:
        for g in vectors:
            if f == g:
                continue
            fg_composes = category.arrows[f].cod == category.arrows[g].dom
            gf_composes = category.arrows[g].cod == category.arrows[f].dom
            area = norms[f] * norms[g]
            orthogonal = (not fg_composes or area == 0) and (not gf_composes or area == 0)
            if orthogonal and fg_composes != gf_composes:
                anti.append((f, g))
    return unit, anti


def oracle_validate_axioms(category: FiniteCategory) -> list[Violation]:
    """The all-pairs axiom check that validate_axioms replaced.

    It scans every arrow against every arrow for pairs and all arrows again
    for each composable pair to find triples; validate_axioms must return
    an equal list, order included.  Beyond the original loop it reports
    each table entry that names an unknown arrow, after the pair checks.
    """
    violations: list[Violation] = []
    arrows = list(category.arrows.values())
    table = category.table

    for f in arrows:
        for g in arrows:
            key = (f.id, g.id)
            if f.cod == g.dom:
                if key not in table:
                    violations.append(Violation("totality", "missing entry (%s, %s)" % key))
                    continue
                result = table[key]
                if result not in category.arrows:
                    violations.append(
                        Violation("dom-cod", "entry (%s, %s) names unknown arrow %r" % (f.id, g.id, result))
                    )
                    continue
                r = category.arrows[result]
                if r.dom != f.dom or r.cod != g.cod:
                    violations.append(
                        Violation(
                            "dom-cod",
                            "(%s, %s) -> %s has type %s->%s, expected %s->%s"
                            % (f.id, g.id, result, r.dom, r.cod, f.dom, g.cod),
                        )
                    )
            elif key in table:
                violations.append(Violation("closure", "entry (%s, %s) for non-composable pair" % key))
    for f, g in table:
        if f not in category.arrows or g not in category.arrows:
            unknown = f if f not in category.arrows else g
            violations.append(Violation("closure", "entry (%s, %s) for unknown arrow %r" % (f, g, unknown)))

    def lookup(f, g):
        return table.get((f, g))

    for f in arrows:
        left = lookup(category.identity(f.dom), f.id)
        if left != f.id:
            violations.append(Violation("unit", "%s ∘ id_%s = %s, expected %s" % (f.id, f.dom, left, f.id)))
        right = lookup(f.id, category.identity(f.cod))
        if right != f.id:
            violations.append(Violation("unit", "id_%s ∘ %s = %s, expected %s" % (f.cod, f.id, right, f.id)))

    for f in arrows:
        for g in arrows:
            if f.cod != g.dom:
                continue
            gf = lookup(f.id, g.id)
            for k in arrows:
                if g.cod != k.dom:
                    continue
                kg = lookup(g.id, k.id)
                if gf is None or kg is None or gf not in category.arrows or kg not in category.arrows:
                    continue  # already reported as totality/dom-cod
                lhs = lookup(gf, k.id)
                rhs = lookup(f.id, kg)
                if lhs != rhs:
                    violations.append(
                        Violation(
                            "associativity",
                            "(%s, %s, %s): %s != %s" % (f.id, g.id, k.id, lhs, rhs),
                        )
                    )
    return violations


def _require(condition, message, *args):
    if not condition:
        raise ParseError(message % args)


def oracle_parse_document(text: str) -> CategoryDocument:
    """parse_document as it was before its checks were written inline:
    every check a `_require` call, each record key read through `rec[key]`.
    parse_document must return an equal document or raise the same text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    _require(isinstance(data, dict), "document root must be a JSON object")
    mode = data.get("mode")
    _require(mode in MODES, "mode must be one of %s, got %r", ", ".join(MODES), mode)

    objects = data.get("objects")
    _require(isinstance(objects, list) and objects, "objects must be a nonempty list")
    _require(all(isinstance(o, str) and o for o in objects), "object ids must be nonempty strings")
    _require(len(set(objects)) == len(objects), "duplicate object id")
    obj_set = set(objects)

    raw_arrows = data.get("arrows", [])
    _require(isinstance(raw_arrows, list), "arrows must be a list")
    arrows = []
    seen_ids = set()
    for i, rec in enumerate(raw_arrows):
        _require(isinstance(rec, dict), "arrows[%d] must be an object", i)
        for key in ("id", "dom", "cod"):
            _require(isinstance(rec.get(key), str) and rec[key], "arrows[%d].%s must be a nonempty string", i, key)
        _require(rec["id"] not in seen_ids, "duplicate arrow id %r", rec["id"])
        seen_ids.add(rec["id"])
        _require(rec["dom"] in obj_set, "arrows[%d] (%r): dangling dom %r", i, rec["id"], rec["dom"])
        _require(rec["cod"] in obj_set, "arrows[%d] (%r): dangling cod %r", i, rec["id"], rec["cod"])
        arrows.append((rec["id"], rec["dom"], rec["cod"]))

    results = seen_ids | {IDENTITY_PREFIX + o for o in objects}  # a composite may be an identity
    raw_comps = data.get("compositions", [])
    _require(isinstance(raw_comps, list), "compositions must be a list")
    if mode != "explicit":
        _require(not raw_comps, "compositions are only allowed in explicit mode")
    compositions = []
    for i, rec in enumerate(raw_comps):
        _require(isinstance(rec, dict), "compositions[%d] must be an object", i)
        for key in ("f", "g", "result"):
            _require(isinstance(rec.get(key), str) and rec[key], "compositions[%d].%s must be a nonempty string", i, key)
        for key, known in (("f", seen_ids), ("g", seen_ids), ("result", results)):
            _require(rec[key] in known, "compositions[%d]: unknown arrow %r", i, rec[key])
        compositions.append((rec["f"], rec["g"], rec["result"]))

    return CategoryDocument(mode, list(objects), arrows, compositions)


def random_document(rng: random.Random) -> dict:
    """A document that parses: any mode, arrows between declared objects
    (cycles and repeated pairs included) and, in explicit mode, entries
    naming declared arrows and identities; nothing beyond parsing holds."""
    n = rng.randint(1, 5)
    objects = ["a%d" % i for i in range(n)]
    arrows = [
        {"id": "f%d" % k, "dom": rng.choice(objects), "cod": rng.choice(objects)} for k in range(rng.randint(0, 6))
    ]
    data = {"mode": rng.choice(MODES + ("explicit",)), "objects": objects, "arrows": arrows}
    if data["mode"] == "explicit" and arrows:
        ids = [a["id"] for a in arrows]
        results = ids + [IDENTITY_PREFIX + o for o in objects]
        data["compositions"] = [
            {"f": rng.choice(ids), "g": rng.choice(ids), "result": rng.choice(results)}
            for _ in range(rng.randint(0, 6))
        ]
    return data


def mutate_document(rng: random.Random, data: dict) -> dict:
    """`data` with one record field broken: a record that is no object, a
    missing key, a value that is no string or is empty, a duplicate arrow
    id, a dangling dom/cod, or an unknown f, g or result."""
    data = json.loads(json.dumps(data))
    fields = {}  # field -> the indices of its records that are objects
    for field in ("arrows", "compositions"):
        records = [i for i, rec in enumerate(data.get(field, ())) if isinstance(rec, dict) and rec]
        if records:
            fields[field] = records
    if not fields:
        return data
    field = rng.choice(sorted(fields))
    i = rng.choice(fields[field])
    rec = data[field][i]
    key = rng.choice(sorted(rec))
    kind = rng.choice(("record", "missing", "type", "empty", "duplicate", "dangling", "unknown"))
    if kind == "record":
        data[field][i] = rng.choice((None, 3, "f0", [], [rec]))
    elif kind == "missing":
        del rec[key]
    elif kind == "type":
        rec[key] = rng.choice((None, 0, 1.5, True, [], {}, [rec[key]]))
    elif kind == "empty":
        rec[key] = ""
    elif kind == "duplicate" and field == "arrows":
        rec["id"] = rng.choice([a.get("id") for a in data["arrows"] if isinstance(a, dict)])
    elif kind == "dangling" and field == "arrows":
        rec[rng.choice(("dom", "cod"))] = rng.choice(("zz", "id:a0", "A0"))
    else:
        rec[key] = rng.choice(("ghost", "id:zz", "id:a0", "a0", "id:f0"))
    return data
