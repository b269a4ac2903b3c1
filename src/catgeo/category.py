"""Finite categories: representation, builders, and axiom validation.

A category is objects, arrows (identities included) and a composition
table over composable ordered pairs.  The table maps the pair (f, g) with
cod(f) = dom(g) to the composite g∘f, i.e. "f first, then g".  Arrow
equality is id equality; the table is the sole source of composite
identification.

Only explicit categories store their table, as a dict.  Thin and free
categories compose by rule: their table is a read-only Mapping that
computes each entry from the arrows when it is looked up.  In a thin
category g∘f is the one arrow dom f → cod g; in a free category it is the
path named "g∘f" (or f or g itself when the other is an identity).  The
builders of these two modes also record the atomic basis, which they know
from the presentation.

Each category also keeps two indexes, built once when it is made.
`out_arrows` maps every object to the tuple of arrows leaving it,
identities included, in arrow order.  The arrows g composable after f are
exactly `out_arrows[f.cod]`, so the passes over a whole category (axiom
validation, the builders, the norm search) enumerate composable pairs and
triples through it instead of scanning every arrow against every arrow.
`vectors` is the tuple of non-identity arrow ids in the canonical (sorted)
order: the vectors of the arrow vector space other than O, which the
basis, the norms, the products and the distance all walk in that order.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence

from .errors import CatGeoError, CyclicGraph, NontrivialCycle, NotComposable, ParseError, UnknownArrow

IDENTITY_PREFIX = "id:"

#: separator used in the ids of composite path arrows of free categories
PATH_SEP = "∘"  # "∘"

#: most non-identity arrows build_thin and build_free make; a larger thin or
#: free category is refused, since the passes over a whole category grow
#: faster than its arrows: validation visits every composable triple, and
#: the law survey every pair of arrows
MAX_FREE_PATHS = 20_000


class Arrow:
    """An arrow dom → cod; equal arrows have equal fields."""

    __slots__ = ("id", "dom", "cod", "is_identity")

    def __init__(self, id: str, dom: str, cod: str, is_identity: bool = False):
        self.id = id
        self.dom = dom
        self.cod = cod
        self.is_identity = is_identity

    def _key(self):
        return self.id, self.dom, self.cod, self.is_identity

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Arrow(id=%r, dom=%r, cod=%r, is_identity=%r)" % self._key()


class Violation(namedtuple("Violation", "kind detail")):
    """One broken axiom; kind is one of totality, closure, dom-cod,
    associativity, unit."""

    __slots__ = ()

    def __str__(self):
        return "%s: %s" % (self.kind, self.detail)


class FiniteCategory:
    """Immutable finite category.

    `table` maps each composable pair (f, g) to the id of g∘f: a copy of
    the given mapping, which the thin and free builders then replace by a
    view that composes by rule.  `basis` is the atomic basis, sorted, when
    the builder records it, and None otherwise.  `vectors` holds the
    non-identity arrow ids, sorted; the zero vector O is not in it.
    """

    def __init__(
        self,
        objects: Sequence[str],
        arrows: Iterable[Arrow],
        table: Mapping[tuple[str, str], str],
        mode: str,
        basis: tuple[str, ...] | None = None,
    ):
        self.objects = tuple(objects)
        self.arrows = {a.id: a for a in arrows}
        self.table: Mapping[tuple[str, str], str] = dict(table)
        self.mode = mode
        self.basis = basis
        out: dict[str, list[Arrow]] = {o: [] for o in self.objects}
        for a in self.arrows.values():
            out.setdefault(a.dom, []).append(a)
        self.out_arrows: dict[str, tuple[Arrow, ...]] = {o: tuple(leaving) for o, leaving in out.items()}
        self.vectors: tuple[str, ...] = tuple(sorted(a.id for a in self.arrows.values() if not a.is_identity))

    def identity(self, obj: str) -> str:
        return IDENTITY_PREFIX + obj

    def __repr__(self):
        return "FiniteCategory(mode=%r, objects=%d, arrows=%d)" % (
            self.mode,
            len(self.objects),
            len(self.arrows),
        )


class _RuleTable(Mapping):
    """A read-only composition table that composes by rule.

    Its keys are the composable pairs, f in arrow order and then g in
    arrow order.  In a thin category g∘f is the one arrow dom f → cod g,
    found in a dict from each (dom, cod) pair to its arrow id; in a free
    one it is the path "g∘f", or f or g itself when the other is an
    identity.  `get` returns the default, and `[]` raises KeyError, for a
    key that is not a composable pair of arrow ids.
    """

    __slots__ = ("_arrows", "_out", "_between")

    def __init__(self, category: FiniteCategory, thin: bool):
        self._arrows = category.arrows
        self._out = category.out_arrows
        self._between = {(a.dom, a.cod): a.id for a in category.arrows.values()} if thin else None

    def get(self, key, default=None):
        if key.__class__ is not tuple:
            return default
        arrows = self._arrows
        try:
            f, g = key
            a = arrows[f]
            b = arrows[g]
        except (KeyError, TypeError, ValueError):
            return default
        if a.cod != b.dom:
            return default
        between = self._between
        if between is not None:
            return between[a.dom, b.cod]
        if a.is_identity:
            return b.id
        if b.is_identity:
            return a.id
        return arrows[b.id + PATH_SEP + a.id].id

    def __getitem__(self, key):
        result = self.get(key)
        if result is None:
            raise KeyError(key)
        return result

    def __contains__(self, key):
        return self.get(key) is not None

    def __iter__(self):
        out = self._out
        for f in self._arrows.values():
            for g in out[f.cod]:
                yield f.id, g.id

    def __len__(self):
        out = self._out
        return sum(len(out[f.cod]) for f in self._arrows.values())


def compose(category: FiniteCategory, f: str, g: str) -> str:
    """Return g∘f, the composite of f followed by g.

    Raises NotComposable when cod(f) != dom(g).
    """
    a, b = category.arrows.get(f), category.arrows.get(g)
    if a is None or b is None:
        raise UnknownArrow("no arrow %r in category" % (f if a is None else g))
    if a.cod != b.dom:
        raise NotComposable("cod(%s) = %s but dom(%s) = %s" % (f, a.cod, g, b.dom))
    return category.table[(f, g)]


def _check_presentation(objects, generators):
    if len(set(objects)) != len(objects):
        raise ParseError("duplicate object ids")
    for obj in objects:
        if not obj or obj.startswith(IDENTITY_PREFIX):
            raise ParseError("bad object id %r" % obj)
    obj_set = set(objects)
    seen = set()
    for gid, dom, cod in generators:
        if not gid or gid.startswith(IDENTITY_PREFIX):
            raise ParseError("bad generator id %r" % gid)
        if gid in seen:
            raise ParseError("duplicate generator id %r" % gid)
        seen.add(gid)
        if dom not in obj_set or cod not in obj_set:
            raise ParseError("generator %r has undeclared endpoint" % gid)


def _identities(objects) -> list[Arrow]:
    return [Arrow(IDENTITY_PREFIX + o, o, o, is_identity=True) for o in objects]


def _dag_order(objects, out_edges, cycle_error) -> list[str]:
    """The objects, every edge's target before its source.

    A three-colour DFS over the (edge id, target) lists of `out_edges`,
    with an explicit stack of out-edge iterators so that long chains cannot
    exhaust the interpreter stack; raises `cycle_error` on a directed cycle.
    """
    state = {o: 0 for o in objects}  # 0 unseen, 1 active, 2 done
    order = []
    for root in objects:
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(out_edges[root]))]
        while stack:
            node, edges = stack[-1]
            for _, nxt in edges:
                if state[nxt] == 1:
                    raise cycle_error("directed cycle through %r" % nxt)
                if state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(out_edges[nxt])))
                    break
            else:
                state[node] = 2
                order.append(node)
                stack.pop()
    return order


def build_thin(objects: Sequence[str], generators: Sequence[tuple[str, str, str]]) -> FiniteCategory:
    """Thin category: one arrow a→b per nonempty generator path, a != b.

    The objects each reach are collected targets first, in one DAG order.
    Generator arrows keep their given ids; derived arrows are named
    "<dom>-><cod>".  Raises NontrivialCycle when the generator graph has a
    directed cycle, CatGeoError when the category would have more than
    MAX_FREE_PATHS non-identity arrows, and ParseError when two generators
    share an ordered object pair or a derived name is already an arrow id.
    """
    _check_presentation(objects, generators)
    out_edges: dict[str, list[tuple[str, str]]] = {o: [] for o in objects}
    for gid, dom, cod in generators:
        out_edges[dom].append((gid, cod))

    # reach[a]: the objects a nonempty path from a ends at
    reach: dict[str, set[str]] = {}
    total = 0
    for node in _dag_order(objects, out_edges, NontrivialCycle):
        ends = reach[node] = set()
        for _, nxt in out_edges[node]:
            ends.add(nxt)
            ends |= reach[nxt]
        total += len(ends)
        if total > MAX_FREE_PATHS:
            raise CatGeoError("thin category would have more than %d arrows" % MAX_FREE_PATHS)

    generator_name = {}
    for gid, dom, cod in generators:
        if (dom, cod) in generator_name:
            raise ParseError(
                "generators %r and %r both go %s -> %s; a thin category has one arrow per object pair"
                % (generator_name[(dom, cod)], gid, dom, cod)
            )
        generator_name[(dom, cod)] = gid

    arrows = _identities(objects)
    used = set(generator_name.values())
    for a in objects:
        for b in sorted(reach[a]):
            aid = generator_name.get((a, b))
            if aid is None:
                aid = "%s->%s" % (a, b)
                if aid in used:
                    raise ParseError("derived arrow %s -> %s would be named %r, which is already taken" % (a, b, aid))
                used.add(aid)
            arrows.append(Arrow(aid, a, b))

    # a generator a -> b is atomic unless b lies beyond another generator
    # a -> c; every derived arrow is a composite
    basis = []
    for a in objects:
        beyond = set().union(*(reach[c] for _, c in out_edges[a]))
        basis += [gid for gid, b in out_edges[a] if b not in beyond]
    category = FiniteCategory(objects, arrows, {}, "thin", tuple(sorted(basis)))
    category.table = _RuleTable(category, thin=True)
    return category


def build_free(objects: Sequence[str], generators: Sequence[tuple[str, str, str]]) -> FiniteCategory:
    """Free category on an acyclic multigraph: arrows are nonempty paths.

    A path through edges g1, g2, ..., gn (in traversal order) gets the id
    "gn∘...∘g2∘g1", so the composite of f then g is "g∘f"; as no generator
    id contains "∘", each id names one path.  The paths from each object
    are listed targets first, in one DAG order.  Raises CyclicGraph when
    the multigraph has a directed cycle, and CatGeoError when it has more
    than MAX_FREE_PATHS nonempty paths.
    """
    _check_presentation(objects, generators)
    for gid, _, _ in generators:
        if PATH_SEP in gid:
            raise ParseError("generator id %r contains the reserved separator" % gid)

    out_edges: dict[str, list[tuple[str, str]]] = {o: [] for o in objects}
    for gid, dom, cod in generators:
        out_edges[dom].append((gid, cod))
    order = _dag_order(objects, out_edges, CyclicGraph)

    # count the nonempty paths before enumerating them: paths from an
    # object are its out-edges, each extended by the paths from its target
    paths_from = {}
    for node in order:  # every target finishes before its sources
        paths_from[node] = sum(1 + paths_from[nxt] for _, nxt in out_edges[node])
    total = sum(paths_from.values())
    if total > MAX_FREE_PATHS:
        raise CatGeoError(
            "free category would have %d path arrows, more than the limit of %d" % (total, MAX_FREE_PATHS)
        )

    # paths[o]: (id, cod) of every nonempty path from o, in depth-first
    # pre-order: each out-edge e, then e followed by each path p from
    # cod(e), which is named "p∘e"
    paths: dict[str, list[tuple[str, str]]] = {}
    for node in order:
        found = paths[node] = []
        for gid, nxt in out_edges[node]:
            found.append((gid, nxt))
            found += [(p + PATH_SEP + gid, cod) for p, cod in paths[nxt]]

    arrows = _identities(objects)
    for o in objects:
        arrows += [Arrow(f, o, b) for f, b in paths[o]]
    # no path through two or more edges is atomic
    basis = tuple(sorted(gid for gid, _, _ in generators))
    category = FiniteCategory(objects, arrows, {}, "free", basis)
    category.table = _RuleTable(category, thin=False)
    return category


def build_explicit(
    objects: Sequence[str],
    arrows: Sequence[tuple[str, str, str]],
    compositions: Mapping[tuple[str, str], str],
) -> FiniteCategory:
    """Assemble a category verbatim from a full non-identity composition table.

    `compositions` maps (f, g) to g∘f and must cover exactly the composable
    non-identity pairs; identity entries are filled in by the unit law.
    The result is not validated here; run validate_axioms separately.
    """
    _check_presentation(objects, arrows)
    all_arrows = _identities(objects) + [Arrow(aid, dom, cod) for aid, dom, cod in arrows]
    table = dict(compositions)
    for a in all_arrows:  # the unit-law entries, identities included
        table[(IDENTITY_PREFIX + a.dom, a.id)] = a.id  # a ∘ id_dom(a)
        table[(a.id, IDENTITY_PREFIX + a.cod)] = a.id  # id_cod(a) ∘ a
    category = FiniteCategory(objects, all_arrows, table, "explicit")

    leaving = {o: [g.id for g in out if not g.is_identity] for o, out in category.out_arrows.items()}
    required = {(f, g) for f in category.vectors for g in leaving[category.arrows[f].cod]}
    given = set(compositions)
    if given - required:
        pair = sorted(given - required)[0]
        raise ParseError("composition entry %s is not a composable non-identity pair" % (pair,))
    if required - given:
        pair = sorted(required - given)[0]
        raise ParseError("incomplete composition table: missing entry %s" % (pair,))
    for pair, result in compositions.items():
        if result not in category.arrows:
            raise ParseError("composition %s names unknown arrow %r" % (pair, result))
    return category


def validate_axioms(category: FiniteCategory) -> list[Violation]:
    """Check the category axioms; an empty list means valid.

    Covers: table totality and closure over composable pairs, dom/cod
    consistency of composites, associativity over all composable triples,
    and the unit law for every arrow.  Violations come in three runs:
    pair checks (for each f in arrow order, its entries ordered by g in
    arrow order; then the entries naming an unknown arrow, in table
    order), then unit, then associativity (ordered by f, g, k).

    The pair checks count the composable pairs that have an entry; the
    closure pass over every table key runs only when the table has more
    entries than that, since otherwise every key is such a pair.

    When the pair and unit checks find nothing, the triples that cannot
    fail (through an identity, or with a one-arrow hom-set between their
    ends) are skipped; the list is that of the loop over every triple.
    """
    arrows = category.arrows
    table = category.table
    leaving = category.out_arrows.get

    # pairs: each f's violations by g in arrow order, as (g id, violation)
    runs: dict[str, list[tuple[str, Violation]]] = {}
    present = 0  # composable pairs with an entry
    for f in arrows.values():
        out = leaving(f.cod, ())
        present += len(out)
        for g in out:
            key = (f.id, g.id)
            result = table.get(key)
            r = arrows.get(result)
            if result is None and key not in table:
                present -= 1
                v = Violation("totality", "missing entry (%s, %s)" % key)
            elif r is None:
                v = Violation("dom-cod", "entry (%s, %s) names unknown arrow %r" % (f.id, g.id, result))
            elif r.dom != f.dom or r.cod != g.cod:
                v = Violation(
                    "dom-cod",
                    "(%s, %s) -> %s has type %s->%s, expected %s->%s" % (f.id, g.id, result, r.dom, r.cod, f.dom, g.cod),
                )
            else:
                continue
            runs.setdefault(f.id, []).append((g.id, v))

    # closure: entries naming an unknown arrow, and entries between known
    # arrows that do not compose.  A table with exactly `present` entries
    # holds only composable pairs of known arrows, so it has none.
    unknown: list[Violation] = []
    if len(table) != present:
        stray: dict[str, list[tuple[str, Violation]]] = {}
        for key in table:
            f, g = key
            a, b = arrows.get(f), arrows.get(g)
            if a is None or b is None:
                name = f if a is None else g
                unknown.append(Violation("closure", "entry (%s, %s) for unknown arrow %r" % (f, g, name)))
            elif a.cod != b.dom:
                stray.setdefault(f, []).append((g, Violation("closure", "entry (%s, %s) for non-composable pair" % key)))
        if stray:
            position = {aid: i for i, aid in enumerate(arrows)}
            for f, entries in stray.items():
                runs[f] = sorted(runs.get(f, []) + entries, key=lambda entry: position[entry[0]])
            runs = dict(sorted(runs.items(), key=lambda item: position[item[0]]))
    violations = [v for run in runs.values() for _, v in run]
    violations += unknown

    for f in arrows.values():
        left = table.get((category.identity(f.dom), f.id))
        if left != f.id:
            violations.append(Violation("unit", "%s ∘ id_%s = %s, expected %s" % (f.id, f.dom, left, f.id)))
        right = table.get((f.id, category.identity(f.cod)))
        if right != f.id:
            violations.append(Violation("unit", "id_%s ∘ %s = %s, expected %s" % (f.cod, f.id, right, f.id)))

    # With no violation so far every composite is a known arrow of the
    # right type and the unit law holds, so a triple through an identity
    # associates, and so does one whose ends have a one-arrow hom-set:
    # (k∘g)∘f and k∘(g∘f) both lie in hom(dom f, cod k).  Neither is checked.
    prune = not violations
    if prune:
        count: dict[tuple[str, str], int] = {}
        for a in arrows.values():
            count[a.dom, a.cod] = count.get((a.dom, a.cod), 0) + 1
        multi: dict[str, set[str]] = {}  # o -> the c with several arrows o -> c
        for (o, c), n in count.items():
            if n > 1:
                multi.setdefault(o, set()).add(c)
        units = {a.id for a in arrows.values() if a.dom == a.cod and a.id == category.identity(a.dom)}
        leaving = {o: [a for a in out if a.id not in units] for o, out in category.out_arrows.items()}.get

    for f in arrows.values():
        if prune:
            ends = multi.get(f.dom)
            if not ends or f.id in units:
                continue
        for g in leaving(f.cod, ()):
            gf = table.get((f.id, g.id))
            if gf not in arrows:
                continue  # already reported as totality/dom-cod
            for k in leaving(g.cod, ()):
                if prune and k.cod not in ends:
                    continue
                kg = table.get((g.id, k.id))
                if kg not in arrows:
                    continue
                lhs = table.get((gf, k.id))
                rhs = table.get((f.id, kg))
                if lhs != rhs:
                    violations.append(
                        Violation(
                            "associativity",
                            "(%s, %s, %s): %s != %s" % (f.id, g.id, k.id, lhs, rhs),
                        )
                    )
    return violations
