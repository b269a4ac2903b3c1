"""Finite categories: representation, builders, and axiom validation.

A category is objects, arrows (identities included) and a composition
table over composable ordered pairs.  The table maps the pair (f, g) with
cod(f) = dom(g) to the composite g∘f, i.e. "f first, then g".  Arrows are
equal when their ids are; the table alone identifies composites.

Only explicit categories store their table, as a dict.  Thin and free
categories compose by rule: their table is a read-only Mapping that
computes each entry when it is looked up.  Both apply the unit law first
(g∘f is f or g itself when the other is an identity); otherwise g∘f is,
in a thin category, the one arrow dom f → cod g, read from build_thin's
map of object pairs to non-identity arrow ids, and in a free category
the path named "g∘f".  Every builder reads its presentation once, through
_check_presentation, and records the atomic basis: a thin or free one
knows it from the presentation, and build_explicit finds it in its one
pass over an explicit table.

Each category also keeps two indexes, which FiniteCategory.__init__
builds with its arrows.  An explicit category runs it when it is made.
A thin or free builder checks the presentation in full (the cycle,
budget and naming errors, the atomic basis and the arrow count all
follow from it) and returns a _PendingCategory holding objects, mode and
basis.  The first read of arrows, out_arrows, vectors or table
enumerates the arrows, makes that same instance a plain FiniteCategory,
runs FiniteCategory.__init__ on it and gives it its rule table; an
attribute assigned before then keeps its value.  So `validate`, `basis`
and `repr` never enumerate a thin or free category's arrows.

`out_arrows` maps every object to the tuple of arrows leaving it,
identities included, in arrow order.  The arrows g composable after f are
exactly `out_arrows[f.cod]`, so the passes that enumerate composable
pairs or triples go through it, not through every pair of arrows.

Axiom validation is two passes (validate_axioms).  The pair-and-unit pass
reads each table entry once.  When it finds something, every composable
triple is checked.  Otherwise the associativity pass compares two integer
rows per composable pair and walks the triples of only the pairs whose
rows differ (_associativity_violations).  An explicit document whose
composites are all well typed passes the first pass by construction, so
load_category runs only the second.

`vectors` is the tuple of non-identity arrow ids in the canonical (sorted)
order: the vectors of the arrow vector space other than O, which the
basis, the norms, the products and the distance all walk in that order.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain

from .errors import CatGeoError, CyclicGraph, NotComposable, ParseError, UnknownArrow

IDENTITY_PREFIX = "id:"

#: separator used in the ids of composite path arrows of free categories
PATH_SEP = "∘"  # "∘"

#: most non-identity arrows build_thin and build_free make; a larger thin or
#: free category is refused before any arrow is made.  The cap bounds the
#: builders' work and the anticommutator table, which has a row for every
#: ordered pair of arrows
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
    """A finite category.  It is not frozen: its attributes can be reassigned.

    `table` maps each composable pair (f, g) to the id of g∘f: a copy of
    the given mapping, which a thin or free category's first read then
    replaces by a view that composes by rule.  `basis` is the atomic
    basis, sorted, when the builder records it, and None otherwise.
    `vectors` holds the non-identity arrow ids, sorted; the zero vector O
    is not in it.

    Every category gets its arrows and indexes here; a thin or free one on
    its first read (see the module docstring).
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

    def __repr__(self):
        return "FiniteCategory(mode=%r, objects=%d, arrows=%d)" % (
            self.mode,
            len(self.objects),
            len(self.arrows),
        )


#: the attributes a thin or free category enumerates on their first read
_ENUMERATED = frozenset(("arrows", "out_arrows", "vectors", "table"))


class _PendingCategory(FiniteCategory):
    """A thin or free category before its first read (see the module docstring).

    It holds objects, mode and basis, and in `_pending` the function that
    enumerates the arrows, the presentation data it reads (objects first;
    none of it refers to the category) and the arrow count, which `repr`
    prints.  It is a subclass, left at the first read, because on CPython
    3.11 a class with a `__getattr__` gets no specialized attribute reads:
    with one on FiniteCategory, a read of `arrows` took 22-30 ns net, not 3,
    and `distance` on a 201-arrow table 171-197 µs per call, not 160-182.
    """

    def __init__(self, objects, mode, basis, enumerate_arrows, presentation, arrow_count):
        self.objects = objects
        self.mode = mode
        self.basis = basis
        self._pending = enumerate_arrows, presentation, arrow_count

    def __repr__(self):
        # the presentation pass's count, unless arrows was assigned
        arrows = self.__dict__.get("arrows")
        count = self._pending[2] if arrows is None else len(arrows)
        return "FiniteCategory(mode=%r, objects=%d, arrows=%d)" % (self.mode, len(self.objects), count)

    def __getattr__(self, name):
        # called only for an attribute the instance does not hold
        if name not in _ENUMERATED:
            raise AttributeError("'FiniteCategory' object has no attribute %r" % name, name=name, obj=self)
        assigned = self.__dict__
        enumerate_arrows, presentation, _ = assigned.pop("_pending")
        arrows, between = enumerate_arrows(*presentation)
        self.__class__ = FiniteCategory
        # a new plain dict: on CPython 3.11 an attribute read from the
        # key-sharing dict that a class change leaves behind costs four
        # times one from a plain dict or from an eager category
        self.__dict__ = {}
        FiniteCategory.__init__(self, presentation[0], arrows, {}, assigned["mode"], assigned["basis"])
        self.table = _RuleTable(self, between)
        self.__dict__.update(assigned)
        return self.__dict__[name]


class _RuleTable(Mapping):
    """A read-only composition table that composes by rule.

    Its keys are the composable pairs, f and then g in arrow order.  `[]`
    is its one lookup.  It applies the unit law first in both modes (g∘f
    is f or g itself when the other is an identity); otherwise g∘f is the
    one arrow dom f → cod g in build_thin's map of (dom, cod) pairs to
    non-identity arrow ids, or, in a free category (no map), the path
    "g∘f".  `[]` raises KeyError for a key that is not a composable pair
    of arrow ids, so Mapping's derived `get` and `in` answer None and False.
    """

    __slots__ = ("_arrows", "_out", "_between")

    def __init__(self, category: FiniteCategory, between: dict[tuple[str, str], str] | None = None):
        self._arrows = category.arrows
        self._out = category.out_arrows
        self._between = between

    def __getitem__(self, key):
        if key.__class__ is not tuple:
            raise KeyError(key)
        arrows = self._arrows
        try:
            f, g = key
            a, b = arrows[f], arrows[g]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None
        if a.cod != b.dom:
            raise KeyError(key)
        if a.is_identity:
            return b.id
        if b.is_identity:
            return a.id
        between = self._between
        if between is not None:
            return between[a.dom, b.cod]
        return arrows[b.id + PATH_SEP + a.id].id

    def __iter__(self):
        out = self._out
        for f in self._arrows.values():
            for g in out[f.cod]:
                yield f.id, g.id

    def __len__(self):
        return sum(len(self._out[f.cod]) for f in self._arrows.values())


def compose(category: FiniteCategory, f: str, g: str) -> str:
    """Return g∘f, the composite of f followed by g.

    Raises NotComposable when cod(f) != dom(g).
    """
    a, b = category.arrows.get(f), category.arrows.get(g)
    if a is None or b is None:
        raise UnknownArrow("no arrow %r in category" % ((f if a is None else g),))
    if a.cod != b.dom:
        raise NotComposable("cod(%s) = %s but dom(%s) = %s" % (f, a.cod, g, b.dom))
    return category.table[(f, g)]


def _check_presentation(objects, generators) -> tuple[tuple, tuple]:
    """Read a presentation, any two iterables but str, once: (objects, generators),
    the ids and (id, dom, cod) triples as tuples.  Raises ParseError for a str or
    non-iterable argument, an id that is no nonempty str or starts with "id:", a
    repeated id, a record that is no triple and an undeclared endpoint."""
    for given in objects, generators:
        if isinstance(given, str) or not isinstance(given, Iterable):
            raise ParseError("a presentation lists its objects and generators, not %r" % (given,))
    objects = tuple(objects)
    for obj in objects:
        if not isinstance(obj, str) or not obj or obj.startswith(IDENTITY_PREFIX):
            raise ParseError("bad object id %r" % (obj,))
    obj_set = set(objects)
    if len(obj_set) != len(objects):
        raise ParseError("duplicate object ids")
    triples = {}  # id -> (id, dom, cod), in the order given
    for record in generators:
        try:
            gid, dom, cod = () if isinstance(record, str) else record  # a str unpacks into its characters
        except (TypeError, ValueError):
            raise ParseError("generator %r is not an (id, dom, cod) triple" % (record,)) from None
        if not isinstance(gid, str) or not gid or gid.startswith(IDENTITY_PREFIX):
            raise ParseError("bad generator id %r" % (gid,))
        if gid in triples:
            raise ParseError("duplicate generator id %r" % (gid,))
        if not (isinstance(dom, str) and isinstance(cod, str) and dom in obj_set and cod in obj_set):
            raise ParseError("generator %r has undeclared endpoint" % (gid,))
        triples[gid] = gid, dom, cod
    return objects, tuple(triples.values())


def _identities(objects) -> list[Arrow]:
    return [Arrow(IDENTITY_PREFIX + o, o, o, is_identity=True) for o in objects]


def _generator_graph(objects, generators):
    """(out_edges, order): each object's (generator id, target) list, and
    the objects with every edge's target before its source.

    The order is Kahn's, from the sinks: an object is placed when none of
    its edges leads to an unplaced object, and each placement lowers the
    counts of its sources.  Raises CyclicGraph, naming an object on a
    directed cycle, when some object is never placed.
    """
    out_edges: dict[str, list[tuple[str, str]]] = {o: [] for o in objects}
    sources = {o: [] for o in objects}
    for gid, dom, cod in generators:
        out_edges[dom].append((gid, cod))
        sources[cod].append(dom)
    unplaced = {o: len(out_edges[o]) for o in objects}
    order = [o for o in objects if not unplaced[o]]
    for node in order:  # the list grows while it is read
        for src in sources[node]:
            unplaced[src] -= 1
            if not unplaced[src]:
                order.append(src)
    if len(order) < len(objects):
        # each unplaced object has an edge to another: walk those to a repeat
        node = next(o for o in objects if unplaced[o])
        seen = set()
        while node not in seen:
            seen.add(node)
            node = next(nxt for _, nxt in out_edges[node] if unplaced[nxt])
        raise CyclicGraph("directed cycle through %r" % node)
    return out_edges, order


def build_thin(objects: Iterable[str], generators: Iterable[tuple[str, str, str]]) -> FiniteCategory:
    """Thin category: one arrow a→b per nonempty generator path, a != b.

    Each argument may be any iterable, read once (_check_presentation).  The
    objects each object reaches and its atomic generators are found in one
    pass, in the generator graph's order, targets first.  Generator arrows
    keep their given ids; derived arrows are named "<dom>-><cod>".  Raises
    CyclicGraph when the generator graph has a directed cycle, CatGeoError
    when the category would have more than MAX_FREE_PATHS non-identity
    arrows, and ParseError when two generators share an ordered object pair
    or a derived name is already an arrow id.

    The arrows are enumerated on the first read (see the module docstring).
    A derived name can be taken (by a generator, or by another derived name)
    only when some object or generator id contains "->"; only then are the
    names derived here, in the order the enumeration makes them, and kept
    for it, but no arrow is made.
    """
    objects, generators = _check_presentation(objects, generators)
    out_edges, order = _generator_graph(objects, generators)

    # reach[a]: the objects a nonempty path from a ends at; a generator
    # a -> b is atomic unless b lies beyond another generator a -> c, and
    # every derived arrow is a composite
    reach: dict[str, set[str]] = {}
    basis = []
    total = 0
    for node in order:
        edges = out_edges[node]
        beyond = set().union(*[reach[nxt] for _, nxt in edges])
        basis += [gid for gid, nxt in edges if nxt not in beyond]
        reach[node] = beyond | {nxt for _, nxt in edges}
        total += len(reach[node])
        if total > MAX_FREE_PATHS:
            raise CatGeoError("thin category would have more than %d arrows" % MAX_FREE_PATHS)

    # between[a, b]: the one non-identity arrow a -> b, which the table reads
    between: dict[tuple[str, str], str] = {}
    for gid, dom, cod in generators:
        if (dom, cod) in between:
            raise ParseError(
                "generators %r and %r both go %s -> %s; a thin category has one arrow per object pair"
                % (between[dom, cod], gid, dom, cod)
            )
        between[dom, cod] = gid

    basis = tuple(sorted(basis))
    # some id holds "->", so a derived name may be taken: name the pairs while loading
    if "->" in " ".join(chain(objects, (gid for gid, _, _ in generators))):  # no "->" spans a space
        taken = set(between.values())
        for a in objects:
            for b in sorted(reach[a]):
                if (a, b) not in between:
                    name = between[a, b] = "%s->%s" % (a, b)
                    if name in taken:
                        raise ParseError(
                            "derived arrow %s -> %s would be named %r, which is already taken" % (a, b, name)
                        )
                    taken.add(name)
    arrow_count = len(objects) + total
    return _PendingCategory(objects, "thin", basis, _thin_arrows, (objects, reach, between), arrow_count)


def _thin_arrows(objects, reach, between) -> tuple[list[Arrow], dict[tuple[str, str], str]]:
    """(arrows, between) of build_thin's presentation pass: the identities,
    then the arrow a -> b for each b in reach[a], named by between or
    derived, and between with every derived name filled in, which the
    table reads.  build_thin has checked that no derived name is taken."""
    arrows = _identities(objects)
    for a in objects:
        for b in sorted(reach[a]):
            aid = between.get((a, b))
            if aid is None:
                aid = between[a, b] = "%s->%s" % (a, b)
            arrows.append(Arrow(aid, a, b))
    return arrows, between


def build_free(objects: Iterable[str], generators: Iterable[tuple[str, str, str]]) -> FiniteCategory:
    """Free category on an acyclic multigraph: arrows are nonempty paths.

    Each argument may be any iterable, read once (_check_presentation).  A
    path through edges g1, g2, ..., gn (in traversal order) gets the id
    "gn∘...∘g2∘g1", so the composite of f then g is "g∘f"; as no generator
    id contains "∘", each id names one path.  The paths from each object
    are listed in the generator graph's order, targets first, on the first
    read (see the module docstring).  Raises CyclicGraph when the multigraph
    has a directed cycle, and CatGeoError when it has more than
    MAX_FREE_PATHS nonempty paths.
    """
    objects, generators = _check_presentation(objects, generators)
    for gid, _, _ in generators:
        if PATH_SEP in gid:
            raise ParseError("generator id %r contains the reserved separator" % gid)
    out_edges, order = _generator_graph(objects, generators)

    # count the nonempty paths before enumerating them: paths from an
    # object are its out-edges, each extended by the paths from its target
    paths_from = {}
    for node in order:  # every target comes before its sources
        paths_from[node] = sum(1 + paths_from[nxt] for _, nxt in out_edges[node])
    total = sum(paths_from.values())
    if total > MAX_FREE_PATHS:
        raise CatGeoError(
            "free category would have %d path arrows, more than the limit of %d" % (total, MAX_FREE_PATHS)
        )
    # no path through two or more edges is atomic
    basis = tuple(sorted(gid for gid, _, _ in generators))
    arrow_count = len(objects) + total
    return _PendingCategory(objects, "free", basis, _free_arrows, (objects, out_edges, order), arrow_count)


def _free_arrows(objects, out_edges, order) -> tuple[list[Arrow], None]:
    """(arrows, None) of build_free's presentation pass: the identities, then
    the paths from each object; None, as the table composes paths by name."""
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
    return arrows, None


def build_explicit(
    objects: Iterable[str],
    arrows: Iterable[tuple[str, str, str]],
    compositions: Mapping[tuple[str, str], str],
) -> FiniteCategory:
    """Assemble a category verbatim from a full non-identity composition table.

    `objects` and `arrows` may be any iterables, read once; `compositions` maps
    (f, g) to g∘f, and the category's copy of it is the table, completed by the
    unit law.  One pass reads each entry once: it copies it, and raises
    ParseError unless the entries are well formed (see CatGeoError), cover
    exactly the composable non-identity pairs (a stray entry is named first,
    then a missing one, found by count) and name only known arrows.  The same
    pass records the atomic basis in `basis`, and in `_well_typed` whether
    every composite has the type dom f -> cod g.  When it has, the pair and
    unit checks of validate_axioms cannot fail, so load_category runs only the
    associativity pass; otherwise the axioms are validate_axioms' job.
    """
    objects, arrows = _check_presentation(objects, arrows)
    all_arrows = _identities(objects) + [Arrow(aid, dom, cod) for aid, dom, cod in arrows]
    category = FiniteCategory(objects, all_arrows, {}, "explicit")
    table = category.table
    known = category.arrows
    stray = []
    unknown = None  # the first entry naming an unknown arrow
    well_typed = True
    composite = set()
    try:
        for (f, g), result in compositions.items():
            table[f, g] = result
            a, b = known.get(f), known.get(g)
            if a is None or b is None or a.is_identity or b.is_identity or a.cod != b.dom:
                stray.append((f, g))
                continue
            r = known.get(result)
            if r is None:
                unknown = unknown or ((f, g), result)
                continue
            if r.dom != a.dom or r.cod != b.cod:
                well_typed = False
            if result != f and result != g:
                composite.add(result)
        if stray:  # min raises TypeError for stray keys of mixed types
            raise ParseError("composition entry %s is not a composable non-identity pair" % (min(stray),))
        if len(table) < len(compositions):  # two keys unpacked into one pair
            raise ValueError
    except (TypeError, ValueError):  # name the first entry that is no (str, str) key with a str result
        entries = compositions.items()
        entry = next((k, r) for k, r in entries if type(k) is not tuple or [*map(type, k), type(r)] != [str] * 3)
        raise ParseError("malformed composition entry %r: %r" % entry) from None
    out = category.out_arrows
    # every entry is a composable non-identity pair, and each object has one identity
    if len(compositions) < sum(len(out[known[f].cod]) - 1 for f in category.vectors):
        required = {(f, g.id) for f in category.vectors for g in out[known[f].cod] if not g.is_identity}
        raise ParseError("incomplete composition table: missing entry %s" % (min(required - compositions.keys()),))
    if unknown:
        raise ParseError("composition %s names unknown arrow %r" % unknown)
    for a in all_arrows:  # the unit-law entries, identities included
        table[(IDENTITY_PREFIX + a.dom, a.id)] = a.id  # a ∘ id_dom(a)
        table[(a.id, IDENTITY_PREFIX + a.cod)] = a.id  # id_cod(a) ∘ a
    category.basis = tuple(v for v in category.vectors if v not in composite)
    category._well_typed = well_typed
    return category


def validate_axioms(category: FiniteCategory) -> list[Violation]:
    """Check the category axioms; an empty list means valid.

    Covers: table totality and closure over composable pairs, dom/cod
    consistency of composites, associativity over all composable triples,
    and the unit law for every arrow.  Violations come in three runs:
    pair checks (ordered by f, then g, in arrow order; then the entries
    naming an unknown arrow, in table order), then unit, then
    associativity (ordered by f, g, k).

    Two passes make them.  The pair-and-unit pass reads each table entry
    once; only when fewer entries are composable pairs than there are such
    pairs are the pairs f, g in `out_arrows[f.cod]` searched for a missing
    entry, and one sort by the arrow positions of f and g orders the
    violations that name a pair.  When that pass finds something, every
    composable triple is checked but one whose g∘f or k∘g is missing or
    unknown (already reported).  Otherwise _associativity_violations checks
    each composable pair's triples at once, and lists the violations of
    the pairs that fail.
    """
    violations = _pair_and_unit_violations(category)
    if not violations:
        return _associativity_violations(category)
    arrows, leaving = category.arrows, category.out_arrows.get
    pairs = ((f, g) for f in arrows.values() for g in leaving(f.cod, ()))
    return violations + list(_triples(category.table, arrows, pairs, leaving))


def _pair_and_unit_violations(category: FiniteCategory) -> list[Violation]:
    """The pair and unit runs of validate_axioms."""
    arrows = category.arrows
    table = category.table
    leaving = category.out_arrows.get

    pairs: list[tuple[str, str, Violation]] = []  # (f id, g id, violation)
    unknown: list[Violation] = []
    present = 0  # entries of composable pairs
    for key, result in table.items():
        f, g = key
        a, b = arrows.get(f), arrows.get(g)
        if a is None or b is None:
            name = f if a is None else g
            unknown.append(Violation("closure", "entry (%s, %s) for unknown arrow %r" % (f, g, name)))
            continue
        if a.cod != b.dom:
            v = Violation("closure", "entry (%s, %s) for non-composable pair" % key)
        else:
            present += 1
            r = arrows.get(result)
            if r is None:
                v = Violation("dom-cod", "entry (%s, %s) names unknown arrow %r" % (f, g, result))
            elif r.dom != a.dom or r.cod != b.cod:
                v = Violation(
                    "dom-cod",
                    "(%s, %s) -> %s has type %s->%s, expected %s->%s" % (f, g, result, r.dom, r.cod, a.dom, b.cod),
                )
            else:
                continue
        pairs.append((f, g, v))
    if present < sum(len(leaving(f.cod, ())) for f in arrows.values()):
        for f in arrows.values():
            for g in leaving(f.cod, ()):
                if (f.id, g.id) not in table:
                    pairs.append((f.id, g.id, Violation("totality", "missing entry (%s, %s)" % (f.id, g.id))))
    if pairs:
        position = {aid: i for i, aid in enumerate(arrows)}
        pairs.sort(key=lambda entry: (position[entry[0]], position[entry[1]]))
    violations = [v for _, _, v in pairs] + unknown

    for f in arrows.values():
        left = table.get((IDENTITY_PREFIX + f.dom, f.id))
        if left != f.id:
            violations.append(Violation("unit", "%s ∘ id_%s = %s, expected %s" % (f.id, f.dom, left, f.id)))
        right = table.get((f.id, IDENTITY_PREFIX + f.cod))
        if right != f.id:
            violations.append(Violation("unit", "id_%s ∘ %s = %s, expected %s" % (f.cod, f.id, right, f.id)))
    return violations


def _associativity_violations(category: FiniteCategory) -> list[Violation]:
    """The associativity run of validate_axioms once the pair and unit
    checks have found nothing.

    Every composite is then a known arrow of the right type and the unit
    law holds.  With no two arrows parallel every triple associates, as
    (k∘g)∘f and k∘(g∘f) both lie in hom(dom f, cod k).  Otherwise each
    arrow x gets a row, as in the right Cayley graph of Froidure and Pin
    (Algorithms for computing finite semigroups, 1997): for each k in
    `out_arrows[cod x]`, the place of k∘x in `out_arrows[dom x]`.  The
    triples (f, g, k) of a composable pair all associate exactly when the
    row of g∘f is the row of g read through the row of f; of the pairs of
    no unit, those where the two differ are walked, k in order.
    """
    arrows = category.arrows
    if len({(a.dom, a.cod) for a in arrows.values()}) == len(arrows):
        return []
    table, out = category.table, category.out_arrows
    place = {a.id: i for leaving in out.values() for i, a in enumerate(leaving)}
    rows = {x.id: [place[table[x.id, k.id]] for k in out[x.cod]] for x in arrows.values()}
    failing = []
    for f in arrows.values():
        if f.id == IDENTITY_PREFIX + f.dom:
            continue  # a unit, by the unit law
        unit, through_f = IDENTITY_PREFIX + f.cod, rows[f.id].__getitem__
        for g in out[f.cod]:
            if g.id != unit and rows[table[f.id, g.id]] != list(map(through_f, rows[g.id])):
                failing.append((f, g))
    return list(_triples(table, arrows, failing, out.get))


def _triples(table, arrows, pairs, leaving) -> Iterator[Violation]:
    """The associativity violations, one by one, of the triples (f, g, k)
    with (f, g) in pairs and k in leaving(cod g, ()), in that order, but for
    a triple whose g∘f or k∘g is no arrow."""
    for f, g in pairs:
        gf = table.get((f.id, g.id))
        if gf not in arrows:
            continue  # already reported as totality/dom-cod
        for k in leaving(g.cod, ()):
            kg = table.get((g.id, k.id))
            if kg not in arrows:
                continue
            lhs = table.get((gf, k.id))
            rhs = table.get((f.id, kg))
            if lhs != rhs:
                yield Violation("associativity", "(%s, %s, %s): %s != %s" % (f.id, g.id, k.id, lhs, rhs))
