"""JSON category documents: parsing, loading, and built-in examples.

A document is a single JSON object:

    {
      "mode": "thin" | "free" | "explicit",
      "objects": ["a0", "a1", ...],
      "arrows": [{"id": "e1", "dom": "a0", "cod": "a1"}, ...],
      "compositions": [{"f": "e2", "g": "e4", "result": "a0->a4"}, ...]
    }

For thin/free modes the arrows list holds the generators and compositions
must be absent.  For explicit mode the arrows list holds every non-identity
arrow (identities are implied) and the compositions list must cover exactly
the composable non-identity pairs, each entry meaning result = g∘f.  A
result may name the identity "id:<obj>" of a declared object, so that
isomorphisms and groupoids can be written down.
"""

from __future__ import annotations

import json

from .category import (
    IDENTITY_PREFIX,
    FiniteCategory,
    build_explicit,
    build_free,
    build_thin,
    validate_axioms,
)
from .errors import AxiomViolation, ParseError

MODES = ("thin", "free", "explicit")


class CategoryDocument:
    """A parsed document; equal documents have equal fields."""

    __slots__ = ("mode", "objects", "arrows", "compositions")

    def __init__(
        self,
        mode: str,
        objects: list[str],
        arrows: list[tuple[str, str, str]],  # (id, dom, cod)
        compositions: list[tuple[str, str, str]] | None = None,  # (f, g, result); default []
    ):
        self.mode = mode
        self.objects = objects
        self.arrows = arrows
        self.compositions = [] if compositions is None else compositions

    def _key(self):
        return self.mode, self.objects, self.arrows, self.compositions

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        return "CategoryDocument(mode=%r, objects=%r, arrows=%r, compositions=%r)" % self._key()


def parse_document(text: str) -> CategoryDocument:
    """Structural validation only; semantics are checked by load_category.

    The first failing check raises ParseError.  The document-level checks
    come first, then each arrow record in list order (an object, id, dom
    and cod nonempty strings, a new id, dom and cod declared objects),
    then each composition record (an object, f, g and result nonempty
    strings, f and g declared arrows, result a declared arrow or the
    identity of a declared object).  Each record key is read once.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError("document root must be a JSON object")
    mode = data.get("mode")
    if mode not in MODES:
        raise ParseError("mode must be one of %s, got %r" % (", ".join(MODES), mode))

    objects = data.get("objects")
    if not isinstance(objects, list) or not objects:
        raise ParseError("objects must be a nonempty list")
    if not all(isinstance(o, str) and o for o in objects):
        raise ParseError("object ids must be nonempty strings")
    obj_set = set(objects)
    if len(obj_set) != len(objects):
        raise ParseError("duplicate object id")

    raw_arrows = data.get("arrows", [])
    if not isinstance(raw_arrows, list):
        raise ParseError("arrows must be a list")
    arrows = []
    seen_ids = set()
    for i, rec in enumerate(raw_arrows):
        if not isinstance(rec, dict):
            raise ParseError("arrows[%d] must be an object" % i)
        aid, dom, cod = rec.get("id"), rec.get("dom"), rec.get("cod")
        if not isinstance(aid, str) or not aid:
            raise ParseError("arrows[%d].id must be a nonempty string" % i)
        if not isinstance(dom, str) or not dom:
            raise ParseError("arrows[%d].dom must be a nonempty string" % i)
        if not isinstance(cod, str) or not cod:
            raise ParseError("arrows[%d].cod must be a nonempty string" % i)
        if aid in seen_ids:
            raise ParseError("duplicate arrow id %r" % aid)
        seen_ids.add(aid)
        if dom not in obj_set:
            raise ParseError("arrows[%d] (%r): dangling dom %r" % (i, aid, dom))
        if cod not in obj_set:
            raise ParseError("arrows[%d] (%r): dangling cod %r" % (i, aid, cod))
        arrows.append((aid, dom, cod))

    results = seen_ids | {IDENTITY_PREFIX + o for o in objects}  # a composite may be an identity
    raw_comps = data.get("compositions", [])
    if not isinstance(raw_comps, list):
        raise ParseError("compositions must be a list")
    if mode != "explicit" and raw_comps:
        raise ParseError("compositions are only allowed in explicit mode")
    compositions = []
    for i, rec in enumerate(raw_comps):
        if not isinstance(rec, dict):
            raise ParseError("compositions[%d] must be an object" % i)
        f, g, result = rec.get("f"), rec.get("g"), rec.get("result")
        if not isinstance(f, str) or not f:
            raise ParseError("compositions[%d].f must be a nonempty string" % i)
        if not isinstance(g, str) or not g:
            raise ParseError("compositions[%d].g must be a nonempty string" % i)
        if not isinstance(result, str) or not result:
            raise ParseError("compositions[%d].result must be a nonempty string" % i)
        if f not in seen_ids:
            raise ParseError("compositions[%d]: unknown arrow %r" % (i, f))
        if g not in seen_ids:
            raise ParseError("compositions[%d]: unknown arrow %r" % (i, g))
        if result not in results:
            raise ParseError("compositions[%d]: unknown arrow %r" % (i, result))
        compositions.append((f, g, result))

    return CategoryDocument(mode, list(objects), arrows, compositions)


def load_category(text: str) -> FiniteCategory:
    """Parse a document and build the category it presents.

    Every command that reads a document loads it here, `validate` too.  An
    explicit table is validated once, as it loads: one that breaks an axiom
    raises AxiomViolation, whose `violations` lists every violation in
    validate_axioms order.  Thin and free categories are not checked: they
    compose by rule (the order, path concatenation), so they satisfy the
    axioms by construction, as the test suite checks on every built one.
    """
    document = parse_document(text)
    if document.mode == "thin":
        return build_thin(document.objects, document.arrows)
    if document.mode == "free":
        return build_free(document.objects, document.arrows)
    table = {}
    for f, g, result in document.compositions:
        key = (f, g)
        if key in table:
            raise ParseError("duplicate composition entry (%s, %s)" % key)
        table[key] = result
    category = build_explicit(document.objects, document.arrows, table)
    violations = validate_axioms(category)
    if violations:
        raise AxiomViolation(violations)
    return category


def document_to_json(document: CategoryDocument) -> str:
    data = {
        "mode": document.mode,
        "objects": document.objects,
        "arrows": [{"id": a, "dom": d, "cod": c} for a, d, c in document.arrows],
    }
    if document.mode == "explicit":
        data["compositions"] = [{"f": f, "g": g, "result": r} for f, g, r in document.compositions]
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False)


# Built-in example documents.  "po6" is the six-object order category whose
# six generators e1..e6 make the worked running example of the library.
_BUILTINS = {
    "po6": CategoryDocument(
        mode="thin",
        objects=["a0", "a1", "a2", "a3", "a4", "a5"],
        arrows=[
            ("e1", "a0", "a1"),
            ("e2", "a0", "a2"),
            ("e3", "a1", "a3"),
            ("e4", "a2", "a4"),
            ("e5", "a3", "a4"),
            ("e6", "a4", "a5"),
        ],
    ),
    "path3": CategoryDocument(
        mode="free",
        objects=["x", "y", "z"],
        arrows=[("p", "x", "y"), ("q", "y", "z")],
    ),
    "parallel2": CategoryDocument(
        mode="free",
        objects=["a", "b"],
        arrows=[("u", "a", "b"), ("v", "a", "b")],
    ),
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin_document(name: str) -> str:
    """The JSON text of a shipped example document."""
    if name not in _BUILTINS:
        raise ParseError("unknown example %r; available: %s" % (name, ", ".join(builtin_names())))
    return document_to_json(_BUILTINS[name])


def builtin_category(name: str) -> FiniteCategory:
    return load_category(builtin_document(name))
