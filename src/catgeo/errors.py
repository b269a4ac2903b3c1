"""Exception hierarchy shared by all catgeo modules."""


class CatGeoError(Exception):
    """Base class of catgeo's errors, which every bad vector, arrow id, basis or id list of a category raises (a
    str or non-iterable list is an UnknownArrow: vectors._check_arrows) but an unhashable id (a list: Python's
    TypeError), and a realline argument that is no IntervalArrow (or O, where taken) raises as an UnknownArrow;
    lo >= hi in IntervalArrow is the one ValueError.  A bad presentation is a ParseError, never a TypeError, and so
    is a composition key that does not unpack into a pair or unpacks into another key's pair ("fg" beside ("f", "g")),
    but a table that is no Mapping raises AttributeError."""


class ParseError(CatGeoError):
    """A category document is malformed or structurally inconsistent."""


class AxiomViolation(CatGeoError):
    """An explicitly presented category fails the category axioms."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(
            "category axioms violated (%d instance%s): %s"
            % (
                len(self.violations),
                "" if len(self.violations) == 1 else "s",
                "; ".join(str(v) for v in self.violations[:5]),
            )
        )


class CyclicGraph(CatGeoError):
    """The generator graph of a thin or free presentation has a directed cycle."""


class NotComposable(CatGeoError):
    """f then g does not compose (cod f ≠ dom g), so g∘f and the sum f (+) g are undefined."""


class CompositeIsIdentity(CatGeoError):
    """A sum of two non-identity arrows landed on an identity arrow.

    The result lies outside the arrow vector space, so the addition is
    flagged rather than silently resolved.
    """


class NotGenerated(CatGeoError):
    """Some non-identity arrows cannot be reached from the atomic basis."""

    def __init__(self, missing):
        self.missing = sorted(missing)
        super().__init__("arrows not generated by the basis: %s" % ", ".join(self.missing))


class NoDifference(CatGeoError):
    """No vector l satisfies f = g (+) l, so the distance is undefined."""


class UnknownArrow(CatGeoError):
    """An arrow id does not name an arrow of the category."""


UndefinedSum = NotComposable  # vec_add's and interval_add's old name, kept for callers; catgeo raises NotComposable
