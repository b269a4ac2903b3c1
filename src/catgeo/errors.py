"""Exception hierarchy shared by all catgeo modules."""


class CatGeoError(Exception):
    """Base class for every error raised by catgeo."""


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


NontrivialCycle = CyclicGraph  # the name the thin builder raised, kept for callers


class NotComposable(CatGeoError):
    """compose(f, g) was asked for arrows with cod(f) != dom(g)."""


class UndefinedSum(CatGeoError):
    """Vector addition is undefined for this pair (non-composable arrows)."""


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
