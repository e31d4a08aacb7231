"""Exact references that only the tests use."""

from quadrics.polynomials import DegenerateLeadingFormError, HomPoly, resultant


def has_common_component(p: HomPoly, q: HomPoly) -> bool:
    """Do p and q share a component?  True when a resultant in some
    variable that both depend on vanishes identically."""
    for var in range(3):
        if p.degree_in(var) > 0 and q.degree_in(var) > 0:
            try:
                if resultant(p, q, var).is_zero:
                    return True
            except DegenerateLeadingFormError:  # pragma: no cover
                continue
    return False
