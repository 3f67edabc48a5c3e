"""Presentations that differ from a built one in some of their parts.

A presentation's parts are fixed when it is made, so a test that needs
other tables, rules or a companion constructs a new ``Presentation``.  Such
a variant is not as built (``presentations.as_built``) and starts with an
empty memo, so every lemma of ``hopf`` leaves it to the loops."""

from qsphere.presentations import Presentation, StructureMaps


def variant(P, **parts):
    """A presentation with P's name, N and parts, those given replaced:
    ``system``, ``star``, ``structure``, ``aux`` or ``det``."""
    kept = {"system": P.system, "star": P.star, "structure": P.structure,
            "aux": P.aux, "det": P.det}
    return Presentation(P.name, P.N, **{**kept, **parts})


def with_tables(P, delta=None, epsilon=None, antipode=None):
    """A variant of P whose structure maps have the given generator values
    in place of their own."""
    maps = P.structure
    return variant(P, structure=StructureMaps(
        {**maps.delta, **(delta or {})},
        {**maps.epsilon, **(epsilon or {})},
        None if maps.antipode is None else {**maps.antipode, **(antipode or {})},
    ))
