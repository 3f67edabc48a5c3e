"""Reading the records of how each fact was decided.

A report lists them under ``decided``, each ``{"fact", "by",
"hypotheses"}`` (``hopf.record``)."""


def ways(decided):
    """fact -> by, for a list of records."""
    return {r["fact"]: r["by"] for r in decided}


def way(report, fact):
    """How ``fact`` was decided, in a report with records."""
    return ways(report["decided"])[fact]


def parts(records):
    """part -> by for the records of one map (``Morphism.verify``,
    ``Coaction.verify``), with the map's name taken off each fact:
    ``star-step``, ``relation-kills`` and ``coaction-laws``."""
    return {r["fact"].split("-", 1)[1]: r["by"] for r in records}
