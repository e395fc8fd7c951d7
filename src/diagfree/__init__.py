"""Diagram monoids (chiefly the partition monoid) and the maximal subgroups
of the free idempotent-generated and free projection-generated semigroups
attached to them.

`import diagfree` loads only `diagram`; the other modules, and the names the
package re-exports from `green`, `groupid` and `present`, load on first use."""

__version__ = "0.1.0"

from .diagram import (  # noqa: F401
    AdjacencySemigroup,
    BrauerMonoid,
    Partition,
    PartitionMonoid,
    TransformationMonoid,
    TwistedElement,
    identity,
    involution,
    multiply,
    multiply_with_floats,
    partition_from_blocks,
    partition_from_text,
    twisted_multiply,
)

# Lazy exports (PEP 562): each module loaded on first use -> the names the
# package re-exports from it.
_LAZY = {
    "biorder": (),
    "ghgraph": (),
    "green": ("DClassData", "dclass_data", "sandwich_set"),
    "groupid": (
        "IdentifyHints",
        "Verdict",
        "abelianization",
        "check_label_homomorphism",
        "identify",
        "smith_normal_form",
        "todd_coxeter",
    ),
    "present": (
        "GroupPresentation",
        "presn_ig",
        "presn_pg_linked",
        "presn_pg_squares",
        "tietze_simplify",
    ),
}

# `diagram` and the names bound from it above, then the lazy ones.
__all__ = [name for name in globals() if not name.startswith("_")]
__all__ += [*_LAZY, *(name for names in _LAZY.values() for name in names)]


def __getattr__(name):
    from importlib import import_module

    if name in _LAZY:
        return import_module(f".{name}", __name__)
    for module, names in _LAZY.items():
        if name in names:
            value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
