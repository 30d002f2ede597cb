"""Backtracking solver for lifting problems in finite presheaf categories.

A lifting problem is a commuting square; a solution is a diagonal making
both triangles commute.  The relaxed variant keeps the upper triangle strict
and only asks the lower one to hold up to a caller-supplied relation.  The
relation is asked about component tables: for a square with verticals
i : A -> B and g : C -> D, it decides two parallel maps B -> D given by
D and their tables (`Relation`), so a sweep builds maps only for the
square it returns.

The module keeps no state: a lifting property is a pure relation between
two maps, and every query here decides its squares again.  The objects that
own a question cache what their checks ask again: `BoundedUniverse` its
membership verdicts, `HomotopyContext` its cylinders and homotopy tables.

What is cached is the work the squares share.  The square sweeps
(`unsolvable_squares`, and through it `has_rlp` and `has_llp`, and
`find_unliftable_square_up_to`) decide every square against a left map i
out of one object X from `presheaf._extensions(i, X)`: hom(i.target, X)
grouped by restriction along i, enumerated once.  That table lives on the
X instance, so a universe object keeps it for every map out of it, and a
coproduct or cell apex drops it together with itself.  `solve_lifting` and
`solve_lifting_up_to` decide one square on their own; with
`square_enumerate` they are the reference the sweeps agree with, square by
square and relation call by relation call.  `STATS["solver_calls"]` counts
one per square decided strictly and one per up-to search, either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .colimits import initial_map
from .errors import NonComposable, NonCommutingSquare
from .presheaf import (
    Presheaf,
    PresheafMap,
    Components,
    _compose_tables,
    _enumerate_components,
    _extensions,
    _fibres,
    _first_map,
    _pin,
    compose,
    hom_enumerate,
)

#: Deterministic work counters, reset per CLI run; diagnostics only.
STATS = {"solver_calls": 0}


def reset_stats() -> None:
    STATS["solver_calls"] = 0


@dataclass(frozen=True)
class LiftingProblem:
    """A commuting square: left and right verticals, top and bottom rows."""

    left: PresheafMap
    right: PresheafMap
    top: PresheafMap
    bottom: PresheafMap

    def __post_init__(self) -> None:
        if (
            self.top.source != self.left.source
            or self.bottom.source != self.left.target
            or self.top.target != self.right.source
            or self.bottom.target != self.right.target
        ):
            raise NonComposable("square sides do not share their corners")
        if compose(self.top, self.right) != compose(self.left, self.bottom):
            raise NonCommutingSquare("lifting problem does not commute")

    @classmethod
    def _unchecked(
        cls,
        left: PresheafMap,
        right: PresheafMap,
        top: PresheafMap,
        bottom: PresheafMap,
    ) -> "LiftingProblem":
        """A square the engine built commuting, not re-checked: the squares
        of `square_enumerate`, the frontier recheck of `soa_factorize` and
        the retract square of `in_cof`."""
        problem = cls.__new__(cls)
        problem.__dict__.update(left=left, right=right, top=top, bottom=bottom)
        return problem


#: A total decision procedure on parallel maps B -> D out of the one object
#: B it is built for, asked as relation(D, a, b) with a and b their
#: component tables: a witness object when the maps are related, None
#: otherwise.
Relation = Callable[[Presheaf, Components, Components], object | None]


def solve_lifting(problem: LiftingProblem) -> PresheafMap | None:
    """First diagonal solving the square strictly, or None."""
    STATS["solver_calls"] += 1
    left, right = problem.left, problem.right
    return _first_map(
        left.target,
        right.source,
        _pin((left._comp, problem.top._comp)),
        # values of h allowed by right after h = bottom
        _fibres(right._comp, problem.bottom._comp),
    )


def solve_lifting_up_to(
    problem: LiftingProblem, relation: Relation
) -> tuple[PresheafMap, object] | None:
    """First diagonal whose upper triangle is strict and whose lower
    triangle holds up to `relation`, together with the relation witness."""
    STATS["solver_calls"] += 1
    seeds = _pin((problem.left._comp, problem.top._comp))
    if seeds is None:
        return None
    B, C, D = problem.left.target, problem.right.source, problem.right.target
    right, bottom = problem.right._comp, problem.bottom._comp
    for comp in _enumerate_components(B, C, seeds=seeds):
        witness = relation(D, _compose_tables(comp, right), bottom)
        if witness is not None:
            return PresheafMap._make(B, C, comp), witness
    return None


def square_enumerate(
    left: PresheafMap, right: PresheafMap
) -> Iterator[tuple[PresheafMap, PresheafMap]]:
    """All commuting squares with the given verticals.

    Tops run in enumeration order; for each top the compatible bottoms are
    enumerated with the commutation constraint seeded in, never filtered
    after the fact.
    """
    for top in hom_enumerate(left.source, right.source):
        seeds = _pin((left._comp, top._comp), then=right._comp)
        if seeds is None:
            continue
        for comp in _enumerate_components(left.target, right.target, seeds=seeds):
            yield top, PresheafMap._make(left.target, right.target, comp)


def _square_rows(
    left: PresheafMap, right: PresheafMap
) -> Iterator[tuple[Components, list[Components], Iterator[Components]]]:
    """Per top of a commuting square over (left, right), in enumeration
    order: its table, the tables h;right for the maps h extending it along
    left (`_extensions` order), and its bottoms' tables, enumerated lazily.

    A square has a strict diagonal exactly when its bottom is among those
    h;right, so deciding it costs one set lookup.
    """
    B, D = left.target, right.target
    for top, extensions in _extensions(left, right.source):
        seeds = _pin((left._comp, top), then=right._comp)
        if seeds is not None:
            images = [_compose_tables(h, right._comp) for h in extensions]
            yield top, images, _enumerate_components(B, D, seeds=seeds)


def unsolvable_squares(
    left: PresheafMap, right: PresheafMap
) -> Iterator[tuple[PresheafMap, PresheafMap]]:
    """Commuting squares with no strict diagonal, in enumeration order:
    those of `square_enumerate` that `solve_lifting` finds no diagonal for."""
    A, B, C, D = left.source, left.target, right.source, right.target
    for top, images, bottoms in _square_rows(left, right):
        strict = set(images)
        for comp in bottoms:
            STATS["solver_calls"] += 1
            if comp not in strict:
                yield PresheafMap._make(A, C, top), PresheafMap._make(B, D, comp)


def _lifts(left: PresheafMap, right: PresheafMap) -> bool:
    """Whether every commuting square over (left, right) has a diagonal."""
    return next(unsolvable_squares(left, right), None) is None


def has_rlp(g: PresheafMap, maps: Iterable[PresheafMap]) -> bool:
    """Right lifting property of g against every map in `maps`."""
    return all(_lifts(s, g) for s in maps)


def has_llp(f: PresheafMap, maps: Iterable[PresheafMap]) -> bool:
    """Left lifting property of f against every map in `maps`."""
    return all(_lifts(f, s) for s in maps)


def find_unliftable_square_up_to(
    left: PresheafMap, right: PresheafMap, relation: Relation
) -> tuple[PresheafMap, PresheafMap] | None:
    """First commuting square with no up-to-relation diagonal, or None.

    A strict diagonal is tried first; it settles the square whenever the
    relation confirms it (always, for reflexive relations), which keeps
    the common case away from the relation search.  Both try the diagonals
    in the order of `solve_lifting` and `solve_lifting_up_to`, so the
    relation is asked the same pairs as by those two.  Bottoms and
    diagonals stay component tables; only the returned square is built.
    """
    A, B, C, D = left.source, left.target, right.source, right.target
    for top, images, bottoms in _square_rows(left, right):
        strict = set(images)
        for comp in bottoms:
            STATS["solver_calls"] += 1
            if comp in strict and relation(D, comp, comp) is not None:
                continue
            STATS["solver_calls"] += 1
            if not any(relation(D, image, comp) is not None for image in images):
                return PresheafMap._make(A, C, top), PresheafMap._make(B, D, comp)
    return None


def has_rlp_up_to(
    g: PresheafMap, maps: Iterable[PresheafMap], relation: Relation
) -> bool:
    """RLP of g against `maps`, with lower triangles up to `relation`.

    With the equality relation this agrees with `has_rlp`.
    """
    return all(find_unliftable_square_up_to(s, g, relation) is None for s in maps)


def has_rlp_up_to_object(g: PresheafMap, V: Presheaf, relation: Relation) -> bool:
    """RLP up to `relation` against the map from the empty presheaf to V."""
    return has_rlp_up_to(g, [initial_map(V)], relation)
