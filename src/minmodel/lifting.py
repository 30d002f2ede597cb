"""Backtracking solver for lifting problems in finite presheaf categories.

A lifting problem is a commuting square; a solution is a diagonal making
both triangles commute.  The relaxed variant keeps the upper triangle strict
and only asks the lower one to hold up to a caller-supplied relation.

The solver keeps no state: a lifting property is a pure relation between
two maps, and every query here runs its search again.  The objects that own
a question (`BoundedUniverse`, `HomotopyContext`) cache their verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .colimits import initial_map
from .errors import NonComposable, NonCommutingSquare
from .presheaf import (
    Presheaf,
    PresheafMap,
    _enumerate_components,
    _fibres,
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


#: A total decision procedure on parallel maps: a witness object when the
#: maps are related, None otherwise.
Relation = Callable[[PresheafMap, PresheafMap], object | None]


def solve_lifting(problem: LiftingProblem) -> PresheafMap | None:
    """First diagonal solving the square strictly, or None."""
    STATS["solver_calls"] += 1
    seeds = _pin((problem.left._comp, problem.top._comp))
    if seeds is None:
        return None
    # values of h allowed by right after h = bottom
    allowed = _fibres(problem.right._comp, problem.bottom._comp)
    B, C = problem.left.target, problem.right.source
    for comp in _enumerate_components(B, C, seeds=seeds, allowed=allowed):
        return PresheafMap._make(B, C, comp)
    return None


def solve_lifting_up_to(
    problem: LiftingProblem, relation: Relation
) -> tuple[PresheafMap, object] | None:
    """First diagonal whose upper triangle is strict and whose lower
    triangle holds up to `relation`, together with the relation witness."""
    STATS["solver_calls"] += 1
    seeds = _pin((problem.left._comp, problem.top._comp))
    if seeds is None:
        return None
    B, C = problem.left.target, problem.right.source
    for comp in _enumerate_components(B, C, seeds=seeds):
        h = PresheafMap._make(B, C, comp)
        witness = relation(compose(h, problem.right), problem.bottom)
        if witness is not None:
            return h, witness
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


def unsolvable_squares(
    left: PresheafMap, right: PresheafMap
) -> Iterator[tuple[PresheafMap, PresheafMap]]:
    """Commuting squares with no strict diagonal, in enumeration order."""
    for top, bottom in square_enumerate(left, right):
        if solve_lifting(LiftingProblem._unchecked(left, right, top, bottom)) is None:
            yield top, bottom


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
    the common case away from the relation search.
    """
    for top, bottom in square_enumerate(left, right):
        problem = LiftingProblem._unchecked(left, right, top, bottom)
        h = solve_lifting(problem)
        if h is not None and relation(compose(h, right), bottom) is not None:
            continue
        if solve_lifting_up_to(problem, relation) is None:
            return top, bottom
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
