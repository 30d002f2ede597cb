"""Cell-attachment factorization against a finite generating set.

`soa_factorize` splits a map f : X -> Y into a relative cell complex
followed by a map with the right lifting property against the generators.
Unlike the classical transfinite construction it only attaches a cell for a
square that still has no strict lift at attachment time, so it terminates on
finite inputs whenever saturation is reachable at all; a fuel budget counted
in attachments guards the rest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .colimits import pushout
from .errors import BaseMismatch, ReplayMismatch
from .lifting import LiftingProblem, has_rlp, solve_lifting, unsolvable_squares
from .presheaf import (
    MAX_CARRIER_SIZE,
    BaseCategory,
    Presheaf,
    PresheafMap,
    compose,
    identity_map,
)


class Verdict(enum.Enum):
    """Three-valued answer for bounded decision procedures."""

    YES = "yes"
    NO = "no"
    INCONCLUSIVE = "inconclusive"


class Status(enum.Enum):
    COMPLETE = "complete"
    FUEL_EXHAUSTED = "fuel-exhausted"
    CARRIER_LIMIT = "carrier-limit"


@dataclass(frozen=True)
class GeneratingSet:
    """A labelled, ordered set of maps over one base."""

    label: str
    maps: tuple[PresheafMap, ...]

    def __post_init__(self) -> None:
        bases = {m.source.base for m in self.maps}
        if len(bases) > 1:
            raise BaseMismatch(f"generating set {self.label} mixes bases")

    def base_of(self) -> BaseCategory:
        if not self.maps:
            raise BaseMismatch(f"generating set {self.label} is empty and unanchored")
        return self.maps[0].source.base


@dataclass(frozen=True)
class Attachment:
    """One cell attachment: generator index, attaching map into the object
    as it stood, and the resulting pushout apex."""

    generator: int
    attach: PresheafMap
    result: Presheaf


@dataclass(frozen=True)
class CellFactorization:
    original: PresheafMap
    left: PresheafMap
    right: PresheafMap
    log: tuple[Attachment, ...]
    fuel_used: int
    status: Status

    def shortfall(self) -> str:
        """Why the construction stopped before completing."""
        if self.status is Status.CARRIER_LIMIT:
            return (
                f"stopped after {self.fuel_used} attachments: the next apex would "
                f"pass the carrier limit of {MAX_CARRIER_SIZE}"
            )
        return f"ran out of fuel after {self.fuel_used} attachments"


def default_fuel(f: PresheafMap) -> int:
    return max(1, 10 * f.target.total_size())


def soa_factorize(
    f: PresheafMap,
    I: GeneratingSet,
    fuel: int | None = None,
    order: str = "canonical",
) -> CellFactorization:
    """Factor f as a cell complex followed by an I-injective map.

    Each round collects, in deterministic order (generators first, then tops,
    then bottoms), the commuting squares against the current right map that
    admit no strict lift.  It then walks that frontier, transports each top
    along the attachments made so far, rechecks, and attaches the pushout of
    the generator only if the square is still unsolved.  A round that finds
    an empty frontier ends the construction; the final right map therefore
    has the lifting property by that round's exhaustive check.

    Two guards stop it short, leaving the attachments made so far: fuel,
    the number of attachments allowed (`Status.FUEL_EXHAUSTED`), and an
    attachment whose apex would pass `MAX_CARRIER_SIZE` elements in some
    carrier, the limit every parsed presheaf obeys (`Status.CARRIER_LIMIT`).

    `order` is "canonical" or "reversed"; the latter walks each frontier
    backwards and exists for cross-checking order independence downstream.
    """
    if order not in ("canonical", "reversed"):
        raise ValueError(f"unknown attachment order {order!r}")
    if fuel is None:
        fuel = default_fuel(f)
    M = f.source
    j = identity_map(M)
    p = f
    log: list[Attachment] = []
    used = 0
    status = Status.COMPLETE
    while status is Status.COMPLETE:
        frontier: list[tuple[int, PresheafMap, PresheafMap]] = []
        for gi, gen in enumerate(I.maps):
            for top, bottom in unsolvable_squares(gen, p):
                frontier.append((gi, top, bottom))
        if not frontier:
            break
        if order == "reversed":
            frontier.reverse()
        incl = identity_map(M)
        for gi, top, bottom in frontier:
            gen = I.maps[gi]
            cur_top = compose(top, incl)
            # commutes: top;incl;p = gen;bottom by the mediator that made p
            square = LiftingProblem._unchecked(gen, p, cur_top, bottom)
            if solve_lifting(square) is not None:
                continue
            if used >= fuel:
                status = Status.FUEL_EXHAUSTED
                break
            po = pushout(cur_top, gen)
            if any(len(c) > MAX_CARRIER_SIZE for c in po.apex.carriers):
                status = Status.CARRIER_LIMIT
                break
            p = po.mediator(p, bottom)
            j = compose(j, po.left)
            incl = compose(incl, po.left)
            M = po.apex
            used += 1
            log.append(Attachment(gi, cur_top, M))
    return CellFactorization(f, j, p, tuple(log), used, status)


def in_inj(f: PresheafMap, I: GeneratingSet) -> bool:
    """Membership in the injectives: RLP against every generator."""
    return has_rlp(f, I.maps)


def in_cof(
    f: PresheafMap, I: GeneratingSet, fuel: int | None = None
) -> Verdict:
    """Membership in the saturation of I, by the retract argument.

    Factor f = p after j; f lies in the saturation exactly when the square
    with f on the left, p on the right, j on top and the identity below has
    a strict lift, which exhibits f as a retract of j.
    """
    fact = soa_factorize(f, I, fuel)
    if fact.status is not Status.COMPLETE:
        return Verdict.INCONCLUSIVE
    square = LiftingProblem._unchecked(f, fact.right, fact.left, identity_map(f.target))
    lift = solve_lifting(square)
    return Verdict.YES if lift is not None else Verdict.NO


def replay(
    log: Sequence[Attachment], start: Presheaf, generators: GeneratingSet
) -> tuple[Presheaf, PresheafMap]:
    """Rebuild (object, cell map) from an attachment log.

    Pushouts are deterministic, so a faithful log reproduces the original
    pair exactly; any dangling or inconsistent entry raises ReplayMismatch.
    """
    M = start
    j = identity_map(start)
    for k, rec in enumerate(log):
        if rec.generator < 0 or rec.generator >= len(generators.maps):
            raise ReplayMismatch(f"entry {k}: no generator {rec.generator}")
        gen = generators.maps[rec.generator]
        if rec.attach.source != gen.source:
            raise ReplayMismatch(
                f"entry {k}: attaching map does not start at the generator domain"
            )
        if rec.attach.target != M:
            raise ReplayMismatch(f"entry {k}: dangling attaching map")
        po = pushout(rec.attach, gen)
        if po.apex != rec.result:
            raise ReplayMismatch(f"entry {k}: recorded apex disagrees with replay")
        j = compose(j, po.left)
        M = po.apex
    return M, j
