"""Relative cylinders, homotopies, deformation retracts, and path objects.

The canonical cylinder over i : X -> Y factors the fold map out of the
pushout Y +_X Y through `soa_factorize`.  Homotopy between parallel maps is
decided by searching for a map out of that apex with the two end inclusions
pinned.  Any homotopy through some other valid cylinder transports onto the
canonical one along a lift (the canonical left part is a cell complex, the
other cylinder's projection is injective), so deciding on the canonical apex
loses nothing; `homotopic_cross_check` re-decides on an alternate apex to
watch that in practice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .colimits import initial_map, product, pushout
from .errors import FuelExhausted, IncompatibleOnRelativePart, NonComposable
from .factorization import CellFactorization, GeneratingSet, Status, Verdict, soa_factorize
from .lifting import Relation, find_unliftable_square_up_to
from .presheaf import (
    Components,
    Presheaf,
    PresheafMap,
    _compose_tables,
    _enumerate_components,
    _fibres,
    _first_map,
    _identity_values,
    _pin,
    compose,
    identity_map,
)


@dataclass(frozen=True)
class CylinderObject:
    over: PresheafMap
    apex: Presheaf
    incl0: PresheafMap
    incl1: PresheafMap
    collapse: PresheafMap
    provenance: CellFactorization


@dataclass(frozen=True)
class HomotopyWitness:
    cylinder: CylinderObject
    map: PresheafMap


def cylinder(
    i: PresheafMap,
    I: GeneratingSet,
    fuel: int | None = None,
    order: str = "canonical",
) -> CylinderObject:
    """The canonical relative cylinder over i."""
    Y = i.target
    po = pushout(i, i)
    fold = po.mediator(identity_map(Y), identity_map(Y))
    fact = soa_factorize(fold, I, fuel, order=order)
    if fact.status is not Status.COMPLETE:
        raise FuelExhausted(f"cylinder factorization {fact.shortfall()}")
    return CylinderObject(
        over=i,
        apex=fact.right.source,
        incl0=compose(po.left, fact.left),
        incl1=compose(po.right, fact.left),
        collapse=fact.right,
        provenance=fact,
    )


def _relative_part(
    f0: PresheafMap, f1: PresheafMap, rel: PresheafMap | None, kind: str = "homotopy"
) -> PresheafMap:
    """rel, or the map from the empty presheaf for None, once f0 and f1 are
    parallel, rel lands in their source and they agree on it."""
    if f0.source != f1.source or f0.target != f1.target:
        raise NonComposable("homotopy needs parallel maps")
    if rel is None:
        rel = initial_map(f0.source)
    if rel.target != f0.source:
        raise NonComposable("relative part must land in the source of the maps")
    if _compose_tables(rel._comp, f0._comp) != _compose_tables(rel._comp, f1._comp):
        raise IncompatibleOnRelativePart(
            f"maps disagree on the relative part, no {kind} is posable"
        )
    return rel


def homotopic(
    f0: PresheafMap,
    f1: PresheafMap,
    rel: PresheafMap | None,
    I: GeneratingSet,
    fuel: int | None = None,
    cyl: CylinderObject | None = None,
) -> HomotopyWitness | None:
    """First homotopy between f0 and f1 through the canonical cylinder.

    `rel` is the map the ends must agree on; None means the map from the
    empty presheaf, i.e. the absolute relation.
    """
    rel = _relative_part(f0, f1, rel)
    if cyl is None:
        cyl = cylinder(rel, I, fuel)
    seeds = _pin((cyl.incl0._comp, f0._comp), (cyl.incl1._comp, f1._comp))
    h = _first_map(cyl.apex, f0.target, seeds)
    return None if h is None else HomotopyWitness(cyl, h)


def homotopic_cross_check(
    f0: PresheafMap,
    f1: PresheafMap,
    rel: PresheafMap | None,
    I: GeneratingSet,
    fuel: int | None = None,
) -> tuple[HomotopyWitness | None, bool]:
    """Decide on the canonical cylinder, re-decide on the reversed-order
    cylinder, and report whether the verdicts agree."""
    rel = _relative_part(f0, f1, rel)
    canonical = homotopic(f0, f1, rel, I, fuel)
    alternate_cyl = cylinder(rel, I, fuel, order="reversed")
    alternate = homotopic(f0, f1, rel, I, fuel, cyl=alternate_cyl)
    return canonical, (canonical is None) == (alternate is None)


class HomotopyContext:
    """Cylinders, homotopy decisions and up-to-homotopy lifting verdicts
    for one generating set and fuel.

    The instance caches the cylinder over each relative map and the
    homotopy tables the oracle finds; decisions are deterministic, so this
    changes no verdict.  It keeps no verdict memo: no check asks one
    lifting sweep twice, and the pinned searches that different sweeps
    repeat are served by the tables.

    `oracle(rel)` is homotopy rel `rel` on component tables, the relation
    the up-to lifting sweeps ask.  It builds the cylinder over rel at its
    first query and not before, so a sweep that asks nothing builds
    nothing, and one that asks runs out of fuel exactly where the
    cylinder does.  A pair (b, b) is answered with no search: H = b after
    the collapse is a homotopy, since the collapse after either end
    inclusion is the identity.  Any other pair is one search over the
    apex with both end tables pinned, kept per (rel, target) by table pair.
    `homotopic` asks it about maps and wraps the table as a map witness.
    """

    def __init__(self, I: GeneratingSet, fuel: int | None = None):
        self.generators = I
        self.fuel = fuel
        self.cylinder = functools.cache(self.cylinder)
        self._homotopies = functools.cache(self._homotopies)

    def cylinder(self, rel: PresheafMap) -> CylinderObject:
        return cylinder(rel, self.generators, self.fuel)

    def homotopic(
        self, f0: PresheafMap, f1: PresheafMap, rel: PresheafMap | None = None
    ) -> HomotopyWitness | None:
        rel = _relative_part(f0, f1, rel)
        h = self.oracle(rel)(f0.target, f0._comp, f1._comp)
        if h is None:
            return None
        cyl = self.cylinder(rel)
        return HomotopyWitness(cyl, PresheafMap._make(cyl.apex, f0.target, h))

    def unliftable_square(
        self, left: PresheafMap, right: PresheafMap
    ) -> tuple[PresheafMap, PresheafMap] | None:
        """First commuting square over (left, right) with no lift whose
        lower triangle holds up to homotopy rel `left`, or None."""
        return find_unliftable_square_up_to(left, right, self.oracle(left))

    def _homotopies(self, rel: PresheafMap, D: Presheaf) -> dict:
        """Homotopy tables rel `rel` into D found so far, by end tables."""
        return {}

    def oracle(self, rel: PresheafMap) -> Relation:
        """Homotopy rel `rel` as a total relation on parallel maps out of
        rel.target; the witness is the homotopy's component table."""

        def decide(D: Presheaf, a: Components, b: Components):
            cyl = self.cylinder(rel)
            if a == b:
                return _compose_tables(cyl.collapse._comp, a)
            found = self._homotopies(rel, D)
            if (a, b) not in found:
                seeds = _pin((cyl.incl0._comp, a), (cyl.incl1._comp, b))
                found[a, b] = (
                    None
                    if seeds is None
                    else next(_enumerate_components(cyl.apex, D, seeds=seeds), None)
                )
            return found[a, b]

        return decide

    def absolute_oracle(self, Y: Presheaf) -> Relation:
        return self.oracle(initial_map(Y))


@dataclass(frozen=True)
class DeformationRetractResult:
    verdict: Verdict
    retraction: PresheafMap | None
    homotopy: HomotopyWitness | None


def is_strong_deformation_retract(
    f: PresheafMap, ctx: HomotopyContext
) -> DeformationRetractResult:
    """Search a retraction g, in enumeration order, with f after g homotopic
    to the identity rel f: `ctx.oracle(f)` decides the two tables.  For an
    isomorphism f that pair is reflexive and the oracle answers it with
    the collapse, a witness no report prints."""
    seeds = _pin((f._comp, _identity_values(f._comp)))
    if seeds is None:
        return DeformationRetractResult(Verdict.NO, None, None)
    Y, X = f.target, f.source
    ident = identity_map(Y)._comp
    relation = ctx.oracle(f)
    try:
        for comp in _enumerate_components(Y, X, seeds=seeds):
            h = relation(Y, _compose_tables(comp, f._comp), ident)
            if h is not None:
                cyl = ctx.cylinder(f)
                witness = HomotopyWitness(cyl, PresheafMap._make(cyl.apex, Y, h))
                return DeformationRetractResult(
                    Verdict.YES, PresheafMap._make(Y, X, comp), witness
                )
    except FuelExhausted:
        return DeformationRetractResult(Verdict.INCONCLUSIVE, None, None)
    return DeformationRetractResult(Verdict.NO, None, None)


@dataclass(frozen=True)
class PathObject:
    of: Presheaf
    apex: Presheaf
    into: PresheafMap
    proj0: PresheafMap
    proj1: PresheafMap
    provenance: CellFactorization


@dataclass(frozen=True)
class RightHomotopyWitness:
    path: PathObject
    map: PresheafMap


def path_object(
    Z: Presheaf, J: GeneratingSet, fuel: int | None = None
) -> PathObject:
    """Factor the diagonal of Z through a J-cell map followed by a
    J-injective map onto the product."""
    pr = product(Z, Z)
    diag = pr.mediator(identity_map(Z), identity_map(Z))
    fact = soa_factorize(diag, J, fuel)
    if fact.status is not Status.COMPLETE:
        raise FuelExhausted(f"path object factorization {fact.shortfall()}")
    return PathObject(
        of=Z,
        apex=fact.right.source,
        into=fact.left,
        proj0=compose(fact.right, pr.left),
        proj1=compose(fact.right, pr.right),
        provenance=fact,
    )


def right_homotopic(
    f0: PresheafMap,
    f1: PresheafMap,
    rel: PresheafMap | None,
    J: GeneratingSet,
    fuel: int | None = None,
    path: PathObject | None = None,
) -> RightHomotopyWitness | None:
    """First right homotopy from f0 to f1 through the canonical path object,
    constant on `rel` (None for the absolute form)."""
    rel = _relative_part(f0, f1, rel, "right homotopy")
    Y, Z = f0.source, f0.target
    if path is None:
        path = path_object(Z, J, fuel)
    # per-slot values must project to f0 and f1
    allowed = _fibres(
        (zip(p0, p1) for p0, p1 in zip(path.proj0._comp, path.proj1._comp)),
        (zip(a, b) for a, b in zip(f0._comp, f1._comp)),
    )
    constant = compose(rel, compose(f0, path.into))
    h = _first_map(Y, path.apex, _pin((rel._comp, constant._comp)), allowed)
    return None if h is None else RightHomotopyWitness(path, h)
