"""Finite colimits and products of presheaves, computed pointwise.

Finite cocompleteness is an initial object and pushouts, and the module
builds exactly those: `initial`, and `pushout` straight from index tables.
Per object, one union-find runs over the indices of the disjoint union of
the two span targets, and its class table gives the apex carriers (the
`l.`/`r.` names of the representatives), its actions and both legs; no
maps are composed.  A class is named after its least element in that
combined order, so apex names are stable and every construction is
deterministic.  A coproduct is the pushout under the empty presheaf: with
nothing glued, every class is a single element, named `l.x` or `r.y`.

Every construction returns one `Universal`: apex, two legs, mediator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from .errors import (
    BaseMismatch,
    ImplementationInvariantBroken,
    NonComposable,
    NonCommutingSquare,
)
from .presheaf import BaseCategory, Presheaf, PresheafMap, compose


@functools.cache
def initial(base: BaseCategory) -> Presheaf:
    """The empty presheaf, built once per base: every `initial_map` shares
    it, and so do the extension tables kept on it."""
    return Presheaf._make(
        base,
        tuple(() for _ in base.objects),
        {name: () for name, _, _ in base.morphisms},
    )


def terminal(base: BaseCategory) -> Presheaf:
    """The one-point presheaf."""
    act = {}
    for name, _, _ in base.morphisms:
        act[name] = (0,)
    return Presheaf._make(base, tuple(("pt",) for _ in base.objects), act)


def initial_map(X: Presheaf) -> PresheafMap:
    return PresheafMap._make(
        initial(X.base), X, tuple(() for _ in X.base.objects)
    )


def terminal_map(X: Presheaf) -> PresheafMap:
    return PresheafMap._make(
        X, terminal(X.base), tuple((0,) * len(c) for c in X.carriers)
    )


@dataclass(frozen=True)
class Universal:
    """A universal (co)cone: apex, two legs (into the apex, or out of it for
    `product`), and the mediator giving the unique map through the apex."""

    apex: Presheaf
    left: PresheafMap
    right: PresheafMap
    mediator: Callable[[PresheafMap, PresheafMap], PresheafMap]


def coproduct(X: Presheaf, Y: Presheaf) -> Universal:
    """Disjoint union with `l.`/`r.` tagged element names: the pushout of
    the two maps out of the empty presheaf."""
    if X.base != Y.base:
        raise BaseMismatch("coproduct needs a shared base")
    return pushout(initial_map(X), initial_map(Y))


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _union(parent: list[int], i: int, j: int) -> None:
    ri, rj = _find(parent, i), _find(parent, j)
    if ri == rj:
        return
    if ri < rj:
        parent[rj] = ri
    else:
        parent[ri] = rj


def pushout(f: PresheafMap, g: PresheafMap) -> Universal:
    """Pushout of the span  target(f) <- source -> target(g).

    At object o, index z < |target(f)| stands for an element of target(f)
    and the rest for those of target(g); f(a) is glued to g(a) for every
    element a of the source, and `classes[o][z]` is the apex index of the
    class of z.
    """
    if f.source != g.source:
        raise NonComposable("pushout legs must share their source")
    B, C = f.target, g.target
    base = B.base
    classes: list[list[int]] = []
    carriers = []
    for fo, go, names_b, names_c in zip(f._comp, g._comp, B.carriers, C.carriers):
        nb = len(names_b)
        parent = list(range(nb + len(names_c)))
        for x, y in zip(fo, go):
            _union(parent, x, nb + y)
        # roots are class minima, so a class is numbered at its least index
        cls: list[int] = []
        names = []
        for z in range(len(parent)):
            r = _find(parent, z)
            if r == z:
                cls.append(len(names))
                names.append(f"l.{names_b[z]}" if z < nb else f"r.{names_c[z - nb]}")
            else:
                cls.append(cls[r])
        classes.append(cls)
        carriers.append(tuple(names))
    act: dict[str, tuple[int, ...]] = {}
    for name in base.nonidentity:
        a, b = base._dom[name], base._cod[name]
        shift = len(B.carriers[a])
        cls_a, cls_b = classes[a], classes[b]
        images = B._act[name] + tuple(v + shift for v in C._act[name])
        # every member of a class must give the same image: the relation
        # f(a) ~ g(a) is closed under the actions by naturality, so a
        # disagreement is an engine bug
        out: list[int | None] = [None] * len(carriers[b])
        for k, image in zip(cls_b, images):
            v = cls_a[image]
            if out[k] is None:
                out[k] = v
            elif out[k] != v:
                raise ImplementationInvariantBroken(
                    f"quotient action of {name} is not well defined"
                )
        act[name] = tuple(out)  # type: ignore[arg-type]
    for o, obj in enumerate(base.objects):
        act[base.identities[obj]] = tuple(range(len(carriers[o])))
    apex = Presheaf._make(base, tuple(carriers), act)
    split = [len(c) for c in B.carriers]
    left = PresheafMap._make(
        B, apex, tuple(tuple(cls[:nb]) for cls, nb in zip(classes, split))
    )
    right = PresheafMap._make(
        C, apex, tuple(tuple(cls[nb:]) for cls, nb in zip(classes, split))
    )

    def mediator(u: PresheafMap, v: PresheafMap) -> PresheafMap:
        if u.source != B or v.source != C:
            raise NonComposable("cocone legs must start at the span targets")
        if u.target != v.target:
            raise NonComposable("cocone legs must share their target")
        if compose(f, u) != compose(g, v):
            raise NonCommutingSquare("cocone does not agree on the span source")
        comp = []
        for cls, cu, cv, names in zip(classes, u._comp, v._comp, carriers):
            col = [-1] * len(names)
            for k, w in zip(cls, cu + cv):
                if col[k] == -1:
                    col[k] = w
                elif col[k] != w:
                    raise ImplementationInvariantBroken(
                        "pushout mediator is not constant on a class"
                    )
            comp.append(tuple(col))
        out = PresheafMap._make(apex, u.target, tuple(comp))
        out._check_naturality()
        return out

    return Universal(apex, left, right, mediator)


def product(X: Presheaf, Y: Presheaf) -> Universal:
    """Binary product with `(x,y)` element names in lexicographic order."""
    if X.base != Y.base:
        raise BaseMismatch("product needs a shared base")
    base = X.base
    sizes = [(len(cx), len(cy)) for cx, cy in zip(X.carriers, Y.carriers)]
    carriers = tuple(
        tuple(f"({x},{y})" for x in cx for y in cy)
        for cx, cy in zip(X.carriers, Y.carriers)
    )
    act: dict[str, tuple[int, ...]] = {}
    for name in base.nonidentity:
        a, b = base._dom[name], base._cod[name]
        ax, ay = X._act[name], Y._act[name]
        _, nya = sizes[a]
        nxb, nyb = sizes[b]
        act[name] = tuple(
            ax[i] * nya + ay[j] for i in range(nxb) for j in range(nyb)
        )
    for o, obj in enumerate(base.objects):
        act[base.identities[obj]] = tuple(range(sizes[o][0] * sizes[o][1]))
    apex = Presheaf._make(base, carriers, act)
    left = PresheafMap._make(
        apex,
        X,
        tuple(
            tuple(i for i in range(nx) for _ in range(ny))
            for nx, ny in sizes
        ),
    )
    right = PresheafMap._make(
        apex,
        Y,
        tuple(
            tuple(j for _ in range(nx) for j in range(ny))
            for nx, ny in sizes
        ),
    )

    def mediator(u: PresheafMap, v: PresheafMap) -> PresheafMap:
        if u.target != X or v.target != Y:
            raise NonComposable("cone legs must land in the product factors")
        if u.source != v.source:
            raise NonComposable("cone legs must share their source")
        comp = tuple(
            tuple(
                cu[t] * sizes[o][1] + cv[t] for t in range(len(cu))
            )
            for o, (cu, cv) in enumerate(zip(u._comp, v._comp))
        )
        out = PresheafMap._make(u.source, apex, comp)
        out._check_naturality()
        return out

    return Universal(apex, left, right, mediator)
