"""Finite base categories, finite presheaves, and their maps.

Everything validates eagerly and is immutable afterwards.  All enumeration
runs in the declared object and element orders, so every search in the
package is deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    AssociativityViolation,
    BaseMismatch,
    DuplicateName,
    FunctorialityViolation,
    IdentityViolation,
    IncompleteTable,
    MissingAction,
    NaturalityViolation,
    NonComposable,
    ParseError,
    SizeLimitExceeded,
    ValidationError,
)

MAX_BASE_OBJECTS = 16
MAX_CARRIER_SIZE = 64

# (per base object, its range of flat slots; per slot, the (slot, morphism)
# pairs a value there forces), as `Presheaf._layout` builds it
SlotLayout = tuple[list[tuple[int, int]], list[tuple[tuple[int, str], ...]]]


class BaseCategory:
    """A finite category given by an explicit, fully checked composition table.

    `morphisms` lists (name, domain, codomain) triples including the
    identities, which are generated automatically as ``id_<object>``.
    `composition[(f, g)]` is the name of g-after-f for each composable
    pair (f first, then g).
    """

    def __init__(
        self,
        objects: Sequence[str],
        morphisms: Sequence[tuple[str, str, str]],
        composition: Mapping[tuple[str, str], str],
        identities: Mapping[str, str],
    ):
        self.objects = tuple(objects)
        self.morphisms = tuple(tuple(m) for m in morphisms)
        self.composition = dict(composition)
        self.identities = dict(identities)
        self._validate()
        self._obj_index = {o: i for i, o in enumerate(self.objects)}
        self._dom = {name: self._obj_index[d] for name, d, _ in self.morphisms}
        self._cod = {name: self._obj_index[c] for name, _, c in self.morphisms}
        ids = set(self.identities.values())
        self.nonidentity = tuple(n for n, _, _ in self.morphisms if n not in ids)
        # incoming[b] lists (morphism, domain index) for non-identity m : a -> b;
        # these are exactly the naturality constraints touched when a component
        # value at b is chosen.
        self._incoming: tuple[tuple[tuple[str, int], ...], ...] = tuple(
            tuple(
                (name, self._dom[name])
                for name in self.nonidentity
                if self._cod[name] == b
            )
            for b in range(len(self.objects))
        )
        # the slot order of injective searches: the objects with the most
        # outgoing actions first, ties in base order.  On graphs the edges,
        # whose values force those of their ends, come before the vertices.
        self._iso_order = tuple(
            sorted(range(len(self.objects)), key=lambda b: -len(self._incoming[b]))
        )
        self._key = (
            self.objects,
            self.morphisms,
            tuple(sorted(self.composition.items())),
            tuple(sorted(self.identities.items())),
        )
        self._hash = hash(self._key)

    def _validate(self) -> None:
        if len(self.objects) > MAX_BASE_OBJECTS:
            raise SizeLimitExceeded(
                f"base has {len(self.objects)} objects, limit is {MAX_BASE_OBJECTS}"
            )
        if len(set(self.objects)) != len(self.objects):
            raise DuplicateName("base object names must be unique")
        names = [n for n, _, _ in self.morphisms]
        if len(set(names)) != len(names):
            raise DuplicateName("base morphism names must be unique")
        by_name = {n: (d, c) for n, d, c in self.morphisms}
        for n, d, c in self.morphisms:
            if d not in self.objects or c not in self.objects:
                raise ValidationError(f"morphism {n}: unknown endpoint {d} or {c}")
        for o in self.objects:
            i = self.identities.get(o)
            if i is None or i not in by_name or by_name[i] != (o, o):
                raise ValidationError(f"object {o} has no identity morphism")
        # totality and closure
        for f, (fd, fc) in by_name.items():
            for g, (gd, gc) in by_name.items():
                if fc != gd:
                    continue
                h = self.composition.get((f, g))
                if h is None:
                    raise IncompleteTable(f"missing composite of {f} then {g}")
                if h not in by_name:
                    raise IncompleteTable(f"composite {h} of {f};{g} is not a morphism")
                if by_name[h] != (fd, gc):
                    raise IncompleteTable(
                        f"composite {h} of {f};{g} has endpoints {by_name[h]}, "
                        f"expected {(fd, gc)}"
                    )
        # identity laws
        for f, (fd, fc) in by_name.items():
            if self.composition[(self.identities[fd], f)] != f:
                raise IdentityViolation(f"{self.identities[fd]};{f} is not {f}")
            if self.composition[(f, self.identities[fc])] != f:
                raise IdentityViolation(f"{f};{self.identities[fc]} is not {f}")
        # associativity
        for f, (fd, fc) in by_name.items():
            for g, (gd, gc) in by_name.items():
                if fc != gd:
                    continue
                fg = self.composition[(f, g)]
                for h, (hd, hc) in by_name.items():
                    if gc != hd:
                        continue
                    if self.composition[(fg, h)] != self.composition[
                        (f, self.composition[(g, h)])
                    ]:
                        raise AssociativityViolation(f"({f};{g});{h} != {f};({g};{h})")

    def obj_index(self, obj: str) -> int:
        if obj not in self._obj_index:
            raise ValidationError(f"unknown base object {obj!r}")
        return self._obj_index[obj]

    def dom(self, morphism: str) -> str:
        return self.objects[self._dom[morphism]]

    def cod(self, morphism: str) -> str:
        return self.objects[self._cod[morphism]]

    def comp(self, f: str, g: str) -> str:
        """Composite of f followed by g."""
        if (f, g) not in self.composition:
            raise NonComposable(f"{f} then {g} do not compose")
        return self.composition[(f, g)]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BaseCategory) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"BaseCategory(objects={list(self.objects)!r}, morphisms={len(self.morphisms)})"


def load_base(description: str) -> BaseCategory:
    """Build a base category from its textual description.

    The description is line oriented::

        objects: v e
        morphism s: v -> e
        morphism t: v -> e
        compose f ; g = h

    Identities are generated automatically; `compose` lines are only needed
    for pairs of named morphisms (and may override identity composites, which
    the validator will then reject).
    """
    objects: list[str] = []
    morphisms: list[tuple[str, str, str]] = []
    explicit: dict[tuple[str, str], str] = {}
    seen_objects = False
    for lineno, raw in enumerate(description.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("objects:"):
            if seen_objects:
                raise ParseError("duplicate objects line", lineno)
            objects = line[len("objects:"):].split()
            seen_objects = True
        elif line.startswith("morphism "):
            body = line[len("morphism "):]
            try:
                name, arrow = body.split(":", 1)
                dom, cod = arrow.split("->")
                if not name.strip():
                    raise ValueError
            except ValueError:
                raise ParseError("expected 'morphism NAME: OBJ -> OBJ'", lineno)
            morphisms.append((name.strip(), dom.strip(), cod.strip()))
        elif line.startswith("compose "):
            body = line[len("compose "):]
            try:
                pair, result = body.split("=")
                f, g = pair.split(";")
            except ValueError:
                raise ParseError("expected 'compose F ; G = H'", lineno)
            key = (f.strip(), g.strip())
            if key in explicit:
                raise ParseError(f"duplicate compose entry for {key}", lineno)
            explicit[key] = result.strip()
        else:
            raise ParseError(f"unrecognized base line {line!r}", lineno)
    if not seen_objects:
        raise ParseError("base description has no objects line")

    identities = {o: f"id_{o}" for o in objects}
    for name, _, _ in morphisms:
        if name in identities.values():
            raise DuplicateName(f"morphism name {name} is reserved for an identity")
    full = [(identities[o], o, o) for o in objects] + list(morphisms)
    by_name = {n: (d, c) for n, d, c in full}
    table: dict[tuple[str, str], str] = {}
    for f, (fd, fc) in by_name.items():
        for g, (gd, gc) in by_name.items():
            if fc != gd:
                continue
            if (f, g) in explicit:
                table[(f, g)] = explicit[(f, g)]
            elif f in identities.values():
                table[(f, g)] = g
            elif g in identities.values():
                table[(f, g)] = f
    for key, value in explicit.items():
        if key not in table:
            # referenced morphisms must exist and compose
            f, g = key
            if f not in by_name or g not in by_name:
                raise ValidationError(f"compose entry names unknown morphism in {key}")
            raise ValidationError(f"compose entry {key} is not a composable pair")
        table[key] = value
    return BaseCategory(objects, full, table, identities)


class Presheaf:
    """A contravariant functor from a finite base to finite sets.

    For a base morphism m : a -> b the action maps carrier(b) to carrier(a).
    Carriers are ordered element name lists; actions are stored as index
    tuples over those orders.
    """

    def __init__(
        self,
        base: BaseCategory,
        carriers: Mapping[str, Sequence[str]],
        actions: Mapping[str, Mapping[str, str]],
    ):
        built = _build_presheaf_data(base, carriers, actions)
        self.base = base
        self.carriers: tuple[tuple[str, ...], ...] = built[0]
        self._act: dict[str, tuple[int, ...]] = built[1]
        self._finish()

    @classmethod
    def _make(
        cls,
        base: BaseCategory,
        carriers: tuple[tuple[str, ...], ...],
        act: dict[str, tuple[int, ...]],
    ) -> "Presheaf":
        obj = cls.__new__(cls)
        obj.base = base
        obj.carriers = carriers
        obj._act = act
        obj._finish()
        return obj

    def _finish(self) -> None:
        self._index = tuple({e: i for i, e in enumerate(c)} for c in self.carriers)
        self._key = (self.base._key, self.carriers, tuple(sorted(self._act.items())))
        self._hash = hash(self._key)

    @functools.cached_property
    def _slots(self) -> SlotLayout:
        """The flat slot layout of maps out of this presheaf, one slot per
        element, objects in base order: each object's range of slots, and
        per slot the (slot, base morphism m) pairs whose value a value at
        that slot forces through the action of m."""
        return self._layout(range(len(self.carriers)))

    def _layout(self, order: Iterable[int]) -> SlotLayout:
        """The slot layout with the objects' slot ranges in `order`; the
        ranges stay listed by base object."""
        carriers = self.carriers
        starts = [0] * len(carriers)
        n = 0
        for o in order:
            starts[o] = n
            n += len(carriers[o])
        spans = [(a, a + len(col)) for a, col in zip(starts, carriers)]
        edges: list = [()] * n
        for o, col in enumerate(carriers):
            for x in range(len(col)):
                edges[starts[o] + x] = tuple(
                    (starts[a] + self._act[m][x], m) for m, a in self.base._incoming[o]
                )
        return spans, edges

    @functools.cached_property
    def _extension_tables(self) -> dict:
        """`_extensions(i, self)` per left map i, kept as long as this
        presheaf is."""
        return {}

    def carrier(self, obj: str) -> tuple[str, ...]:
        return self.carriers[self.base.obj_index(obj)]

    def action(self, morphism: str) -> dict[str, str]:
        src = self.carriers[self.base._cod[morphism]]
        dst = self.carriers[self.base._dom[morphism]]
        return {src[i]: dst[v] for i, v in enumerate(self._act[morphism])}

    def total_size(self) -> int:
        return sum(len(c) for c in self.carriers)

    def is_empty(self) -> bool:
        return self.total_size() == 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Presheaf) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{o}:{len(c)}" for o, c in zip(self.base.objects, self.carriers)
        )
        return f"Presheaf({sizes})"


def _build_presheaf_data(
    base: BaseCategory,
    carriers: Mapping[str, Sequence[str]],
    actions: Mapping[str, Mapping[str, str]],
) -> tuple[tuple[tuple[str, ...], ...], dict[str, tuple[int, ...]]]:
    for obj in carriers:
        base.obj_index(obj)
    cols: list[tuple[str, ...]] = []
    for obj in base.objects:
        if obj not in carriers:
            raise ValidationError(f"no carrier given for base object {obj}")
        col = tuple(carriers[obj])
        if len(col) > MAX_CARRIER_SIZE:
            raise SizeLimitExceeded(
                f"carrier of {obj} has {len(col)} elements, limit is {MAX_CARRIER_SIZE}"
            )
        if len(set(col)) != len(col):
            raise DuplicateName(f"carrier of {obj} repeats an element name")
        cols.append(col)
    index = [{e: i for i, e in enumerate(c)} for c in cols]

    known = {n for n, _, _ in base.morphisms}
    for m in actions:
        if m not in known:
            raise ValidationError(f"action given for unknown morphism {m}")

    act: dict[str, tuple[int, ...]] = {}
    for o, i in ((o, base._obj_index[o]) for o in base.objects):
        act[base.identities[o]] = tuple(range(len(cols[i])))
    for name in base.nonidentity:
        a, b = base._dom[name], base._cod[name]
        src, dst = cols[b], cols[a]
        given = actions.get(name)
        if given is None:
            if src:
                raise MissingAction(f"presheaf omits action of {name}")
            act[name] = ()
            continue
        values = []
        for e in src:
            if e not in given:
                raise MissingAction(f"action of {name} undefined on {e!r}")
            v = given[e]
            if v not in index[a]:
                raise ValidationError(
                    f"action of {name} sends {e!r} to {v!r}, not in carrier of "
                    f"{base.objects[a]}"
                )
            values.append(index[a][v])
        extra = set(given) - set(src)
        if extra:
            raise ValidationError(
                f"action of {name} defined on foreign elements {sorted(extra)}"
            )
        act[name] = tuple(values)
    for o in base.objects:
        ident = base.identities[o]
        if ident in actions:
            i = base._obj_index[o]
            for e in cols[i]:
                if actions[ident].get(e) != e:
                    raise FunctorialityViolation(
                        f"explicit action of identity {ident} is not the identity"
                    )
    bad = _functoriality_failure(base, act)
    if bad is not None:
        f, g = bad
        raise FunctorialityViolation(
            f"actions of {f};{g} disagree with action of {base.composition[bad]}"
        )
    return tuple(cols), act


def _functoriality_failure(base: BaseCategory, act: dict) -> tuple[str, str] | None:
    """The first composable pair (f, g) of non-identity morphisms whose
    actions break contravariant functoriality, act(f;g) == act(f) after
    act(g); None when there is none."""
    for f in base.nonidentity:
        actf = act[f]
        for g in base.nonidentity:
            if base._cod[f] != base._dom[g]:
                continue
            if tuple([actf[v] for v in act[g]]) != act[base.composition[(f, g)]]:
                return f, g
    return None


class PresheafMap:
    """A natural transformation between presheaves over one base."""

    def __init__(
        self,
        source: Presheaf,
        target: Presheaf,
        components: Mapping[str, Mapping[str, str]],
    ):
        if source.base != target.base:
            raise BaseMismatch("map endpoints live over different bases")
        base = source.base
        for obj in components:
            base.obj_index(obj)
        comp: list[tuple[int, ...]] = []
        for o, obj in enumerate(base.objects):
            given = components.get(obj)
            col = source.carriers[o]
            if given is None:
                if col:
                    raise ValidationError(f"no component given at {obj}")
                comp.append(())
                continue
            values = []
            for e in col:
                if e not in given:
                    raise ValidationError(f"component at {obj} undefined on {e!r}")
                v = given[e]
                if v not in target._index[o]:
                    raise ValidationError(
                        f"component at {obj} sends {e!r} to {v!r}, not in target"
                    )
                values.append(target._index[o][v])
            extra = set(given) - set(col)
            if extra:
                raise ValidationError(
                    f"component at {obj} defined on foreign elements {sorted(extra)}"
                )
            comp.append(tuple(values))
        self.source = source
        self.target = target
        self._comp = tuple(comp)
        self._check_naturality()
        self._finish()

    def _check_naturality(self) -> None:
        base = self.source.base
        for m in base.nonidentity:
            a, b = base._dom[m], base._cod[m]
            sa, ta = self.source._act[m], self.target._act[m]
            fb, fa = self._comp[b], self._comp[a]
            for x in range(len(self.source.carriers[b])):
                if fa[sa[x]] != ta[fb[x]]:
                    raise NaturalityViolation(
                        f"square for {m} fails at element "
                        f"{self.source.carriers[b][x]!r}"
                    )

    @classmethod
    def _make(
        cls,
        source: Presheaf,
        target: Presheaf,
        comp: tuple[tuple[int, ...], ...],
    ) -> "PresheafMap":
        obj = cls.__new__(cls)
        obj.source = source
        obj.target = target
        obj._comp = comp
        obj._finish()
        return obj

    def _finish(self) -> None:
        # the presheaves hash from their cached `_hash`, and an equality
        # test compares their keys only when they are not the same objects
        self._key = (self.source, self.target, self._comp)
        self._hash = hash(self._key)

    def component(self, obj: str) -> dict[str, str]:
        o = self.source.base.obj_index(obj)
        src, dst = self.source.carriers[o], self.target.carriers[o]
        return {src[i]: dst[v] for i, v in enumerate(self._comp[o])}

    def apply(self, obj: str, element: str) -> str:
        o = self.source.base.obj_index(obj)
        return self.target.carriers[o][self._comp[o][self.source._index[o][element]]]

    def is_identity(self) -> bool:
        return self.source == self.target and all(
            col == tuple(range(len(col))) for col in self._comp
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PresheafMap) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"PresheafMap({self.source!r} -> {self.target!r})"


def identity_map(X: Presheaf) -> PresheafMap:
    return PresheafMap._make(X, X, tuple(tuple(range(len(c))) for c in X.carriers))


Table = Sequence[Sequence[int]]
Components = tuple[tuple[int, ...], ...]


def _compose_tables(f: Table, g: Table) -> Components:
    """Component table of f followed by g, from theirs."""
    return tuple([tuple(map(gc.__getitem__, fc)) for fc, gc in zip(f, g)])


def compose(f: PresheafMap, g: PresheafMap) -> PresheafMap:
    """Composite of f followed by g."""
    if f.target is not g.source and f.target != g.source:
        raise NonComposable("target of the first map must equal source of the second")
    return PresheafMap._make(f.source, g.target, _compose_tables(f._comp, g._comp))


Seeds = dict[tuple[int, int], int]
Allowed = list[list[frozenset[int] | None]]


def _pin(*pairs: tuple[Table, Table], then: Table | None = None) -> Seeds | None:
    """Slots of a map h pinned by h after `along` = `values` (followed by
    `then` when given), for every (along, values) pair of component
    tables; None when two pins conflict."""
    seeds: Seeds = {}
    for along, values in pairs:
        for o, acol in enumerate(along):
            vcol, tcol = values[o], None if then is None else then[o]
            for x, a in enumerate(acol):
                v = vcol[x] if tcol is None else tcol[vcol[x]]
                prev = seeds.get((o, a))
                if prev is not None and prev != v:
                    return None
                seeds[(o, a)] = v
    return seeds


def _fibres(keys: Iterable[Iterable], wanted: Iterable[Iterable]) -> Allowed:
    """Per-slot value sets: the values whose key in `keys` equals the slot's
    entry in `wanted`, column by column."""
    allowed = []
    for kcol, wcol in zip(keys, wanted):
        buckets: dict[object, set[int]] = {}
        for c, k in enumerate(kcol):
            buckets.setdefault(k, set()).add(c)
        allowed.append([frozenset(buckets.get(w, ())) for w in wcol])
    return allowed


def _identity_values(table: Table) -> list[range]:
    """Component values of the identity on the source of `table`."""
    return [range(len(col)) for col in table]


def _force(
    assign: list[int],
    trail: list[int],
    edges: list[tuple[tuple[int, str], ...]],
    Yact: dict[str, tuple[int, ...]],
    doms: list[frozenset[int] | None] | None,
    s: int,
    v: int,
) -> bool:
    """Set slot s to v together with every slot that naturality then
    forces, pushing each newly set slot on `trail`; False on a
    contradiction with a set slot or with `doms`."""
    work = [(s, v)]
    while work:
        s, v = work.pop()
        cur = assign[s]
        if cur == v:
            continue
        if cur != -1:
            return False
        if doms is not None:
            dom = doms[s]
            if dom is not None and v not in dom:
                return False
        assign[s] = v
        trail.append(s)
        for t, m in edges[s]:
            work.append((t, Yact[m][v]))
    return True


def _enumerate_components(
    X: Presheaf,
    Y: Presheaf,
    seeds: Seeds | None = None,
    allowed: Allowed | None = None,
    injective: bool = False,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Enumerate component tables of natural maps X -> Y.

    Assignments run slot by slot (objects in base order, elements in carrier
    order) and values in target carrier order, so complete tables come out in
    lexicographic order.  Choosing a value propagates every naturality
    constraint it touches immediately; contradictions backtrack, so no
    post-filtering happens.  `seeds` pins slots up front, `allowed` restricts
    per-slot value sets (both in index form).  `injective` skips a chosen
    value that a slot of the same object already holds; a value forced
    through naturality is not checked, so the caller still filters.  An
    injective search lays its slots out in `BaseCategory._iso_order`, the
    most constrained objects first, so its tables are lexicographic in that
    slot order, not in base order.

    The slots are numbered flat (`Presheaf._slots`).  Every slot set goes
    on one shared trail; a choice point keeps the trail's length as its mark
    and undoes back to it, and the choice points sit on an explicit stack.
    """
    if X.base != Y.base:
        raise BaseMismatch("hom enumeration needs a shared base")
    spans, edges = X._layout(X.base._iso_order) if injective else X._slots
    Yact = Y._act
    n = len(edges)
    choices: list = [None] * n
    for (a, b), col in zip(spans, Y.carriers):
        choices[a:b] = [range(len(col))] * (b - a)
    doms = None
    if allowed is not None:
        doms = [None] * n
        for (a, b), row in zip(spans, allowed):
            doms[a:b] = row
        choices = [
            values if dom is None else [v for v in values if v in dom]
            for values, dom in zip(choices, doms)
        ]
    assign = [-1] * n
    trail: list[int] = []
    # per slot, the slots of its object, when `injective`
    same = None
    if injective:
        same = [None] * n
        for a, b in spans:
            same[a:b] = [slice(a, b)] * (b - a)
    if seeds:
        for (o, x), v in seeds.items():
            if not 0 <= v < len(Y.carriers[o]) or not _force(
                assign, trail, edges, Yact, doms, spans[o][0] + x, v
            ):
                return
    s = 0
    while s < n and assign[s] != -1:
        s += 1
    if s == n:
        yield tuple([tuple(assign[a:b]) for a, b in spans])
        return
    # choice points as [slot, index of its next value, trail mark]
    stack = [[s, 0, len(trail)]]
    while stack:
        point = stack[-1]
        s, k, mark = point
        while len(trail) > mark:
            assign[trail.pop()] = -1
        values = choices[s]
        if k == len(values):
            stack.pop()
            continue
        point[1] = k + 1
        v = values[k]
        if same is not None and v in assign[same[s]]:
            continue
        if not edges[s]:
            # nothing to propagate, and `choices` already respects `doms`
            assign[s] = v
            trail.append(s)
        elif not _force(assign, trail, edges, Yact, doms, s, v):
            continue
        s += 1
        while s < n and assign[s] != -1:
            s += 1
        if s == n:
            yield tuple([tuple(assign[a:b]) for a, b in spans])
        else:
            stack.append([s, 0, len(trail)])


def _extensions(
    i: PresheafMap, X: Presheaf
) -> list[tuple[Components, list[Components]]]:
    """For each map i.source -> X, its component table and the tables of
    the maps i.target -> X that restrict to it along i, both in enumeration
    order.

    One pass over hom(i.target, X) and one over hom(i.source, X), kept on X
    per i, so every lifting square out of X against i reads the same table.
    """
    tables = X._extension_tables
    found = tables.get(i)
    if found is None:
        by_restriction: dict[Components, list[Components]] = {}
        for h in _enumerate_components(i.target, X):
            by_restriction.setdefault(_compose_tables(i._comp, h), []).append(h)
        found = tables[i] = [
            (a, by_restriction.get(a, [])) for a in _enumerate_components(i.source, X)
        ]
    return found


def hom_enumerate(X: Presheaf, Y: Presheaf) -> Iterator[PresheafMap]:
    """All maps X -> Y in lexicographic component order."""
    for comp in _enumerate_components(X, Y):
        yield PresheafMap._make(X, Y, comp)


def _first_map(
    X: Presheaf, Y: Presheaf, seeds: Seeds | None, allowed: Allowed | None = None
) -> PresheafMap | None:
    """First map X -> Y extending `seeds` within `allowed`; None when there
    is none or the seeds already conflict."""
    if seeds is None:
        return None
    for comp in _enumerate_components(X, Y, seeds=seeds, allowed=allowed):
        return PresheafMap._make(X, Y, comp)
    return None


def is_mono(f: PresheafMap) -> bool:
    """Componentwise injectivity."""
    for col in f._comp:
        if len(set(col)) != len(col):
            return False
    return True


def is_onto(f: PresheafMap) -> bool:
    """Componentwise surjectivity."""
    return all(
        len(set(col)) == len(tcol) for col, tcol in zip(f._comp, f.target.carriers)
    )


def find_retraction(f: PresheafMap) -> PresheafMap | None:
    """First g with g  after f = identity, in enumeration order."""
    return _first_map(f.target, f.source, _pin((f._comp, _identity_values(f._comp))))


@dataclass(frozen=True)
class MorphismRetraction:
    """Witness that `inner` is a retract of `outer` in the arrow category."""

    inner: PresheafMap
    outer: PresheafMap
    section_top: PresheafMap
    section_bottom: PresheafMap
    retraction_top: PresheafMap
    retraction_bottom: PresheafMap


def is_retract_of(f: PresheafMap, g: PresheafMap) -> MorphismRetraction | None:
    """Search a retract diagram exhibiting f as a retract of g.

    Sections are split monos, so carriers of f's endpoints may not exceed
    those of g's.  Monos and componentwise surjections are closed under
    retracts: f followed by the bottom section is the top section (split
    mono) followed by g, and the top retraction followed by f is g
    followed by the bottom retraction (split epi).  So a mono g has no
    non-mono retract and a surjective g no non-surjective one.  These
    checks prune before any enumeration.
    """
    if f.source.base != g.source.base:
        raise BaseMismatch("retract search needs a shared base")
    A, B = f.source, f.target
    C, D = g.source, g.target
    inner = A.carriers + B.carriers
    if any(len(x) > len(y) for x, y in zip(inner, C.carriers + D.carriers)):
        return None
    if is_mono(g) and not is_mono(f) or is_onto(g) and not is_onto(f):
        return None
    for st_comp in _enumerate_components(A, C):
        # bottom section forced on the image of f by the commuting condition
        sb_seeds = _pin((f._comp, st_comp), then=g._comp)
        if sb_seeds is None:
            continue
        rt_seeds = _pin((st_comp, _identity_values(st_comp)))
        if rt_seeds is None:
            continue
        for sb_comp in _enumerate_components(B, D, seeds=sb_seeds):
            # no bottom retraction undoes a non-injective bottom section
            undo_sb = (sb_comp, _identity_values(sb_comp))
            if _pin(undo_sb) is None:
                continue
            for rt_comp in _enumerate_components(C, A, seeds=rt_seeds):
                rt = PresheafMap._make(C, A, rt_comp)
                rb = _first_map(D, B, _pin(undo_sb, (g._comp, compose(rt, f)._comp)))
                if rb is not None:
                    return MorphismRetraction(
                        inner=f,
                        outer=g,
                        section_top=PresheafMap._make(A, C, st_comp),
                        section_bottom=PresheafMap._make(B, D, sb_comp),
                        retraction_top=rt,
                        retraction_bottom=rb,
                    )
    return None
