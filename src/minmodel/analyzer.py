"""Bounded verification of the model-structure conditions.

Quantifiers like "every cofibrant object" or "every cofibration" are cut
down to a BoundedUniverse: the deterministically enumerated family of all
presheaves whose carriers stay within a per-object size bound.  The
universe owns the generating set, the fuel and the one HomotopyContext of
the question, with the trivial generators J built from them, and it
decides the memberships (`is_cof`, `is_triv_fib`, `is_we`, `is_fib`), so
each checker takes the universe alone.  Verdicts are three-valued.  A
Pass means "holds within the bound", never an unconditional theorem; a
Fail carries a counterexample bundle complete enough to re-validate
standalone; Inconclusive reports what could not be decided (fuel
exhaustion, undecided cofibrancy) and how much.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .colimits import coproduct, initial_map, pushout
from .errors import FuelExhausted, SizeLimitExceeded
from .factorization import GeneratingSet, Verdict, in_cof, in_inj
from .homotopy import HomotopyContext, is_strong_deformation_retract
from .lifting import has_rlp
from .presheaf import (
    MAX_CARRIER_SIZE,
    BaseCategory,
    Components,
    Presheaf,
    PresheafMap,
    _compose_tables,
    _enumerate_components,
    _first_map,
    _functoriality_failure,
    _pin,
    compose,
    find_retraction,
    hom_enumerate,
    identity_map,
    is_mono,
    is_retract_of,
)


@dataclass(frozen=True)
class VerdictReport:
    check: str
    verdict: Verdict
    parameters: dict
    counterexample: dict | None = None
    witnesses: tuple = ()
    diagnostics: dict = field(default_factory=dict)
    subchecks: tuple["VerdictReport", ...] = ()

    @property
    def passed(self) -> bool:
        return self.verdict is Verdict.YES


def _report(
    check: str,
    parameters: dict,
    failure: dict | None = None,
    undecided: int = 0,
    diagnostics: dict | None = None,
    witnesses: tuple = (),
    subchecks: tuple[VerdictReport, ...] = (),
) -> VerdictReport:
    """NO with `failure` as counterexample, else INCONCLUSIVE when anything
    stayed undecided, else YES."""
    if failure is not None:
        verdict = Verdict.NO
    else:
        verdict = Verdict.INCONCLUSIVE if undecided else Verdict.YES
    return VerdictReport(
        check, verdict, parameters, failure, witnesses, diagnostics or {}, subchecks
    )


def _out_of_fuel(check: str, parameters: dict, stop: FuelExhausted) -> VerdictReport:
    return _report(check, parameters, undecided=1, diagnostics={"fuel": str(stop)})


Outcome = dict | Verdict


def _walk(
    outcomes: Iterable[tuple[Outcome, int]], give_up: bool = False
) -> tuple[dict | None, int, int] | None:
    """Walk (outcome, weight) pairs up to the first failure.

    Each outcome is Verdict.YES, Verdict.INCONCLUSIVE, or the
    counterexample of a failure, and stands for `weight` candidates.
    Returns that counterexample (None when nothing fails), the weights
    walked, and how many outcomes were INCONCLUSIVE, whatever their
    weights: a weight-0 one counts too.  With `give_up`, returns None at
    the first INCONCLUSIVE, reading no further.
    """
    # enum members are looked up once: this loop runs once per candidate
    yes, inconclusive = Verdict.YES, Verdict.INCONCLUSIVE
    walked = undecided = 0
    for outcome, weight in outcomes:
        walked += weight
        if outcome is yes:
            continue
        if outcome is not inconclusive:
            return outcome, walked, undecided
        if give_up:
            return None
        undecided += 1
    return None, walked, undecided


def _first_of_each_class(items: Iterable, key: Callable) -> tuple[tuple[object, int], ...]:
    """The first item of each class of the (item, weight) pairs `items`
    under `key`, in walk order, each with its class's weights summed, as
    `_walk` sums the weights walked."""
    first: dict = {}
    sizes: Counter = Counter()
    for item, weight in items:
        k = key(item)
        first.setdefault(k, item)
        sizes[k] += weight
    return tuple((item, sizes[k]) for k, item in first.items())


def _class_walk(
    sweep: Callable[[Sequence[tuple[Presheaf, int]]], Iterable[tuple[Outcome, int]]],
    classes: Sequence[tuple[Presheaf, int]],
    everyone: Iterable[Presheaf],
) -> tuple[dict | None, int, int]:
    """`_walk` of `sweep(classes)`, `classes` being the first object of
    each isomorphism class, in order, with its class size; each yielded
    (outcome, weight) counts as `weight` candidates walked.  The swept
    conditions are invariant under isomorphism, and a first-seen object
    has the least index in its class, so a failure through later members
    transports to one that the walk over every object reaches no later:
    the first counterexample and the counts are the full walk's (McKay's
    isomorph-free walk).  That needs decided verdicts, and fuel can run
    out differently on isomorphic candidates, so at the first INCONCLUSIVE
    the walk gives up and `_walk`s the sweep of every object of `everyone`
    at weight 1, to the end.  It also serves the universe's class
    collectors (`_map_classes`), whose sweeps never fail."""
    return _walk(sweep(classes), give_up=True) or _walk(sweep([(X, 1) for X in everyone]))


def _combine(check: str, parameters: dict, subchecks: list[VerdictReport]) -> VerdictReport:
    """The first failing subcheck's counterexample, else INCONCLUSIVE when
    any subcheck is, else YES."""
    failure = next(
        (s.counterexample for s in subchecks if s.verdict is Verdict.NO), None
    )
    undecided = sum(s.verdict is Verdict.INCONCLUSIVE for s in subchecks)
    return _report(check, parameters, failure, undecided, subchecks=tuple(subchecks))


#: The most candidate presheaves (`candidate_presheaves`) a universe may
#: enumerate.  Graphs at v=4 e=4 give 77,633 and are admitted; at v=5 e=5
#: about 10^7, refused before any enumeration.
MAX_UNIVERSE_CANDIDATES = 10**5


def _size_vectors(base: BaseCategory, bound: dict[str, int]) -> Iterator[tuple]:
    """The size vectors within `bound` that admit action tables, in
    lexicographic base-object order, each with its count of table tuples:
    the product, over non-identity morphisms m : a -> b, of the |a|^|b|
    tables of m.  A size that leaves a morphism between objects sized so
    far without any table ends its branch."""
    # per object, the morphisms whose later end it is
    closing: list[list[tuple[int, int]]] = [[] for _ in base.objects]
    for m in base.nonidentity:
        a, b = base._dom[m], base._cod[m]
        closing[max(a, b)].append((a, b))

    def walk(sizes: tuple[int, ...], product: int):
        o = len(sizes)
        if o == len(base.objects):
            yield sizes, product
            return
        for n in range(bound[base.objects[o]] + 1):
            here = sizes + (n,)
            tables = product
            for a, b in closing[o]:
                tables *= here[a] ** here[b]
            if tables:
                yield from walk(here, tables)

    return walk((), 1)


def candidate_presheaves(base: BaseCategory, bound: dict[str, int]) -> int | None:
    """How many action tables `BoundedUniverse` tries: the sum of the table
    counts of `_size_vectors`.  None once more than MAX_UNIVERSE_CANDIDATES
    size vectors admit tables, since each of them adds at least one."""
    total = 0
    for k, (_, tables) in enumerate(_size_vectors(base, bound)):
        if k == MAX_UNIVERSE_CANDIDATES:
            return None
        total += tables
    return total


def _invariant(X: Presheaf) -> tuple:
    """An isomorphism invariant of X: per base object b, the sorted tuples
    that give, for each element of X(b), the size of its fibre under the
    action of each non-identity m : b -> a.  The tuple count per object is
    its carrier size."""
    base = X.base
    counts: list[list[Counter]] = [[] for _ in base.objects]
    for m in base.nonidentity:
        counts[base._dom[m]].append(Counter(X._act[m]))
    return tuple(
        tuple(sorted(tuple(c[y] for c in cs) for y in range(len(col))))
        for col, cs in zip(X.carriers, counts)
    )


def _isos(X: Presheaf, Y: Presheaf) -> Iterator[Components]:
    """The component tables of the isomorphisms X -> Y, in the order of
    the injective search, which assigns the most constrained objects
    first: the maps whose components are injective, when the carriers of
    X and Y have equal sizes."""
    for comp in _enumerate_components(X, Y, injective=True):
        if all(len(set(col)) == len(col) for col in comp):
            yield comp


class BoundedUniverse:
    """Every presheaf over the base within a carrier-size bound, plus the
    hom-sets and membership verdicts the checkers keep re-asking for.

    Enumeration order is fixed: size vectors run as `_size_vectors` (the
    walk `candidate_presheaves` counts) yields them, and per vector the
    action tables run lexicographically as index tuples; elements are
    named by their index.  Non-functorial tables are skipped and the rest
    built unchecked (`Presheaf._make`), so the universe refuses a bound
    above `MAX_CARRIER_SIZE` itself.  Isomorphic duplicates are kept, so
    every check walks them in that order.  Objects whose cofibrancy cannot
    be decided within fuel are left out of the cofibrant family and
    counted.

    A registry numbers the isomorphism classes of presheaves over a base
    with arrows and keeps the first presheaf registered in each
    (`_register`): a presheaf joins the first registered one with its
    `_invariant` that `_isos` finds an isomorphism to, or else starts a
    class.  `_register` and `_frame` are cached, so each presheaf is
    searched against the registry once.  The universe objects register
    first, in order (`_representatives`, which `_frame` reads first), so
    each of their classes is represented by its first-seen object.  A
    presheaf that no universe object is isomorphic to, such as one of A4's
    pushout apexes, registers when a map ending at it is first keyed, and
    stays registered as long as the universe.  Over a discrete base the
    object classes are the carrier sizes, and nothing registers.

    `iso_class(f)` is the one exact key of f's isomorphism class of
    arrows, for any map over the base: the fibre-size profile over a
    discrete base, and over any other base the class numbers of f's ends
    with the least table of f's orbit under the automorphisms of their
    registered presheaves, at most |Aut(R_A)| * |Aut(R_B)| table
    compositions (16 on graphs at v=2 e=2).

    Membership verdicts are invariant under isomorphism, so `per_class`
    keeps a decided verdict under the `iso_class` of its map for every map
    of its class, wherever the map's ends lie: `is_cof`, `is_triv_fib`,
    `is_we` and the J-fibration test `is_fib`, so the checks run on one
    universe share their verdicts.  An INCONCLUSIVE verdict stays with its
    map: the fuel a factorization spends can differ between isomorphic
    maps, and an isomorphic map still gets its own run.  The appropriateness
    verdict of a comparison map is kept per `iso_class` too.
    `cofibration_classes()` and `trivial_fibration_classes()` group the
    cofibrations and the trivial fibrations between cofibrant objects by
    `iso_class`, for `is_pure` and `check_properness_condition` to walk
    one map per class.

    Both run through `_class_walk` (`_map_classes`): hom(A, B) alone, for
    A and B the first cofibrant objects of their classes
    (`cofibrant_classes`; `object_classes` likewise among all objects),
    each map weighing the cofibrant objects of A's class times those of
    B's, and `_first_of_each_class` keeps the first accepted map of each
    `iso_class` with the weights of its class; `check_appropriate`
    walks its trivial fibrations so too, lazily.  `_walk` reads every
    sweep: weights are walked, and each INCONCLUSIVE outcome counts once
    as undecided, whatever its weight.  A first-seen object has
    the least index in its class, so the first members and their order are
    the full walk's.  At an INCONCLUSIVE verdict `_class_walk` walks every
    cofibrant object with weight 1 instead.  A map asked while its class
    was undecided keeps its INCONCLUSIVE in the `is_cof` cache, so `is_cof`
    raises a universe-wide flag on every INCONCLUSIVE answer, and a flag
    raised before the cofibration walk counts as one met there; `cofibrant`
    may then not be closed under isomorphism.  That walk also counts
    `all_undecided()`.

    When every generator is a mono, so is every cofibration, and `is_cof`
    answers NO for a non-mono before it keys f or factors anything.
    Proof: `in_cof` says YES only when it finds a lift l with l after
    f = j, where j is the cell map of the factorization, a composite of
    pushouts of generators.  Colimits of presheaves are
    computed pointwise in Set, where a pushout of an injection is an
    injection, so j is a mono, and l after f = j makes f one too.  Without
    monic generators (FinSet's I2 holds the non-monic fold) every map goes
    to `in_cof`.

    The universe owns the context of its question: the generating set, the
    fuel, `ctx`, the one HomotopyContext that every check on it shares, and
    `J`, the trivial generators of `build_jset` (a cached property).
    It caches per instance what the checks ask again (`hom`, `is_cof`,
    `is_we`, `factors_through`, `_automorphisms`, `_register`, `_frame`);
    each answers `cache_info()`, and the cofibration walk is a cached
    property.
    The per-class memos keep keys and verdicts, the keys of maps between
    universe objects are kept under object indices and a component table,
    and a frame keeps a class number and tables, so no memo keeps a map.
    The registry keeps the first presheaf of each class it meets, and the
    caches of `_register` and `_frame` every presheaf asked about.  A
    J-fibration is `has_rlp(f, U.J.maps)`, decided per class by `is_fib`,
    which is never INCONCLUSIVE and so needs no per-map cache.  Whether one
    map is a retract of another is shared per class only inside
    `verify_axioms`.

    The hot loops work on component tables, not on maps.  `factors_through`
    returns the component tables of the extending maps, which `is_pure`
    tests each top map's table against.  `all_maps()` runs hom-set by
    hom-set, and every composite of universe maps is a universe map, so
    `verify_axioms` reads A2's weak-equivalence verdicts per hom-set: a
    tally of each hom-set's verdicts decides a whole run of pairs (f, g)
    whose composites share one verdict, and a table keyed by component
    table gives the composite's verdict in the other runs.
    """

    def __init__(
        self,
        base: BaseCategory,
        bound: int | dict[str, int],
        generators: GeneratingSet,
        fuel: int | None = None,
    ):
        self.base = base
        if isinstance(bound, int):
            self.bound = {o: bound for o in base.objects}
        else:
            self.bound = {o: bound[o] for o in base.objects}
        sizes = " ".join(f"{o}={n}" for o, n in self.bound.items())
        if max(self.bound.values(), default=0) > MAX_CARRIER_SIZE:
            raise SizeLimitExceeded(
                f"bound {sizes} exceeds the carrier limit of {MAX_CARRIER_SIZE}"
            )
        candidates = candidate_presheaves(base, self.bound)
        if candidates is None or candidates > MAX_UNIVERSE_CANDIDATES:
            count = "more" if candidates is None else f"{candidates:,}"
            raise SizeLimitExceeded(
                f"bound {sizes} gives {count} candidate presheaves, "
                f"limit is {MAX_UNIVERSE_CANDIDATES:,}"
            )
        self.generators = generators
        self.monic_generators = all(map(is_mono, generators.maps))
        self.fuel = fuel
        self.ctx = HomotopyContext(generators, fuel)
        self.objects: tuple[Presheaf, ...] = tuple(self._enumerate())
        self._index = {X: k for k, X in enumerate(self.objects)}
        # the first-seen presheaf of each isomorphism class, by class
        # number, and the class numbers per `_invariant` (`_register`)
        self._registered: list[Presheaf] = []
        self._buckets: dict[tuple, list[int]] = {}
        # (source index, target index, table) -> `iso_class` key
        self._orbit_keys: dict[tuple, tuple] = {}
        # decided verdicts per iso class (`per_class`); never INCONCLUSIVE
        self._cof_by_class: dict[tuple, Verdict] = {}
        # whether any `is_cof` call has answered INCONCLUSIVE
        self._cof_undecided = False
        self._triv_fib_by_class: dict[tuple, bool] = {}
        self._we_by_class: dict[tuple, Verdict] = {}
        self._fib_by_class: dict[tuple, bool] = {}
        # memos on the instance, so that they end with the universe
        for name in ("hom", "is_cof", "is_we", "factors_through",
                     "_automorphisms", "_register", "_frame"):
            setattr(self, name, functools.cache(getattr(self, name)))

    def _enumerate(self) -> Iterator[Presheaf]:
        base = self.base
        nonid = base.nonidentity
        for sizes, _ in _size_vectors(base, self.bound):
            carriers = tuple(tuple(map(str, range(n))) for n in sizes)
            act = {base.identities[o]: tuple(range(n))
                   for o, n in zip(base.objects, sizes)}
            # the tables of m : a -> b, as index tuples over carrier(b)
            tables = [
                itertools.product(range(sizes[base._dom[m]]),
                                  repeat=sizes[base._cod[m]])
                for m in nonid
            ]
            for combo in itertools.product(*tables):
                act.update(zip(nonid, combo))
                if _functoriality_failure(base, act) is None:
                    yield Presheaf._make(base, carriers, dict(act))

    def describe(self) -> dict:
        return {"bound": dict(self.bound), "objects": len(self.objects)}

    def index(self, X: Presheaf) -> int | None:
        return self._index.get(X)

    def hom(self, X: Presheaf, Y: Presheaf) -> tuple[PresheafMap, ...]:
        return tuple(hom_enumerate(X, Y))

    def maps_from(self, X: Presheaf) -> Iterator[PresheafMap]:
        for Y in self.objects:
            yield from self.hom(X, Y)

    def all_maps(self) -> Iterator[PresheafMap]:
        for X in self.objects:
            yield from self.maps_from(X)

    @functools.cached_property
    def _representatives(self) -> list[int]:
        """Per object index x, r(x): the class number of objects[x].  The
        objects register in order, so each class's representative is its
        first-seen object.  Over a discrete base two presheaves are
        isomorphic exactly when their carriers have equal sizes, and the
        classes are numbered by carrier sizes, in order of first appearance."""
        if self.base.nonidentity:
            return [self._register(X)[0] for X in self.objects]
        numbers: dict[tuple[int, ...], int] = {}
        return [
            numbers.setdefault(tuple(map(len, X.carriers)), len(numbers))
            for X in self.objects
        ]

    def _register(self, X: Presheaf) -> tuple[int, Components]:
        """The number of X's isomorphism class and the first iso X -> R
        that `_isos` finds, R being the class's registered presheaf.  X's
        class is the first registered presheaf with X's `_invariant` that
        X is isomorphic to; X registers as a new class when there is none."""
        bucket = self._buckets.setdefault(_invariant(X), [])
        for k in bucket:
            phi = next(_isos(X, self._registered[k]), None)
            if phi is not None:
                return k, phi
        bucket.append(len(self._registered))
        self._registered.append(X)
        return bucket[-1], identity_map(X)._comp

    def _frame(self, X: Presheaf) -> tuple[int, list[Components], list[Components]]:
        """X's class number k and, for R its registered presheaf and phi
        the iso of `_register`, the component tables of alpha;phi^-1 : R -> X
        and of phi;beta : X -> R over alpha, beta in Aut(R).  The universe
        objects register first (`_representatives`), whoever asks first."""
        self._representatives
        k, phi = self._register(X)
        inverse = tuple(
            tuple(sorted(range(len(col)), key=col.__getitem__)) for col in phi
        )
        automorphisms = self._automorphisms(k)
        lefts = [_compose_tables(a, inverse) for a in automorphisms]
        return k, lefts, [_compose_tables(phi, b) for b in automorphisms]

    def _automorphisms(self, k: int) -> list[Components]:
        """The component tables of Aut(R), R the registered presheaf of
        class k."""
        R = self._registered[k]
        return list(_isos(R, R))

    def _orbit_key(self, f: PresheafMap) -> tuple:
        """(k_A, k_B, the least table of alpha;phi_A^-1;f;phi_B;beta over
        alpha in Aut(R_A) and beta in Aut(R_B)) for f : A -> B, with k_X,
        R_X and phi_X as in `_frame`."""
        ka, lefts, _ = self._frame(f.source)
        kb, _, rights = self._frame(f.target)
        transported = [_compose_tables(left, f._comp) for left in lefts]
        least = min(_compose_tables(t, right) for t in transported for right in rights)
        return ka, kb, least

    def iso_class(self, f: PresheafMap) -> tuple:
        """A key that two maps over the base share exactly when they are
        isomorphic arrows.

        Over a discrete base it is a fibre-size profile: the carrier sizes
        of both ends and, per object, the sorted sizes of the non-empty
        fibres of f's component.  That is exact: natural isomorphisms are
        then any bijections per object, and two components with equal
        source sizes, target sizes and fibre-size multisets are matched by
        a bijection of the targets that sends fibres to fibres of the same
        size, then by bijections between matched fibres.

        Otherwise it is `_orbit_key(f)`: f : A -> B and f' are isomorphic
        exactly when their ends lie in the same classes and their
        transports to R_A -> R_B lie in one orbit of Aut(R_A) x Aut(R_B),
        and the least table names the orbit.  A map between universe
        objects keeps its key under their indices and its table
        (`_orbit_keys`); the ends of any other map register in the
        universe's classes, so it shares its key with the universe maps
        isomorphic to it.
        """
        if not self.base.nonidentity:
            sizes = tuple(len(c) for X in (f.source, f.target) for c in X.carriers)
            return sizes, tuple(tuple(sorted(Counter(c).values())) for c in f._comp)
        a, b = self._index.get(f.source), self._index.get(f.target)
        if a is None or b is None:
            return self._orbit_key(f)
        key = self._orbit_keys.get((a, b, f._comp))
        if key is None:
            key = self._orbit_keys[a, b, f._comp] = self._orbit_key(f)
        return key

    def per_class(
        self, memo: dict, f: PresheafMap, decide: Callable[[PresheafMap], object]
    ) -> object:
        """decide(f), kept in `memo` under `iso_class(f)` for every map of
        f's class.  An INCONCLUSIVE verdict is not kept: fuel can run out
        differently on isomorphic maps."""
        key = self.iso_class(f)
        verdict = memo.get(key)
        if verdict is None:
            verdict = decide(f)
            if verdict is not Verdict.INCONCLUSIVE:
                memo[key] = verdict
        return verdict

    def is_cof(self, f: PresheafMap) -> Verdict:
        if self.monic_generators and not is_mono(f):
            return Verdict.NO
        verdict = self.per_class(self._cof_by_class, f, self._in_cof)
        if verdict is Verdict.INCONCLUSIVE:
            self._cof_undecided = True
        return verdict

    def _in_cof(self, f: PresheafMap) -> Verdict:
        return in_cof(f, self.generators, self.fuel)

    def is_triv_fib(self, f: PresheafMap) -> bool:
        return self.per_class(self._triv_fib_by_class, f, self._in_inj)

    def _in_inj(self, f: PresheafMap) -> bool:
        return in_inj(f, self.generators)

    def is_we(self, f: PresheafMap) -> Verdict:
        return self.per_class(self._we_by_class, f, self._is_weak_equivalence)

    def _is_weak_equivalence(self, f: PresheafMap) -> Verdict:
        return is_weak_equivalence(f, self.ctx).verdict

    @functools.cached_property
    def J(self) -> GeneratingSet:
        """The trivial generators of `build_jset`.  A cylinder that runs out
        of fuel raises FuelExhausted at every read: no exception is cached."""
        return build_jset(self.ctx)

    def is_fib(self, f: PresheafMap) -> bool:
        return self.per_class(self._fib_by_class, f, self._in_jinj)

    def _in_jinj(self, f: PresheafMap) -> bool:
        return has_rlp(f, self.J.maps)

    @functools.cached_property
    def cofibrant(self) -> tuple[Presheaf, ...]:
        initial = map(initial_map, self.objects)
        return tuple(i.target for i in initial if self.is_cof(i) is Verdict.YES)

    @functools.cached_property
    def object_classes(self) -> tuple[tuple[Presheaf, int], ...]:
        """The first universe object of each isomorphism class, in universe
        order, each with the size of its class."""
        r, index = self._representatives, self._index
        return _first_of_each_class(((X, 1) for X in self.objects), lambda X: r[index[X]])

    @functools.cached_property
    def cofibrant_classes(self) -> tuple[tuple[Presheaf, int], ...]:
        """The first cofibrant object of each isomorphism class, in
        universe order, each with the number of cofibrant objects in its
        class."""
        r, index = self._representatives, self._index
        return _first_of_each_class(((V, 1) for V in self.cofibrant), lambda V: r[index[V]])

    def cofibration_classes(self) -> tuple[tuple[PresheafMap, int], ...]:
        """The first-seen cofibration of each `iso_class` among the maps
        between cofibrant objects, in their order, with its class size."""
        return self._cofibration_walk[0]

    def trivial_fibration_classes(self) -> tuple[tuple[PresheafMap, int], ...]:
        """The trivial fibrations between cofibrant objects, one per
        `iso_class`, with class sizes: `is_triv_fib` is never INCONCLUSIVE."""
        return self._map_classes(self.is_triv_fib, False)[0]

    @functools.cached_property
    def _cofibration_walk(self) -> tuple[tuple[tuple[PresheafMap, int], ...], int]:
        """`cofibration_classes()` and `all_undecided()`: the classes of
        `_map_classes(is_cof)`, begun with any INCONCLUSIVE answered so
        far, and its INCONCLUSIVE count plus that of the initial maps."""
        initial = [self.is_cof(initial_map(X)) for X in self.objects]
        classes, undecided = self._map_classes(self.is_cof, self._cof_undecided)
        return classes, undecided + initial.count(Verdict.INCONCLUSIVE)

    def _map_classes(
        self, member: Callable[[PresheafMap], Verdict | bool], undecided: bool
    ) -> tuple[tuple[tuple[PresheafMap, int], ...], int]:
        """The first map of each `iso_class` that `member` accepts (YES or
        True) between cofibrant objects, in order, each with its class size,
        and how many maps there `member` answers INCONCLUSIVE.  The sweep
        hands `_class_walk` one outcome per map, YES or INCONCLUSIVE, and
        keeps the accepted maps: over `cofibrant_classes` a map weighs the
        product of its ends' weights, and `undecided` (an INCONCLUSIVE
        already answered off those hom-sets) gives that pass up at once.
        `_first_of_each_class` groups the accepted maps of the pass that
        ran to the end."""
        yes, inconclusive = Verdict.YES, Verdict.INCONCLUSIVE
        classes = self.cofibrant_classes
        accepted: list[tuple[PresheafMap, int]] = []

        def sweep(objects: Sequence[tuple[Presheaf, int]]) -> Iterator[tuple[Outcome, int]]:
            accepted.clear()
            if undecided and objects is classes:
                yield inconclusive, 0
            for A, m in objects:
                for B, n in objects:
                    for f in self.hom(A, B):
                        verdict = member(f)
                        if verdict is yes or verdict is True:
                            accepted.append((f, m * n))
                        yield inconclusive if verdict is inconclusive else yes, m * n

        _, _, count = _class_walk(sweep, classes, self.cofibrant)
        return _first_of_each_class(accepted, self.iso_class), count

    def factors_through(self, i: PresheafMap, X: Presheaf) -> frozenset[tuple]:
        """The component tables of the maps i.source -> X that extend along i."""
        return frozenset(
            _compose_tables(i._comp, w._comp) for w in self.hom(i.target, X)
        )

    def is_object_retract(self, X: Presheaf, A: Presheaf) -> bool:
        return all(
            len(cx) <= len(ca) for cx, ca in zip(X.carriers, A.carriers)
        ) and any(find_retraction(s) is not None for s in self.hom(X, A))

    def all_undecided(self) -> int:
        """The INCONCLUSIVE `is_cof` verdicts over every `initial_map(X)`
        and every map between cofibrant objects, as the cofibration walk
        counted them.  `is_cof` keeps each map's verdict, so the count
        holds whatever is asked later.  When no `is_cof` call had answered
        INCONCLUSIVE and the class pass met none, every map between
        cofibrant objects lies in a class that pass decided, so none can be
        INCONCLUSIVE later and the count is 0.  Otherwise the second pass
        asked every map between cofibrant objects, in order, and counted
        them."""
        return self._cofibration_walk[1]


def is_pure(f: PresheafMap, U: BoundedUniverse) -> VerdictReport:
    """Purity of f: in every commuting square against a cofibration between
    cofibrant objects of U, the top map extends along the cofibration.

    The extension requirement does not mention f, so a square only matters
    when the bottom exists; that is checked last, after the cheap
    factor-through test fails.

    Squares are walked against the first-seen cofibration of each class of
    `U.cofibration_classes()` alone, which the universe finds in the
    hom-sets between first-seen cofibrant objects, with each class's
    full size.  An isomorphism of cofibrations i' ~ i
    carries the squares against i' one-to-one onto those against i, tops
    that extend onto tops that extend, so against a class of n
    cofibrations each square weighs n, and `_walk` adds the weights up to
    `squares_considered`; no square is INCONCLUSIVE.  A failing square
    against a later member transports to one against its class's first
    member, which the full walk reaches earlier, so the first failure
    always lies at a first member and the counterexample is the full
    walk's.
    """
    X = f.source
    params = {"map": f, **U.describe()}

    def squares() -> Iterator[tuple[Outcome, int]]:
        for i, n in U.cofibration_classes():
            extends = (Verdict.YES, n)  # built once: yielded once per square
            factorable = U.factors_through(i, X)
            for u in U.hom(i.source, X):
                if u._comp in factorable:
                    yield extends
                    continue
                w = _compose_tables(u._comp, f._comp)
                v = _first_map(i.target, f.target, _pin((i._comp, w)))
                if v is None:
                    yield extends
                else:
                    yield {"cofibration": i, "top": u, "bottom": v}, n

    failure, checked, _ = _walk(squares())
    if failure:
        return _report("pure", params, failure)
    undecided = U.all_undecided()
    return _report(
        "pure",
        params,
        undecided=undecided,
        diagnostics={"squares_considered": checked, "undecided_membership": undecided},
    )


def is_weak_equivalence(f: PresheafMap, ctx: HomotopyContext) -> VerdictReport:
    """RLP up to homotopy-rel-i with respect to every generator i."""
    I = ctx.generators
    params = {"generators": I.label}
    try:
        for k, i in enumerate(I.maps):
            bad = ctx.unliftable_square(i, f)
            if bad is not None:
                failure = {"generator": k, "top": bad[0], "bottom": bad[1]}
                return _report("weak-equivalence", params, failure)
    except FuelExhausted as stop:
        return _out_of_fuel("weak-equivalence", params, stop)
    return _report(
        "weak-equivalence", params, diagnostics={"generators_checked": len(I.maps)}
    )


def build_jset(ctx: HomotopyContext) -> GeneratingSet:
    """One generating trivial cofibration per generator: the end inclusion
    of the canonical cylinder over it."""
    I = ctx.generators
    return GeneratingSet(
        f"J({I.label})", tuple(ctx.cylinder(i).incl0 for i in I.maps)
    )


def _object_square_failure(
    g: PresheafMap, objects: Iterable[Presheaf], ctx: HomotopyContext
) -> dict | None:
    """The first V in `objects` with a square over the empty map into V that
    has no lift up to absolute homotopy against g, as counterexample
    entries."""
    for V in objects:
        bad = ctx.unliftable_square(initial_map(V), g)
        if bad is not None:
            return {"against": V, "top": bad[0], "bottom": bad[1]}
    return None


def check_appropriate(U: BoundedUniverse) -> VerdictReport:
    """Pushouts of trivial fibrations between cofibrant objects along
    cofibrations stay pure and keep RLP up to homotopy against every
    cofibrant object of U.

    Every pair (t, c) of a trivial fibration t and a cofibration c out of
    A = t.source counts in `pushouts_checked`.  Both conditions are
    invariant under isomorphism, so a comparison map whose iso class
    passed them is settled, and t' ~ t carries the pairs of t' onto those
    of t.  So t runs between `U.cofibrant_classes` (`_class_walk`), and
    only the first t of each `iso_class` walks the cofibrations out of A,
    standing for the m * n trivial fibrations between its ends' classes;
    the full walk takes every t on its own, keeping the settled classes.
    The object lifts run against `U.cofibrant_classes` alone too.

    `undecided_membership` sums three counts: the universe's undecided
    memberships (`U.all_undecided()`); the candidate cofibrations whose
    `is_cof` is INCONCLUSIVE, once per trivial fibration they are walked
    from; and the distinct comparison maps whose purity is INCONCLUSIVE,
    a settled class's undecided purity counting once for each of them.
    `is_pure` is INCONCLUSIVE whenever the universe has an undecided
    membership, whatever the squares of the map itself.
    """
    params = {"generators": U.generators.label, **U.describe()}
    yes, inconclusive = Verdict.YES, Verdict.INCONCLUSIVE
    settled: dict[tuple, bool] = {}  # iso class -> whether purity was undecided
    cofibrant = [V for V, _ in U.cofibrant_classes]

    def pairs(t: PresheafMap, seen: set[PresheafMap]) -> Iterator[tuple[bool, Outcome]]:
        """Per map c out of t.source that `is_cof` does not refuse: whether
        c is a cofibration, and the outcome of the pair (t, c)."""
        for c in U.maps_from(t.source):
            vc = U.is_cof(c)
            if vc is not yes:
                if vc is inconclusive:
                    yield False, inconclusive
                continue
            comparison = pushout(t, c).right
            if comparison in seen:
                yield True, yes
                continue
            seen.add(comparison)
            k = U.iso_class(comparison)
            if k not in settled:
                purity = is_pure(comparison, U)
                if purity.verdict is Verdict.NO:
                    bad = {"purity": purity.counterexample}
                else:
                    bad = _object_square_failure(comparison, cofibrant, U.ctx)
                if bad is not None:
                    pair = {"trivial-fibration": t, "cofibration": c, "comparison": comparison}
                    yield True, {**pair, **bad}
                settled[k] = purity.verdict is inconclusive
            yield True, inconclusive if settled[k] else yes

    def sweep(objects: Sequence[tuple[Presheaf, int]]) -> Iterator[tuple[Outcome, int]]:
        """The pairs of the trivial fibrations t between `objects`, weighted
        by t's ends; over the classes, from the first t of each `iso_class`."""
        seen: set[PresheafMap] = set()
        counts: dict = {}  # t or its iso class -> cofibrations out of t.source
        for A, m in objects:
            for B, n in objects:
                for t in filter(U.is_triv_fib, U.hom(A, B)):
                    k = U.iso_class(t) if objects is U.cofibrant_classes else t
                    if k in counts:
                        yield yes, m * n * counts[k]
                        continue
                    counts[k] = 0
                    for cofibration, outcome in pairs(t, seen):
                        counts[k] += cofibration
                        yield outcome, m * n * cofibration

    try:
        failure, checked, undecided = _class_walk(sweep, U.cofibrant_classes, U.cofibrant)
    except FuelExhausted as stop:
        return _out_of_fuel("appropriate", params, stop)
    if failure:
        return _report("appropriate", params, failure)
    undecided += U.all_undecided()
    return _report(
        "appropriate",
        params,
        undecided=undecided,
        diagnostics={"pushouts_checked": checked, "undecided_membership": undecided},
    )


def check_main_condition(U: BoundedUniverse) -> VerdictReport:
    """Appropriateness plus: pushouts of the canonical trivial cofibrations
    keep RLP up to homotopy against the generator domains.

    Finite generator sources make pushouts of J-maps stand in for all of
    J-cell here; each attachment stage is itself such a pushout.  They run
    along the maps into `U.object_classes` (`_class_walk`): the pushouts
    of j along u and along u followed by an isomorphism are isomorphic.
    """
    I = U.generators
    params = {"generators": I.label, **U.describe()}
    appropriate = check_appropriate(U)
    domains = list(dict.fromkeys(i.source for i in I.maps))

    def pushed_out(objects: Sequence[tuple[Presheaf, int]]) -> Iterator[tuple[Outcome, int]]:
        """The pushouts of the J-maps along the maps into `objects`."""
        yes = Verdict.YES  # looked up once: this loop runs once per pushout
        for jk, j in enumerate(J.maps):
            for Y, n in objects:
                for u in U.hom(j.source, Y):
                    pushed = pushout(j, u).right
                    bad = _object_square_failure(pushed, domains, U.ctx)
                    if bad is not None:
                        yield {"j-generator": jk, "along": u, "pushed": pushed, **bad}, n
                    else:
                        yield yes, n

    try:
        J = U.J
        failure, checked, _ = _class_walk(pushed_out, U.object_classes, U.objects)
    except FuelExhausted as stop:
        cell = _out_of_fuel("jcell-rlp", params, stop)
    else:
        diagnostics = None if failure else {"pushouts_checked": checked}
        cell = _report("jcell-rlp", params, failure, diagnostics=diagnostics)
    return _combine("main-condition", params, [appropriate, cell])


def _coproduct_map(t1: PresheafMap, t2: PresheafMap) -> PresheafMap:
    """t1 + t2, from the coproduct of the sources to that of the targets."""
    sources = coproduct(t1.source, t2.source)
    targets = coproduct(t1.target, t2.target)
    return sources.mediator(compose(t1, targets.left), compose(t2, targets.right))


def check_properness_condition(U: BoundedUniverse) -> VerdictReport:
    """Coproduct closure of trivial fibrations between cofibrant objects,
    and weak-equivalence of the comparison maps between pushouts along
    the generators.

    Both sweeps walk one representative per isomorphism class: the pairs
    of `U.trivial_fibration_classes()`, and the comparisons for
    u : i.source -> X and g : X -> Y with X and Y of `U.object_classes`,
    weighted by their class sizes (`_class_walk`).

    t1 + t2 is isomorphic to t2 + t1 and lifting is invariant under
    isomorphism, so the sums run over the unordered pairs t1 <= t2 of the
    representatives, in order, up to the first that `in_inj` refuses.
    The ordered walk stops at the (least, greatest) form of that pair,
    having decided the same sums, so the counterexample is its.  A pair
    of classes of n1 and n2 maps weighs n1 * n2 on the diagonal and
    2 * n1 * n2 off it, so the weights that `_walk` adds up to
    `pairs_checked` count every ordered pair of trivial fibrations; no sum
    is INCONCLUSIVE, and `U.all_undecided()` is asked only when none fails.
    """
    I = U.generators
    params = {"generators": I.label, **U.describe()}
    no = Verdict.NO

    def comparisons(objects: Sequence[tuple[Presheaf, int]]) -> Iterator[tuple[Outcome, int]]:
        """Each comparison through X, Y of `objects`, with their weights' product."""
        for k, i in enumerate(I.maps):
            for X, mx in objects:
                for u in U.hom(i.source, X):
                    po1 = pushout(u, i)
                    for Y, my in objects:
                        for g in U.hom(X, Y):
                            if not U.is_triv_fib(g):
                                continue
                            po2 = pushout(compose(u, g), i)
                            induced = po1.mediator(compose(g, po2.left), po2.right)
                            v = U.is_we(induced)
                            if v is no:
                                v = {"generator": k, "attach": u,
                                     "trivial-fibration": g, "comparison": induced}
                            yield v, mx * my

    def sums() -> Iterator[tuple[Outcome, int]]:
        """Each unordered pair of trivial fibration classes, with its weight."""
        tfibs = U.trivial_fibration_classes()
        for k, (t1, n1) in enumerate(tfibs):
            for t2, n2 in tfibs[k:]:
                both = _coproduct_map(t1, t2)
                weight = n1 * n2 if t2 is t1 else 2 * n1 * n2
                if in_inj(both, I):
                    yield Verdict.YES, weight
                else:
                    yield {"first": t1, "second": t2, "coproduct": both}, weight

    failure, checked, _ = _walk(sums())
    if failure:
        closed = _report("tfib-coproducts", params, failure)
    else:
        closed = _report(
            "tfib-coproducts",
            params,
            undecided=U.all_undecided(),
            diagnostics={"pairs_checked": checked},
        )
    failure, checked, undecided = _class_walk(comparisons, U.object_classes, U.objects)
    diagnostics = None if failure else {"comparisons_checked": checked}
    compared = _report("pushout-comparisons", params, failure, undecided, diagnostics)
    return _combine("properness-condition", params, [closed, compared])


def _conj(a: Verdict, b: Verdict) -> Verdict:
    if a is Verdict.NO or b is Verdict.NO:
        return Verdict.NO
    if a is Verdict.YES and b is Verdict.YES:
        return Verdict.YES
    return Verdict.INCONCLUSIVE


def verify_axioms(U: BoundedUniverse) -> VerdictReport:
    """Bounded run over the five closure conditions a minimal structure
    needs, for the trivial cofibrations `U.J` and the weak equivalences of
    `U.is_we`.  A1 is a finiteness note; the rest quantify over U.

    `U.is_we` is asked once per map of `U.all_maps()`, in that order, and
    decides each `iso_class` once, A4's pushed maps included.  A2 reads
    those verdicts per hom-set, and A3 and A5 map by map in that order; A3
    reads `U.is_triv_fib`, and A5 asks `U.is_fib` only of the maps whose
    verdict is not NO, which alone can yield anything, so every sweep of a
    map decides one member of its class.
    `_walk` reads every counted subcheck, adding up the weights walked and
    counting each INCONCLUSIVE outcome once as skipped.
    Two-out-of-three goes one run at a time: a map f of hom(a, b) with
    every g of hom(b, c).  A run is skipped whole, one INCONCLUSIVE per
    pair, when f's verdict is INCONCLUSIVE or every map of hom(a, c) is.
    It passes whole, one YES weighing its decided pairs and one
    INCONCLUSIVE per undecided g, when every map of hom(a, c) has one
    decided verdict and hom(b, c) holds no g with the verdict that fails
    against f's and that one (NO when both are YES, YES when they differ,
    none when both are NO).  Only the other runs compose the tables of
    their pairs, one outcome each, in order, and look each composite up in
    the table of hom(a, c), building the composite map only for a
    counterexample.  A run decided whole holds no failure, so the runs
    keep the order of the pairwise sweep over `all_maps()`, add the counts
    it would add, and stop at its first counterexample.
    Retract closure searches only the hom-sets between objects that the
    ends of the map are object retracts of, in the order of the pairwise
    sweep, and asks `is_retract_of` once per pair of `iso_class` keys:
    f is a retract of g exactly when any arrow isomorphic to f is one of
    any arrow isomorphic to g.  Every pair still counts in
    `pairs_searched`, and the first pair found is the sweep's
    counterexample.
    """
    J = U.J
    I = U.generators
    params = {
        "generators": I.label,
        "trivial-generators": J.label,
        "weak-equivalences": f"rlp-up-to-homotopy({I.label})",
        **U.describe(),
    }
    note = "finite carriers; every factorization run is fuel-guarded"
    subchecks = [
        _report("A1-permits-factorizations", params, diagnostics={"note": note})
    ]

    def counted(check: str, count_name: str, failure: dict | None, count: int,
                skipped: int, **more) -> None:
        diagnostics = {count_name: count, "skipped": skipped, **more}
        subchecks.append(_report(check, params, failure, skipped, diagnostics))

    # One `is_we` verdict per map, in all_maps() order.  rows[a][b] holds
    # the (map, component table, verdict) triples of hom(objects[a],
    # objects[b]), and verdict[a][b] maps each component table of that
    # hom-set to its verdict; swept holds the (map, verdict) pairs in order.
    objects = U.objects
    n = len(objects)
    rows = [
        [[(f, f._comp, U.is_we(f)) for f in U.hom(X, Y)] for Y in objects]
        for X in objects
    ]
    swept = [(f, v) for line in rows for row in line for f, _, v in row]
    verdict = [[{fc: v for _, fc, v in row} for row in line] for line in rows]
    yes, no, inconclusive = Verdict.YES, Verdict.NO, Verdict.INCONCLUSIVE

    # A2: two-out-of-three, one run (f, c) at a time: f in hom(a, b) with
    # every g of hom(b, c).  A composite of universe maps is a universe map,
    # so its verdict is read off the table of hom(a, c).  tally[b][c] counts
    # the verdicts of hom(b, c); uniform[a][c] is the one verdict of
    # hom(a, c), or None when it has several (or no maps).
    tally = [[Counter(v for *_, v in row) for row in line] for line in rows]
    uniform = [[next(iter(t)) if len(t) == 1 else None for t in line] for line in tally]
    # the verdict of g that fails against decided verdicts of f and g;f
    failing = {(yes, yes): no, (yes, no): yes, (no, yes): yes, (no, no): None}

    # one candidate each, built once: the sweeps below yield them per pair
    passed, undecided = (yes, 1), (inconclusive, 1)

    def composable_pairs(f, fc, vf, composites, row) -> Iterator[tuple[Outcome, int]]:
        for g, gc, vg in row:
            trio = (vf, vg, composites[_compose_tables(fc, gc)])
            if inconclusive in trio:
                yield undecided
            elif trio.count(yes) == 2:
                yield {
                    "first": f,
                    "second": g,
                    "composite": compose(f, g),
                    "memberships": [v.name for v in trio],
                }, 1
            else:
                yield passed

    def two_out_of_three() -> Iterator[tuple[Outcome, int]]:
        for a in range(n):
            for b in range(n):
                for f, fc, vf in rows[a][b]:
                    for c in range(n):
                        row, vc = rows[b][c], uniform[a][c]
                        if vf is inconclusive or vc is inconclusive:
                            yield from itertools.repeat(undecided, len(row))
                        elif vc is not None and not tally[b][c][failing[vf, vc]]:
                            k = tally[b][c][inconclusive]
                            yield yes, len(row) - k
                            yield from itertools.repeat(undecided, k)
                        else:
                            yield from composable_pairs(f, fc, vf, verdict[a][c], row)

    counted("A2-two-out-of-three", "composable_pairs", *_walk(two_out_of_three()))

    # A2: retract closure.  Only a pair with g in the class and f outside
    # it can violate closure, so the retract search runs on those pairs,
    # and only on hom-sets between objects that f's ends are retracts of.
    skipped = sum(t[inconclusive] for line in tally for t in line)
    # small numbers for the iso classes, so the pair loop hashes no key
    numbers: dict[tuple, int] = {}

    def number(f: PresheafMap) -> int:
        return numbers.setdefault(U.iso_class(f), len(numbers))

    @functools.cache  # numbers each hom-set's members once
    def members(c: int, d: int) -> list[tuple[PresheafMap, int]]:
        return [(g, number(g)) for g, _, v in rows[c][d] if v is yes]

    @functools.cache  # asks each pair of objects once
    def retract_of(a: int) -> list[int]:
        return [c for c in range(n) if U.is_object_retract(objects[a], objects[c])]

    # whether f is a retract of g, per pair of class numbers: being a
    # retract is invariant under isomorphism of arrows
    retracts: dict[tuple[int, int], bool] = {}

    def retract_candidates() -> Iterator[tuple[Outcome, int]]:
        for a in range(n):
            for b in range(n):
                for f, _, vf in rows[a][b]:
                    if vf is not no:
                        continue
                    kf = number(f)
                    for c in retract_of(a):
                        for d in retract_of(b):
                            for g, kg in members(c, d):
                                found = retracts.get((kf, kg))
                                if found is None:
                                    found = retracts[kf, kg] = is_retract_of(f, g) is not None
                                yield ({"map": f, "of": g}, 1) if found else passed

    failure, searched, _ = _walk(retract_candidates())
    counted("A2-retracts", "pairs_searched", failure, searched, skipped)

    # A3: trivial fibrations are weak equivalences
    trivial_fibrations = (
        ({"map": f} if v is no else v, 1) for f, v in swept if U.is_triv_fib(f)
    )
    counted("A3-trivial-fibrations", "trivial_fibrations", *_walk(trivial_fibrations))

    # A4: pushouts of J-maps are trivial cofibrations
    def pushouts_of_j() -> Iterator[tuple[Outcome, int]]:
        for jk, j in enumerate(J.maps):
            for u in U.maps_from(j.source):
                pushed = pushout(j, u).right
                v = _conj(U.is_we(pushed), U.is_cof(pushed))
                if v is no:
                    yield {"j-generator": jk, "along": u, "pushed": pushed}, 1
                else:
                    yield v, 1

    counted("A4-pushouts-of-j", "pushouts_checked", *_walk(pushouts_of_j()))

    # A5, first disjunct: J-injective weak equivalences are I-injective.
    # The other disjunct needs I-cof inter we inside J-cof; not evaluated.
    # A map whose verdict is NO yields nothing, so it is never tested.
    def jinjective_weak_equivalences() -> Iterator[tuple[Outcome, int]]:
        for f, v in swept:
            if v is no or not U.is_fib(f):
                continue
            if v is inconclusive:
                yield undecided
            else:
                yield passed if U.is_triv_fib(f) else ({"map": f}, 1)

    failure, walked, skipped = _walk(jinjective_weak_equivalences())
    # only the YES weak equivalences count
    counted("A5-first-disjunct", "jinj_weak_equivalences", failure, walked - skipped,
            skipped, **{"second-disjunct": "not-evaluated"})

    return _combine("axioms", params, subchecks)


@dataclass(frozen=True)
class MapClassification:
    map: PresheafMap
    cofibration: Verdict
    fibration: Verdict
    weak_equivalence: Verdict
    trivial_cofibration: Verdict
    trivial_fibration: Verdict
    pure: Verdict
    strong_deformation_retract: Verdict
    # min-triv-cof biconditional on cofibrations; None when not applicable
    consistent: bool | None

    def as_dict(self) -> dict:
        return {
            "cofibration": self.cofibration,
            "fibration": self.fibration,
            "weak-equivalence": self.weak_equivalence,
            "trivial-cofibration": self.trivial_cofibration,
            "trivial-fibration": self.trivial_fibration,
            "pure": self.pure,
            "strong-deformation-retract": self.strong_deformation_retract,
            "sdr-consistent": self.consistent,
        }


def classify_map(f: PresheafMap, U: BoundedUniverse) -> MapClassification:
    """All membership verdicts for one map, with the trivial-cofibration
    versus strong-deformation-retract cross-check."""
    cof = U.is_cof(f)
    weq = U.is_we(f)
    tfib = Verdict.YES if U.is_triv_fib(f) else Verdict.NO
    try:
        fib = Verdict.YES if U.is_fib(f) else Verdict.NO
    except FuelExhausted:
        fib = Verdict.INCONCLUSIVE
    sdr = is_strong_deformation_retract(f, U.ctx).verdict
    pure = is_pure(f, U).verdict
    tcof = _conj(cof, weq)
    if cof is Verdict.YES and Verdict.INCONCLUSIVE not in (tcof, sdr):
        consistent = tcof is sdr
    else:
        consistent = None
    return MapClassification(f, cof, fib, weq, tcof, tfib, pure, sdr, consistent)


def enumerate_weak_equivalences(U: BoundedUniverse) -> VerdictReport:
    """Every map between universe objects in the decided class, as
    witnesses, in enumeration order."""
    params = {"generators": U.generators.label, **U.describe()}
    swept = [(f, U.is_we(f)) for f in U.all_maps()]
    undecided = sum(v is Verdict.INCONCLUSIVE for _, v in swept)
    return _report(
        "enumerate-we",
        params,
        undecided=undecided,
        diagnostics={"maps_considered": len(swept), "undecided": undecided},
        witnesses=tuple(f for f, v in swept if v is Verdict.YES),
    )
