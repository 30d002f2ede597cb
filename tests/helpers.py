"""Shared builders and engine-to-oracle translators for the test suite.

The oracle modules speak plain tuples; everything here converts between
those and engine objects without assuming anything about element names.
"""

import itertools
from pathlib import Path
from importlib.resources import files

from minmodel.factorization import Verdict
from minmodel.presheaf import Presheaf, PresheafMap, load_base

FIXDIR = Path(str(files("minmodel") / "fixtures"))


def fixture(name: str) -> str:
    return str(FIXDIR / name)


FS_BASE = load_base("objects: x")
GPH_BASE = load_base(
    "objects: v e\nmorphism s: v -> e\nmorphism t: v -> e"
)

_LETTERS = "abcdefghij"


def fs(n: int) -> Presheaf:
    """Finite set of size n over the one-object base."""
    assert n <= len(_LETTERS)
    return Presheaf(FS_BASE, {"x": list(_LETTERS[:n])}, {})


def fsmap(m: int, n: int, imgs) -> PresheafMap:
    """The map fs(m) -> fs(n) sending element k to element imgs[k]."""
    comp = {_LETTERS[k]: _LETTERS[v] for k, v in enumerate(imgs)}
    return PresheafMap(fs(m), fs(n), {"x": comp} if comp else {})


def fs_to_oracle(f: PresheafMap):
    """Engine map over FS_BASE -> oracle triple (m, n, imgs)."""
    src = f.source.carrier("x")
    dst = f.target.carrier("x")
    di = {e: k for k, e in enumerate(dst)}
    return (len(src), len(dst), tuple(di[f.apply("x", e)] for e in src))


def gph(nv: int, edges) -> Presheaf:
    """Directed multigraph with nv vertices and the given (src, tgt) edges."""
    carriers = {
        "v": [f"v{k}" for k in range(nv)],
        "e": [f"e{k}" for k in range(len(edges))],
    }
    actions = {
        "s": {f"e{k}": f"v{s}" for k, (s, _) in enumerate(edges)},
        "t": {f"e{k}": f"v{t}" for k, (_, t) in enumerate(edges)},
    }
    return Presheaf(GPH_BASE, carriers, actions)


def gph_obj_to_oracle(X: Presheaf):
    vs = X.carrier("v")
    vi = {n: k for k, n in enumerate(vs)}
    act_s, act_t = X.action("s"), X.action("t")
    return (len(vs), tuple((vi[act_s[e]], vi[act_t[e]]) for e in X.carrier("e")))


def gph_to_oracle(f: PresheafMap):
    """Engine map over GPH_BASE -> oracle quadruple (G, H, vmap, emap)."""
    G = gph_obj_to_oracle(f.source)
    H = gph_obj_to_oracle(f.target)
    tvi = {n: k for k, n in enumerate(f.target.carrier("v"))}
    tei = {n: k for k, n in enumerate(f.target.carrier("e"))}
    vmap = tuple(tvi[f.apply("v", n)] for n in f.source.carrier("v"))
    emap = tuple(tei[f.apply("e", n)] for n in f.source.carrier("e"))
    return (G, H, vmap, emap)


def map_data_to_gph_oracle(md: dict):
    """CLI report rendering of a graph map -> oracle quadruple."""

    def obj(pd):
        vs = pd["carriers"]["v"]
        es = pd["carriers"]["e"]
        vi = {n: k for k, n in enumerate(vs)}
        s, t = pd["actions"]["s"], pd["actions"]["t"]
        G = (len(vs), tuple((vi[s[e]], vi[t[e]]) for e in es))
        return G, vi, {n: k for k, n in enumerate(es)}

    G, _, _ = obj(md["source"])
    H, tvi, tei = obj(md["target"])
    vmap = tuple(tvi[md["components"]["v"][n]] for n in md["source"]["carriers"]["v"])
    emap = tuple(tei[md["components"]["e"][n]] for n in md["source"]["carriers"]["e"])
    return (G, H, vmap, emap)


def i1_set():
    from minmodel.factorization import GeneratingSet

    return GeneratingSet("I1", (fsmap(0, 1, ()),))


def i2_set():
    from minmodel.factorization import GeneratingSet

    return GeneratingSet("I2", (fsmap(0, 1, ()), fsmap(2, 1, (0, 0))))


def ig_set():
    from minmodel.factorization import GeneratingSet

    cP = PresheafMap(gph(0, []), gph(1, []), {})
    cA = PresheafMap(
        gph(2, []), gph(2, [(0, 1)]), {"v": {"v0": "v0", "v1": "v1"}}
    )
    return GeneratingSet("IG", (cP, cA))


def is_surjective(f: PresheafMap) -> bool:
    return all(
        len(set(col)) == len(f.target.carriers[o])
        for o, col in enumerate(f._comp)
    )


def is_bijective(f: PresheafMap) -> bool:
    return is_surjective(f) and all(
        len(set(col)) == len(col) for col in f._comp
    )


def brute_iso_class(sizes, relabel):
    """The least relabelling of a tuple-encoded map over every permutation
    of each of its carriers; `relabel` applies one tuple of permutations."""
    perms = [itertools.permutations(range(n)) for n in sizes]
    return min(relabel(*ps) for ps in itertools.product(*perms))


def graph_iso_class(f):
    """Brute-force class of an oracle graph map (G, H, vmap, emap): the least
    relabelling over every permutation of its four carriers."""
    (nv, ge), (nw, he), vmap, emap = f

    def relabel(pv, pe, qv, qe):
        g_edges, h_edges = [None] * len(ge), [None] * len(he)
        for k, (s, t) in enumerate(ge):
            g_edges[pe[k]] = (pv[s], pv[t])
        for k, (s, t) in enumerate(he):
            h_edges[qe[k]] = (qv[s], qv[t])
        vs, es = [0] * nv, [0] * len(ge)
        for x, y in enumerate(vmap):
            vs[pv[x]] = qv[y]
        for k, y in enumerate(emap):
            es[pe[k]] = qe[y]
        return tuple(g_edges), tuple(h_edges), tuple(vs), tuple(es)

    return (nv, nw, brute_iso_class((nv, len(ge), nw, len(he)), relabel))


def map_iso_class(f: PresheafMap):
    """Brute-force class of an engine map over any base: the least
    relabelling of both ends' actions and of f's components over every
    permutation of each carrier of its source and target."""
    X, Y = f.source, f.target
    base = X.base
    n = len(base.objects)
    sizes = tuple(len(c) for c in X.carriers + Y.carriers)

    def relabel(*perms):
        def actions(Z, p):
            out = []
            for m in base.nonidentity:
                a, b = base._dom[m], base._cod[m]
                row = [0] * len(Z.carriers[b])
                for x, y in enumerate(Z._act[m]):
                    row[p[b][x]] = p[a][y]
                out.append(tuple(row))
            return tuple(out)

        p, q = perms[:n], perms[n:]
        comp = []
        for o, col in enumerate(f._comp):
            row = [0] * len(col)
            for x, y in enumerate(col):
                row[p[o][x]] = q[o][y]
            comp.append(tuple(row))
        return actions(X, p), actions(Y, q), tuple(comp)

    return sizes, brute_iso_class(sizes, relabel)


def maps_between_cofibrant(U):
    """Every map between cofibrant objects of the universe U, hom-set by
    hom-set in the order of `U.cofibrant`."""
    return [f for A in U.cofibrant for B in U.cofibrant for f in U.hom(A, B)]


def cofibrations_between_cofibrant(U):
    """The maps of `maps_between_cofibrant(U)` that `U.is_cof` answers YES."""
    return [f for f in maps_between_cofibrant(U) if U.is_cof(f) is Verdict.YES]


def trivial_fibrations_between_cofibrant(U):
    """The maps of `maps_between_cofibrant(U)` that are trivial fibrations,
    decided lazily, one at a time as the caller walks them."""
    return (f for f in maps_between_cofibrant(U) if U.is_triv_fib(f))
