"""Line-oriented workspace files and report serialization of core values.

A workspace collects one base category, named presheaves, named maps, and
named generating sets, plus run configuration.  The format is section
based and diff friendly:

    # comment
    [config]
    fuel: 1024
    bound: 3            # or per object:  bound: v=2 e=2
    cross-check: off

    [base]
    objects: v e
    morphism s: v -> e
    morphism t: v -> e

    [presheaf A]
    v: x0 x1
    e: a
    action s: a->x0
    action t: a->x1

    [map cA : dA -> A]
    component v: x0->x0 x1->x1

    [genset IG]
    maps: cP cA

Carrier lines may be omitted for empty carriers, component lines for
components on empty carriers.  Sections may appear in any order; names
must be unique per kind.  A header's keyword ends at its first
whitespace, so [presheafA] is an unknown section, not presheaf A.  There
is one [base] section and at most one [config] section, which gives each
key at most once.  A repeated section is a parse error at its line, and so
is a presheaf or map that no section defines.  A presheaf or map whose
contents are inconsistent raises its validation error with the section and
its header's line in front.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

from .errors import ParseError, UnknownName, ValidationError
from .factorization import GeneratingSet
from .presheaf import MAX_CARRIER_SIZE, BaseCategory, Presheaf, PresheafMap, load_base


@dataclass
class WorkspaceConfig:
    fuel: int = 1024
    bound: dict[str, int] | int = 3
    cross_check: bool = False


@dataclass
class Workspace:
    name: str
    base: BaseCategory
    presheaves: dict[str, Presheaf]
    maps: dict[str, PresheafMap]
    gensets: dict[str, GeneratingSet]
    config: WorkspaceConfig = field(default_factory=WorkspaceConfig)

    def presheaf(self, name: str) -> Presheaf:
        got = self.presheaves.get(name)
        if got is None:
            raise UnknownName(f"no presheaf named {name!r}")
        return got

    def map(self, name: str) -> PresheafMap:
        got = self.maps.get(name)
        if got is None:
            raise UnknownName(f"no map named {name!r}")
        return got

    def genset(self, name: str) -> GeneratingSet:
        got = self.gensets.get(name)
        if got is None:
            raise UnknownName(f"no generating set named {name!r}")
        return got


def parse_bound(text: str) -> dict[str, int] | int:
    """A bare integer, or per-object assignments like "v=2 e=2"."""
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty bound")
    if len(parts) == 1 and "=" not in parts[0]:
        return int(parts[0])
    out = {}
    for part in parts:
        obj, _, num = part.partition("=")
        if not obj or not num:
            raise ValueError(f"bad bound entry {part!r}")
        if obj in out:
            raise ValueError(f"bound names {obj!r} twice")
        out[obj] = int(num)
    return out


def parse_fuel(text: str) -> int:
    """A fuel budget: an integer that is at least 0."""
    try:
        fuel = int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None
    if fuel < 0:
        raise ValueError(f"must be at least 0, got {fuel}")
    return fuel


def check_bound(bound: dict[str, int] | int, objects: Sequence[str]) -> None:
    """Raise ValueError unless every value runs from 0 to MAX_CARRIER_SIZE
    and a per-object bound names exactly the base objects."""
    per_object = bound if isinstance(bound, dict) else dict.fromkeys(objects, bound)
    if sorted(per_object) != sorted(objects):
        raise ValueError(
            f"bound must name each base object once ({' '.join(objects)}), "
            f"got {' '.join(per_object)}"
        )
    if any(not 0 <= n <= MAX_CARRIER_SIZE for n in per_object.values()):
        raise ValueError(f"bound values must run from 0 to {MAX_CARRIER_SIZE}")


def _split_sections(text: str):
    """Yields (header, first line number, lines with numbers)."""
    header = None
    start = 0
    body: list[tuple[int, str]] = []
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", line=n)
            if header is not None:
                yield header, start, body
            header = line[1:-1].strip()
            start = n
            body = []
        else:
            if header is None:
                raise ParseError(f"content before any section: {line!r}", line=n)
            body.append((n, line))
    if header is not None:
        yield header, start, body


def _pairs(text: str, line: int) -> dict[str, str]:
    out = {}
    for token in text.split():
        a, sep, b = token.partition("->")
        if not sep or not a or not b:
            raise ParseError(f"expected elem->elem pairs, got {token!r}", line=line)
        if a in out:
            raise ParseError(f"duplicate assignment for {a!r}", line=line)
        out[a] = b
    return out


def _located(err: ValidationError, section: str, line: int) -> ValidationError:
    """`err` again, of the same class, with the section it arose in and the
    line of that section's header in front of its message."""
    located = type(err)(f"line {line}: {section}: {err}")
    located.section, located.line = section, line
    return located


def parse_workspace_text(text: str, name: str = "workspace") -> Workspace:
    base: BaseCategory | None = None
    base_lines: list[str] = []
    config = WorkspaceConfig()
    presheaf_sections: list[tuple[str, int, list[tuple[int, str]]]] = []
    map_sections: list[tuple[str, int, list[tuple[int, str]]]] = []
    genset_sections: list[tuple[str, int, list[tuple[int, str]]]] = []

    seen_base = seen_config = False
    base_numbers: list[int] = []
    bound_line = None
    for header, start, body in _split_sections(text):
        keyword, *rest = header.split(maxsplit=1) or [""]
        title = rest[0] if rest else ""
        if header == "config":
            if seen_config:
                raise ParseError("more than one [config] section", line=start)
            seen_config = True
            keys: set[str] = set()
            for n, line in body:
                key, sep, value = line.partition(":")
                key, value = key.strip(), value.strip()
                if not sep or not value:
                    raise ParseError(f"expected key: value, got {line!r}", line=n)
                if key in keys:
                    raise ParseError(f"config key {key!r} given twice", line=n)
                keys.add(key)
                if key == "fuel":
                    try:
                        config.fuel = parse_fuel(value)
                    except ValueError as bad:
                        raise ParseError(f"fuel {bad}", line=n)
                elif key == "bound":
                    try:
                        config.bound = parse_bound(value)
                    except ValueError as bad:
                        raise ParseError(str(bad), line=n)
                    bound_line = n
                elif key == "cross-check":
                    if value not in ("on", "off", "true", "false"):
                        raise ParseError(
                            f"cross-check must be on or off, got {value!r}", line=n
                        )
                    config.cross_check = value in ("on", "true")
                else:
                    raise ParseError(f"unknown config key {key!r}", line=n)
        elif header == "base":
            if seen_base:
                raise ParseError("more than one [base] section", line=start)
            seen_base = True
            base_lines = [line for _, line in body]
            base_numbers = [n for n, _ in body]
        elif keyword == "presheaf":
            if not title:
                raise ParseError("presheaf section without a name", line=start)
            presheaf_sections.append((title, start, body))
        elif keyword == "map":
            map_sections.append((title, start, body))
        elif keyword == "genset":
            if not title:
                raise ParseError("genset section without a name", line=start)
            genset_sections.append((title, start, body))
        else:
            raise ParseError(f"unknown section {header!r}", line=start)

    if not seen_base:
        raise ParseError("missing [base] section", line=1)
    try:
        base = load_base("\n".join(base_lines))
    except ParseError as err:
        # map back to file coordinates
        if err.line is not None and 1 <= err.line <= len(base_numbers):
            raise ParseError(str(err).partition(": ")[2], line=base_numbers[err.line - 1])
        raise
    if bound_line is not None:
        try:
            check_bound(config.bound, base.objects)
        except ValueError as bad:
            raise ParseError(str(bad), line=bound_line)

    presheaves: dict[str, Presheaf] = {}
    for pname, start, body in presheaf_sections:
        if pname in presheaves:
            raise ParseError(f"presheaf {pname!r} defined twice", line=start)
        carriers: dict[str, list[str]] = {}
        actions: dict[str, dict[str, str]] = {}
        for n, line in body:
            head, sep, rest = line.partition(":")
            head, rest = head.strip(), rest.strip()
            if not sep:
                raise ParseError(f"expected a colon in {line!r}", line=n)
            if head.startswith("action "):
                mor = head[len("action "):].strip()
                if mor not in base._dom:
                    raise ParseError(f"unknown morphism {mor!r}", line=n)
                if mor in actions:
                    raise ParseError(f"duplicate action for {mor!r}", line=n)
                actions[mor] = _pairs(rest, n)
            elif head in base._obj_index:
                if head in carriers:
                    raise ParseError(f"duplicate carrier for {head!r}", line=n)
                carriers[head] = rest.split()
            else:
                raise ParseError(f"unknown base object {head!r}", line=n)
        try:
            presheaves[pname] = Presheaf(
                base, {o: carriers.get(o, []) for o in base.objects}, actions
            )
        except ValidationError as err:
            raise _located(err, f"presheaf {pname}", start) from err

    maps: dict[str, PresheafMap] = {}
    for header, start, body in map_sections:
        mention, arrow, dst = header.partition("->")
        mname, colon, src = mention.partition(":")
        mname, src, dst = mname.strip(), src.strip(), dst.strip()
        if not arrow or not colon or not mname or not src or not dst:
            raise ParseError(
                f"map header must read NAME : SRC -> DST, got {header!r}",
                line=start,
            )
        if mname in maps:
            raise ParseError(f"map {mname!r} defined twice", line=start)
        for end in (src, dst):
            if end not in presheaves:
                raise ParseError(f"no presheaf named {end!r}", line=start)
        components: dict[str, dict[str, str]] = {}
        for n, line in body:
            head, sep, rest = line.partition(":")
            head, rest = head.strip(), rest.strip()
            if not sep or not head.startswith("component "):
                raise ParseError(
                    f"expected component OBJ: pairs, got {line!r}", line=n
                )
            obj = head[len("component "):].strip()
            if obj not in base._obj_index:
                raise ParseError(f"unknown base object {obj!r}", line=n)
            if obj in components:
                raise ParseError(f"duplicate component for {obj!r}", line=n)
            components[obj] = _pairs(rest, n)
        try:
            maps[mname] = PresheafMap(presheaves[src], presheaves[dst], components)
        except ValidationError as err:
            raise _located(err, f"map {mname}", start) from err

    gensets: dict[str, GeneratingSet] = {}
    for gname, start, body in genset_sections:
        if gname in gensets:
            raise ParseError(f"generating set {gname!r} defined twice", line=start)
        members: list[PresheafMap] = []
        for n, line in body:
            key, sep, rest = line.partition(":")
            if not sep or key.strip() != "maps":
                raise ParseError(f"expected maps: NAME..., got {line!r}", line=n)
            for token in rest.split():
                if token not in maps:
                    raise ParseError(f"no map named {token!r}", line=n)
                members.append(maps[token])
        gensets[gname] = GeneratingSet(gname, tuple(members))

    return Workspace(name, base, presheaves, maps, gensets, config)


def parse_workspace(path: str) -> Workspace:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as bad:
        line = data.count(b"\n", 0, bad.start) + 1
        raise ParseError(f"byte {data[bad.start]:#04x} is not UTF-8 text", line=line)
    return parse_workspace_text(text, os.path.basename(path))


def _bound_text(bound: dict[str, int] | int) -> str:
    if isinstance(bound, int):
        return str(bound)
    return " ".join(f"{o}={n}" for o, n in bound.items())


def serialize_workspace(ws: Workspace) -> str:
    out: list[str] = ["[config]"]
    out.append(f"fuel: {ws.config.fuel}")
    out.append(f"bound: {_bound_text(ws.config.bound)}")
    out.append(f"cross-check: {'on' if ws.config.cross_check else 'off'}")
    out.append("")
    out.append("[base]")
    out.append("objects: " + " ".join(ws.base.objects))
    for m in ws.base.nonidentity:
        out.append(f"morphism {m}: {ws.base.dom(m)} -> {ws.base.cod(m)}")
    for (f, g), h in sorted(ws.base.composition.items()):
        fid = f in ws.base.identities.values()
        gid = g in ws.base.identities.values()
        if not fid and not gid:
            out.append(f"compose {f} ; {g} = {h}")
    for pname, X in ws.presheaves.items():
        out.append("")
        out.append(f"[presheaf {pname}]")
        for o, obj in enumerate(ws.base.objects):
            if X.carriers[o]:
                out.append(f"{obj}: " + " ".join(X.carriers[o]))
        for m in ws.base.nonidentity:
            act = X.action(m)
            if act:
                out.append(
                    f"action {m}: " + " ".join(f"{a}->{b}" for a, b in act.items())
                )
    names = {X: n for n, X in ws.presheaves.items()}
    for mname, f in ws.maps.items():
        out.append("")
        src, dst = names.get(f.source), names.get(f.target)
        out.append(f"[map {mname} : {src} -> {dst}]")
        for obj in ws.base.objects:
            comp = f.component(obj)
            if comp:
                out.append(
                    f"component {obj}: "
                    + " ".join(f"{a}->{b}" for a, b in comp.items())
                )
    for gname, gs in ws.gensets.items():
        mapnames = {f: n for n, f in ws.maps.items()}
        out.append("")
        out.append(f"[genset {gname}]")
        out.append("maps: " + " ".join(mapnames[f] for f in gs.maps))
    return "\n".join(out) + "\n"


def presheaf_data(X: Presheaf) -> dict:
    """Complete, order-preserving description; re-validates standalone."""
    base = X.base
    return {
        "carriers": {o: list(X.carriers[k]) for k, o in enumerate(base.objects)},
        "actions": {m: dict(X.action(m)) for m in base.nonidentity},
    }


def map_data(f: PresheafMap) -> dict:
    return {
        "source": presheaf_data(f.source),
        "target": presheaf_data(f.target),
        "components": {o: dict(f.component(o)) for o in f.source.base.objects},
    }
