"""Layer spans recorded from outside the program.

`Tracer.install` wraps the engine functions listed in `TARGETS`.  Each
wrapped function is rebound in every `minmodel` module that holds it,
whether as a module global (names imported with `from .x import f`) or as
a value of a module-level dict (the CLI's command tables); methods are
replaced on their class.  A generator function is timed on each
resumption, so lazy enumeration counts against the generator and not
against whatever consumes it.

Spans nest on one stack.  A span's self time is its duration minus the
durations of the spans directly inside it.  Spans are aggregated in memory
per name as [calls, items, self seconds, total seconds] and read out with
`table()` at the end; `items` counts what the span produced (tables
yielded, diagonals found, attachments made, ...).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

CALL, GEN, RLP = "call", "gen", "rlp"


def _found(result, args):
    return result is not None


def _fuel_used(result, args):
    return result.fuel_used


def _objects(result, args):
    return len(args[0].objects)


# (module, attribute, span name, kind, item counter)
TARGETS = (
    ("workspace", "parse_workspace", "workspace.parse", CALL, None),
    ("presheaf", "_enumerate_components", "presheaf.enum", GEN, None),
    ("presheaf", "hom_enumerate", "presheaf.hom", GEN, None),
    ("presheaf", "compose", "presheaf.compose", CALL, None),
    ("presheaf", "is_retract_of", "presheaf.retract", CALL, None),
    ("presheaf", "find_retraction", "presheaf.retract", CALL, None),
    ("colimits", "pushout", "colimits.pushout", CALL, None),
    ("colimits", "coproduct", "colimits.coproduct", CALL, None),
    ("lifting", "LiftingProblem.__post_init__", "lifting.problem", CALL, None),
    ("lifting", "solve_lifting", "lifting.solve", CALL, _found),
    ("lifting", "solve_lifting_up_to", "lifting.upto_solve", CALL, _found),
    ("lifting", "square_enumerate", "lifting.square_enum", GEN, None),
    ("lifting", "unsolvable_squares", "lifting.unsolvable", GEN, None),
    ("lifting", "has_rlp", "lifting.rlp", RLP, None),
    ("lifting", "has_llp", "lifting.rlp", RLP, None),
    ("lifting", "has_rlp_up_to", "lifting.rlp", RLP, None),
    ("lifting", "find_unliftable_square_up_to", "lifting.upto", CALL, None),
    ("factorization", "soa_factorize", "factorization.soa", CALL, _fuel_used),
    ("factorization", "in_cof", "factorization.in_cof", CALL, None),
    ("factorization", "in_inj", "factorization.in_inj", CALL, None),
    ("homotopy", "cylinder", "homotopy.cylinder", CALL, None),
    ("homotopy", "homotopic", "homotopy.homotopic", CALL, None),
    ("homotopy", "is_strong_deformation_retract", "homotopy.sdr", CALL, None),
    ("analyzer", "BoundedUniverse.__init__", "analyzer.universe", CALL, _objects),
    ("analyzer", "is_pure", "analyzer.pure", CALL, None),
    ("analyzer", "is_weak_equivalence", "analyzer.we", CALL, None),
    ("analyzer", "build_jset", "analyzer.check", CALL, None),
    ("analyzer", "check_appropriate", "analyzer.check", CALL, None),
    ("analyzer", "check_main_condition", "analyzer.check", CALL, None),
    ("analyzer", "check_properness_condition", "analyzer.check", CALL, None),
    ("analyzer", "verify_axioms", "analyzer.check", CALL, None),
    ("analyzer", "classify_map", "analyzer.check", CALL, None),
    ("analyzer", "enumerate_weak_equivalences", "analyzer.check", CALL, None),
    ("cli", "run", "cli.run", CALL, None),
    ("cli", "render", "cli.render", CALL, None),
    ("cli", "_cmd_validate", "cli.command", CALL, None),
    ("cli", "_cmd_factor", "cli.command", CALL, None),
    ("cli", "_cmd_cylinder", "cli.command", CALL, None),
    ("cli", "_cmd_homotopic", "cli.command", CALL, None),
    ("cli", "_cmd_classify", "cli.command", CALL, None),
    ("cli", "_cmd_checker", "cli.command", CALL, None),
)

# Not recursed into: render calls itself once per nested report value.
FLAT = frozenset({"cli.render"})


class Tracer:
    def __init__(self) -> None:
        # open spans as [name, seconds spent in direct child spans]
        self._stack: list[list] = []
        self._stats: dict[str, list] = {}

    def table(self) -> dict[str, list]:
        return {name: list(stat) for name, stat in self._stats.items()}

    def _stat(self, name: str) -> list:
        return self._stats.setdefault(name, [0, 0, 0.0, 0.0])

    def _close(self, frame: list, stat: list, start: float) -> None:
        took = time.perf_counter() - start
        self._stack.pop()
        stat[2] += took - frame[1]
        stat[3] += took
        if self._stack:
            self._stack[-1][1] += took

    def wrap_call(self, fn, name: str, count=None):
        stack, stat, close = self._stack, self._stat(name), self._close
        flat = name in FLAT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if flat and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, stat, start)
            stat[0] += 1
            if count is not None:
                stat[1] += count(result, args)
            return result

        return wrapper

    def wrap_gen(self, fn, name: str):
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return self._resume(fn(*args, **kwargs), name, stat)

        return wrapper

    def _resume(self, gen, name: str, stat: list):
        stack, close = self._stack, self._close
        while True:
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                close(frame, stat, start)
            stat[1] += 1
            yield item

    def wrap_rlp(self, fn, name: str):
        """A lifting-property call; items count the calls answered without
        enumerating a single square (memo hits)."""
        squares = self._stat("lifting.square_enum")
        timed = self.wrap_call(fn, name)
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = squares[0]
            result = timed(*args, **kwargs)
            stat[1] += squares[0] == before
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; the `minmodel` modules must be imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "minmodel" or n.startswith("minmodel.")]
        for module, attr, name, kind, count in TARGETS:
            home = importlib.import_module(f"minmodel.{module}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            original = getattr(owner, method)
            if kind == GEN:
                wrapped = self.wrap_gen(original, name)
            elif kind == RLP:
                wrapped = self.wrap_rlp(original, name)
            else:
                wrapped = self.wrap_call(original, name, count)
            if owner_name:
                setattr(owner, method, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is original:
                                value[k] = wrapped
