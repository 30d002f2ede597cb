"""Workspace parsing, serialization, and the command line surface."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from minmodel import cli
from minmodel.errors import ParseError, UnknownName, ValidationError
from minmodel.workspace import (
    check_bound,
    map_data,
    parse_bound,
    parse_workspace,
    parse_workspace_text,
    presheaf_data,
    serialize_workspace,
)

from helpers import fixture

FI1 = fixture("finset_i1.ws")
FI2 = fixture("finset_i2.ws")
GIG = fixture("gph_ig.ws")


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = cli.run(list(args) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report, out.read_bytes() if out.exists() else b""


# ---------------------------------------------------------------- parsing


def test_fixture_names_and_config():
    ws = parse_workspace(FI1)
    assert ws.name == "finset_i1.ws"
    assert sorted(ws.presheaves) == ["0", "1", "2", "3"]
    assert sorted(ws.maps) == ["collapse", "i01", "iota0", "iota1"]
    assert list(ws.gensets) == ["I1"]
    assert ws.config.fuel == 1024
    assert ws.config.bound == 3
    assert ws.config.cross_check is False
    assert len(ws.genset("I1").maps) == 1


def test_graph_fixture_contents():
    ws = parse_workspace(GIG)
    assert sorted(ws.presheaves) == ["0", "A", "P", "dA"]
    assert ws.config.bound == {"v": 2, "e": 2}
    A = ws.presheaf("A")
    assert A.carrier("v") == ("p", "q")
    assert A.action("s") == {"a": "p"}
    cA = ws.map("cA")
    assert cA.source == ws.presheaf("dA")
    assert all(
        m is ws.map(n) for n, m in zip(("cP", "cA"), ws.genset("IG").maps)
    )


def test_unknown_names_raise():
    ws = parse_workspace(FI1)
    with pytest.raises(UnknownName):
        ws.presheaf("missing")
    with pytest.raises(UnknownName):
        ws.map("missing")
    with pytest.raises(UnknownName):
        ws.genset("missing")


def test_section_order_is_free():
    text = (
        "[map f : B -> B]\n"
        "component x: m->m\n"
        "[genset G]\n"
        "maps: f\n"
        "[presheaf B]\n"
        "x: m\n"
        "[base]\n"
        "objects: x\n"
    )
    ws = parse_workspace_text(text, name="scratch")
    assert ws.map("f").is_identity()
    assert ws.config.fuel == 1024  # defaults apply without a config section


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_workspace_text("stray line\n[base]\nobjects: x\n", name="w")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_workspace_text("[base]\nobjects: x\n[presheaf P\nx: a\n", name="w")
    assert err.value.line == 3
    # errors inside the base section come back in file coordinates
    with pytest.raises(ParseError) as err:
        parse_workspace_text("[base]\nobjects: x\nmorphism broken\n", name="w")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_workspace_text(
            "[base]\nobjects: x\n[config]\nbound: zebra\n", name="w"
        )
    assert err.value.line == 4


# workspaces whose fault is a repeated section or a name no section
# defines, with the line the fault sits on
_DUPLICATES_AND_DANGLING = (
    ("base2.ws", b"[base]\nobjects: x\n[presheaf P]\nx: a\n[base]\nobjects: y\n", 5),
    (
        "presheaf2.ws",
        b"[base]\nobjects: x\n[presheaf P]\nx: a\n[presheaf P]\nx: b\n",
        5,
    ),
    (
        "map2.ws",
        b"[base]\nobjects: x\n[presheaf P]\nx: a\n"
        b"[map f : P -> P]\ncomponent x: a->a\n[map f : P -> P]\n",
        7,
    ),
    (
        "genset2.ws",
        b"[base]\nobjects: x\n[presheaf P]\nx: a\n[map f : P -> P]\n"
        b"component x: a->a\n[genset G]\nmaps: f\n[genset G]\nmaps: f\n",
        9,
    ),
    (
        "dangling_end.ws",
        b"[base]\nobjects: x\n[presheaf P]\nx: a\n[map f : P -> Q]\n",
        5,
    ),
    (
        "dangling_member.ws",
        b"[base]\nobjects: x\n[genset G]\n# members\nmaps: f\n",
        5,
    ),
)


_GRAPH_BASE = b"[base]\nobjects: v e\nmorphism s: v -> e\nmorphism t: v -> e\n"

# (file name, bytes, error class, section, line of its header)
_CONTENT_FAULTS = (
    (
        "action.ws",
        _GRAPH_BASE
        + b"[presheaf P]\nv: p\n"
        + b"[presheaf Q]\nv: a\ne: p q\naction s: p->a\naction t: p->a q->a\n",
        "MissingAction",
        "presheaf Q",
        7,
    ),
    (
        "natural.ws",
        _GRAPH_BASE
        + b"[presheaf A]\nv: p q\ne: a\naction s: a->p\naction t: a->q\n"
        + b"[map swap : A -> A]\ncomponent v: p->q q->p\ncomponent e: a->a\n",
        "NaturalityViolation",
        "map swap",
        10,
    ),
)


def test_a_morphism_with_an_empty_name_is_a_parse_error(tmp_path, capsys):
    # no action line could name it, so it is refused at its own line
    data = _GRAPH_BASE + b"morphism : v -> e\n[presheaf P]\nv: p\n"
    with pytest.raises(ParseError, match="expected 'morphism NAME: OBJ -> OBJ'") as err:
        parse_workspace_text(data.decode(), name="w")
    assert err.value.line == 5
    ws = tmp_path / "unnamed.ws"
    ws.write_bytes(data)
    assert cli.run(["validate", str(ws)]) == 3
    assert "line 5:" in capsys.readouterr().err


def test_duplicate_and_dangling_sections():
    for name, data, line in _DUPLICATES_AND_DANGLING:
        with pytest.raises(ParseError) as err:
            parse_workspace_text(data.decode(), name=name)
        assert err.value.line == line, name
    with pytest.raises(ParseError):
        parse_workspace_text("[presheaf P]\nx: a\n", name="w")  # no base


def test_component_validation_failures_name_the_square():
    text = (
        "[base]\n"
        "objects: v e\n"
        "morphism s: v -> e\n"
        "morphism t: v -> e\n"
        "[presheaf A]\n"
        "v: p q\n"
        "e: a\n"
        "action s: a->p\n"
        "action t: a->q\n"
        "[map bad : A -> A]\n"
        "component v: p->q q->p\n"
        "component e: a->a\n"
    )
    with pytest.raises(ValidationError) as err:
        parse_workspace_text(text, name="w")
    assert "s" in str(err.value) or "t" in str(err.value)


def test_content_faults_name_their_section_and_line():
    for name, data, error, section, line in _CONTENT_FAULTS:
        with pytest.raises(ValidationError) as err:
            parse_workspace_text(data.decode(), name=name)
        assert type(err.value).__name__ == error, name
        assert str(err.value).startswith(f"line {line}: {section}: "), name
        assert (err.value.section, err.value.line) == (section, line), name


def test_bound_spellings():
    assert parse_bound("3") == 3
    assert parse_bound("v=2 e=2") == {"v": 2, "e": 2}
    assert parse_bound("v=2,e=1") == {"v": 2, "e": 1}
    for bad in ("", "v=", "v=x", "three", "v=1 v=2"):
        with pytest.raises(ValueError):
            parse_bound(bad)
    check_bound(0, ("v", "e"))
    check_bound({"e": 1, "v": 2}, ("v", "e"))
    for bad in (-1, {"v": 2}, {"v": 2, "e": 2, "x": 1}, {"v": 2, "e": -1}):
        with pytest.raises(ValueError):
            check_bound(bad, ("v", "e"))


def test_round_trip_through_the_serializer():
    for path in (FI1, FI2, GIG):
        ws = parse_workspace(path)
        text = serialize_workspace(ws)
        again = parse_workspace_text(text, name=ws.name)
        assert again.base == ws.base
        assert again.presheaves == ws.presheaves
        assert again.maps == ws.maps
        assert {k: v.maps for k, v in again.gensets.items()} == {
            k: v.maps for k, v in ws.gensets.items()
        }
        assert again.config == ws.config
        assert serialize_workspace(again) == text


def test_data_views_round_trip_names():
    ws = parse_workspace(GIG)
    pd = presheaf_data(ws.presheaf("A"))
    assert pd["carriers"] == {"v": ["p", "q"], "e": ["a"]}
    assert pd["actions"]["t"] == {"a": "q"}
    md = map_data(ws.map("cA"))
    assert md["components"]["v"] == {"p": "p", "q": "q"}
    assert md["source"] == presheaf_data(ws.presheaf("dA"))


# ---------------------------------------------------------------- commands


def test_validate_reports_the_inventory(tmp_path):
    code, report, _ = run_cli(["validate", FI1], tmp_path)
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["details"]["presheaves"] == ["0", "1", "2", "3"]
    assert report["details"]["config"]["bound"] == 3
    assert report["parameters"]["workspace"] == "finset_i1.ws"
    assert set(report) == {
        "bounds",
        "command",
        "counterexample",
        "details",
        "fuel_used",
        "parameters",
        "timing",
        "verdict",
        "witnesses",
    }


def test_validate_flags_semantic_failures(tmp_path):
    bad = tmp_path / "bad.ws"
    bad.write_text(
        "[base]\nobjects: x\n"
        "[presheaf P]\nx: a\n"
        "[map f : P -> P]\ncomponent x: a->b\n"
    )
    code, report, _ = run_cli(["validate", str(bad)], tmp_path)
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["counterexample"]["error"] == "ValidationError"
    assert report["counterexample"]["section"] == "map f"
    assert report["counterexample"]["line"] == 5
    for name, data, error, section, line in _CONTENT_FAULTS:
        ws = tmp_path / name
        ws.write_bytes(data)
        code, report, _ = run_cli(["validate", str(ws)], tmp_path)
        assert code == 1, name
        got = report["counterexample"]
        assert (got["error"], got["section"], got["line"]) == (error, section, line)
        assert got["detail"].startswith(f"line {line}: {section}: "), name


def test_syntax_errors_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.ws"
    bad.write_text("[base]\nobjects: x\nnonsense\n")
    assert cli.run(["validate", str(bad)]) == 3
    assert cli.run(["frobnicate", FI1]) == 3
    assert cli.run(["factor", FI1, "collapse"]) == 3
    assert cli.run(["factor", FI1, "collapse", "I1", "--bound"]) == 3
    assert cli.run(["factor", FI1, "collapse", "I1", "--fuel", "lots"]) == 3
    assert cli.run(["factor", FI1, "i01", "I1", "--fuel", "-5"]) == 3
    assert cli.run(["factor", FI1, "collapse", "I1", "-x"]) == 3
    assert cli.run(["homotopic", FI1, "iota0", "I1"]) == 3
    assert cli.run(["classify", FI1, "missing", "I1"]) == 3
    err = capsys.readouterr().err
    assert "usage" in err.lower() or "error" in err.lower()
    # a --bound must name every base object once, nothing else, all >= 0
    for spec in ("y=2", "x=1,zz=4", "x=1,x=2", "-1", "x=-1", "65", "x=65"):
        assert cli.run(["enumerate-we", FI1, "I1", "--bound", spec]) == 3, spec
        assert "error: --bound: " in capsys.readouterr().err, spec
    # workspace faults come back with their line numbers
    for name, data, line in (
        ("fuel.ws", b"[config]\nfuel: abc\n[base]\nobjects: x\n", 2),
        ("negfuel.ws", b"[base]\nobjects: x\n[config]\nfuel: -5\n", 4),
        ("bound.ws", b"[base]\nobjects: x\n[config]\nbound: y=2\n", 4),
        ("big.ws", b"[base]\nobjects: x\n[config]\nbound: 65\n", 4),
        ("bytes.ws", b"[base]\nobjects: x\n# caf\xe9\n", 3),
        # a config key or section may be given once, like a flag
        ("bound2.ws", b"[base]\nobjects: x\n[config]\nbound: 1\nbound: 2\n", 5),
        ("fuel2.ws", b"[config]\nfuel: 3\nfuel: 4\n[base]\nobjects: x\n", 3),
        (
            "config2.ws",
            b"[config]\nfuel: 3\n[base]\nobjects: x\n[config]\nbound: 2\n",
            5,
        ),
        # so is a carrier line, even an empty one
        ("carrier2.ws", b"[base]\nobjects: v\n[presheaf A]\nv:\nv: x0 x1\n", 5),
        ("carrier0.ws", b"[base]\nobjects: v\n[presheaf A]\nv:\nv:\n", 5),
        # so is a [base] section, and each name of a kind
        *_DUPLICATES_AND_DANGLING,
        # a section keyword ends at whitespace, so a glued name is unknown
        ("presheaf_glued.ws", b"[base]\nobjects: x\n[presheafA]\nx: a\n", 3),
        ("genset_glued.ws", b"[base]\nobjects: x\n[gensetI]\nmaps:\n", 3),
        (
            "map_glued.ws",
            b"[base]\nobjects: x\n[presheaf A]\nx: a\n"
            b"[mapping : A -> A]\ncomponent x: a->a\n",
            5,
        ),
    ):
        ws = tmp_path / name
        ws.write_bytes(data)
        assert cli.run(["validate", str(ws)]) == 3, name
        assert f"line {line}:" in capsys.readouterr().err, name
    # content faults outside validate keep exit 3 and name their place
    for name, data, error, section, line in _CONTENT_FAULTS:
        ws = tmp_path / name
        ws.write_bytes(data)
        assert cli.run(["enumerate-we", str(ws), "IG"]) == 3, name
        assert f"error: {error}: line {line}: {section}: " in capsys.readouterr().err
    # each flag may be given once
    twice = ["factor", FI1, "collapse", "I1", "--fuel", "0", "--fuel", "1024"]
    assert cli.run(twice) == 3
    assert "error: --fuel given twice" in capsys.readouterr().err
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.run(["validate", FI1, "--out", str(first), "--out", str(second)]) == 3
    assert "error: --out given twice" in capsys.readouterr().err
    assert not first.exists() and not second.exists()
    # a report that cannot be written is not a "fail", and leaves no temp file
    missing = tmp_path / "nowhere" / "report.json"
    assert cli.run(["validate", FI1, "--out", str(missing)]) == 3
    assert "error: FileNotFoundError: " in capsys.readouterr().err
    folder = tmp_path / "folder"
    folder.mkdir()
    assert cli.run(["validate", FI1, "--out", str(folder)]) == 3
    assert "error: IsADirectoryError: " in capsys.readouterr().err
    assert not (tmp_path / "folder.tmp").exists()


_ONE_SET = b"[base]\nobjects: x\n[presheaf P]\nx: a b\n"


@pytest.mark.parametrize(
    "data, line, message",
    [
        (
            _GRAPH_BASE + b"[presheaf P]\nv: a\ne: p\naction s: p-\n",
            8,
            "expected elem->elem pairs, got 'p-'",
        ),
        (
            _ONE_SET + b"[map f : P -> P]\ncomponent x: a->a a->b\n",
            6,
            "duplicate assignment for 'a'",
        ),
        (b"[base]\nobjects: x\n[config]\ncross-check: maybe\n", 4,
         "cross-check must be on or off, got 'maybe'"),
        (_ONE_SET + b"[genset]\nmaps:\n", 5, "genset section without a name"),
        (
            _ONE_SET + b"[map f P -> P]\ncomponent x: a->a\n",
            5,
            "map header must read NAME : SRC -> DST, got 'f P -> P'",
        ),
        (_ONE_SET + b"[map f : P -> P]\ncomponent y: a->a\n", 6, "unknown base object 'y'"),
        (
            _ONE_SET + b"[map f : P -> P]\ncomponent x: a->a b->b\ncomponent x: a->b\n",
            7,
            "duplicate component for 'x'",
        ),
    ],
    ids=["pair", "assignment", "cross-check", "genset", "header",
         "object", "component"],
)
def test_workspace_parse_errors_exit_three_on_their_line(tmp_path, capsys, data, line, message):
    ws = tmp_path / "bad.ws"
    ws.write_bytes(data)
    assert cli.run(["validate", str(ws)]) == 3
    assert capsys.readouterr().err == f"error: ParseError: line {line}: {message}\n"


def test_oversized_universe_exits_three_at_once(capsys):
    start = time.monotonic()
    assert cli.run(["check-main", GIG, "IG", "--bound", "5"]) == 3
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert "error: SizeLimitExceeded: bound v=5 e=5 gives 11,358,809" in err
    assert "limit is 100,000" in err


_MAP = st.sampled_from(["i01", "iota0", "iota1", "collapse", "fold"])
_JUNK = st.sampled_from(
    ["", "zz", "rel", "I3", "-x", "--cross-check", "--out", "--fuel", "\u00e9"]
)


@st.composite
def _argv(draw):
    """A command and a finset fixture, then arguments of the command's
    shape or a token soup, then --fuel / --bound pairs."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    workspace, genset = draw(
        st.sampled_from([(FI1, "I1"), (FI2, "I2"), ("missing.ws", "I1")])
    )
    gen = st.just(genset)
    if command == "validate":
        shape = st.tuples()
    elif command == "homotopic":
        shape = st.tuples(_MAP, _MAP, gen) | st.tuples(
            _MAP, _MAP, st.just("rel"), _MAP, gen
        )
    elif command in ("factor", "cylinder", "classify"):
        shape = st.tuples(_MAP, gen)
    else:
        shape = st.tuples(gen)
    argv = [command, workspace, *draw(shape | st.lists(_MAP | gen | _JUNK, max_size=5))]
    for flag in draw(st.lists(st.sampled_from(["--fuel", "--bound"]), max_size=2)):
        argv += [flag, draw(st.sampled_from(["-1", "0", "2", "abc", "x=1"]))]
    return argv


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_argv(), out=st.sampled_from(["file", "missing-dir", "dir"]))
@example(argv=["homotopic", FI2, "iota0", "iota1", "I2"], out="file")
def test_every_argv_exits_with_a_contract_code(tmp_path, argv, out):
    target = {
        "file": tmp_path / "report.json",
        "missing-dir": tmp_path / "nowhere" / "report.json",
        "dir": tmp_path,
    }[out]
    code = cli.run(argv + ["--out", str(target)])
    assert code in (0, 1, 2, 3), argv
    if code == 1 and out == "file":
        # a genuine fail names what fails
        assert json.loads(target.read_text())["counterexample"] is not None, argv


_HEADERS = st.sampled_from([
    "[base]", "[config]", "[presheaf P]", "[presheaf Q]", "[presheaf]",
    "[map f : P -> Q]", "[map g : P -> P]", "[map f : P -> R]", "[map h P Q]",
    "[genset G]", "[genset]", "[other]", "[base",
])
_LINES = st.sampled_from([
    "objects: v e", "objects: x", "objects: v v", "objects:",
    "morphism s: v -> e", "morphism t: v -> e", "morphism u: e -> v",
    "morphism broken", "compose s ; u = id_v", "compose u ; s = w",
    "v: a b", "e: p", "x: a", "x: a a", "x:", "y: a",
    "action s: p->a", "action t: p->b", "action u: a->p", "action s: p->z",
    "component v: a->a b->b", "component e: p->p", "component x: a->a",
    "component x: a->", "maps: f g", "maps: f", "maps:",
    "fuel: 3", "fuel: -1", "fuel: lots", "bound: 2", "bound: v=1 e=1",
    "bound: 65", "cross-check: on", "cross-check: maybe", "colour: red",
    "# a comment", "", "nonsense",
])


_VALID = [
    "[base]", "objects: v e", "morphism s: v -> e", "morphism t: v -> e",
    "[presheaf P]", "v: a b", "e: p", "action s: p->a", "action t: p->b",
    "[presheaf Q]", "v: a", "e: q", "action s: q->a", "action t: q->a",
    "[map f : P -> Q]", "component v: a->a b->a", "component e: p->q",
    "[map g : P -> P]", "component v: a->a b->b", "component e: p->p",
    "[genset G]", "maps: f g", "[config]", "bound: 2", "fuel: 3",
]


@st.composite
def _workspace_text(draw):
    """A small valid workspace with a few lines dropped or repeated, and
    workspace-shaped lines, headers or free text inserted."""
    lines = list(_VALID)
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["drop", "repeat", "insert"]))
        if edit == "insert" or k == len(lines):
            lines.insert(k, draw(_HEADERS | _LINES | st.text(max_size=12)))
        elif edit == "drop":
            del lines[k]
        else:
            lines.insert(k, lines[k])
    return "\n".join(lines).encode("utf-8")


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.binary(max_size=120) | _workspace_text())
@example(data=_DUPLICATES_AND_DANGLING[0][1])
@example(data=_DUPLICATES_AND_DANGLING[1][1])
@example(data=b"[base]\nobjects: x\n[presheaf P]\nx: a a\n")
def test_every_workspace_validates_with_a_contract_code(tmp_path, data):
    # validate builds no universe, so any byte string answers at once
    ws = tmp_path / "fuzz.ws"
    ws.write_bytes(data)
    report = tmp_path / "report.json"
    code = cli.run(["validate", str(ws), "--out", str(report)])
    assert code in (0, 1, 3), data
    if code == 1:
        assert json.loads(report.read_text())["counterexample"] is not None, data


def test_factor_command(tmp_path):
    code, report, _ = run_cli(["factor", FI2, "fold", "I2"], tmp_path)
    assert code == 0
    assert report["verdict"] == "pass"
    assert len(report["witnesses"]) == 2
    assert report["details"]["status"] == "complete"
    assert len(report["details"]["log"]) == 1
    assert report["fuel_used"] == 1
    assert report["details"]["middle"]["carriers"] == {"x": ["l.a"]}


def test_factor_without_fuel_is_inconclusive(tmp_path):
    code, report, _ = run_cli(
        ["factor", FI1, "i01", "I1", "--fuel", "0"], tmp_path
    )
    assert code == 2
    assert report["verdict"] == "inconclusive"
    assert report["details"]["status"] == "fuel-exhausted"
    assert report["parameters"]["fuel"] == 0
    # constructions that raise when fuel runs out report it the same way
    for args in (
        ["cylinder", FI2, "i01", "I2"],
        ["homotopic", FI2, "iota0", "iota1", "I2"],
        ["verify-axioms", FI2, "I2"],
    ):
        code, report, _ = run_cli(args + ["--fuel", "0"], tmp_path)
        assert code == 2, args
        assert report["counterexample"]["error"] == "FuelExhausted", args


def test_cylinder_command(tmp_path):
    code, report, _ = run_cli(["cylinder", FI2, "i01", "I2"], tmp_path)
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["details"]["attachments"] == 1
    assert len(report["details"]["apex"]["carriers"]["x"]) == 1
    assert len(report["witnesses"]) == 3


def test_homotopic_verdicts(tmp_path):
    code, report, _ = run_cli(["homotopic", FI1, "iota0", "iota1", "I1"], tmp_path)
    assert code == 0 and report["verdict"] == "pass"
    assert len(report["witnesses"]) == 1
    code, report, _ = run_cli(["homotopic", FI2, "iota0", "iota1", "I2"], tmp_path)
    assert code == 1 and report["verdict"] == "fail"
    assert report["details"] == {"homotopic": False}
    # both ends as one map out of 1 + 1, the end pushout of the absolute
    # cylinder; it has no extension along the cylinder
    ends = report["counterexample"]["ends"]
    assert ends["source"]["carriers"] == {"x": ["l.a", "r.a"]}
    assert ends["components"] == {"x": {"l.a": "a", "r.a": "b"}}
    code, report, _ = run_cli(
        ["homotopic", FI1, "iota0", "iota1", "rel", "i01", "I1"], tmp_path
    )
    assert code == 0 and report["verdict"] == "pass"
    # a relative part that does not land in the shared source is not a
    # posable question, hence usage-level
    assert cli.run(["homotopic", FI1, "iota0", "iota1", "rel", "iota0", "I1"]) == 3


def test_homotopic_cross_check_flag(tmp_path):
    code, report, _ = run_cli(
        ["homotopic", FI2, "iota0", "iota1", "I2", "--cross-check"], tmp_path
    )
    assert code == 1
    assert report["parameters"]["cross-check"] is True
    code, report, _ = run_cli(
        ["homotopic", FI1, "iota0", "iota1", "I1", "--cross-check"], tmp_path
    )
    assert code == 0


def test_a_cross_check_disagreement_is_inconclusive(tmp_path, monkeypatch):
    # the two cylinder orders never disagree on the fixtures, so a stand-in
    # reports a disagreement
    monkeypatch.setattr(cli, "homotopic_cross_check", lambda *args: (None, False))
    code, report, _ = run_cli(
        ["homotopic", FI1, "iota0", "iota1", "I1", "--cross-check"], tmp_path
    )
    assert code == 2
    assert report["verdict"] == "inconclusive"
    assert report["counterexample"] == {"error": "cross-check disagreement"}
    assert report["details"] == {"cylinder-order-agreement": False}


def test_classify_command(tmp_path):
    code, report, _ = run_cli(["classify", FI1, "iota0", "I1"], tmp_path)
    assert code == 0
    details = report["details"]
    assert details["cofibration"] == "pass"
    assert details["weak-equivalence"] == "pass"
    assert details["trivial-cofibration"] == "pass"
    assert details["strong-deformation-retract"] == "pass"
    assert details["trivial-fibration"] == "fail"
    assert details["sdr-consistent"] is True
    assert report["bounds"] == {"bound": 3, "objects": 4}


def test_classify_fail_reports_the_disagreeing_verdicts(tmp_path):
    # a point sent to the isolated vertex beside a loop: a trivial
    # cofibration that is not a strong deformation retract
    ws = tmp_path / "loop.ws"
    ws.write_text(
        Path(GIG).read_text(encoding="utf-8")
        + "\n[presheaf L]\nv: a b\ne: l\naction s: l->a\naction t: l->a\n"
        + "\n[map m : P -> L]\ncomponent v: p->b\n",
        encoding="utf-8",
    )
    code, report, _ = run_cli(
        ["classify", str(ws), "m", "IG", "--bound", "v=2,e=1"], tmp_path
    )
    assert code == 1 and report["verdict"] == "fail"
    assert report["details"]["sdr-consistent"] is False
    ce = report["counterexample"]
    assert ce["map"] == report["details"]["map"]
    assert ce["trivial-cofibration"] == "pass"
    assert ce["strong-deformation-retract"] == "fail"


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cases = (
        (["check-appropriate", GIG, "IG"], 1),
        # its comparison apexes register 10 classes outside the universe
        (["check-properness", GIG, "IG"], 1),
        (["verify-axioms", GIG, "IG"], 1),
        (["check-appropriate", FI1, "I1", "--bound", "4"], 0),
    )
    for k, (argv, code) in enumerate(cases):
        reports = []
        for seed in ("1", "2"):
            out = tmp_path / f"{k}-{seed}.json"
            done = subprocess.run(
                [sys.executable, "-m", "minmodel.cli", *argv, "--out", str(out)],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                timeout=120,
            )
            assert done.returncode == code, argv
            reports.append(out.read_bytes())
        assert reports[0] == reports[1], argv


def test_checker_commands(tmp_path):
    code, report, _ = run_cli(["check-main", FI1, "I1"], tmp_path)
    assert code == 0 and report["verdict"] == "pass"
    assert [s["check"] for s in report["details"]["subchecks"]] == [
        "appropriate",
        "jcell-rlp",
    ]
    code, report, _ = run_cli(["verify-axioms", FI2, "I2"], tmp_path)
    assert code == 0
    assert all(
        s["verdict"] == "pass" for s in report["details"]["subchecks"]
    )
    code, report, _ = run_cli(["check-properness", FI1, "I1"], tmp_path)
    assert code == 0


def test_enumerate_with_bound_override(tmp_path):
    code, report, _ = run_cli(
        ["enumerate-we", FI1, "I1", "--bound", "2"], tmp_path
    )
    assert code == 0
    assert report["parameters"]["bound"] == 2
    assert report["bounds"]["objects"] == 3
    assert len(report["witnesses"]) == 9
    code, full, _ = run_cli(["enumerate-we", FI1, "I1"], tmp_path)
    assert len(full["witnesses"]) == 57


def test_reports_are_deterministic_and_out_matches_stdout(tmp_path, capsys):
    _, _, first = run_cli(["check-main", FI2, "I2"], tmp_path, "a.json")
    _, _, second = run_cli(["check-main", FI2, "I2"], tmp_path, "b.json")
    assert first == second
    capsys.readouterr()
    assert cli.run(["check-main", FI2, "I2"]) == 0
    streamed = capsys.readouterr().out.encode()
    assert streamed == first
    assert first.endswith(b"\n")


def test_timing_is_a_work_counter(tmp_path):
    _, report, _ = run_cli(["factor", FI2, "fold", "I2"], tmp_path)
    assert set(report["timing"]) == {"solver-calls"}
    assert isinstance(report["timing"]["solver-calls"], int)
    assert report["timing"]["solver-calls"] > 0
