import json
from fractions import Fraction as F
from importlib import resources

import pytest

from tropgeo import dsl
from tropgeo.cli import main, render_svg
from tropgeo.trop_core import Support, TropPoly, curve
from tropgeo.construction import validate_construction


CATALOG_FILES = [
    "fano", "pappus", "pascal_converse", "chasles", "cayley_bacharach_3_3",
    "weak_pascal", "abc_double_path", "four_lines", "vector_addition",
]


def catalog_path(name):
    return str(resources.files("tropgeo") / "catalog" / f"{name}.tgc")


def catalog_text(name):
    with open(catalog_path(name)) as f:
        return f.read()


def test_roundtrip_on_the_full_corpus():
    for name in CATALOG_FILES:
        text = catalog_text(name)
        doc = dsl.parse(text)
        printed = dsl.print_doc(doc)
        assert printed == text, name             # files are in canonical form
        assert dsl.parse(printed) == doc, name   # print . parse is the identity


def test_catalog_files_validate():
    for name in CATALOG_FILES:
        doc = dsl.parse(catalog_text(name))
        c = dsl.to_construction(doc)
        d = validate_construction(c)
        assert d.ok and d.exact, (name, d.errors, d.inexact)


def test_parse_statement_kinds():
    text = """\
# paired comment
input point A
input curve Z support conic
curve l1 = through A A support line
points {P Q} = intersect Z l1
realize A = (0, -3/2)
realize Z = "3y+5+3y^2+0x^2+4x+0xy"
genpos P Q in Z
thesis point w on l1 Z
"""
    doc = dsl.parse(text)
    assert doc.inputs[0].kind == "point"
    assert doc.inputs[1].support == Support.named("conic")
    assert doc.steps[0][0] == "curve"
    assert doc.steps[1][1] == ["P", "Q"]
    rm = doc.realization_map()
    assert rm["A"] == (F(0), F(-3, 2))
    assert isinstance(rm["Z"], TropPoly)
    assert doc.genpos == [(["P", "Q"], "Z")]
    assert doc.thesis.kind == "point"
    assert dsl.to_statement(doc).genpos_pairs == [(("P", "Q"), "Z")]


def test_explicit_and_degree_supports():
    doc = dsl.parse("input curve V support {(0,0), (1,0)}\n")
    assert doc.inputs[0].support == Support.named("vertical")
    doc = dsl.parse("input curve W support degree(4)\n")
    assert doc.inputs[0].support == Support.degree(4)
    assert "degree(4)" in dsl.print_doc(doc)


def test_malformed_support_reports_position():
    with pytest.raises(dsl.DslError) as exc:
        dsl.parse("input point A\ninput curve Z support {bogus}\n")
    assert exc.value.line == 2


def test_unparsable_statement_reports_position():
    with pytest.raises(dsl.DslError) as exc:
        dsl.parse("input point A\n  curve = oops\n")
    assert exc.value.line == 2 and exc.value.col == 3


def test_poly_error_has_position():
    with pytest.raises(dsl.DslError) as exc:
        dsl.parse('realize Z = "1x + + 2"\n')
    assert exc.value.line == 1


# ---------------------------------------------------------------------------
# CLI


def test_cli_theorem_fano_exits_zero(capsys):
    rc = main(["theorem", "fano", "--trials", "6", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "6/6" in out


def test_cli_theorem_weak_pascal_file_matches_catalog(capsys):
    # the file states the generic-position precondition, as the catalog does
    rc = main(["theorem", catalog_path("weak_pascal"), "--trials", "30", "--seed", "1"])
    assert rc == 0
    assert "30/30" in capsys.readouterr().out


def test_cli_theorem_file_with_unknown_node_is_a_usage_error(tmp_path, capsys):
    base = "input point a\ninput point b\ncurve l = through a b support line\n"
    for extra in ("thesis curve K support line through a zz\n",
                  "genpos a b in q\nthesis curve K support line through a b\n"):
        path = tmp_path / "bad.tgc"
        path.write_text(base + extra)
        assert main(["theorem", str(path), "--trials", "2"]) == 2
        assert "unknown nodes" in capsys.readouterr().err


def test_cli_theorem_unknown_name(capsys):
    rc = main(["theorem", "not_a_theorem"])
    assert rc == 2


def test_cli_lift_double_path_exits_one(capsys, tmp_path):
    report = tmp_path / "lift.json"
    rc = main([
        "lift", catalog_path("abc_double_path"),
        "--mode", "symbolic", "--json", str(report),
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "provably-empty" in out
    data = json.loads(report.read_text())
    assert data["verdict"] == "provably-empty"


def test_cli_admissible(capsys):
    assert main(["admissible", catalog_path("fano")]) == 0
    assert main(["admissible", catalog_path("abc_double_path")]) == 1
    out = capsys.readouterr().out
    assert "double path" in out


def test_cli_certify_vector_addition(capsys):
    rc = main(["certify", catalog_path("vector_addition"), "--trials", "4"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "Undecidable" in out


def test_cli_realize_json_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["realize", catalog_path("pappus"), "--seed", "5", "--json", str(out1)]) == 0
    assert main(["realize", catalog_path("pappus"), "--seed", "5", "--json", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_theorem_json_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for o in (out1, out2):
        assert main(["theorem", "pappus", "--trials", "5", "--seed", "9",
                     "--json", str(o)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_genpos(capsys, tmp_path):
    rc = main([
        "genpos", catalog_path("weak_pascal"), "--curve", "Z",
        "--points", "(4,-1/2)", "(3,2)",
        "--json", str(tmp_path / "g.json"),
    ])
    out = capsys.readouterr().out
    assert rc == 0 and "in general position" in out
    rc = main([
        "genpos", catalog_path("weak_pascal"), "--curve", "Z",
        "--points", "(1,-3/2)", "(1,0)",
    ])
    assert rc == 1
    capsys.readouterr()
    for name in ("A", "nope"):  # a point node, and no node at all
        rc = main(["genpos", catalog_path("weak_pascal"), "--curve", name,
                   "--points", "(1,0)"])
        assert rc == 2
        assert capsys.readouterr().err == f"{name!r} is not a curve node\n"


# a step may name only nodes defined above it, and each name once
MALFORMED = {
    "undefined": (
        "input point a\ninput point b\n"
        "curve l = through a zz support line\n"
        "thesis curve K support line through a b\n",
        "step #0 names 'zz', which is not defined above it",
    ),
    "forward": (
        "input point a\ninput point b\ninput point c\ninput point d\ninput point e\n"
        "curve m = through q e support line\n"
        "curve l = through a b support line\n"
        "curve n = through c d support line\n"
        "points {q} = intersect l n\n"
        "thesis point w on l m\n",
        "step #0 names 'q', which is not defined above it",
    ),
    "twice": (
        "input point A\ninput point B\n"
        "curve l = through A B support line\n"
        "curve A = through A B support line\n"
        "thesis point w on l A\n",
        "node 'A' is defined twice",
    ),
}


@pytest.mark.parametrize("command", ["realize", "admissible", "certify", "theorem"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_cli_malformed_construction_is_a_usage_error(tmp_path, capsys, name, command):
    text, message = MALFORMED[name]
    path = tmp_path / f"{name}.tgc"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["realize", "certify"])
def test_cli_curve_through_a_curve_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "bad.tgc"
    path.write_text("input point a\ninput point b\n"
                    "curve l = through a b support line\n"
                    "curve m = through l a support line\n")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: realize needs an exact construction: curve 'm' passes through non-points\n")


@pytest.mark.parametrize("argv", [
    ["lift", catalog_path("fano"), "--trials", "0"],
    ["certify", catalog_path("fano"), "--trials", "0"],
    ["theorem", "fano", "--trials", "0"],
    ["theorem", "fano", "--trials", "-1"],
])
def test_cli_rejects_fewer_than_one_trial(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "at least one trial" in err


def test_cli_usage_error_exit_code(capsys):
    assert main(["lift"]) == 2  # missing file
    assert main(["plot", "nope.tgc", "--svg", "x.svg", "--bbox", "0,0,1,1"]) == 2


def test_cli_internal_error_exit_code(monkeypatch, capsys):
    import tropgeo.theorems as th

    def broken(I, pts):
        raise AssertionError("no witness curve and no regular minor for 9 points")

    monkeypatch.setattr(th, "thesis_feasible_curve", broken)
    assert main(["theorem", "chasles", "--trials", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: no witness curve and no regular minor for 9 points\n"


def test_cli_plot_and_svg_structure(tmp_path, capsys):
    # plot the worked conic with a second curve: markers appear
    src = tmp_path / "conics.tgc"
    src.write_text(
        "input curve C1 support conic\n"
        "input curve C2 support conic\n"
        'realize C1 = "(-11)+2x+2y+2xy+0x^2+0y^2"\n'
        'realize C2 = "0+8x+14y+20xy+12x^2+14y^2"\n'
    )
    svg_path = tmp_path / "out.svg"
    rc = main(["plot", str(src), "--svg", str(svg_path),
               "--bbox=-20,-20,10,10"])
    assert rc == 0
    svg = svg_path.read_text()
    assert svg.count("<rect") >= 5  # background + 4 intersection markers


def test_render_svg_matches_curve_structure():
    f = TropPoly.parse("(-11)+2x+2y+2xy+0x^2+0y^2")
    bbox = (-30, -30, 30, 30)
    svg = render_svg([f], bbox)
    cx = curve(f)
    inside = [v for v in cx.vertices if -30 <= v[0] <= 30 and -30 <= v[1] <= 30]
    assert svg.count("<circle") == len(inside)
    clipped = 0
    from tropgeo.cli import _clip_edge

    for e in cx.edges:
        if _clip_edge(e, tuple(map(F, bbox))) is not None:
            clipped += 1
    assert svg.count("<line") == clipped


def test_env_var_field_override(monkeypatch, capsys):
    monkeypatch.setenv("TROPGEO_FIELD", "fp:101")
    rc = main(["lift", catalog_path("fano"), "--trials", "4", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc in (0, 1)  # small field: witnesses may fail, but the run works
