import json
from fractions import Fraction as F
from importlib import resources

import pytest

from tropgeo import dsl
from tropgeo.cli import main, render_svg
from tropgeo.trop_core import Support, TropPoly, curve
from tropgeo.construction import CurveThrough, Intersect, ThesisPoint, validate_construction


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
    assert doc.steps == [
        CurveThrough(name="l1", support=Support.named("line"), through=["A", "A"]),
        Intersect(names=["P", "Q"], curves=("Z", "l1")),
    ]
    rm = doc.realization_map()
    assert rm["A"] == (F(0), F(-3, 2))
    assert isinstance(rm["Z"], TropPoly)
    assert doc.genpos == [(("P", "Q"), "Z")]
    assert doc.thesis == ThesisPoint(name="w", on=["l1", "Z"])
    assert dsl.to_statement(doc).genpos_pairs == [(("P", "Q"), "Z")]


def test_explicit_and_degree_supports():
    doc = dsl.parse("input curve V support {(0,0), (1,0)}\n")
    assert doc.inputs[0].support == Support.named("vertical")
    doc = dsl.parse("input curve W support degree(4)\n")
    assert doc.inputs[0].support == Support.degree(4)
    assert "degree(4)" in dsl.print_doc(doc)


def test_malformed_support_reports_position():
    # a support is lattice points separated by commas, as print_support
    # writes it; nothing between the points is skipped
    for support in ("{bogus}", "{(0,0),(1,0),(0;1)}", "{(0,0),(1,0) zzz}"):
        with pytest.raises(dsl.DslError) as exc:
            dsl.parse(f"input point A\ninput curve Z support {support}\n")
        assert exc.value.line == 2, support


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


def test_cli_theorem_refuses_genpos_over_a_step_too_large_to_enumerate(tmp_path, capsys):
    # a conic meets a cubic in 6 points, 720 labelings: checking only the
    # default one would not check the statement over every labeling
    path = tmp_path / "six.tgc"
    path.write_text("input curve Z support conic\ninput curve W support cubic\n"
                    "points {A B C D E F} = intersect Z W\ngenpos A B in Z\n"
                    "thesis curve L support line through A B\n")
    assert main(["theorem", str(path), "--trials", "3"]) == 2
    assert capsys.readouterr() == ("", "error: step 'points {A B C D E F} = intersect Z W' "
                                   "has 6 points; labelings are enumerated for at most 4\n")


def test_cli_theorem_that_fails_exits_one_and_lists_its_failing_trials(tmp_path, capsys):
    # weak Pascal without its generic-position precondition fails two of
    # 100 trials at seed 2026
    text = "".join(ln for ln in catalog_text("weak_pascal").splitlines(keepends=True)
                   if not ln.startswith("genpos "))
    path, report = tmp_path / "weak_pascal_anywhere.tgc", tmp_path / "verdict.json"
    path.write_text(text)
    rc = main(["theorem", str(path), "--trials", "100", "--seed", "2026", "--json", str(report)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "98/100 trials passed" in out
    assert "failing trial 3" in out and "failing trial 25" in out
    data = json.loads(report.read_text())
    assert (data["trials"], data["passed"]) == (100, 98)
    assert [row["trial"] for row in data["failures"]] == [3, 25]
    assert all(set(row["inputs"]) == {"Z", "L1", "L2", "L3"} for row in data["failures"])


def test_cli_theorem_file_with_unknown_node_is_a_usage_error(tmp_path, capsys):
    base = "input point a\ninput point b\ncurve l = through a b support line\n"
    for extra in ("thesis curve K support line through a zz\n",
                  "genpos a b in q\nthesis curve K support line through a b\n"):
        path = tmp_path / "bad.tgc"
        path.write_text(base + extra)
        assert main(["theorem", str(path), "--trials", "2"]) == 2
        assert "unknown nodes" in capsys.readouterr().err


# each thesis or genpos name must be a node of the kind its clause needs
WRONG_KIND = {
    "thesis_point_on_points": ("thesis point p on A B\n",
                               "thesis point 'p' lies on curves; 'A' is a point"),
    "thesis_curve_through_a_curve": ("thesis curve m support line through l A\n",
                                     "thesis curve 'm' passes through points; 'l' is a curve"),
    "genpos_in_a_point": ("genpos A B in C\nthesis curve m support line through A B\n",
                          "genpos lists points in a curve; 'C' is a point"),
}


@pytest.mark.parametrize("name", sorted(WRONG_KIND))
def test_cli_theorem_names_of_the_wrong_kind_are_a_usage_error(tmp_path, capsys, name):
    extra, message = WRONG_KIND[name]
    path = tmp_path / f"{name}.tgc"
    path.write_text("input point A\ninput point B\ninput point C\n"
                    "curve l = through A B support line\n" + extra)
    assert main(["theorem", str(path), "--trials", "2"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


def test_cli_genpos_names_a_point_off_the_curve_as_written(capsys):
    for point in ("(0,0)", "(1/2,-3)"):
        rc = main(["genpos", catalog_path("pappus"), "--curve", "a", "--points", point, "(1,1)"])
        assert rc == 2
        text = point.replace(",", ", ")
        assert capsys.readouterr().err == f"error: {text} is not on the curve\n"


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


# admissible validates the construction first, as realize does
NOT_A_CONSTRUCTION = {
    "curve_through_curve": (
        "input point a\ninput point b\n"
        "curve l = through a b support line\n"
        "curve m = through l a support line\n",
        "curve 'm' passes through non-points",
    ),
    "intersect_points": (
        "input point a\ninput point b\n"
        "points {q} = intersect a b\n",
        "point fed by non-curves 'a', 'b'",
    ),
    "curve_through_three_points": (
        "input point a\ninput point b\ninput point c\n"
        "curve l = through a b c support line\n",
        "curve 'l' has 3 direct predecessors (max 2)",
    ),
    "two_lines_meet_twice": (
        "input point a\ninput point b\ninput point c\ninput point d\n"
        "curve l1 = through a b support line\n"
        "curve l2 = through c d support line\n"
        "points {p q} = intersect l1 l2\n",
        "curves 'l1','l2' share 2 successors (mixed volume 1)",
    ),
    "repeated_step": (
        "input point a\ninput point b\n"
        "curve l1 = through a b support line\n"
        "curve l2 = through a b support line\n",
        "curves 'l1' and 'l2' repeat the same step",
    ),
}


@pytest.mark.parametrize("name", sorted(NOT_A_CONSTRUCTION))
def test_cli_admissible_rejects_malformed_construction(tmp_path, capsys, name):
    text, message = NOT_A_CONSTRUCTION[name]
    path = tmp_path / f"{name}.tgc"
    path.write_text(text)
    assert main(["admissible", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_admissible_accepts_inexact_construction(tmp_path, capsys):
    # realize refuses it: a curve short of its points, or two curves that
    # name fewer points than their mixed volume
    for text, message in (("input point a\ncurve l = through a support line\n",
                           "curve 'l' has 1 of 2 points"),
                          ("input curve C1 support conic\ninput curve C2 support conic\n"
                           "points {p q} = intersect C1 C2\n",
                           "curves 'C1','C2' share 2 of 4 points")):
        path = tmp_path / "short.tgc"
        path.write_text(text)
        assert main(["admissible", str(path)]) == 0
        assert capsys.readouterr().out == "admissible\n"
        assert main(["realize", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: realize needs an exact construction: {message}\n")


WRONG_REALIZE = {
    "curve_for_point": ('realize a = "0 + x + y"', "realize gives input point 'a' a curve"),
    "point_for_curve": ("realize Z = (1, 2)", "realize gives input curve 'Z' a point"),
    "step_node": ('realize l = "0 + x + y"', "realize names 'l', which is not an input node"),
}


@pytest.mark.parametrize("command", ["realize", "lift", "certify"])
@pytest.mark.parametrize("name", sorted(WRONG_REALIZE))
def test_cli_wrong_realize_line_is_a_usage_error(tmp_path, capsys, name, command):
    line, message = WRONG_REALIZE[name]
    path = tmp_path / f"{name}.tgc"
    path.write_text("input point a\ninput point b\ninput curve Z support line\n"
                    "curve l = through a b support line\n" + line + "\n")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["realize", "lift", "certify"])
def test_cli_repeated_realize_line_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "twice.tgc"
    path.write_text("input point A\ninput point B\ncurve l = through A B support line\n"
                    "realize A = (0, 0)\n  realize A = (1, 5)\n")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == ("", "error: line 5, column 3: node 'A' is realized twice\n")


THREE_LINES = "".join(f"input point {n}\n" for n in "abcdef") + (
    "curve l1 = through a b support line\ncurve l2 = through c d support line\n"
    "curve l3 = through e f support line\npoints {p} = intersect l1 l2\npoints {q} = intersect l1 l3\n"
    "thesis point p on l1 l2 l3\n")


def test_cli_second_thesis_line_is_a_usage_error(tmp_path, capsys):
    # three general lines do not meet in one point; a second, true thesis
    # after the false one must not replace it
    path = tmp_path / "three_lines.tgc"
    path.write_text(THREE_LINES)
    assert main(["theorem", str(path), "--trials", "20"]) == 1
    assert "failing trial" in capsys.readouterr().out
    path.write_text(THREE_LINES + "  thesis point q on l1 l3\n")
    assert main(["theorem", str(path), "--trials", "20"]) == 2
    assert capsys.readouterr() == ("", "error: line 13, column 3: a statement has one thesis; "
                                   "this is a second\n")


TWO_LINES = "input curve Z support line\ninput curve W support line\n"
USAGE_ERRORS = {
    "bbox_arity": (TWO_LINES, ["plot", "--svg", "out.svg", "--bbox", "0,0,1"], "bbox must be x0,y0,x1,y1\n"),
    "bbox_empty": (TWO_LINES, ["plot", "--svg", "out.svg", "--bbox", "1,0,0,1"], "error: empty bounding box\n"),
    "plot_no_curve": ("input point a\nrealize a = (0, 0)\n", ["plot", "--svg", "out.svg", "--bbox", "0,0,1,1"],
                      "nothing to plot: no curves realized\n"),
    "empty_support": ("input curve Z support {}\n", ["realize"], "error: line 1, column 1: empty explicit support\n"),
    "unknown_support": ("input curve Z support quartic\n", ["realize"],
                        "error: line 1, column 1: unknown support name 'quartic'\n"),
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_cli_usage_errors_exit_two(tmp_path, monkeypatch, capsys, name):
    text, argv, message = USAGE_ERRORS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.tgc").write_text(text)
    assert main([argv[0], "in.tgc", *argv[1:]]) == 2
    assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "out.svg").exists()


ZERO_DENOMINATOR = "zero denominator in '1/0'"
BAD_NUMBERS = {
    "realize_point": (["realize"], "realize a = (1/0, 2)", f"line 5, column 14: {ZERO_DENOMINATOR}"),
    "realize_curve": (["realize"], 'realize Z = "1/0 + x + y"', f"line 5, column 14: {ZERO_DENOMINATOR}"),
    "theorem_curve": (["theorem"], 'realize Z = "1/0 + x + y"', f"line 5, column 14: {ZERO_DENOMINATOR}"),
    "genpos_point": (["genpos", "--curve", "l", "--points", "(1/0,2)"], "", ZERO_DENOMINATOR),
    "genpos_triple": (["genpos", "--curve", "l", "--points", "(1,2,3)"], "", "cannot parse point '(1,2,3)'"),
    "plot_bbox": (["plot", "--svg", "out.svg", "--bbox", "0,0,1/0,1"], "", ZERO_DENOMINATOR),
}


@pytest.mark.parametrize("name", sorted(BAD_NUMBERS))
def test_cli_bad_number_in_input_is_a_usage_error(tmp_path, monkeypatch, capsys, name):
    (command, *options), line, message = BAD_NUMBERS[name]
    path = tmp_path / f"{name}.tgc"
    path.write_text("input point a\ninput point b\ninput curve Z support line\n"
                    "curve l = through a b support line\n" + line + "\n")
    monkeypatch.chdir(tmp_path)
    assert main([command, str(path), *options]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out.svg").exists()


@pytest.mark.parametrize("command", ["lift", "certify"])
def test_cli_symbolic_mode_rejects_a_finite_field(capsys, command):
    argv = [command, catalog_path("fano"), "--mode", "symbolic"]
    assert main(argv + ["--field", "fp:61"]) == 2
    assert capsys.readouterr() == ("", "error: symbolic mode runs over Q; F_61 does not apply\n")
    assert main(argv + ["--field", "q"]) == 2
    assert capsys.readouterr() == ("", "error: cannot parse field spec 'q'\n")


@pytest.mark.parametrize("argv", [
    ["lift", catalog_path("fano"), "--mode", "sample", "--field", "q"],
    ["lift", catalog_path("fano"), "--field", "q"],
    ["certify", catalog_path("fano"), "--mode", "sample", "--field", "q"],
])
def test_cli_numeric_runs_reject_q(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: cannot parse field spec 'q'\n")


@pytest.mark.parametrize("command", ["lift", "certify"])
def test_cli_malformed_field_spec_is_a_usage_error(capsys, command):
    argv = [command, catalog_path("fano"), "--trials", "1", "--field"]
    specs = [("foo", "cannot parse field spec 'foo'"), ("fp:abc", "cannot parse field spec 'fp:abc'"),
             ("fp:", "cannot parse field spec 'fp:'"), ("7", "cannot parse field spec '7'"),
             ("fp:10", "10 is not prime"), ("f9", "cannot parse field spec 'f9'")]
    for spec, message in specs:
        assert main(argv + [spec]) == 2, spec
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["lift", catalog_path("fano"), "--trials", "0"],
    ["certify", catalog_path("fano"), "--trials", "0"],
    ["theorem", "fano", "--trials", "0"],
    ["theorem", "fano", "--trials", "-1"],
    ["lift", catalog_path("fano"), "--mode", "symbolic", "--trials", "-5"],
    ["certify", catalog_path("fano"), "--mode", "symbolic", "--trials", "0"],
])
def test_cli_rejects_fewer_than_one_trial(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "at least one trial" in err


def test_cli_usage_error_exit_code(capsys):
    assert main(["lift"]) == 2  # missing file
    assert main(["theorem", "fano", "--field", "fp:61"]) == 2  # only lifts take a field
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

