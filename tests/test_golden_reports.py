"""Golden reports: a fixed set of in-process ``tropgeo`` commands must
keep their exit codes and their exact stdout, JSON report included
(``--json -``).  The SHA-256 digests were recorded before the Cramer
minors and the Sylvester heights moved onto the one masked Laplace
expansion (the ``realize`` digests before the canonical form was read
off the dual subdivision, the two local-solve ``certify`` digests before
the numeric local solve moved onto dense coefficient lists, the last
three symbolic ``lift`` digests before ``RPoly`` packed its monomials
into ints, the last five ``certify`` digests before the steps' fixed
and always-compatible flags moved onto their plans, the last three
before the resultant corners were read at slopes from the stable
intersection); a change
that alters any report byte shows up here.

The symbolic ``lift`` digests of pappus, pascal_converse and
vector_addition were re-recorded when symbolic intersection points
became homogeneous (X : Y : Z), with no rational functions: a curve
through such points has its conditions from rows scaled by Z^deg, where
the rational residues kept unreduced products of denominators, so these
conditions differ from the old ones by factors of local determinants,
and the full vector_addition report went from 449 KB to 113 KB.  Their
verdicts and certificates did not change.  The fano and abc_double_path
symbolic reports, whose curves pass through no intersection point, and
every numeric report kept their bytes.

The 17 digests whose reports named a stable point as a Python repr,
``(Fraction(-7, 1), Fraction(-3, 1))`` in a local-solve condition's
origin or note, were re-recorded when those points came to print as
``realize`` prints them, ``(-7, -3)``; no other byte of those reports
changed.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import pytest

from tropgeo.cli import main


def catalog_path(name):
    return str(resources.files("tropgeo") / "catalog" / f"{name}.tgc")


GOLDEN = [
    (["theorem", "fano", "--trials", "6", "--seed", "7"], 0,
     "ea24255f5b6f0d4075581854b2b4a51ecae007ab30e433082828d123bca0d919"),
    (["theorem", "weak_pascal", "--trials", "2", "--seed", "7"], 0,
     "b03e94e5921516c774d6a03cedbfdc29ea42f0eac2f2804a8f3d57ac7b5aef97"),
    (["theorem", "pascal_converse", "--trials", "4", "--seed", "7"], 0,
     "96d7621da5cc7b464ff037aead9f4774b258769472044181e2b1f9f52f3f7561"),
    (["theorem", "chasles", "--trials", "2", "--seed", "7"], 0,
     "339b174cca6ce5b8b597059b05cb8f4c4f6e04bd24499affa83f294d1bd1ae4e"),
    (["lift", "@weak_pascal", "--mode", "sample", "--trials", "2", "--seed", "1"], 1,
     "a1a8bd687ae1a308805e48c0b88f80fe2c4df140000e4ff97c43734eb94816a1"),
    (["lift", "@abc_double_path", "--mode", "sample", "--trials", "4", "--seed", "1"], 1,
     "a962127effb9738e8e101985b2f209e7cb833c53b35feb2abde486279168e6f2"),
    (["lift", "@pappus", "--mode", "symbolic"], 0,
     "ba5393089646af4dcc90fb1e8b42570f621b3ccb2e518d15aa6b24ca994ea9df"),
    (["lift", "@fano", "--mode", "symbolic"], 0,
     "c63a9b760358b93373dbe64fcceb42589c21e64ca044dfd4479f928bbd642b82"),
    (["certify", "@four_lines", "--trials", "4", "--seed", "1"], 1,
     "1a66d2c9e6a34970879311be211738683d2cae0bb213d8e169d3271ae9f6539a"),
    (["certify", "@chasles", "--trials", "2", "--seed", "1"], 0,
     "29dddec0a2e980f9b175e7262171d79d50edd82f7e4673d8f2026a64cb85d89a"),
    (["certify", "@vector_addition", "--trials", "2", "--seed", "1"], 1,
     "b96cd3d06c740d46ce2cd10b5636d28d92633a8a279b9fcfd712e9b1ef3cf817"),
    (["certify", "@cayley_bacharach_3_3", "--trials", "2", "--seed", "1"], 0,
     "543628369b9c1ad1a29355f98f0930109e8f9a3511c74640b2b3b8c73d18f6d0"),
    # the local solve over F_10007, and the root scan of a field below
    # 64: re-recorded when the local solve moved its polynomials to the
    # origin, which turned their NeverLiftable step (a residual eliminant
    # that vanished on a common power of y) Conditional
    (["certify", "@chasles", "--trials", "8", "--seed", "0"], 0,
     "c0ca9650d2e36eff0cf20843122b2f6849fb7c112f6e6eaf0249591310d24d8d"),
    (["certify", "@cayley_bacharach_3_3", "--trials", "8", "--seed", "5", "--field", "fp:61"], 0,
     "08a6d40a3e6d31fd2653d63c1294ef4b4edcec4e30e8c0f4e0c5ddc7b48d7a12"),
    # realize prints every curve's coefficients in concave canonical form
    (["realize", "@weak_pascal", "--seed", "1"], 0,
     "cba6fc75df5d9b9ad820a545518045dc975bdac4f2663e3b1cd7a7cf3ed196cc"),
    (["realize", "@cayley_bacharach_3_3", "--seed", "1"], 0,
     "0bd0b3b9f8c4c00f7b407e03a6542def4e2c8cb73aad41ec675ea9294a0f2c66"),
    (["realize", "@vector_addition", "--seed", "1"], 0,
     "1810d5a38e8d1a613425df3e8135b988aae641f75e753cac121587816585be37"),
    # symbolic conditions of every size: the provably-empty full
    # vector_addition report is 113 KB of printed polynomials
    (["lift", "@vector_addition", "--mode", "symbolic"], 1,
     "da30d167e696596687b778571060b18187881a3ca00e59699c077a8c77f28d02"),
    (["lift", "@abc_double_path", "--mode", "symbolic"], 1,
     "1b93e966d29658cf2a5e542b0c00a93205462b57337fe917423b14b0554559d6"),
    (["lift", "@pascal_converse", "--mode", "symbolic"], 0,
     "c8adbea129ad9649dd3799f22354af7d62dc7a37d48ebf7f3118dc4335337d66"),
    # every certificate the fixed and always-compatible flags decide
    # (AlwaysCompatible, Conditional, NeverLiftable) and the notes they
    # add, recorded before those flags moved onto the step plans
    (["certify", "@pappus", "--trials", "4", "--seed", "2"], 0,
     "eefb62d3cedb2f10be0b80a0ab66a6af775212071f80065aa7af3cd06497501f"),
    (["certify", "@fano", "--trials", "4", "--seed", "2"], 0,
     "961614cd9d937d104bb199e78fa22e84853761b1e94006a2b8badbca6b68c965"),
    (["certify", "@pascal_converse", "--trials", "4", "--seed", "2"], 0,
     "5aad33f904ff1d20aed4f2610387790cc8ea8c741ec2163a781de4881a962b0f"),
    (["certify", "@abc_double_path", "--trials", "4", "--seed", "2"], 1,
     "26ebfa6edf2b7c89c2b97947eceb3daab88963f330c21768302510c69a98bc87"),
    (["certify", "@weak_pascal", "--trials", "4", "--seed", "2"], 0,
     "52aa684a2a52d0d48e8d9ac0a4501f4cc12ac7b5809f828288966ad938c3ea1e"),
    # resultant corners of degree >= 2 and the sheared family R_z,
    # recorded before the corners were read at slopes from the stable
    # intersection
    (["lift", "@chasles", "--mode", "sample", "--trials", "8", "--seed", "2"], 0,
     "debdf04f046171d56e853e8e65660227d12b6941cc32e714e4745927ad2cc79c"),
    (["lift", "@cayley_bacharach_3_3", "--mode", "sample", "--trials", "8", "--seed", "2"], 0,
     "832dcb0ee9437c88a2e4d69629dcdf68b720c71398a9195a35c7b0e99e0cd9e9"),
    (["certify", "@weak_pascal", "--trials", "8", "--seed", "1"], 0,
     "f6d53b270e29e97d13f1ad6592216ac84eb7db00eb60643802c4ba1b812cda9f"),
    # a step sheared at a = 2, and symbolic shear-0 steps whose R_z
    # conditions repeat R_x's, recorded before R_z at shear 0 reused R_x's
    # plan and the monomial flags were counted over matchings
    (["certify", "@chasles", "--trials", "2", "--seed", "6"], 0,
     "3c8588891578435cb9cf23fb9140f1f28a2d00d654ba8fcb5fd55dafb1b83631"),
    (["certify", "@pascal_converse", "--mode", "symbolic", "--seed", "0"], 0,
     "31c15bc6a98e065c9a319290c852bdc43dd4a2241e72d3c041897f6e139e302d"),
    # line∩line steps (pascal_converse's input line meets six lines) and
    # a theorem of lines only, recorded before two lines met at their
    # tropical Cramer solution and the Cramer regularity flags were
    # computed on first read
    (["theorem", "pappus", "--trials", "20", "--seed", "3"], 0,
     "3bbc91ddada263a31860b0abc297c1d7cf5397b6abd72a5e155ad0a91aec24c3"),
    (["realize", "@pascal_converse", "--seed", "1"], 0,
     "6a997e3979af36142d0d7225658352d2d9fde5a52720f52de950c9e3ae4ee33d"),
    (["realize", "@four_lines", "--seed", "2"], 0,
     "6da724e4ec563c5e2cfcd6a99695e1731e951d9f70ce1e0ff8443496d178c572"),
    # symbolic certificates with powers in their conditions (116 KB) and
    # with zero local determinants, recorded before RPoly kept its
    # monomials as sorted (variable, exponent) tuples
    (["certify", "@vector_addition", "--mode", "symbolic"], 1,
     "263e1880a6e71732b8e129ca76d4bac4327536496aefb4496f7f01af7bbe40e0"),
    (["certify", "@four_lines", "--mode", "symbolic", "--seed", "8"], 1,
     "a1cf0c951f3e741372facef8a965061348c609609820209ccaec8847fa8f3c92"),
    # generic position: points on edges, points at both vertices of the
    # conic, and four points at one vertex, whose four refined edges
    # close a cycle, recorded before the search kept one set of taken
    # targets
    (["genpos", "@weak_pascal", "--curve", "Z", "--points", "(4,-1/2)", "(3,2)"], 0,
     "1a96f965df2034e74161ecd58bc0c94997b2ccafafbd6a0a1fed72c1bc9b5c5a"),
    (["genpos", "@weak_pascal", "--curve", "Z", "--points", "(1,1)", "(4,5/2)", "(4,-1/2)"], 0,
     "1fabcab206497b3ba1125be1b8551d4bcc4c70e4bd14bcb494aab59729d407c1"),
    (["genpos", "@weak_pascal", "--curve", "Z", "--points", "(1,1)", "(1,1)", "(1,1)", "(1,1)"], 1,
     "7be5b06c3ae29db265048034726b8decc3c1ac47d0e07f833580043760d6af45"),
    # line∩line steps with a degenerate minor (four_lines at seed 2,
    # steps 4, 6 and 8; at seed 8, step 7) and symbolic certificates of
    # lines only, recorded before two lines were lifted by their 2 x 3
    # masked minors
    (["certify", "@four_lines", "--trials", "4", "--seed", "2"], 1,
     "4cd260a33065059e2560914eb00675b9dfc6f0b35814679a94fd21470ef0b392"),
    (["certify", "@four_lines", "--trials", "4", "--seed", "8"], 1,
     "5e9e5a618f41e4977b7b0b31789b6a082a89e034e42483a481661128e957b1cf"),
    (["certify", "@pappus", "--mode", "symbolic"], 0,
     "a9a002018f8902b06412cba870ff5d203b0f4019a4289e1f6014a34fec53935a"),
    (["certify", "@fano", "--mode", "symbolic"], 0,
     "3ee2dfa942f0fe2d16aa7da1d5838ef064795103b847671f5d4d9202c9afb222"),
    (["lift", "@four_lines", "--mode", "sample", "--trials", "4", "--seed", "0"], 1,
     "cea2a24f034d5fde5c28b09a0bdddab92fd17f1e4a4a28c45a877746e40367ca"),
]


def golden_ids(golden):
    """Name a case by its command and target; a later case with the same
    pair is named by its whole command line, so earlier names never change."""
    ids = []
    for argv, _, _ in golden:
        name = " ".join(argv[:2])
        ids.append(" ".join(argv) if name in ids else name)
    return ids


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=golden_ids(GOLDEN))
def test_report_bytes_are_unchanged(argv, code, digest):
    argv = [catalog_path(a[1:]) if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(argv + ["--json", "-"])
    assert rc == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


VECTOR_ADDITION_ON_A_LINE = {"realize b = (-1, -1)": "realize b = (-1, 0)",
                             "realize c = (-2, -2)": "realize c = (1, 0)",
                             "realize q = (2, -1)": "realize q = (0, 0)"}

# catalog files with edited lines, for reports no catalog file reaches:
# GenericLiftFails certificates (vector_addition with every input on one
# horizontal line) and a statement whose thesis fails on labelings that
# meet its precondition (weak Pascal's line through P, Q and A)
EDITED = [
    ("vector_addition", VECTOR_ADDITION_ON_A_LINE, ["certify", "--trials", "4", "--seed", "0"], 1,
     ["step#13 [GenericLiftFails]", "step#42 [GenericLiftFails]", "verdict: likely-empty"],
     "938c8e47d40c50c8bb0146b99a2684485590822f5572a9eeec1552d820a96551"),
    ("vector_addition", VECTOR_ADDITION_ON_A_LINE, ["certify", "--mode", "symbolic"], 1,
     ["step#13 [GenericLiftFails]", "step#42 [GenericLiftFails]", "verdict: provably-empty"],
     "cc612867a3fcf815b61c10ff40342fd680fef89acf8886d8d74b07400ff2406e"),
    ("weak_pascal", {"through P Q R": "through P Q A"}, ["theorem", "--trials", "10", "--seed", "7"], 1,
     ["6/10 trials passed", "failing trial 1: 2/4 labelings satisfy the precondition",
      "failing trial 6: 2/4 labelings satisfy the precondition"],
     "9c218ec2b4acd9d8f50e08c8cd0f9a953e17442f5194a269f0365e50a5473e28"),
]


@pytest.mark.parametrize("name,edits,argv,code,lines,digest", EDITED,
                         ids=[" ".join([argv[0], name, *argv[1:]]) for name, _, argv, *_ in EDITED])
def test_edited_catalog_reports_are_unchanged(tmp_path, name, edits, argv, code, lines, digest):
    with open(catalog_path(name)) as f:
        text = f.read()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / f"{name}.tgc"
    path.write_text(text)
    out = io.StringIO()
    with redirect_stdout(out):
        rc = main([argv[0], str(path), *argv[1:], "--json", "-"])
    assert rc == code
    assert [line for line in lines if line not in out.getvalue()] == []
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("mode", ["sample", "symbolic"])
@pytest.mark.parametrize("command", ["lift", "certify"])
def test_reports_print_stable_points_as_realize_does(command, mode):
    # a local-solve condition's origin, a local-solve note and a refused
    # symbolic step name their stable point as (-7, 1/2), never as the
    # repr (Fraction(-7, 1), Fraction(1, 2))
    catalog = sorted((resources.files("tropgeo") / "catalog").iterdir())
    for path in catalog:
        for seed in ("0", "1", "2"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                main([command, str(path), "--mode", mode, "--trials", "4", "--seed", seed, "--json", "-"])
            assert "Fraction(" not in out.getvalue() + err.getvalue(), (path.name, seed)
