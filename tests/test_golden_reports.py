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
"""

import hashlib
import io
from contextlib import redirect_stdout
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
     "4d667adafd6335b053811c69906d6d6a61edf3da53535f826d9133534b744763"),
    (["lift", "@abc_double_path", "--mode", "sample", "--trials", "4", "--seed", "1"], 1,
     "7be41e796041244bfdea62c630dd96854ee357698d8b85bdafc9df2036198dfe"),
    (["lift", "@pappus", "--mode", "symbolic"], 0,
     "7284f19f59addf840c65db5981e2baae8c17c101e4590b5fdf0aaa997d0cfbd0"),
    (["lift", "@fano", "--mode", "symbolic"], 0,
     "33d0d007e6424e6af4f4ece99b59f8bdf6a16f842007dab153495f66b6543503"),
    (["certify", "@four_lines", "--trials", "4", "--seed", "1"], 1,
     "34bbf0a288726ae0f97a264225796b4e477d4f11d51f5d4653a2d8da62e31b62"),
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
     "66af0fadea112a09f4e7060e1a1d076506b2e1a014b0c505b26f1e329c38d04d"),
    (["lift", "@abc_double_path", "--mode", "symbolic"], 1,
     "8b524d9eb011484a5c77063c9c5cbe246183fa842d9da43cbeecb4e74e61f191"),
    (["lift", "@pascal_converse", "--mode", "symbolic"], 0,
     "a0e944d413333e1ab177b8f1bbe5e6260e687ee355c72e90becbcb1bc778dac9"),
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
     "0acbb1a4f0239330346c5510ed30f9b10403f97587522357c89fbefc6db2cc7c"),
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
     "bf92ec831ad7c61c456384508146c070f855ded1876ed6e036fd1c5cb14c124d"),
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
     "079f7b4a8d946cbd484601ef56798d6c0ff6ea9fc8d8847a72e228e2224e95b5"),
    (["certify", "@four_lines", "--mode", "symbolic", "--seed", "8"], 1,
     "82a66820997cb528d24650cc37f5f292b04aeb2de0eb35204dfa41b73349d0cf"),
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
