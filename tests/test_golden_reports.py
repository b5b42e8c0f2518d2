"""Golden reports: a fixed set of in-process ``tropgeo`` commands must
keep their exit codes and their exact stdout, JSON report included
(``--json -``).  The SHA-256 digests were recorded before the Cramer
minors and the Sylvester heights moved onto the one masked Laplace
expansion (the ``realize`` digests before the canonical form was read
off the dual subdivision, the two local-solve ``certify`` digests before
the numeric local solve moved onto dense coefficient lists, the last
three symbolic ``lift`` digests before ``RPoly`` packed its monomials
into ints); a change
that alters any report byte shows up here.
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
     "b515a008ff776b3301f8855d9e45bd94a4a6174e4a965368dff368b139e4c9c6"),
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
    # the local solve: a vanishing residual eliminant and "no torus
    # solution" over F_10007, and the root scan of a field below 64
    (["certify", "@chasles", "--trials", "8", "--seed", "0"], 1,
     "79317579f223dd393bb66b58d0aaf2f883c3aa42fc40c6a20d4712493c03c6f2"),
    (["certify", "@cayley_bacharach_3_3", "--trials", "8", "--seed", "5", "--field", "fp:61"], 1,
     "b078ce621adfcb31a326ad8c633a06c75a62cece1e9a5d161f60286ad2f3d25c"),
    # realize prints every curve's coefficients in concave canonical form
    (["realize", "@weak_pascal", "--seed", "1"], 0,
     "cba6fc75df5d9b9ad820a545518045dc975bdac4f2663e3b1cd7a7cf3ed196cc"),
    (["realize", "@cayley_bacharach_3_3", "--seed", "1"], 0,
     "0bd0b3b9f8c4c00f7b407e03a6542def4e2c8cb73aad41ec675ea9294a0f2c66"),
    (["realize", "@vector_addition", "--seed", "1"], 0,
     "1810d5a38e8d1a613425df3e8135b988aae641f75e753cac121587816585be37"),
    # symbolic conditions of every size: the provably-empty full
    # vector_addition report is 449 KB of printed polynomials
    (["lift", "@vector_addition", "--mode", "symbolic"], 1,
     "df525aeaee086582b43e8d57dc24da6c3b257a549ff828c1a18dc7e7ffe9e268"),
    (["lift", "@abc_double_path", "--mode", "symbolic"], 1,
     "8b524d9eb011484a5c77063c9c5cbe246183fa842d9da43cbeecb4e74e61f191"),
    (["lift", "@pascal_converse", "--mode", "symbolic"], 0,
     "f41bde3508bb031a5eba568c304e07f0b016c691e261d00f0540150d9e0edb7a"),
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
