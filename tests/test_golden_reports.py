"""Byte-for-byte pins on CLI reports: the built-in family, a geometric
``nat_path``, a constant ``int_path`` and the README's explicit tree.

Each digest is the SHA-256 of stdout, NUL, stderr, NUL, exit code of an
in-process ``cli.main`` run.  A change that moves any printed digit, such as
a different inverse-square constant, fails here.  ``oracle`` is left out
because its dense side depends on the low bits of the BLAS in use.
"""

import contextlib
import hashlib
import io
import json

import pytest

from treeshift.cli import main

SPECS = {
    "paper": {"family": "paper"},
    "descendant": {"family": "descendant", "apex": {"level": 0, "digits": [2]}},
    "nat_geometric": {"family": "nat_path", "weights": {"kind": "geometric", "base": 1.3, "scale": 0.75}},
    "int_constant": {"family": "int_path", "weights": {"kind": "constant", "value": 2.0}},
    "explicit": {
        "vertices": ["r", "a", "b", "c"],
        "edges": [
            {"parent": "r", "child": "a", "weight": 1.0},
            {"parent": "r", "child": "b", "weight": [0.5, 0.5]},
            {"parent": "a", "child": "c", "weight": 2.0},
        ],
    },
}

GOLDEN = [
    (["analyze", "@paper", "--t", "1.0"], "ee65fd9ceef6be1b2ce53b13db1614ab97e68879923aa793f679d5bd1b1e7a96"),
    (["analyze", "@paper", "--t", "0.5"], "b67c2caaa9512680e3f4954def2546e58816c05aef459602acce29d0cb442424"),
    (["analyze", "@paper", "--t", "0.02"], "cb1eb6a0196d9e7ba3f95a123bde66857de78ff5f0ba9c73aeb38da7a0a77650"),
    (["analyze", "@descendant", "--t", "0.5"], "f8d2b68c34eb87c55a9aaad8e79a49286821bfa9fec9b13dc25b8fa20c82781c"),
    (["aluthge-weights", "@paper", "--t", "0.5"], "12c03ccbae7f747d83a7c2ca4a1b16e5766b5ec4ce357a8afeae5586bec3efb5"),
    (["witness", "--t", "0.5", "--K", "40"], "f280638122d46f6c17c8ef8fe49f1ee650f6192298bc4db5a24ff19c59c36e68"),
    (["witness", "--t", "0.999"], "0fa0172f58b683a630a0387bc3287e891422860df2441a3fde70dd0fa990e7d3"),
    (["analyze", "@descendant", "--t", "0.02"], "01e93f474df1acc6def80737f6054d2d689916f3d46097e6f488d25e9e98f64c"),
    (
        ["analyze", "@paper", "--t", "0.1", "--depth", "2", "--digits", "3"],
        "1a614bf88b865d5246845478d684d817686fa5e17517542a891aad43620f8b2b",
    ),
    (
        ["analyze", "@descendant", "--t", "1.0", "--depth", "3", "--digits", "2"],
        "6691bff8f159644fceeaea9092005fc46a9bf751e125747cd23405d34777ae5e",
    ),
    (["aluthge-weights", "@descendant", "--t", "0.5"], "f5f3401f101e2c3223776e636a9aed3d90e5f3368380ae04b177c5853bff03f7"),
    # the rest of the family-analyze t schedule; at t = 0.001 the certificate
    # starts at child 1442 and is checked in units of 4^S(u)
    (["analyze", "@paper", "--t", "0.001"], "062d7c2effc84dfc43a7664be41dd3f10c6b54c874663c5e15a7ed986440ac23"),
    (["analyze", "@paper", "--t", "0.9"], "1ea9fdbede6c153b311b5d08725e061f3334ec8fbe5c01a1b95282fe6bd23b7c"),
    (
        ["analyze", "@descendant", "--t", "0.1", "--depth", "2", "--digits", "3"],
        "45ae1675c4fb3b1c6e90e40170ec1dadb8de3c2fa86801c75ff764b36c6ea08a",
    ),
    # per-vertex margins, PolarWeights and AluthgeWeights off the built-in family
    (["analyze", "@nat_geometric", "--t", "0.5"], "48f72dec82c9206db7d9867b45c111a7b19711393f21874a98b0dd7b0a910e6e"),
    (["aluthge-weights", "@nat_geometric", "--t", "0.5"], "7858bed25b24afa0cc03ac03d1f93b855ab42b5d9533a4b3323fc23c85746c02"),
    (["analyze", "@int_constant", "--t", "0.5"], "4a311becfd13bb14d4444cd5de9a87445836bcf083200a7430fc23f2d1cf7cf9"),
    (["aluthge-weights", "@int_constant", "--t", "0.5"], "2fd75d40596d2e695bc0b9944676ab2e15fb8bd73d9be8c2c1a916cda4b0b234"),
    (["analyze", "@explicit", "--t", "0.5"], "b1ce4cb0be3325e7a68337206d00c14081e20f3d7145715dba45a53858eb6e3d"),
    (["aluthge-weights", "@explicit", "--t", "0.5"], "9be03c34831876341b1ff11328c9a4b3012bc5a50dc27fd75b60c779b26b26d0"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_report_digest(tmp_path, argv, digest):
    resolved = []
    for arg in argv:
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps(SPECS[arg[1:]]))
            arg = str(path)
        resolved.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    got = hashlib.sha256(f"{out.getvalue()}\0{err.getvalue()}\0{code}".encode()).hexdigest()
    assert got == digest
