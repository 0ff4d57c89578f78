"""Golden outputs: sha256 digests of the --json reports on the fixtures.

The digests pin the exact bytes (and exit codes) of `fibers`,
`transport` (along degenerate edges too), `ltg-check`, `theorem-b` (on the functor fixtures and on
the identities of chain[3] and chain[4]) and `certify` (on every map
fixture, at the default cap and at caps 2-4, which fixes witnesses and
problem counts), and of `homology` and `theorem-b` on truncated nerves of
Z/n, so that a change in how the reports are built cannot
change a byte of what they print.  Replace a
digest only for a declared change of output.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from sslift.cat import chain_poset, cyclic_group_category, identity_functor, nerve
from sslift.cli import main
from sslift.formats import save_path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

GOLDEN = [
    (("fibers", "boundary_collapse.ssx"), 1,
     "a5ac0fa127858eb6b01acb06df10eea47cab16b0d2e324bfddac65712010c800"),
    (("fibers", "collapse_tower.ssx"), 1,
     "123e2f029da5f9268eee0b89b1688b9f4b0f59b6de58bb812ac7ad570722994a"),
    (("fibers", "cylinder_proj.ssx"), 0,
     "cc9764b5c79f16d3373a0e3dcbc6946044f04b2da0ea5d6ab9c3b6a3e3de07ec"),
    (("fibers", "double_cover.ssx"), 0,
     "8ea774d03990da352489eb478813916b7245dc019125b3c9194fcba217948c91"),
    (("fibers", "edge_into_circle.ssx"), 1,
     "b6ba8458a69f89f2cd2ab74ea1b39caef89a9d9854a99b8d840c7b3dabe5294d"),
    (("transport", "double_cover.ssx", "--edge", "a<x"), 0,
     "dcc568aba7d1d9e9cd79c53ea7ff5068f09bd0270b651c6ad61983416b114c57"),
    (("transport", "double_cover.ssx", "--edge", "a<x", "--backward"), 0,
     "a40f091099d8b7cef382c89269820b883a4a05ee6a1c64554d52f1ea4df5feed"),
    (("transport", "double_cover.ssx", "--edge", "a<y"), 0,
     "1df037ba4f02ee132f452f198d4eb90e04bbd749828309d9c09f8f7041c3cd4a"),
    (("transport", "double_cover.ssx", "--edge", "a<y", "--backward"), 0,
     "98ad621153db3c9e4251bfec4c78e17e9d054be89af6053e24bd90f907f7434f"),
    (("transport", "double_cover.ssx", "--edge", "b<x"), 0,
     "47c8dca2872c6f326e1a7b5307554464c88ff2c333801fa3a7fbcde42648f5b5"),
    (("transport", "double_cover.ssx", "--edge", "b<x", "--backward"), 0,
     "c920ad606eb9717923a24b5544264f0f0e7a1975f387338037ffba092f2c9dff"),
    (("transport", "double_cover.ssx", "--edge", "b<y"), 0,
     "34c011538e807833c328e5abb45b6615f4006ebb9f1ffb764552e5f0e4b8bc18"),
    (("transport", "double_cover.ssx", "--edge", "b<y", "--backward"), 0,
     "fe2745658643aafc71c42b43e0d5f761c2155f50ff753ef8d810c53048249ca3"),
    (("transport", "cylinder_proj.ssx", "--edge", "0.1"), 0,
     "2946c5e006be39f09eb78788bb7996baf66aeb6d6172129d855f76d4aa890fb4"),
    (("transport", "cylinder_proj.ssx", "--edge", "0.1", "--backward"), 0,
     "19612cde258b4f2f25624fa42fc605550df344b74852da163e2d8187b45fc291"),
    (("transport", "double_cover.ssx", "--edge", '["0","a"]'), 0,
     "8df7a5a5fe67400cf994ce5f0148e9770cc359c81e100bfc1d4912e64b050503"),
    (("transport", "cylinder_proj.ssx", "--edge", '["0","0"]', "--backward"), 0,
     "f3694561d33c53df50d234852b31e6db88b7addfab25a0951789afd069a145e0"),
    (("ltg-check", "--cospan", "interval_vertex.ssx", "cylinder_proj.ssx"), 0,
     "e2ccb956999559145284657a557c29a4e0c03c3ed35ba077085b3a544d9ecf57"),
    (("ltg-check", "--cospan", "edge_into_circle.ssx", "double_cover.ssx"), 0,
     "22216d5c4e8f87702bc6c011a3f11b35a4cf2920276d238eaf38575e350b81e0"),
    (("ltg-check", "--cospan", "interval_vertex.ssx", "boundary_collapse.ssx"), 1,
     "db9a1ddc9bdf906335e907243b048608d74771badc85e63087e484b06f0b813c"),
    (("theorem-b", "cover_functor.cat"), 0,
     "1109a0dfbe0779b0b7fe308efb7afc01913c7d3085c9e82ec2172ed0442685e6"),
    (("theorem-b", "collapse_functor.cat"), 1,
     "1d6844446bb45f71a12d1bd922a51e0ba133e5eb686d2bdc62d1687e3c8c65c5"),
    (("theorem-b", "point_a.cat"), 1,
     "0820ca71701f865953fda1ed4aa03ac73d4d6ffb591ad3285a5c90dde8962064"),
    (("certify", "boundary_collapse.ssx"), 1,
     "599f6ac3ec6a8e162f1af493c56c7a35b7af6a8f3848d41d51437525d37098fe"),
    (("certify", "boundary_collapse.ssx", "--cap", "2"), 1,
     "0e6b4aa077effc438b4ecb36e43c396dfa651a3b28f31c5ab3726a87036f8dd5"),
    (("certify", "boundary_collapse.ssx", "--cap", "3"), 1,
     "599f6ac3ec6a8e162f1af493c56c7a35b7af6a8f3848d41d51437525d37098fe"),
    (("certify", "boundary_collapse.ssx", "--cap", "4"), 1,
     "6c0d51e3212076d9abcdcb1570064ad94dce4f7b573f3029d0402c27d1c4dd6b"),
    (("certify", "collapse_tower.ssx"), 1,
     "15da8e896c3d88818e4f38b2f73da7a21117f8a8f09d909e2e129b8c26b18e8f"),
    (("certify", "collapse_tower.ssx", "--cap", "2"), 1,
     "2ce7c7a34d0d636506621597d7b82de4bb3528cb58c34d11d24e19dced0a5867"),
    (("certify", "collapse_tower.ssx", "--cap", "3"), 1,
     "15da8e896c3d88818e4f38b2f73da7a21117f8a8f09d909e2e129b8c26b18e8f"),
    (("certify", "collapse_tower.ssx", "--cap", "4"), 1,
     "74a947a5c20bce18e5c5b4b148bcd0fdf349f69d2a49c1f85e4c5e24d4ad6574"),
    (("certify", "cylinder_proj.ssx"), 1,
     "26334f070cf4a5cb856df7b2efab2f643595ef1b0f130089e62864fb2380d3ac"),
    (("certify", "cylinder_proj.ssx", "--cap", "2"), 1,
     "29b53c360322a784f55b8cd0f868ffca74d93276349c47e4b5422363f0c8508e"),
    (("certify", "cylinder_proj.ssx", "--cap", "3"), 1,
     "4f473961f7cfa079e216794783d30230486d99e53c96f4628b533339efd99e35"),
    (("certify", "cylinder_proj.ssx", "--cap", "4"), 1,
     "26334f070cf4a5cb856df7b2efab2f643595ef1b0f130089e62864fb2380d3ac"),
    (("certify", "double_cover.ssx"), 0,
     "3f03eaccdd08abf5065175881056662a2f9cae7c157fea1d5f9a76cc7a6c8f12"),
    (("certify", "double_cover.ssx", "--cap", "2"), 0,
     "c7f39230017ad1f97fd86dd35161d0f2ed8df200cbfdf698770bf0e17e85e901"),
    (("certify", "double_cover.ssx", "--cap", "3"), 0,
     "3f03eaccdd08abf5065175881056662a2f9cae7c157fea1d5f9a76cc7a6c8f12"),
    (("certify", "double_cover.ssx", "--cap", "4"), 0,
     "db1d54601ba718e66e75caadad681652794330497a80fd361aaf7a3a4846ddc4"),
    (("certify", "edge_into_circle.ssx"), 1,
     "b5ee0e0162eaae4e8e80bdf6b38d7401f3bcfb45642f8812833832727897f242"),
    (("certify", "edge_into_circle.ssx", "--cap", "2"), 1,
     "dc5a2ef5092a75e37de410ece188017a3089b5afb0442d5c6a7b506b351fa667"),
    (("certify", "edge_into_circle.ssx", "--cap", "3"), 1,
     "b5ee0e0162eaae4e8e80bdf6b38d7401f3bcfb45642f8812833832727897f242"),
    (("certify", "edge_into_circle.ssx", "--cap", "4"), 1,
     "6c315d92a1b5107a59fcf4b4e82eb71394369baf13dc53083df4d148cb60439e"),
    (("certify", "interval_vertex.ssx"), 1,
     "9707a6297e8636fcae93230131e59d398fc1414c5cee955bfc387d27db6da4bc"),
    (("certify", "interval_vertex.ssx", "--cap", "2"), 1,
     "6c7ea6435bfe2d61ec59d7de1fd7e9e05a30023dcdc7d5f007fce11c15131c03"),
    (("certify", "interval_vertex.ssx", "--cap", "3"), 1,
     "9707a6297e8636fcae93230131e59d398fc1414c5cee955bfc387d27db6da4bc"),
    (("certify", "interval_vertex.ssx", "--cap", "4"), 1,
     "1e36c47876091a8ad1c38e486da9715ba19789118ec66cdc8ded17324c52b7b5"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_json_report_matches_golden_digest(argv, code, digest):
    args = ["--json"] + [str(FIXTURES / a) if a.endswith((".ssx", ".cat")) else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = main(args)
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# theorem-b on the identity of the chain poset [n]: the comma nerves
# (351, 2,879 and 25,215 cells) are larger than any fixture's
CHAIN_GOLDEN = [
    (3, "ac4497523507a3f30ca08e58440ef93512721b98ca6d4d6ba934885d28e10707"),
    (4, "6b1779ba162e248683f6b83b3519afe86d4002d6ae1608e03a995eca7129cc55"),
    (5, "58aa5a67e8a639abca49a5d2f015b9ac8550aa4d89615c5efec5d931832ee6af"),
]


@pytest.mark.parametrize("n, digest", CHAIN_GOLDEN, ids=[f"chain{n}" for n, _ in CHAIN_GOLDEN])
def test_theorem_b_on_chain_identity_matches_golden_digest(n, digest, tmp_path):
    path = tmp_path / f"chain{n}.cat"
    save_path(str(path), identity_functor(chain_poset(n)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = main(["--json", "theorem-b", str(path)])
    assert got == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# truncated complexes: the Z/6 nerve at cap 6 (19,531 cells) and the comma
# nerves of the identity of Z/3 at cap 4, whose relation matrices below the
# cap are as wide as the cap degree's remainder
TRUNCATED_GOLDEN = [
    ("z6_cap6.ssx", lambda: nerve(cyclic_group_category(6), 6).sset, ("homology",), 2,
     "53de978f9a2c493b5b1878b9460873545cc45c7be05798b7cdd47e42161ff180"),
    ("z3.cat", lambda: identity_functor(cyclic_group_category(3)), ("theorem-b", "--cap", "4"), 0,
     "fbdecf2ec6f913f1f2f5ebb5b6a2c1c026263e0e57661c91e3c491f30c237d4e"),
]


@pytest.mark.parametrize(
    "name, build, argv, code, digest", TRUNCATED_GOLDEN, ids=[g[0] for g in TRUNCATED_GOLDEN]
)
def test_truncated_report_matches_golden_digest(name, build, argv, code, digest, tmp_path):
    path = tmp_path / name
    save_path(str(path), build())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = main(["--json", *argv, str(path)])
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
