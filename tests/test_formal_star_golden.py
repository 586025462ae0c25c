"""Golden digests of the generator matrices and of their verification.

The digests were taken before the formal-star calculus memoized its
reductions.  Each case pins the bytes of `sepk verify-generator --format json`,
of `sepk k1-generator --format json` (every grid: Z, T, sigma(T), U) and of
the rendered grid of U = Z sigma(T)*; the corrupted cases pin the FAIL
details, residues included, of a column bijection that is not blockwise.
"""

import hashlib
import random

import pytest

from sepk.cli import main
from sepk.formal_star import build_generator_matrices, verify_partial_unitary
from sepk.graph_model import builtin_from_spec, group_label, serialize
from sepk.ktheory import phi_transport
from sepk.transform import canonical_sequence

from conftest import bipartite_graph_with_kernel, random_kernel_element
from formal_oracles import assemble_generator_matrices

X_MINUS_Y = {("v", 0): 1, ("v", 1): -1}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def element_text(x) -> str:
    return ",".join(f"{group_label(k)}:{c}" for k, c in sorted(x.items()))


def transported(spec: str, layer: int):
    """Layer `layer` of the canonical sequence and X - Y carried there by Phi."""
    graphs = canonical_sequence(builtin_from_spec(spec), layer).graphs
    x = dict(X_MINUS_Y)
    for g in graphs[:-1]:
        x = phi_transport(g, x)
    return graphs[-1], x


def random_case(seed: int):
    rng = random.Random(seed)
    g, x0 = bipartite_graph_with_kernel(rng)
    return g, random_kernel_element(g, rng) or x0


# case -> (graph and element, sigma seed)
CASES = {
    "E(2,2)": (lambda: (builtin_from_spec("E(2,2)"), X_MINUS_Y), None),
    "E(3,3) 2X-2Y": (lambda: (builtin_from_spec("E(3,3)"), {("v", 0): 2, ("v", 1): -2}), None),
    "lamplighter(3)": (lambda: (builtin_from_spec("lamplighter(3)"), X_MINUS_Y), None),
    "E(3,3) seed 7": (lambda: (builtin_from_spec("E(3,3)"), X_MINUS_Y), 7),
    "lamplighter(3) 2X-2Y seed 3": (
        lambda: (builtin_from_spec("lamplighter(3)"), {("v", 0): 2, ("v", 1): -2}), 3),
    "E(2,2) L2": (lambda: transported("E(2,2)", 2), None),
    "E(2,2) L2 seed 1": (lambda: transported("E(2,2)", 2), 1),
    "lamplighter(2) L3 seed 4": (lambda: transported("lamplighter(2)", 3), 4),
    "random 11": (lambda: random_case(11), None),
    "random 12 seed 2": (lambda: random_case(12), 2),
    "random 13 seed 9": (lambda: random_case(13), 9),
}

# case -> sha256 of (verify-generator JSON, k1-generator JSON, U's grid)
GOLDEN = {
    "E(2,2)": (
        "4c02ca16e15bf0c7a3489996ce3549565896c52dad07bd0299c0d64e2fd03f76",
        "255e3317060cb8853f1a2ae805026d72c037fc4ccf98549e2d5dfaccd750abf5",
        "9abbd050f6025a8215c1331a59aa02523edd6a484ede1829bc44ee16d816f5a5",
    ),
    "E(2,2) L2": (
        "4c02ca16e15bf0c7a3489996ce3549565896c52dad07bd0299c0d64e2fd03f76",
        "d56e3b132f5d0c36d4d8a172c8c322db7a3548f2d484d2c74dd0515d58952f4a",
        "c65eee67661a07937d17d4c74610e50ee785823c181a4402dd601f5946aad9c6",
    ),
    "E(2,2) L2 seed 1": (
        "4c02ca16e15bf0c7a3489996ce3549565896c52dad07bd0299c0d64e2fd03f76",
        "9c05a6c42f636acb85a5560301f1ebf9afffb29aa24b86515bfe5ac5d4c318a3",
        "ade3e25dcb23819d9f9a1ca1135cb71586a4959f9f1bfc837dbd74e427d2850f",
    ),
    "E(3,3) 2X-2Y": (
        "4c02ca16e15bf0c7a3489996ce3549565896c52dad07bd0299c0d64e2fd03f76",
        "11c91526dc8763b10cba44f9f26233daf65af88ffe3de436850e3e25f7670f6a",
        "c299bdbc5f16f8a14097bc496895fa3b403a144be8c0caba29a93fbe0e4cbdd8",
    ),
    "E(3,3) seed 7": (
        "4c02ca16e15bf0c7a3489996ce3549565896c52dad07bd0299c0d64e2fd03f76",
        "c5a6eff38c8cba6a868818abbd97f98242ec1584ec8497b6291eafc5fde47832",
        "fbbf756181edcd23ff3ed226d44c226eeeec6c2c452f4511baa0aec4f0edc2dd",
    ),
    "lamplighter(2) L3 seed 4": (
        "4c02ca16e15bf0c7a3489996ce3549565896c52dad07bd0299c0d64e2fd03f76",
        "cde7140557daeee8c909b888b17350dc1631e10a01ea33f355ffbec7b9d1e358",
        "36f0ad05abf9e2cb5df3937ce2adb0c7cbddc3055e002d0f44dc2e5888c3039c",
    ),
    "lamplighter(3)": (
        "4c02ca16e15bf0c7a3489996ce3549565896c52dad07bd0299c0d64e2fd03f76",
        "462b5473af2e4d0b1b9f15dee3bf037f5bb2b9b886c8a99dbc406d1772a35dd7",
        "edea4bba6c5a6044a0da4be0129fb08bfef6a13f8397bef96bc0ac6d1c542292",
    ),
    "lamplighter(3) 2X-2Y seed 3": (
        "4c02ca16e15bf0c7a3489996ce3549565896c52dad07bd0299c0d64e2fd03f76",
        "fa27b29a26e74ec5b138587fabdc0f2fc7799df380e6f50691a5769ec135c106",
        "6bd5d33fb0eb85f560ef23b5a9e0ebf6bc8619449c6ebdd44ab436d28bee2334",
    ),
    "random 11": (
        "4c02ca16e15bf0c7a3489996ce3549565896c52dad07bd0299c0d64e2fd03f76",
        "f9fb0242508c8900d55654e7dfffe0301d1a8f36833d90190b460ab890b5a0be",
        "7491f7294de9945541886325ab2b912cc8afd2e63cc8bf68fa4dd24a3e110116",
    ),
    "random 12 seed 2": (
        "4c02ca16e15bf0c7a3489996ce3549565896c52dad07bd0299c0d64e2fd03f76",
        "60519ca5d9202618fe9ac29ce5790aad133c1e0252ea0bed3815434cd00da96c",
        "5cde4d5c7fd13ecc99897f0b336055f1e6fe17c9967520af7af1e7bc3a70a48b",
    ),
    "random 13 seed 9": (
        "4c02ca16e15bf0c7a3489996ce3549565896c52dad07bd0299c0d64e2fd03f76",
        "bab2294ac41b6d713ea1a293b568aba50052787c19b461ac8372b40adcd09aea",
        "067b94473f6f973d9d8538bb92c38e794c743030d6ae4ce980370e001b3ca3c5",
    ),
}


def cli_json(command, tmp_path, capsys, g, x, seed) -> str:
    path = tmp_path / "graph.json"
    path.write_bytes(serialize(g))
    argv = [command, str(path), "--element", element_text(x), "--format", "json"]
    if seed is not None:
        argv += ["--sigma-seed", str(seed)]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_generator_output_matches_golden_digest(case, tmp_path, capsys):
    make, seed = CASES[case]
    g, x = make()
    verified = cli_json("verify-generator", tmp_path, capsys, g, x, seed)
    matrices = cli_json("k1-generator", tmp_path, capsys, g, x, seed)
    grid = build_generator_matrices(g, x, seed=seed).u.format_grid()
    assert (sha(verified), sha(matrices), sha(grid)) == GOLDEN[case]


def corrupted(make, swaps: int):
    """Generator matrices whose sigma2 is composed with cross-source swaps."""
    g, x = make()
    gm = build_generator_matrices(g, x)
    s2 = dict(gm.sigma2)
    cols = list(s2)
    done = 0
    for i, c1 in enumerate(cols):
        c2 = next((c for c in cols[i + 1 :] if c[2] != c1[2]), None)
        if c2 is None:
            continue
        s2[c1], s2[c2] = s2[c2], s2[c1]
        done += 1
        if done == swaps:
            break
    return assemble_generator_matrices(g, x, gm.sigma1, s2)


# case -> (graph and element, number of cross-source swaps in sigma2)
CORRUPTED = {
    "lamplighter(2)": (lambda: (builtin_from_spec("lamplighter(2)"), X_MINUS_Y), 1),
    "lamplighter(3) 2X-2Y": (
        lambda: (builtin_from_spec("lamplighter(3)"), {("v", 0): 2, ("v", 1): -2}), 2),
    "E(2,2) L1": (lambda: transported("E(2,2)", 1), 1),
    "E(2,2) L2": (lambda: transported("E(2,2)", 2), 3),
}

# case -> (sha256 of the report text, sha256 of the grids of sigma(T) and U)
GOLDEN_CORRUPTED = {
    "E(2,2) L1": (
        "683bda4058185662c47fd6fe06f65f6763a81649d16271679cc8cdfcf5722d9d",
        "6a0801e05c7c1560c7913f067bb0a7d2206f7cab0f0545b9c75719fb4cf762cd",
    ),
    "E(2,2) L2": (
        "6384a66e29a9bd6025b9370be49719083bdc80971b141a0cb5cd12b6b45bff92",
        "a03101190c14cbce700d963944c01dd6d21b2b930d95b51fe54bad4287457c4a",
    ),
    "lamplighter(2)": (
        "725292b261ee326db042e3b2628bd75913d2f2fca8aef1b6d5e9d7878a7ba894",
        "f180f44f1d3ea90a8d54aec4b3673fcd0b8b475b8f4d78ae2e6ac7ee42540e2e",
    ),
    "lamplighter(3) 2X-2Y": (
        "c4ec69038d7e23c676d8090aafedd339bbe9d8fde3b6e3de4c453fbfd194db0e",
        "e8890c078c2b7ed731332b272b048303cb1fce420178d43d76d47d98d05b4d54",
    ),
}


@pytest.mark.parametrize("case", sorted(CORRUPTED))
def test_corrupted_sigma2_report_matches_golden_digest(case):
    make, swaps = CORRUPTED[case]
    gm = corrupted(make, swaps)
    report = verify_partial_unitary(gm)
    assert not report.ok
    assert any("residue" in c.detail for c in report.checks if not c.ok)
    grids = gm.sigma_t.format_grid() + "\n" + gm.u.format_grid()
    assert (sha(str(report)), sha(grids)) == GOLDEN_CORRUPTED[case]
