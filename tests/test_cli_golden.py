"""Pinned CLI runs: stdout, stderr and exit code under one sha256 each.

A digest is sha256 of json.dumps([code, stdout, stderr]) after the
temporary input directory is replaced by "<tmp>", so a change to any
output byte, any error line or any exit code changes it.  The cases cover
the K-group commands in text and JSON on four graphs (one a generated
layer whose group names contain commas), the commands that write graph
files or JSON with floats or deeply escaped names, the text and JSON of
every other command, every command that refuses a graph without a
bipartite split, and one run for each exception class that main maps to
an exit code.
"""

import hashlib
import json

import pytest

from sepk.cli import main
from sepk.graph_model import builtin, serialize
from sepk.transform import canonical_sequence

# a kernel element of each graph: X - Y, transported by Phi to layer 2
ELEMENTS = {
    "E(2,2)": "X:1,Y:-1",
    "E(3,3)": "X:1,Y:-1",
    "lamplighter(2)": "X:1,Y:-1",
    "layer2": (
        "v|a1,b1.1:1,v|a1,b1.2:-1,v|a1,b2.1:1,v|a1,b2.2:-1,"
        "v|a2,b1.1:1,v|a2,b1.2:-1,v|a2,b2.1:1,v|a2,b2.2:-1"
    ),
}
COMMANDS = {
    "ktheory": [],
    "k1-tame": [],
    "k0-tame": ["--depth", "2"],
    "phi": ["--element"],
    "delta": ["--element"],
}


def _source(graph: str) -> list[str]:
    return ["{tmp}/layer2.graph"] if graph == "layer2" else ["--builtin", graph]


def _graph_cases():
    for graph, element in ELEMENTS.items():
        source = _source(graph)
        for command, extra in COMMANDS.items():
            extra = extra + [element] if extra == ["--element"] else extra
            for fmt in ("text", "json"):
                yield f"{command}-{graph}-{fmt}", [command, *source, *extra, "--format", fmt]


CASES = dict(_graph_cases())
CASES.update({
    # a valid graph without a bipartite split
    "phi-loop": ["phi", "{tmp}/loop.graph", "--element", "v.1:1"],
    "delta-loop": ["delta", "{tmp}/loop.graph", "--element", "v.1:1"],
    "k1-generator-loop": ["k1-generator", "{tmp}/loop.graph", "--element", "v.1:1"],
    "sequence-loop": ["sequence", "{tmp}/loop.graph", "--depth", "1"],
    # one run per branch of main's exception -> exit-code map
    "usage": ["ktheory"],
    "file-format": ["ktheory", "{tmp}/malformed.graph"],
    "validation": ["ktheory", "{tmp}/invalid.graph"],
    "budget": ["k0-tame", "--builtin", "E(2,2)", "--depth", "3", "--budget", "10"],
    "precondition": ["phi", "--builtin", "E(2,2)", "--element", "X:1"],
    "parameter-range": ["ktheory", "--builtin", "E(1,1)"],
    "os-error": ["ktheory", "{tmp}/missing.graph"],
    # graph files and JSON with floats or deep escaped names
    "multires-E(2,2)": ["multires", "--builtin", "E(2,2)", "--at", "v"],
    "companion-lamplighter(2)": ["companion", "--builtin", "lamplighter(2)"],
    "character-E(2,2)-json": [
        "character", "--builtin", "E(2,2)", "--base", "{tmp}/base.json",
        "--free", "{tmp}/free.json", "--at", "v", "--format", "json",
    ],
    "sequence-lamplighter(2)-d5-json": [
        "sequence", "--builtin", "lamplighter(2)", "--depth", "5", "--format", "json",
    ],
    # the text renderings and the JSON of graph-writing commands
    "validate-layer2-text": ["validate", "{tmp}/layer2.graph"],
    "validate-layer2-json": ["validate", "{tmp}/layer2.graph", "--format", "json"],
    "validate-invalid-text": ["validate", "{tmp}/invalid.graph"],
    "validate-invalid-json": ["validate", "{tmp}/invalid.graph", "--format", "json"],
    "sequence-lamplighter(2)-d3-text": ["sequence", "--builtin", "lamplighter(2)", "--depth", "3"],
    "k1-generator-E(3,3)-text": ["k1-generator", "--builtin", "E(3,3)", "--element", "X:1,Y:-1"],
    "verify-generator-E(3,3)-text": [
        "verify-generator", "--builtin", "E(3,3)", "--element", "X:1,Y:-1",
    ],
    **{
        f"{command}-{graph}-json": [
            command, *_source(graph), "--element", ELEMENTS[graph], "--format", "json",
        ]
        for command in ("k1-generator", "verify-generator")
        for graph in ("E(3,3)", "layer2")
    },
    "character-E(2,2)-text": [
        "character", "--builtin", "E(2,2)", "--base", "{tmp}/base.json",
        "--free", "{tmp}/free.json", "--at", "v",
    ],
    "multires-E(2,2)-json": ["multires", "--builtin", "E(2,2)", "--at", "v", "--format", "json"],
    "companion-lamplighter(2)-json": [
        "companion", "--builtin", "lamplighter(2)", "--format", "json",
    ],
    # precondition refusals of single commands
    "character-loop": [
        "character", "{tmp}/loop.graph", "--base", "{tmp}/base.json", "--free", "{tmp}/free.json",
    ],
    "k0-tame-negative-depth": ["k0-tame", "--builtin", "E(2,2)", "--depth", "-1"],
    "sequence-negative-depth": ["sequence", "--builtin", "E(2,2)", "--depth", "-1"],
})

DIGESTS = {
    "budget": "46810bc4157bfbde0b37171edf5f31774e3bfc29fa91763f45276b16e2a90c11",
    "character-E(2,2)-json": "d7c401b49ab01de0f41b8109bf28f56b976ce3bf1188162926d1171b7cac5903",
    "character-E(2,2)-text": "aa1c5ee8bf1c896228e9b80de643cb39211cb349f7c9cd2dfc66b7739133b7de",
    "character-loop": "484ff363085f243e4480daad29a6d00724cebd42d8cacea13501a36c8e9d3cc5",
    "companion-lamplighter(2)": "f78f445ca0ed16956a08cdf72c33f293b7bfe21100c0803047f01b1192e897e6",
    "companion-lamplighter(2)-json": "f78f445ca0ed16956a08cdf72c33f293b7bfe21100c0803047f01b1192e897e6",
    "delta-E(2,2)-json": "2a19a103a8d6cb36e9af953c261c1d9b78dfd235e093e201f4b1b913e7c321fc",
    "delta-E(2,2)-text": "aba677600b9edc78a5fb0c7398aefe89c4acf2459ad334748144ec4ac54390c8",
    "delta-E(3,3)-json": "efe436ba199447c0b2bb83ce5c2b6fdcf80f8e60a1acd321b085bc5f94e08a60",
    "delta-E(3,3)-text": "af41d5505ca12e7d1d4e2f65fbe088a06be5fd7b489c9b099bbd1fd4d497dccc",
    "delta-lamplighter(2)-json": "badff49023f6e1a3305813afda2eedf26ba814eeff0576210a6dcb2adfaa410c",
    "delta-lamplighter(2)-text": "2863dc27918f38a429b65b851186663079bc163cf196faae6fe10d2d93a26d46",
    "delta-layer2-json": "8df1db902dd2ff33cbd369a85216ff2a481a9be37226def5ba78eb586befa2bc",
    "delta-layer2-text": "cc2b31b53877864fbd439aa2a33581f8b5803ccabcd1a5ba5c35fc3fdc340372",
    "delta-loop": "8b59cfa57ab85d7c7ab5697ac9a4928039d57a6544752476da7c4bed782cefb6",
    "file-format": "b84b6dc61b6d5a2d6d8a4396c6555ed2229404ca517ea89d742b5a404163c3e8",
    "k0-tame-E(2,2)-json": "f321e2fe3abeaab7e32e733e21ff042a5a16161950003f27d37378120eeb4b6c",
    "k0-tame-E(2,2)-text": "0d880bd1e68a3388994550f8c29aa1b4a3a1d3409066a48e3149d3aa5b862364",
    "k0-tame-E(3,3)-json": "32b8f233f1c8ca5437db3f0fba353da8b5d680aa1f8afd65d8e7b5d7fd1cebc4",
    "k0-tame-E(3,3)-text": "cf297a22a54fce08bdc20e34fe7e720b4674d70e689329f9f7ae84a3eb2c1fc2",
    "k0-tame-lamplighter(2)-json": "c6cf41acee9b2b7651f610c2281b3acef2bc6ae8478efe42af09677f6091d547",
    "k0-tame-lamplighter(2)-text": "bff9a37117863ada2234da69e43dc23b1fa88294d46e3c77539ecf6b20859160",
    "k0-tame-layer2-json": "667ef8f7e381b609470b03fc76a9360413f0b56a7ffbbf20268dac65a94dd98c",
    "k0-tame-layer2-text": "9c38132b13ba2c562dadcff211cb32f51150a8514f334e4d1c2274c2694d4bf6",
    "k0-tame-negative-depth": "386ec46aad5257b2361fd62df27c9beeb0f2f1e57ad12d533dedacf659b81826",
    "k1-generator-E(3,3)-json": "4722a4e569031bb4c4f6e5fae4f52c642ffb603aff46ea23988d9c1e3037ae52",
    "k1-generator-E(3,3)-text": "17b6fac50d898e457ef7145a8929cab57d53eb25cde12fe6f73b3e9045101f3d",
    "k1-generator-layer2-json": "35d25fc9f2cc88163dbe0a1de6ef81fc3e51e0fa9eb24b90ba7a11f97ccdf00f",
    "k1-generator-loop": "37c548193ef6519580b711de2da998eb957a2d64dc00184c6ccfa20605287566",
    "k1-tame-E(2,2)-json": "53c97155701d08b6f67c0b6a0f11a8c91c356cc8210760a074442607914eba6a",
    "k1-tame-E(2,2)-text": "58e54416ac9a3af8ebd24663f9c066f595dc407e9faf0de791d9aef88f391fab",
    "k1-tame-E(3,3)-json": "53c97155701d08b6f67c0b6a0f11a8c91c356cc8210760a074442607914eba6a",
    "k1-tame-E(3,3)-text": "58e54416ac9a3af8ebd24663f9c066f595dc407e9faf0de791d9aef88f391fab",
    "k1-tame-lamplighter(2)-json": "53c97155701d08b6f67c0b6a0f11a8c91c356cc8210760a074442607914eba6a",
    "k1-tame-lamplighter(2)-text": "58e54416ac9a3af8ebd24663f9c066f595dc407e9faf0de791d9aef88f391fab",
    "k1-tame-layer2-json": "f885e77e8b334976bc1ba3c866a7ddc473de269fa9caf1e7a99fe5816fde65c6",
    "k1-tame-layer2-text": "564233cea39a16004a2d91add59c13f49a89d56e14666428cbc51224479d6f32",
    "ktheory-E(2,2)-json": "5b591f257ed21bbee51c0b442ee4300181de7b9376497e6cc681f7f0534e8e13",
    "ktheory-E(2,2)-text": "59f2b10cf01b480c6b18f88056d6da1e4f9a94a63014086364dfb031e0b02863",
    "ktheory-E(3,3)-json": "5b591f257ed21bbee51c0b442ee4300181de7b9376497e6cc681f7f0534e8e13",
    "ktheory-E(3,3)-text": "59f2b10cf01b480c6b18f88056d6da1e4f9a94a63014086364dfb031e0b02863",
    "ktheory-lamplighter(2)-json": "e641f4c3e8b2846e2ee0137e15b0afaffe91e29ec9140bef7cbbe92ad6707827",
    "ktheory-lamplighter(2)-text": "2c19132ef057362c726399d81d969523cfa8b61fb31d1b371520cb233aadc481",
    "ktheory-layer2-json": "983c8c5aec18c6f18ea0c0d5a76cd5c357dfd08022de86167779a817ba0fad2b",
    "ktheory-layer2-text": "68099d21dd92b1f214d9a4c1a913bd5345e76f04d3fa1a8c5292b066a1afe484",
    "multires-E(2,2)": "530310b1d4e1f6eb4452eb18d00a84962e0b26c160fe514b10de0614029751bd",
    "multires-E(2,2)-json": "530310b1d4e1f6eb4452eb18d00a84962e0b26c160fe514b10de0614029751bd",
    "os-error": "ea3972412bd04e5f2ff15eaac404114cee684e4348dbd976f759f22078c1ee45",
    "parameter-range": "d85a423d68a1e4268f5eada1b786c6d9db272d7cae3f35c6d1da47c16c7c93f0",
    "phi-E(2,2)-json": "63edc76d78ea1970adf0a1bacfb75d8016025b7678d245ee8c630adefc901db2",
    "phi-E(2,2)-text": "532b871229797a8feeab52826ed6fb9debc91d3e6de28f9e1e7704cfbc64d5a7",
    "phi-E(3,3)-json": "ec55c52efac079312e7189d5c983c39b3ceee3520bb609f1dd33f7b941c7b623",
    "phi-E(3,3)-text": "51e40c2d9e5354b9887236e402bbea8923b1e7339883c2db2996b7bef669f6cf",
    "phi-lamplighter(2)-json": "52f8fe30d5d11e3864e5e698230c19e1846658a36c42d857cb990cd2eb292691",
    "phi-lamplighter(2)-text": "532b871229797a8feeab52826ed6fb9debc91d3e6de28f9e1e7704cfbc64d5a7",
    "phi-layer2-json": "b328fbfef7afa5863d1a77684b6c1b219d4aa369b60a870cfd43734e7f2c09c7",
    "phi-layer2-text": "ad62cf1a6cd7365bd8d5bbd6c9bbb2b95c9ccf3e047276811f83e3a49309b1e4",
    "phi-loop": "2d737d873e6269cbdcaca0b3149039bab9149f42fc5778862e846d9b10f3c456",
    "precondition": "ef7c12c54e33ede994d439e957488fbac58462a66fa104d2ef11d4e9691d0cbd",
    "sequence-lamplighter(2)-d3-text": "d09e33d452ead94b7120dffcb340c19945a9b1a1133bb357e826d89a5fcf2fcb",
    "sequence-lamplighter(2)-d5-json": "37791cb0530f7d583e73fc1b194efc6c9a8449a67c517c4c27bfc0d103e634cb",
    "sequence-loop": "959ebe311ac5c7c2adf40f0df08fc97fce59706989d969a02193d7dbd55830c1",
    "sequence-negative-depth": "386ec46aad5257b2361fd62df27c9beeb0f2f1e57ad12d533dedacf659b81826",
    "usage": "f28fb1df0f7b77ec68c79dbb38eb80d2d659e3755d6de0dcd0b26a827271892f",
    "validate-invalid-json": "57dd9cfbbd84462fcfa541f0510fb1b2414570e0535edbfb979ce59ebf0fd4e0",
    "validate-invalid-text": "1ef7e1141763a191ee60a53dde38d27165ea020f6d2db80eff5126a7b9caadb5",
    "validate-layer2-json": "fafd295b81011c3f3a8e30aa7d2601148dc7da6eb5eac4771f87369668b469e1",
    "validate-layer2-text": "c84c267666a9f92d2bb37f5d970c2d3ca4164542dc607ea472e9282c892ad616",
    "validation": "764ae2b8a47989eab8d4db126606068f32e6d6766e62299389d7a062af04a994",
    "verify-generator-E(3,3)-json": "d088242529fb8f0a3518b8893018ddeb601f68e571ab53cf2dfe39ef813a1c6b",
    "verify-generator-E(3,3)-text": "0d2e62b490b6f3367eefcee5b81c5f57e23abf2870bd5b844fbb82ffd8e82f3a",
    "verify-generator-layer2-json": "d088242529fb8f0a3518b8893018ddeb601f68e571ab53cf2dfe39ef813a1c6b",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    layers = canonical_sequence(builtin("E", [2, 2]), 2).graphs
    (tmp / "layer2.graph").write_bytes(serialize(layers[2]))
    (tmp / "loop.graph").write_text(
        '{"vertices": ["v"], "edges": [{"id": "a", "src": "v", "dst": "v"}],'
        ' "separation": {"v": [["a"]]}}'
    )
    (tmp / "malformed.graph").write_text("{nope")
    (tmp / "base.json").write_text('{"v": 0.5, "w": 0.25}')  # v = -1, w = i
    (tmp / "free.json").write_text('{"v|a2,b2": 0.16666666666666666}')
    (tmp / "invalid.graph").write_text(
        '{"vertices": ["v", "w"], "edges": [{"id": "a", "src": "w", "dst": "v"}],'
        ' "separation": {"v": [[]]}}'
    )
    return str(tmp)


def run_digest(capsys, tmp: str, argv: list[str]) -> str:
    code = main([arg.replace("{tmp}", tmp) for arg in argv])
    out = capsys.readouterr()
    record = json.dumps([code, out.out.replace(tmp, "<tmp>"), out.err.replace(tmp, "<tmp>")])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_golden_digest(case, inputs, capsys):
    assert run_digest(capsys, inputs, CASES[case]) == DIGESTS[case]


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)
