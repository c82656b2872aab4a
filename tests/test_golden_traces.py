"""Golden traces: SHA-256 digests of trace JSON, pinned across engine changes.

Any change to the determinism contract (sorted feasible list, splitmix64
pick by next() % n, sub-step order, record layout) shows up here as a digest
mismatch, so a faster engine must reproduce these traces byte for byte.
"""

from __future__ import annotations

import hashlib

import pytest

from bipkit import load_bundled_model, parse_model
from bipkit.engine import (
    LEXICOGRAPHIC_FIRST,
    UNIFORM_RANDOM,
    EngineConfig,
    EventScript,
    ScriptEntry,
    SplitMix64,
    run,
    trace_to_json,
)
from helpers import BROADCAST, PAIRS, SHARED_TYPE, TWO_LOCKS

SEEDS = range(5)


def route_script(n: int, cycles: int, seed: int) -> EventScript:
    """A seeded script: each cycle writes one `finished` guard and queues up
    to two `end` events on drawn routes.  Drawn with splitmix64 so the script
    does not depend on the Python version."""
    rng = SplitMix64(seed)
    entries = []
    for _ in range(cycles):
        events = tuple(
            (f"Route#{rng.pick_index(n) + 1}", "end") for _ in range(rng.pick_index(3))
        )
        guards = ((f"Route#{rng.pick_index(n) + 1}", "finished", rng.pick_index(2) == 1),)
        entries.append(ScriptEntry(events=events, guards=guards))
    return EventScript(entries=tuple(entries))


# name: (bundled model or model text, binding, cycles, event script seed or None)
CASES = {
    "mutex_n2": ("mutex.bip", {"n": 2}, 100, None),
    "mutex_n50": ("mutex.bip", {"n": 50}, 150, None),
    "mutex_n500": ("mutex.bip", {"n": 500}, 150, None),
    "routes_n3": ("switchable_routes.bip", {"n": 3}, 100, None),
    "routes_n3_script": ("switchable_routes.bip", {"n": 3}, 100, 11),
    "routes_n50": ("switchable_routes.bip", {"n": 50}, 150, None),
    "routes_n50_script": ("switchable_routes.bip", {"n": 50}, 150, 12),
    "routes_n100_script": ("switchable_routes.bip", {"n": 100}, 150, 13),
    "star_n4": ("star.bip", {"n": 4}, 40, None),
    "two_locks_n6": (TWO_LOCKS, {"n": 6}, 100, None),
    "broadcast_pair": ("broadcast_pair.bip", {"n1": 1, "n2": 2}, 40, None),
    # paths the cases above never reach: two parts on one type, one part
    # drawing every instance (r = n) or two of them, many live orbits in one
    # run, macros
    "shared_n3": (SHARED_TYPE, {"n": 3}, 60, None),
    "shared_n6": (SHARED_TYPE, {"n": 6}, 100, None),
    "broadcast_n5": (BROADCAST, {"n": 5}, 60, None),
    "two_locks_n40": (TWO_LOCKS, {"n": 40}, 150, None),
    "pairs": (PAIRS, {}, 60, None),
    "routes_n4_macros": ("switchable_routes.bip", {"n": 4}, 100, None),
    "routes_n4_macros_script": ("switchable_routes.bip", {"n": 4}, 100, 14),
}
MACRO_CASES = {"routes_n4_macros", "routes_n4_macros_script"}  # run with source="macros"


def case_trace_digests(name: str, policy: str) -> tuple[str, ...]:
    model, binding, cycles, script_seed = CASES[name]
    d = load_bundled_model(model) if model.endswith(".bip") else parse_model(model)
    script = None
    if script_seed is not None:
        script = route_script(binding["n"], cycles, script_seed)
    digests = []
    for seed in SEEDS:
        trace = run(d, binding, EngineConfig(cycles=cycles, seed=seed, policy=policy),
                    script=script, source="macros" if name in MACRO_CASES else "diagram")
        digests.append(hashlib.sha256(trace_to_json(trace).encode("utf-8")).hexdigest())
    return tuple(digests)


# (case, policy) -> digests for seeds 0..4
GOLDEN = {
    ("broadcast_n5", "uniform-random"): (
        "fd7052bc5da0d7451fe0ff1ec99081a8e4c81cb3472620e6035d3622a6bc0303",
        "cb8bb529d5dce46df9e444a00d483eed4176814a27d9ff96c1cbcb53be950882",
        "0710b6121473a4e8b38c0388848d7dffef811c1fd733d990313dc2013a26c1f9",
        "bdeb179b4e28dca7c58e527519ebed12fe0d1f79575377c884c26cd4a3dd2abe",
        "bc60b7845e6807ea87d37e55f8051b6633bda6eb9eb3cfca2daeafc53bbec9b5",
    ),
    ("broadcast_n5", "lexicographic-first"): (
        "8c217163cad8ea81640c0365d23614b028d00d0bbc6b14c2b14e664803fec5c4",
        "7699de2ab77bbc0f0d292f32ecdd3d4653a127e56fd8948dcd1ccb708ac97ca7",
        "57f1011e74eebb2e26b907e527716fef1e1a102b4f9e261acb3563256d8505e3",
        "8fb56a42805ab400a90073c4b91dd8559b6f16931d631215b4348747381b5d56",
        "de4e831259afe64a2d8d52a33cdd8c5dceabd58d0fd66c33d1aaf44401eb5a0c",
    ),
    ("broadcast_pair", "uniform-random"): (
        "7852b2bb3adf3f0d719c0b6b499a9869c4a2bd94763a5b52e0e7bd23aef8bfa2",
        "1f19c643c49dc287d47927897d45f6b7e8d117fc36558dda04471b08d7424607",
        "158fb7068dc7bb3f9fb0ffb92b6780e0c3d467e694448dec11e024b716fdb337",
        "ea0a44c8554367cc5b1e3badff6f749897b7a69e6115a7633c3dac8e9cce7291",
        "afa326e3e2a65f3e3a039eae991beef8073846d7ac434dd420b4b18c591fd24a",
    ),
    ("broadcast_pair", "lexicographic-first"): (
        "928329da41a43820a0b3f62427d6c1383d4a9eef4283113703b4fa21c86d7d2d",
        "c99ef427e775aab2ae7319f2ba63e223c397bf40fa9246090762356e0fe3948e",
        "15a34e1999a01f2231f996cfcdcbae2bdddddfc7fe8eaf804a6f33fc1cd3c8ac",
        "aa1c63d17b4288a0fc9846fa1dfd8ed387fecc77dd729fe7b069d0a722b9a4c2",
        "059ff049a33b5aabbf89c8e7688be39a4a16514476f1f15ff80635b6f3654dcd",
    ),
    ("mutex_n2", "uniform-random"): (
        "234e5a97c15aa1702fd63382c7330f090ac6527f5956fd2cb0b25bb9c1faec33",
        "1358b13145bf42696e47c62ea29b86d6cb91b38a6ce16cddca86c486ec84c950",
        "d7fd7779d2539e3f72f2a4b0ba23a17279a73d06a8db23b12ab4223fc0aab505",
        "5d2c155e6032def23ef0ec19df898e974f910897f600a9f17de0dda5c846d611",
        "d35ae618fe664ba50a43b1934a4a1ebde50819f8c61c7fff01a41b7fdf3323e3",
    ),
    ("mutex_n2", "lexicographic-first"): (
        "551808b3a66023ac1708efe51d9b56da33f7bbac83e6839dc8289ecd1662e7cb",
        "2bd4fbce7da35ef495ba4510cdab2b639392727758c7addb056be061a9a44d21",
        "c553d8b7815c61c522ee9dd53fb19f745eea22dc5bfc5ba1e805f9c53f58cb60",
        "6e0ac20348ae5986be2658ea2dffad6bdcea7548824d4f59f1294d1ca50d9ab6",
        "1c441018c0ae4556591d5e442b14f3988f951c1a0324e83b78832374a2c569f3",
    ),
    ("mutex_n50", "uniform-random"): (
        "826518da1bdd1d4b7d8919ac7569959b72422210b99ab6d37ad58f79d4035c5e",
        "0fa4704c3c625fd0388167021b7ee369917b63fb88a5ded83251c06c816e51c0",
        "7380727e6207014ca63459e6763744fc36ecbe07ed659c9a19e73db4ee491a6f",
        "cfdcb2f0a81c5971d83c7e91ac0e135b82a2cffc7a2da931a8c35b69093d9b29",
        "f8ad116228090a692194cfd7381fd810082ae387c7dfece09a29b0e2ff2127aa",
    ),
    ("mutex_n50", "lexicographic-first"): (
        "997f4aacfc4e346cf91ea486456dceb56383a2108ba4cc0b9bde9dc688aae7df",
        "9662c37fae487a1c5333cadf0eda039dc5c1758bf9d11008fe8e1bcf43d9d2e2",
        "89e6a4891a577b1afa77b2d5cd0a2987f5265de1ba97d4fdd466097d05867ce1",
        "c5386932665e3946073df959096fb526da137474d515282763ea53147e43cff7",
        "aae7899cbc8a31722d3d3e671e97c4413c95eb3d6c127d10e3cb749451a80789",
    ),
    ("mutex_n500", "uniform-random"): (
        "2cde57a586d186967e1afc31f37d37e0e6f87b3fae10a33a93761be93abc661e",
        "fed856934fe00975f8fa40b9b8ee056afc31c6a74c3fb9b77b5cf6e6179175d0",
        "27190efcfff2266a4eb5c754bc9977ef2c05cfc2e926a413d537551082928e63",
        "81df06940b897681f9e1557efb2804dd20cf6ad84601570522c2a3244b369617",
        "bc7ff503f9947e842f4c64d63cabb36ee63f1bc6f3473f5bb2ca6a0c887542ec",
    ),
    ("mutex_n500", "lexicographic-first"): (
        "22f7effd52d460aac6c7a173cf014215135499f84d40fe64ed24d070f1e34da7",
        "efac298edba266faa2e633953ab6c8e59ef86744c0469c99df8661e7848a9fba",
        "128880a294c102cb561a09dded15edf315dde7dfaa4a712a5ee2d132f60b3f45",
        "461dbd5d587bfc7c9d62e5f9ca00f5f687e6dfc52399cbfc5626e46407f18e9b",
        "539e16ca593661e77177d8f306a47bf80a00f53f8a3d810de40d9ee1fdf2be8a",
    ),
    ("pairs", "uniform-random"): (
        "c24c01ab769dfdf9e6d36af628d4e2c4078e542c0220d90c28742739320bb1f1",
        "5377e37e6891c5f2c31275de3330cfc08595774a2ed8c076346d25874b88ac63",
        "e4c0563ad29a7b96fe8ec976d1ea60d803cd68535ea00c1ba42b551344ab6d61",
        "c8f862f163f1b61c8a0ba98be1b49b001337c3e274dbde047f99a886e141b393",
        "b5762ebe3f19e46bd0d97a32cde362dd38536a40ff583433c75d8dddefb3d355",
    ),
    ("pairs", "lexicographic-first"): (
        "1e3e10db29448050652257a44f92eb034e3baa05e4f773748fb93f69f9cbfc43",
        "505425fd30aeb5c4ef41e93557f2eee4e399819c1d665d22420441ffe392516e",
        "14e013a005579109001962e69e6a6807d354a74c6f0ebf9b5a3bd15441c63eeb",
        "079560ed1ecdc578304359a21958752249e09645e83a673bf12c2dad1b3d09ee",
        "ca5305b6c005d3ef749f734cdb0cc1a28ae84d21a6fd628168257948e309e61f",
    ),
    ("routes_n100_script", "uniform-random"): (
        "b81d19a5b7ea1ddd2e31fac096501e7aa339d9efb7173fba0ff498a06b841ca1",
        "0748fe209537a773db7ae9f4a30ba97db813edac11012417e00c297a39dea3a9",
        "2ed218c62669ac4e2c7236ecb39a7a957384483beb8c410760e0cb66b6f8f420",
        "2c3a4b550c8dfeccb3577b7c382cd55c788c02f56eda252765cd0b021febc512",
        "11fd5dd0923adf723ec380407472fca9c30a751d48b31a9297ed6a6e1f82e3f8",
    ),
    ("routes_n100_script", "lexicographic-first"): (
        "c2381e53885f8e0fce91079f7f396716111ede07c5bdf09a9762eb2498524c7a",
        "ab8dbb3f02373a8c46436e9ba6a043febcea5deb52a05b4daf38d5e5515da85f",
        "ea62fe4d6bd59d94301b71cec63bd584dbb3421f69b378aef1055e56d4f21d3b",
        "a5d4dc73df749b0d4c5665f72a451a1345c3429e8a38b1847e23337a8d90b9e5",
        "6c60e2b4893740f184061f9017fe92f2b74784f2c08ecb1b14eee22652b3c49b",
    ),
    ("routes_n3", "uniform-random"): (
        "a376ef5010c743ef7075ea2817c9e1000652bfe72db65d9c13b1f243ffbeec88",
        "ba998888c77f3df07c91a19004959b8b716024302a05b9ffb822cf51419c5520",
        "e4baf2d909637f5e579ee655b6b42e70daf60bc5b933c9f0a757e6ace4eb1ed4",
        "c01dedd64fc3916992621c871fb01e66a0314ede49b9e8f0f0a000e934e8cc9b",
        "740a4a7deafd1390b748ec723f6534e0c3aeb468c976cba65c920c880d3ffe8a",
    ),
    ("routes_n3", "lexicographic-first"): (
        "6c9b63bcbbd3c7ae7cd826f4899556eda32e4d5a7e61a1b3a111d777a070201b",
        "2dcf826d21e84a205289fe44ffc0d880d10578eed3d0eb45296dfe917bd9df99",
        "4ec968e185d6e54dd24d7939c924e4954e38490108f8fdc56925e86980de7242",
        "af015844db6c9be086ac9255bb28c7cdcfdc00c73ecf3176ed34aa7364f9ebdc",
        "a57756d8588122fb8f7864d22f2dd91b672b41084415d143b7f09adb901c84ad",
    ),
    ("routes_n3_script", "uniform-random"): (
        "71e97e1c732391acdb69a24df1968cfd039b7cabdda81907454299c8820e9799",
        "9235bb5a75e5dbb000eafa08bad6290de795b4b3a9f26e7ed6a04cefaec0ad37",
        "56fe4bff80cfb6fc57e1e93a01935b2c4d236d30d00ccc80dfdcc01b7e44be61",
        "8bad6eac774e9ab37658b40f21b986c6cc48be4476c88695f4f5b486c80b361c",
        "e8ae537e8c59e29a7db54416e996fafeb70f054050b2ac26cb758869788d9863",
    ),
    ("routes_n3_script", "lexicographic-first"): (
        "047f8f17bb960da942383748344644f182e3d52c1358498d6689404f71ab2539",
        "dfe57e62ec7b3618ec73623708121111f6c1b61c1cdca5e13038e07b40c6a18e",
        "0e402a0ab6fe181f8de1a045479b6994935987f9d0c68c4104978e82715e5137",
        "61bd8a0a32bbd548edb5b566dacc6095ad7339f9370c7b5e2583de3dd83fee2d",
        "77fb79c1997ed1f0480028e83c0dab98d72dc331a5b3768270bf59b8952e4811",
    ),
    ("routes_n4_macros", "uniform-random"): (
        "124a2b5d122301eac9b7d2588db6131a22f2683147d188e560631f29f1fea2fb",
        "0ccb8dd2fe525368ec3b675670d0a7e3b6ac9b751ecc754db65bc6196266e82b",
        "fee9e17b674367af07069c668a8a1645effa05a5eeb50cf70b3219f6e572e99e",
        "a2161d29766e30daf746a92e669055172752971213042148a56e98acc73ecca5",
        "129d2685ea995e424b48eccec290447a8b988a973852c233982ee0ab297d50bc",
    ),
    ("routes_n4_macros", "lexicographic-first"): (
        "b5c24361b93a1ce36d1e8280f4980d4855a0256491ee14564c49f12241d5c015",
        "6bbaeea30a0064a8824e812d5d89e1ebb008c76a51f4091462ca50822a7a5bea",
        "6bbb91e7ad47df5ac34a1dde8c8bfe7bc0ba271ff434d8e4c3d2996465044b65",
        "c2ce61aee7e87050f441af0424a266233370dec420ec587d2f5766abc2891a1f",
        "f55cbae896a1330eb7cf6beb80ac5e87860f30ca48238773f1c80246867cb596",
    ),
    ("routes_n4_macros_script", "uniform-random"): (
        "06c4df1bcf0384ba4673b7deb9b926b0dab66ad75117d2f81fc676237f9dc781",
        "ced62c8b293c36341ea8e0f424652616e18645ed779fa8cac1dcd4caef13fed2",
        "34a01d3ffafd148c24e8937676d9cb267f2a62e457fdf7a375d02db761361ed4",
        "1f84d0b0100aeae0efe7c7cd77b177e5d644b6cbdae9429984aee2630e47fc18",
        "07c4fb5bb0988e46d0af2d1861f1b60d44ac788b696ea9c4b1d536b892d71a92",
    ),
    ("routes_n4_macros_script", "lexicographic-first"): (
        "b8dd2874472ef220ca8c16e6e8e930e0fada313abe7f160dcc84bc848fa4d381",
        "76dc86f0dca399e3d0ef6e2559d31d9c3c742a08c8713bb448cf23aee225223c",
        "bb7b99efbc20d3c99b9a20b0b0ef1f6265f4efa6f0451b9cd57684333e231e17",
        "89c9f4b4e12e53f0a7fb5100d14df25c5051db8851549ea0718a844c00877cd6",
        "cebc760c03f02841342114ca40302bcf30bc39e323ca3c51befadb7ea174d140",
    ),
    ("routes_n50", "uniform-random"): (
        "c0ac61c697f960931006305057dd002b0a96423e389040187353f2142e823f35",
        "bdd9c6e87544d7440b3223c3a7cddd1f0fda62082733925adb537a7b40140a10",
        "f10d57309111e6264b26eb36643dfa48a5e5c677d71a574ed0d6820983025a46",
        "f927e8aec2100335ad484252a033e536a54c85b10a56b740d02d76a2ace97628",
        "2902367fc3c5f85c99d18599a86e0594ca679a1b02bb4d5dfd56099432e3e3fc",
    ),
    ("routes_n50", "lexicographic-first"): (
        "d66bef54e81bcb655e39e261a81aa65ea6c22b4c8af5d2449a3c7380bb89bb8d",
        "c2760c3f9b7079adea2f99c3ce05b6c1038136822791c53321e20ba4532c6cb1",
        "334fb2b8485afdacc7f797acc53c74020d60c3e4e7942e58c273a9eae16cd62d",
        "cceedd73b11d65354cd51ad2f7e9f04aac5e5fde282de7c7151680f970b1b18f",
        "12e044768013ce9d9c48221615c067c0cf46ef589fc4da564ad270f85b29c6af",
    ),
    ("routes_n50_script", "uniform-random"): (
        "82f65add1374e0323f93e05606d93b5433ae4869e695b9cc37e89b633aad590b",
        "ba3021b5d19b1167c54a334172db149e48f9967d33e52cabc91d1dc04e411bd4",
        "d8857e43ac47f2bbd647cee95f97cc2f550a098020cbdd32fced9b8268fc70b7",
        "83d26b8a29ee56e607ccd86ec06cc0b8fccee3486607e51dc2aa3ffd6b2ab05c",
        "2c0457932dddfb8de48750f47e5c95ad94e1ec4b912d25ca00c2d3cfe34e2660",
    ),
    ("routes_n50_script", "lexicographic-first"): (
        "abf7e160a236682ae9daf2e3d686d2ab485c5b6516d766b6a4d8ab9b96cfe510",
        "778ada774193d8be9feb47231d23d88a62ff4703a59796e1ad90bab3109f2020",
        "cdaae1bdd1c223d6c4f6d2d5a43d66c64d4874c545b02e95e0f11f7599b96770",
        "ec22b8dc92ee08ce4236b4baa9660e2e209dcd77295b071dc3276a4e5ebfa79c",
        "45d44d4756116cb6a1bb7914f0b284f0b1d8e70b4a1c597f5b0268c5af0c4586",
    ),
    ("shared_n3", "uniform-random"): (
        "1d5c77bdf6ad3ca28dfbb81053c86e17030f6fca682a06b978dd2807da0f1df9",
        "c8c1d18ad9f0dffb992d1c1b3da85ab2855ba821ad37f621e50e6b5861207f79",
        "2b1e023219e741b167b41f35ebd5699f98abeaf666ed5a23c931f611595ce450",
        "a1d626dedcf1bb2650f22c1f4fe3e48b698848eda9de58941867857a609c32a3",
        "fa1c89ed3d78d7ac6384ad71296f5f51335a310022c138653561ead8d12f1f21",
    ),
    ("shared_n3", "lexicographic-first"): (
        "6124597cb0704d8d55448cc695102b7dc1329a934153a629088eb5aa8ecfe174",
        "d9d47be83a3b754025ab3fdf490260b2aa247a5218361110b278109c31c8f738",
        "793965d4d16ab9630ecee8ea452d92cfa92628300efd5f5fbdf1c188cfa08bf6",
        "e9df9e47bb0b88d6b057b4fcc21a72c91aabc2999dfd9bd0bf15b82f033b026f",
        "c2ccc5cb936a00b05420035e21e5ad7fe3353fb0047b3360d09c728bf92473a2",
    ),
    ("shared_n6", "uniform-random"): (
        "93fb3964f27d1641cee9798d4787942cec365dfae545c83f0d5dfc30f0d79bfa",
        "29ebe3a978ef68cacaa23c86cc03f320717f9ee5cb9a9ae0fa9b548dd80f1872",
        "6a77b31b93c9dfdaea33daa196e0c9c050dd019d7caa2dca3b93134a46606d79",
        "9ad9bcdcf77919e301f9a16ed6e88500061e19144b2d7e899c40c4b21d1dd1dc",
        "48b3a417c5a865ba76cb70c58c291ef3a8683156e038f1f9939dd2f68e12b0da",
    ),
    ("shared_n6", "lexicographic-first"): (
        "35e258380cc70b705046b0ddd2a90676574cf2adbc79dcf2e3a17c8962aa2940",
        "43736bd5d7b059be4876b43cf831a0f4a505b066b88c84bec1fa35d506c70c1d",
        "2b8099b23804a1a228ab5ab010826cb33e7af18dcd77176ff3242c70f87cf1e8",
        "f141a2da6d796d52f3561ed6a28f8513548ce078216d56202562cf459c59b427",
        "28b014d5283f0eb1fbca6f529e6257c0a885c9768652f43ae9936bdcbf21ca51",
    ),
    ("star_n4", "uniform-random"): (
        "47b2abd86dc91e9077d8548b77d8de830a2bffdb789849bc2994653eb352112a",
        "60b8b78445c0f2e8e3fb830bc6ec5b0fe3585ad2d0403795789a258229e54873",
        "9e5816587ac59f53b965150aafa3329681aaee891bcbc12fb9c83293493bf83d",
        "9f7458bd435c9f2f8315fb1052287f919cf94a6b0467f32d9a516252ee79f6f7",
        "0af9b8c1b358f6cd9e88b6c5b0332562b5c0a79a8a0157513c624d74a86a297d",
    ),
    ("star_n4", "lexicographic-first"): (
        "3d013af7c5038fe20a3c37653d001e4803401766eede5bbc7aac48c6a908c20f",
        "a5845e5dc69e95dcabe21d84104ade27325f734932e7ba38aebd6e51bd342520",
        "feea9e9e8ca6f81f142d9be964a6a31f3f5f4187190cca5ce9ff3e0949a5dde6",
        "193067cd3a9ec91bde9676293258212206afd6dc4e2be678c2063dc703e61a1a",
        "3cbdd02669b8702ec606e395439dfad8bc59b8ae1f4e7df2ddf9c05bfd02d252",
    ),
    ("two_locks_n40", "uniform-random"): (
        "c325722191536d60241b269c0e5903a56a9e55670c4b0ce684b2af299aa1c5d1",
        "b081f9839ebcb845b4dc8f64c7ef3dea8c965a4edb19cc6c4d06efda4a2a905f",
        "be80863f66581f3b94944bd8870989e8b582bad6c8380cd02412d184b5cd3385",
        "965b639b8d66491f1eed9ab7cdf237e3175f768f594ab3ff307046a6c7cea9e9",
        "dd7517e8e26b71eb60615bd9d96dbfe40ccc6d802086b763b9965e2c7c02d4a6",
    ),
    ("two_locks_n40", "lexicographic-first"): (
        "bd10cc5757a815bbf6d36cbd812465170307b787fbc682ae63a776a436dc005a",
        "2bb62deeaf47a58a7a8bc1661b61122e3d010e2f4bac46070c523d86f842768c",
        "823a7bb5447d58869b05f13268b8ad7f2eb758ac0b873ad6e07393501b90dca9",
        "c9bfd4f5456890ecc60d2ada8a751875b0bd5e575ea3b29d5cecc94463dd87e7",
        "eedb122ca8828530492a635374155db8cea3966a2c71fbd0a51a986d0b21c403",
    ),
    ("two_locks_n6", "uniform-random"): (
        "f7bacd4496b6d14da8c8e4264d600a41affe7603c0ac0d16e53eff2eaca3350e",
        "d635584a169ff092973c03a87a8ecf45531b798008261c9138785231a8aedec6",
        "2be41cb9f4c60198631b29fe1007174431ca1e9c28f7ded108eea828d860d6d7",
        "c93b096833026e7b519fd61eebbd3b649bb74c37239ebc4d0610ee51fe0c32a2",
        "31fbfecb0b381799556bce0854fc9fafadd39c866ef2b8a5a9c39925eb5e65af",
    ),
    ("two_locks_n6", "lexicographic-first"): (
        "0f0335377bb99ed40ae6bf15d0590316699df997833f59989dde0164f7010fee",
        "4ccd7ab7fa05b291c6369bdeb7a7de09a113e02426761e76a9681076c6a54604",
        "7074657306725948b7c5b7926d24abad969492ca2f549f1bd67160d679b5adf1",
        "d8a546236a94e6e548a250d329239b7b5ff2f1c90fb81216549c4ddbbf560a51",
        "fe462648d17796ee84579ba27792f85ee2a1a95cbc47c72889b0e5a3c0de3dc4",
    ),
}


@pytest.mark.parametrize("policy", [UNIFORM_RANDOM, LEXICOGRAPHIC_FIRST])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trace_digests(name, policy):
    assert case_trace_digests(name, policy) == GOLDEN[name, policy]
