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
from helpers import TWO_LOCKS

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
}


def case_trace_digests(name: str, policy: str) -> tuple[str, ...]:
    model, binding, cycles, script_seed = CASES[name]
    d = load_bundled_model(model) if model.endswith(".bip") else parse_model(model)
    script = None
    if script_seed is not None:
        script = route_script(binding["n"], cycles, script_seed)
    digests = []
    for seed in SEEDS:
        trace = run(d, binding, EngineConfig(cycles=cycles, seed=seed, policy=policy),
                    script=script)
        digests.append(hashlib.sha256(trace_to_json(trace).encode("utf-8")).hexdigest())
    return tuple(digests)


# (case, policy) -> digests for seeds 0..4
GOLDEN = {
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
