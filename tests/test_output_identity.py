"""Output identity: the SHA-256 of every generated tree, pinned.

Each tree hash covers every artifact's path and content in generation order, so
any change to a byte, a path or the artifact order shows here. A change that
alters output on purpose updates these hashes and says which bytes changed.
"""

import hashlib
import random

import pytest

from sfgen import packs

from conftest import load_fixture
from randmodels import random_model


def tree_sha256(artifacts) -> str:
    h = hashlib.sha256()
    for artifact in artifacts:
        h.update(f"{artifact.path}\0{len(artifact.content)}\0".encode("utf-8"))
        h.update(artifact.content)
    return h.hexdigest()


FIXTURE_TREES = [
    ("newsboard.xml", "", "96ad3f41ac9c13c7610b46559f3c020544bd63dc334ae3e191c2b340cd41f9ab"),
    ("newsboard.xml", "English", "96ad3f41ac9c13c7610b46559f3c020544bd63dc334ae3e191c2b340cd41f9ab"),
    ("newsboard.xml", "Macedonian", "2869d58408ae0f704cb588aa7bf155353055ce564be0dfb26787a8211cd9ca11"),
    ("fakultet.xml", "", "65c83de8f0ddc890725ec13725706d3c8727baae262567fc3089071c9b5aa01e"),
    ("fakultet.xml", "English", "65c83de8f0ddc890725ec13725706d3c8727baae262567fc3089071c9b5aa01e"),
    ("fakultet.xml", "Macedonian", "dffe2ce0e09b4fe611eded2a341ac113c2d4e3741d9846051ea699a4d60dcb5c"),
    ("vest.xml", "", "3ffeb193d573c686a55bacc0a032f382e647756d2b0113f5e4aeac0fceb65acc"),
    ("vest.xml", "English", "3ffeb193d573c686a55bacc0a032f382e647756d2b0113f5e4aeac0fceb65acc"),
    ("vest.xml", "Macedonian", "3ffeb193d573c686a55bacc0a032f382e647756d2b0113f5e4aeac0fceb65acc"),
]


@pytest.mark.parametrize("fixture, lang, expected", FIXTURE_TREES)
def test_fixture_trees_are_pinned(fixture, lang, expected, webstack):
    model = load_fixture(fixture)
    artifacts = packs.generate_all(model, webstack, lang=lang)
    assert tree_sha256(artifacts) == expected


# C8's corpus: random_model(random.Random(7), ...) 99 times, then one 20x30 model
RANDOM_TREES = [
    "917ea1483e2e844d1624e9322d3f0657580818c2d87c9310ec1bc94b8f137cb4",
    "160c28fdd70580d335551b1aeda889e6b015ed57cdaa6018a512db0bcfcc55c1",
    "40fd9dedd310822dfd9a2e2c85ba2d93a2ac21e01b5d68660e18d09160dd4068",
    "5430097e6a2d7e9a9396df7a194fe31811e318f648b98047c7bdca86248e912b",
    "9e91b9b16d79db12c0937349e33c58d939c821323bb60772298ffbbcc594340c",
    "160c28fdd70580d335551b1aeda889e6b015ed57cdaa6018a512db0bcfcc55c1",
    "d20a51678c87fcbdd6ee3d8fa03e38f23c63a17ea8b7f9926e26e275bdf73775",
    "82af354b94c0bb797b079c8af16e21067fcf86c4ac2209b11e686a0bc44d4ff6",
    "e946020a50455769df27e36a41b1caf34bb7de1ad2fd6ea5e45300d9cd258509",
    "18bb0ff38f2629faf7955349bcd3bdbc13db0ed4f574b2daa5ed0fa2ba019a7d",
    "160c28fdd70580d335551b1aeda889e6b015ed57cdaa6018a512db0bcfcc55c1",
    "a62e4e9daa51d3d493984e612b724bf1e66414d8b54dfd94bc6a3eff0680ed69",
    "564eda6143f4d6368c983af690453eb8cd0a9cc4437272af1fda6389be7a3f2a",
    "34efdb0d69fdf117022db27c49eec19c0c48549921ce05e7b2ab8b6d6fd9f5ab",
    "3ee78561b2ba10ea1d849c3ce11dcd2531ab058723a087df31de21c55b807da1",
    "07effc57e491b8aab09152febbdefaa92a5f452eae6c42b4ebde3dc68cfd6f91",
    "9569829eb8a77c8a4b2735ad195adfbc5244b159cb90b15232b5b282782de5f5",
    "129bc5f3b667e4df69f1e6b60b55b0fa1008cdd556fc503f1d88b5bede4e8465",
    "6680f8cf3c8baa73cf7cebc164ffb52f06732fa82956838dbc6b7a8c4da327f7",
    "03ee4fb782293af46c442768c1b0f82228f1b5d4ad5da1dc481116a4bffea1ca",
    "ea1e9d9ea0f5eabf449893e2486e27fc9b0bb5a8a6040d2947e9c0dc5c0da12b",
    "c62a8e2163f51a460b5039c4abb6386bf864f7a7ec47f4ce56024e82566d9305",
    "e58dc0599d9c832fe107e25037a98a212fb392205c1fdf6f6a0c5b49e9d38c24",
    "1df55766761c98c9472103bf58fb1cb02c0e13476c0e357ad516c1bcba1d9f33",
    "1b7553b691825f4a7fc061182583d9f0e6dd395198f7bc602450f7a2ed7155c9",
    "89f18305693eadd4109b8a18c75088001d500bbed188c1c518c411d56b231800",
    "fb3c2a5b5e18aa1a7fade1d028b1e3f39c42be270176a6d926aa142952c1e568",
    "d30c2529065117df09bb5551695e8567a7a70a0f7a658dc29062dc92cfaf7f48",
    "050c30869cd0da3314fa8c76fc1f354d1188e65f229e6c456eec00c5f97e3f09",
    "379dca05ba15ae4cfc8e8007fc189ac5a44b2279e05b96a8dce1c2716f56f6ba",
    "98aab8c0c21cc9fd100285aea78514552578caeb7dc33e9185c67dacd905382b",
    "dc48eec1a2c9599aa4fe1a86a872696151661cae202c970e8a1ad92da3f2dd2b",
    "c492218cb8d56b8306411ccdf082f2a9a21ca03d51e4abb1fdd1bdae22be404e",
    "25c3e71acb9366039e9503e2c72490fe96f7b3636a055dd0cc0761d67babbda2",
    "3dbd79703000a5bfd9b689a468b4c446b3a7f74b59584ba8f10aa85f7644655e",
    "a086a7b547d56c99d8fd71cf9edd6264dca1d9a55ae15d594e71d6ab45172666",
    "7d874cd16684fb4367b28f6ed17f8732124110ece18f0949a1568ca26cde69da",
    "c1d255fa265637f364c626b96f0a457f4fe9e21f1c71a8baa057040e1269ca17",
    "e485e4ebf22af4226823a981f456205ad55a55af5db4a0a23dc11858bafb8984",
    "dc3d24cbc672320ed5e6bd6ddba693ee561b204c545fda27fcf54a87cc421ff0",
    "cfe5e67c37e3e891e0f84ed65a3aca3700527cb73ecb303cc51bd994233c153b",
    "012d5713fba962085a24f3a23ed25119ddf64aa46af5d35d1b0e5b8eca6a8e28",
    "672a0dfbcec98f486505c817a1f56f4971d887827470397562960d23c1817b91",
    "194f80fa6db1cceb2c996b30849e4256534acb398b8c7d3e47ec0f6f6a68cd67",
    "6b45202c6bfce9731cc70e252fbdb21d819402df0d8b7390675157791da4bdee",
    "066c52447de5f53259dc3046f0f1f97b4cd75b1cf768a9454458f00ed1dd16fa",
    "918d67b91e5b58a9ff936df18f22d728b546296d7b9299764b17cdf3ae08da41",
    "ef7094a5631bc738e2e8f689cf88158ab04491f8ebd12386303ca73163ddf2e1",
    "c888d62ce32e3233e55def7e1cd50c4513fb8e582a78d35bbb31347598e9f3b8",
    "cd038ac9642835b57ca6a19ab27c8e0cd8767ed4e32ca301a08fe881eaaf6e39",
    "013f981cc7fb8dac2be97c2d581ec367572a18fe3d8686ebe3b817423aa1e0bf",
    "93978e93bd251f1837a7795886c7b9cdd534f16fd2afccee5e53c2738a53683e",
    "57ffaee9d71d898e796ae70eff285026ac1c0bbb13c0b0b9c83c3e5fbba23e9f",
    "90109af2e6dd4cc9418db1e499a3380b928b2b750f8b4fa8aec2ebbe14fcc12e",
    "6390a769f80717fa118a2eba58f47e04e4ee2a1c9a5a6014aec5affb0f8f38f8",
    "7e1ad6dbef62ec8478a073f666b42c2a2604a42630a8052f64479be362ad303c",
    "125ef188ab76ae0da63ca3b358fc842074f188b33934c244d17d761a4cc09b40",
    "4e60f718ff00ab02e8fc8ab4e9e05a88ce5ad2c34394bda40440202a862bb37e",
    "1a53c96df6f856c1e63b9acc7bd3749d5da0e8950b2b89422b078542a69acbee",
    "de25eaa889f60add7624f254612f610a8e99ded5c49e52a246706ea595bdfe09",
    "b82f9bd10820777809989f1d87771f7fcd633bbb2ddee6655697ba4c02132899",
    "702704827001924e5439a24adfbc96655d8b7b60e3f43bbae62f77419ee5f98c",
    "d0fe3ee1176daac5749acaa366f9da57b99100f4993f9a3cecb63b1dd95e35e8",
    "8e27ce1dc24761bb08069d71ae63772b2a9ba045de5cb0ae066bd95121643be2",
    "160c28fdd70580d335551b1aeda889e6b015ed57cdaa6018a512db0bcfcc55c1",
    "bd6e511645b5d7f9df6b68dcf5053be311759faf424e7487b0bb56c200c35ca4",
    "ad2e4ba920b8a1e882e68acfcef5e6418ef4aa92b11a4b1deed28959d850999e",
    "b11f72aab3c070430fdfc559b90baa3331008d65dc67b74893cc4a347f367ef0",
    "3ebcfff5ed6cbe63b156ec25d72969de7e05b1d249a8b63c8e66d3d996cd8a1f",
    "9c00b7c6f4ac2f8e687be730d89fd3f94f3d795c0c46b9103c64f3d372387101",
    "330b45a2db6a227ba9c2c9bd16ca78cc50d5f46a7d10008ef80bcbb2eeabfc7c",
    "a0dd595ee597744d17c4d36640e8905b2b6028ee771db2a6220c4aaf038e272e",
    "70adfe2870b98592c0a5f6e0e8d9b9dc4b652641f55ea8b468842c9d4a1b2a63",
    "870e2d0b647e25c6b1800c7562c9ab9dc444b55c2cd936f017aa8cc730342e78",
    "7cabd547cb8de01070fcc997d998428623ae72b5e4cb1e936c881a757a6acd35",
    "6e3adc37f3d5dcfc3799467a52b9d7947d731ecaad5aec3b315d8255ef867f7d",
    "6a789bec4d41b5348376ce5dd9748be26c10d40ed337edf2e6812a5619caf65d",
    "556c46d62578c44e66d4fe9c72fbee63fc68c408a2c34af663d60dfd602fd38e",
    "1135a3d5d8c9bcd8febb4665dd250f8164fa54cf11efa062037a9f3e3fc161b5",
    "3f053799348f7dab7c86ee1e7cb8705662049d6e450a49de2cef86ea517e8ae6",
    "94894f4a8a94ad3a948667b30e002fba2ff4df29ba38d40e6621265597a2763d",
    "9ff9ce5258ec140fe31beb01f1b02940ca166a0f2f75418b8ad1d35a634ce606",
    "c29124a5ca549a3c0fbd691d17588afeae27f9dfa7ca775cd8ed428b305dedd3",
    "468719f2793595e918cb00a039d01ffa4f79a62dbd986a5e7c5f256e570515c1",
    "9e4f92790b88b1e7911e13d313fa112dc6a948278b2e9ef86d1fcfdf803cd351",
    "6d0f2bd10eea0c582cac171ec9e63666711ba95da56b38b46e318c013a7b46fe",
    "12624020398f5de5a1bc627b4c49a98cd8586a5e21c187a3cfe1852d037a2d0d",
    "df99baef5aa3797271762069533eb418d4aebeb9ef6f57a2055e71887fd312f8",
    "1fd08c7068380f8a2d6163e1e098bdea14eb3754e80a9964add8f4007011ebae",
    "b21eb84a9c881217b3e516eab651903faaceca0cc3f604a54bac7c3ab2b93352",
    "cb40cb162671b2ac2c8f851dc6e41066f74db0f1ab74c0b6729f869b5da59e17",
    "aa2db6b2466e732c81256838eedd2a6a26df3b21b3fe464d4a5373202d522f1f",
    "85e9298163b4a0902617220f93876f986284a23ba52a5ef5727b9b4ce59026a8",
    "47408628ea927f4612c44c878bdc07d9b3cd05eab3139c2191bbc4e9559c2d54",
    "aa08d78665f02ce5f2725dd694a5088295b0e50e29c1e559099562271c0877e5",
    "f4f20c3ed0b37b57c1e386c9e55ec794601eb406b60b3ef090ceaeda142f1c34",
    "744af253d731a4a1ad86d1ee4701567c244b701698131119b18c6cdfd86a6456",
    "70e282f52680a27c7cd18c69504c5dcc1d490ead8f1d041c0b0bd7e518fee252",
    "8d9cf4e11696a9764a5f3c12e2d48ebcdcd3715ff29ab6b91ba1f5baad0bc48d",
    "645bdfaf6ed046a17b68780c517e524311daa5623e0cdb5010f3ae85badff289",
]


def test_random_model_trees_are_pinned(webstack):
    rng = random.Random(7)
    sizes = [None] * 99 + [(20, 30)]
    got = [tree_sha256(packs.generate_all(random_model(rng, force_size=size), webstack,
                                          lang=""))
           for size in sizes]
    mismatched = [i for i, (g, e) in enumerate(zip(got, RANDOM_TREES)) if g != e]
    assert not mismatched, f"trees of random models {mismatched} changed"
    assert len(got) == len(RANDOM_TREES)
