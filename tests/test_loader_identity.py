"""The loader's output, pinned: the model and every diagnostic, or the ParseError.

A model is pinned by the SHA-256 of its repr, its diagnostics as
(code, severity, location, subject, message) in order, and a document that
does not parse by the ParseError's (line, column, reason). `load_model` must
give exactly that.
"""

import copy
import hashlib
import random

import pytest

import randmodels
from conftest import FIXTURES
from sfgen.loader import load_model
from sfgen.xmlsubset import ParseError


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def _outcome(data: bytes):
    """(SHA-256 of repr(model), diagnostics) from load_model, or its
    ParseError's (line, column, reason)."""
    try:
        model, diagnostics = load_model(data)
    except ParseError as exc:
        return exc.line, exc.column, exc.reason
    return _sha256(model), [(d.code, d.severity.value, d.location, d.subject, d.message)
                            for d in diagnostics]


def _pinned(data: bytes):
    """The outcome of loading `data`; diagnostics by their digest and count."""
    outcome = _outcome(data)
    if len(outcome) == 3:
        return outcome
    model, diagnostics = outcome
    return model, _sha256(diagnostics), len(diagnostics)


FIXTURE_PINS = {
    "fakultet.xml": (
        "85ad23f2135086b441e106a040d19d95eca5cb7ba364f1ec965a213ca1f0419c",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    "newsboard.xml": (
        "aeb3d681881b95c6d7ea9401996ba384fcfa7f4d5e9640e22060b6e3cb5fbd26",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    "vest.xml": (
        "5d434339661f56ca27a30a9d0d860eb7921931390673f0b923e19b08d289e86e",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_PINS))
def test_fixtures_load_as_pinned(name):
    assert _pinned((FIXTURES / name).read_bytes()) == FIXTURE_PINS[name]


# -- seeded documents with hostile mutations -----------------------------------

_BAD_VALUES = [("nullable", "maybe"), ("length", "0"), ("length", "²"), ("isPK", "yes"),
               ("caching", "sometimes"), ("numberOfRows", "x"), ("isActive", "no"),
               ("type", "wat"), ("relationship", "approx"), ("name", ""), ("type", "Unique"),
               ("defaultLanguage", "Klingon"), ("isFK", "true"), ("fkEntityName", "Nope")]
_STRAY = ["Bogus", "Language", "Field", "Constraint", "CField", "DisplayName", "Settings",
          "EntityConfig", "Entity", "ErrorMessage", "PluralName"]


def _elements(root):
    """(element, parent) for every element, in document order; the root's parent is None."""
    out, stack = [], [(root, None)]
    while stack:
        element, parent = stack.pop()
        out.append((element, parent))
        stack.extend((child, element) for child in reversed(element[2]))
    return out


def _mutate(rng: random.Random, root) -> None:
    """One hostile edit of the document's shape, at a place drawn from `rng`."""
    elements = _elements(root)
    element, parent = rng.choice(elements)
    tag, attributes, children, _ = element
    op = rng.randrange(12)
    if op == 0:  # a stray element, possibly with a body
        stray = [rng.choice(_STRAY), [("name", rng.choice(["en", "x", ""]))], [],
                 rng.choice(["", "t"])]
        if rng.random() < 0.5:
            stray[2].append(["DisplayName", [], [], "stray"])
        children.insert(rng.randint(0, len(children)), stray)
    elif op == 1:  # an unknown attribute
        attributes.insert(rng.randint(0, len(attributes)), ("frob", "1"))
    elif op == 2:  # a value the binder cannot read
        name, value = rng.choice(_BAD_VALUES)
        element[1] = [(n, v) for n, v in attributes if n != name]
        element[1].insert(rng.randint(0, len(element[1])), (name, value))
    elif op == 3 and attributes:  # a missing attribute
        del attributes[rng.randrange(len(attributes))]
    elif op == 4:  # a copy of an element next to it: a duplicate block, entity, Settings ...
        if parent is not None:
            twin = copy.deepcopy(element)
            parent[2].insert(parent[2].index(element) + rng.randint(0, 1), twin)
    elif op == 5:  # a Language block somewhere it may not belong
        blocks = [e for e, _ in elements if e[0] == "Language"]
        if blocks:
            children.insert(rng.randint(0, len(children)), copy.deepcopy(rng.choice(blocks)))
    elif op == 6 and parent is not None:  # an element moved into another one
        parent[2].remove(element)
        target, _ = rng.choice(_elements(root))
        target[2].insert(rng.randint(0, len(target[2])), element)
    elif op == 7 and parent is not None:  # a renamed element
        element[0] = rng.choice(_STRAY + [tag.lower()])
    elif op == 8:  # text with children of its own, or one text twice in a block
        texts = [e for e, _ in elements if e[0] in ("DisplayName", "PluralName", "ErrorMessage")]
        if texts:
            text = rng.choice(texts)
            text[2].append(["b", [], [], "bold"])
            text[3] = rng.choice(["", "  padded  ", "a &amp; b"])
    elif op == 9:  # the legacy alias with or without the current name
        fields = [e for e, _ in elements if e[0] == "Field"]
        if fields:
            field = rng.choice(fields)
            field[1].insert(rng.randint(0, len(field[1])), ("nameName", "legacy"))
            if rng.random() < 0.5:
                field[1].insert(rng.randint(0, len(field[1])), ("fkName", "modern"))
    elif op == 10:  # a Language block without a name, or with another attribute
        blocks = [e for e, _ in elements if e[0] == "Language"]
        if blocks:
            rng.choice(blocks)[1] = rng.choice([[], [("lang", "en")], [("name", "en"), ("x", "1")]])
    elif op == 11:  # a different root
        root[0] = rng.choice(["xsource", "xsource", "model"])


def _damage(rng: random.Random, text: str) -> str:
    """One edit of the text that makes it malformed or reaches a slow reader."""
    op = rng.randrange(6)
    if op == 0:  # a closing tag that closes another element
        closes = [i for i in range(len(text)) if text.startswith("</", i)]
        at = rng.choice(closes)
        end = text.index(">", at)
        return text[:at] + "</" + rng.choice(["Entity", "Field", "xsource"]) + text[end:]
    if op == 1:  # cut short
        return text[:rng.randrange(len(text))]
    if op == 2:  # an undefined entity in text
        at = text.index("</", rng.randrange(len(text) // 2))
        return text[:at] + "&nbsp;" + text[at:]
    if op == 3:  # a repeated attribute name
        at = text.index(' name="', rng.randrange(len(text) // 2))
        return text[:at] + ' name="twice"' + text[at:]
    if op == 4:  # an entity in an attribute value, read by the step-by-step reader
        at = text.index('="', rng.randrange(len(text) // 2)) + 2
        return text[:at] + "&amp;&lt;" + text[at:]
    at = text.index("<", rng.randrange(1, len(text) // 2))  # a comment between markup
    return text[:at] + "<!-- c\n-->" + text[at:]


def seeded_document(seed: int) -> bytes:
    rng = random.Random(seed)
    model = randmodels.random_model(rng, max_entities=6, max_fields=6)
    root = randmodels.model_element(rng, model)
    for _ in range(rng.randint(0, 6)):
        _mutate(rng, root)
    text = randmodels.to_xml(root)
    if rng.random() < 0.3:
        text = _damage(rng, text)
    return text.encode("utf-8")


SEEDED_PINS = {
    0: ("9a8ad1d0596d0a089c4545a04ee313f4505366a62fff4cbfde7939c651d9abe6",
         "e5e1028c3b1364327ef102015811671e332ffe381faef4dd27173a700d284342", 1),
    1: ("90d8e19dc5748a52cf4844b8cd3ef521382d854729f7ac91a3f6ea706eccce75",
         "5128a53751807b4f07ab690e4e66fa73950a6213fbe73cc8f4be7e85784bfafc", 4),
    2: (28, 32, "duplicate attribute 'nameName'"),
    3: ("774b6523b5743c11dacf27754e7a23350382d807c03e9fffbe7b776fb35a477b",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    4: ("f9c8369eb8b9f8dfeca4e2ab8fb6842ec4a3a383ebd87ab86df22f175845ba2c",
         "fef186d885cc938c1f8a5d1a77c1006d60dc8ca282fc4ff15c53b1df2693653d", 11),
    5: ("b4e9865946aa175d993297fdfed4ab6a2def1d890631cc2bacf4463cf0fa4479",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    6: (1, 1, 'unterminated XML declaration'),
    7: ("c2484580e6358a514ca2405e88e336c1e095b43a19c14e3a8e884fa7079d1160",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    8: ("0a0dbf04669d4a90b3f0c6bb65503703df587676e818cd31afeeaff240a15d13",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    9: ("76d44b044a8825165346ea7f6ee5443e76917ccf9daf59d1b0b73fd1f0d824df",
         "68f8999a2050e498d29fd8a3bdc60f91c4fd473ceb8feef4da16ffe3a40669f3", 1),
    10: ("bd39a4887327b68e530d7e6e71c0a59fb7ff39909390125c65ea41b7e29864c5",
         "441fffb8f1c5f08da651e50dc285fe63dc79189be99d89f12e4c5c8ea951db20", 2),
    11: ("d1b41f2f9a3ff7e42fa4971a7fa06a65d15e7269aa07983a045ec4aaa07c0415",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    12: ("eb38f00ee04f00174b7507cbd4c53c7c2d84d27c6239bc63714b99b386a4cf92",
         "4b8bffc944c3bcc60dccd7951f1b74e7f49356e59c55a8bc4f646aeeb443bb29", 2),
    13: ("7f75dcb17afa3ed2d08b628fd81c8d4793a109bda58c1910400ea2e8add9481d",
         "761e286cd07a286d810ce0d6f6813826512f74afa522330ad8441715c31e1271", 1),
    14: ("f0a1fa065e95ec8a2c0160fc9106dfa2cad85bcfe07f7c122d4c3c3b4c794fe2",
         "df15192d3abdb3bd4f492ef93f127074f32d6d5af0121df39e44681c909ff120", 1),
    15: ("5c6dfaba8f41abcc4c2a4f29cef6fc0915061f789fd51721cd94da308f98154c",
         "3d33d9f7e022600b738bc6c1496864362aabb111532bc4a77b6fa43c656cd13f", 2),
    16: ("7dabee6ec637471549ad8ea72758d07a2a3121185bd62abfc4814abce6f42d58",
         "5f84bae60c4a7cad9ca10bf2449925f7402bcae0dd0c80f3d5dcbd5ed895f628", 1),
    17: ("f9087e0bd8c6420810cc897cf437e1c58496d54365b7139e6e4bcb9603b7a6e2",
         "dcaf188f5ec730d927a374f473f860cc86cc504855fec504557d48b59e00df25", 2),
    18: ("fc2a7f88b53ffc42607c1e9c07d0e7f3090f7a9a128f2bbe1b9cf863df56b3a3",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    19: (142, 51, "mismatched closing tag '</Entity>' for '<DisplayName>'"),
    20: ("8e17a650eb5d0bc446ce09639f4acd01df59e66fff659ac1bce42048d2303dde",
         "350d621b711bfb6c0638f1f9e1f95a830e5c062772633c5beedab53859974507", 2),
    21: (72, 30, "duplicate attribute 'name'"),
    22: ("f8e1274f1d5f4c3488a30111eec5ed6e2c23ed8e5e90a5641becc90045cbb07f",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    23: ("66768bbe267a0210240fd29e8794cf01e1fb69e79bf67fc319bdc4e2c17d60d4",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    24: (37, 30, "duplicate attribute 'name'"),
    25: ("fbdaa753cacf619a535600c9a6a1fd9bae43bfd8d418bee7040e6570803e44e0",
         "fd932f1fc0176cd40109c3b1f7b6f4a8574ff4df5e839c9fb99eae74001239c8", 2),
    26: ("f03df0d95c3fe61b8dc2be0418a522816dbf12b2a945846c4cf1550797ed5801",
         "aea97b243378176e668b215e63cbe02ecbafe972199aff01130815f54e276e42", 1),
    27: ("d6b4163740ee3eebd85da95bfb500da4c994221b560049dbcedf4fdc800df782",
         "e5cde6f27badfe172c159215d884bb37759e3b5379cb204a2eee2a296822484b", 1),
    28: ("5748070866a71438010b9576f0aa8dceb82845c7aeae1a35e4ca2de38c53edb1",
         "e7d3b669b60d176a97ec6f7eb8037d70a6dc0c727eae62ea06b47ffbfca2d32a", 2),
    29: ("eb38f00ee04f00174b7507cbd4c53c7c2d84d27c6239bc63714b99b386a4cf92",
         "07a5e76bf5d1d91cec6918fcd7390164ad60a5ac0ab66864c634ef5667141b92", 1),
    30: ("607bae5336e1baa4ebdc406f31af4c20471c2612149fe4fc51cbbfc7512ed54d",
         "1403b5897acb1bf22641647f34de196d205b0e0ce4c45f995b5e9c2fd52173d0", 3),
    31: ("27988db29932a139e427be579db78af8322321af2a3070d9cad4fce724741988",
         "0535f24df09b96cfa5ddda85be2311265c1b0b405a9397733e2c7f638dfe743d", 2),
    32: ("a951c98591a80ae712cd6f83cf1353501084064ca5f85b2e2cc09eaae485d1bb",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    33: ("3b276d2ae79a09cc5bef0fbf90c054305ebbbf2c48ede839565b24dadceaff02",
         "488964e07e242496b3c42e08c8bfdd530a5137ea175f83b3d5ede3e46befbb39", 3),
    34: ("14f39d3f90bfd4980c77988ea96bb2a4b08226282d4b5761dd386995fe34fab5",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    35: ("16e87a9a7e427fd38b9075f7bc5008a96017decbbb8246b3e4bdff77d529f1fa",
         "7926b11ab937a7072904dae72e69325c9ae293cc4f7cdada4833f195d9ff2bfa", 3),
    36: ("d5f9bca0c9e470ae165fcf3994058a78f50d964b7eba4bbf75405a688860ff0c",
         "19427783e46b2dc3910cbeb13c0018bb62bde0435423087d0cdf0aa22c376f3d", 1),
    37: (105, 32, "duplicate attribute 'name'"),
    38: ("a2632c8ecc56cee6e59e746bf657fc63a9fd714cc81b54ee7233733692ccaaed",
         "6090e28eb8800d7faeac3a9c408dfbf3b3d2ecb91be9f299ef1436b46c4cabb8", 1),
    39: ("e3ab720cdf91ecbbad0c34836c9ffadb3920812a18b5f023988a52640718b1b7",
         "43c189ce1aab4bf35a0d6275a954793a1b9d7f86bb3c8d30cbb772cfef6a2751", 2),
    40: (15, 115, "duplicate attribute 'nameName'"),
    41: (171, 9, 'expected attribute name'),
    42: ("13874b7faa292cc4ee643bdd654c1ba3f774f881fdb04460e4dce5bce9955b6a",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    43: ("aa98e63c276728d138ea4d99ed18a979646efb67bd911940e4815520ca015e94",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    44: ("9e88c4df69df970e2e240716a27144666306e15a9eaa023f93ab15c63c4b33db",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    45: ("09e287d6ae66ac7083cae11a931c0ad980cce44ab59b800d4ee628c1f822dd05",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    46: ("3c5da7f04dcac777ac7be23806a5505f47b0dce1df479471e34fd6370f299a5b",
         "9c7617a1456d6282158c2e039a0bf50ab75c9e62815535e7d051f88249e4b8a5", 3),
    47: ("2c2d8aac394054e26ed8651e64a41c114e1eae780ccb92eec4d4868ffb01283c",
         "9267985c2ab41ad8928df62fe38ff27fd1835fe5cfc26a233ee725510b3bdae7", 2),
    48: (7, 9, "unclosed element 'DisplayName'"),
    49: ("4e3f206c5ff1f3f40bf724baab13a62350c7912d1b11f8d3620809c965478964",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    50: ("068e3cfbf613654359364b2157dffe68d53eca547d66c6f8ad3087c1969a8069",
         "169468e45c9b59d1395077f42ee8ff35e98c59c607365be20acf2926bad36cf3", 3),
    51: ("a50caaca59ad56097dd39a12c4c131ec79b2146f27dc09732400fb6e8740f64b",
         "6bf61f6c8ff3ea1ba0d01edc0cf95bffec1d04842a11436f54a4b1f242e99966", 4),
    52: ("a264ce69edbd02fd895a765650405d92f879bcaf68e361628fab3dcf4cdc9386",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945", 0),
    53: ("65302346ee72da2a47514e118dee929c11d1638239e4fa6ce4158b1beb7b2880",
         "069da3ab67738f26cfde4eefc2473a5fa3cc854a509c3e55d6a46b62b47a8439", 5),
    54: ("af0367cbc0b49bccbff6d19ae2f89dc701eac4619d3f9709949f1ad88fc25091",
         "192d3a374f68e8393be6ce4e3929f929481c8bd7c38d471306bb19d5924962ab", 4),
    55: ("be1b7786274c26a72b8f1ca0fc50940488149cebaffa037ccc3b79ad0e102feb",
         "60d5f4117b5471e34c494be209f84e19d4a7744aabf677ae6905a1db41354efd", 1),
    56: (298, 11, "unclosed element 'DisplayName'"),
    57: ("ac514268815aaf9ef9a9fc52b028123ef4729a0bde0e514c0ff8330c9447c7b9",
         "33ef643bfae6e25bab7d04ad6c36c512db605ece856d494bd48913d7675fe54a", 3),
    58: ("75f33b47bf8fac5593ee6004302eaaad7c39204e996a972f161bc8292e817193",
         "7db2ddb0df11b58a362e399c2b208c2423a2a0848961a6a78bd5ecfcaa91c4c9", 2),
    59: (102, 37, 'undefined or malformed entity reference'),
}


@pytest.mark.parametrize("seed", sorted(SEEDED_PINS))
def test_seeded_documents_load_as_pinned(seed):
    assert _pinned(seeded_document(seed)) == SEEDED_PINS[seed]


# -- documents where the order of binding is not document order -----------------

def _wrap(body: str) -> bytes:
    return f"<xsource>\n<EntityConfig>\n{body}\n</EntityConfig>\n</xsource>".encode()


_ENTITY = ('<Entity name="E{0}" tableName="T{0}" isLogged="maybe">'
           '<Field name="ID" type="int" isPK="true"/></Entity>\n')

W, E = "warning", "error"

# (document, SHA-256 of repr(model), diagnostics), or (document, ParseError's
# (line, column, reason), None)
ORDER_QUIRKS = [
    # binding order puts an entity's own languages first, then its fields', then
    # its constraints'; document order in E is constraint, field, entity, so
    # the model's languages are ('en', 'fr', 'de', 'mk')
    pytest.param(_wrap(
        '<Entity name="E" tableName="T">\n'
        '<Constraint type="Unique"><CField name="ID"/>'
        '<Language name="de"><ErrorMessage>Eindeutig</ErrorMessage></Language></Constraint>\n'
        '<Field name="ID" type="int" isPK="true">'
        '<Language name="fr"><DisplayName>Numéro</DisplayName></Language></Field>\n'
        '<Language name="en"><DisplayName>Thing</DisplayName></Language>\n'
        '</Entity>\n'
        '<Entity name="F" tableName="U">\n'
        '<Field name="ID" type="int" isPK="true">'
        '<Language name="mk"><DisplayName>Број</DisplayName></Language></Field>\n'
        '<Language name="fr"><DisplayName>Chose</DisplayName></Language>\n'
        '</Entity>'),
        "88befabfaf8f6fb51a514d124f6751599c0662bfe223a164e639a6f6d7823ce7", [],
        id="language-first-in-a-field"),
    # an entity's unknown children are reported before its fields' diagnostics
    pytest.param(_wrap(
        '<Entity name="E" tableName="T" owner="me">\n'
        '<Field name="ID" type="int" isPK="true" nullable="maybe"><Hint/></Field>\n'
        '<Field name="a" type="int" length="x"/>\n'
        '<Bogus/>\n'
        '<Language name="en"><Tooltip/><DisplayName>E</DisplayName></Language>\n'
        '<Extra><Field name="hidden" type="wat"/></Extra>\n'
        '</Entity>'),
        "1f0f678bc04bd60727a13c9708c616ed429b033e3fe76137a757ee90d694f374",
        [("W_UNKNOWN_ATTR", W, (3, 32), "Entity[E]", "unknown attribute 'owner' ignored"),
         ("W_UNKNOWN_ELEM", W, (6, 1), "Entity[E]", "unknown element 'Bogus' ignored"),
         ("W_UNKNOWN_ELEM", W, (7, 21), "Entity[E]", "unknown element 'Tooltip' ignored"),
         ("W_UNKNOWN_ELEM", W, (8, 1), "Entity[E]", "unknown element 'Extra' ignored"),
         ("E_BAD_BOOL", E, (4, 41), "Entity[E]/Field[ID]",
          "attribute 'nullable' must be 'true' or 'false', got 'maybe'"),
         ("W_UNKNOWN_ELEM", W, (4, 58), "Entity[E]/Field[ID]", "unknown element 'Hint' ignored"),
         ("E_BAD_INT", E, (5, 28), "Entity[E]/Field[a]",
          "attribute 'length' must be a positive integer, got 'x'")],
        id="unknown-elements-after-fields"),
    # a CField's attributes are read after the constraint's other children
    pytest.param(_wrap(
        '<Entity name="E" tableName="T"><Field name="a" type="int" isPK="true"/>\n'
        '<Constraint type="Unique" strict="yes">\n'
        '<Language name="en"><ErrorMessage>one</ErrorMessage></Language>\n'
        '<Language name="en"><ErrorMessage>two</ErrorMessage><Note/></Language>\n'
        '<CField name="a" frob="1"/>\n'
        '<Note/>\n'
        '<CField nam="b"/>\n'
        '</Constraint>\n'
        '<Constraint type="TwoFields" relationship="approx"><CField name="a" x="y"/></Constraint>\n'
        '</Entity>'),
        "501d371edada1a8b4d31491cbf59df8ac13c23677291eda98d8f158d7f5e2103",
        [("W_UNKNOWN_ATTR", W, (4, 27), "Entity[E]/Constraint[1]",
          "unknown attribute 'strict' ignored"),
         ("W_DUP_LANG", W, (6, 1), "Entity[E]/Constraint[1]",
          "duplicate ErrorMessage for language 'en'; last one wins"),
         ("W_UNKNOWN_ELEM", W, (6, 53), "Entity[E]/Constraint[1]",
          "unknown element 'Note' ignored"),
         ("W_UNKNOWN_ELEM", W, (8, 1), "Entity[E]/Constraint[1]", "unknown element 'Note' ignored"),
         ("W_UNKNOWN_ATTR", W, (7, 18), "Entity[E]/Constraint[1]",
          "unknown attribute 'frob' ignored"),
         ("W_UNKNOWN_ATTR", W, (9, 9), "Entity[E]/Constraint[1]",
          "unknown attribute 'nam' ignored"),
         ("W_UNKNOWN_ATTR", W, (11, 69), "Entity[E]/Constraint[2]",
          "unknown attribute 'x' ignored"),
         ("E_CONSTRAINT_FIELD", E, (4, 1), "Entity[E]/Constraint[1]",
          "CField '' does not name a field of this entity"),
         ("E_BAD_REL", E, (11, 1), "Entity[E]/Constraint[2]", "unknown relationship 'approx'"),
         ("E_CONSTRAINT_ARITY", E, (11, 1), "Entity[E]/Constraint[2]",
          "TwoFields constraint needs exactly 2 CFields, got 1")],
        id="cfield-attribute-after-duplicate-language"),
    # every entity's diagnostics come after all of the root's, and an ignored
    # element's content yields none
    pytest.param((
        '<xsource><Settings appName="a"/>\n<EntityConfig>\n' + _ENTITY.format(1)
        + '<Stray/>\n</EntityConfig>\n'
        '<Settings frob="1"><Bogus/><Language name="en"/></Settings>\n'
        '<EntityConfig><Entity name="X" isActive="maybe"><Field type="wat"/></Entity>'
        '</EntityConfig>\n'
        '<Junk/></xsource>').encode(),
        "ab1b956f5d35e2f32b071983609491c835ba1dd0a9f0a89f0c75d3cea6c8f47d",
        [("W_UNKNOWN_ELEM", W, (6, 1), "", "extra Settings element ignored"),
         ("W_UNKNOWN_ELEM", W, (7, 1), "", "extra EntityConfig element ignored"),
         ("W_UNKNOWN_ELEM", W, (8, 1), "", "unknown element 'Junk' ignored"),
         ("E_BAD_BOOL", E, (3, 34), "Entity[E1]",
          "attribute 'isLogged' must be 'true' or 'false', got 'maybe'"),
         ("W_UNKNOWN_ELEM", W, (4, 1), "EntityConfig", "unknown element 'Stray' ignored")],
        id="extra-settings-and-entity-config"),
    # Settings binds no Language block, so its language is not declared
    pytest.param((
        '<xsource><Settings appName="a" defaultLanguage="en">\n'
        '<Language name="en"><DisplayName>App</DisplayName></Language></Settings>\n'
        '<EntityConfig><Entity name="E" tableName="T">'
        '<Language name="mk"><DisplayName>Е</DisplayName></Language>'
        '<Field name="ID" type="int" isPK="true"/></Entity></EntityConfig></xsource>').encode(),
        "9590f3131827324c302d7821884355fd83dac421b005a2ab3cd25d80065b0003",
        [("W_UNKNOWN_ELEM", W, (2, 1), "Settings", "unknown element 'Language' ignored"),
         ("E_BAD_DEFAULT_LANG", E, None, "Settings",
          "defaultLanguage 'en' is not declared by any Language element")],
        id="language-under-settings"),
    # 'fkName' wins over its alias 'nameName' in either order
    pytest.param(_wrap(
        '<Entity name="E" tableName="T"><Field name="ID" type="int" isPK="true"/>\n'
        '<Field name="a" type="int" nameName="legacy" fkName="modern" nullable="no"/>\n'
        '<Field name="b" type="int" fkName="modern" nameName="legacy" frob="1"/>\n'
        '<Field name="c" type="int" nameName="legacy"/>\n'
        '</Entity>'),
        "6bbdfb1e084432e773f3d7f375695deeec26f35df77f0052821d4591dda8afbc",
        [("E_BAD_BOOL", E, (4, 62), "Entity[E]/Field[a]",
          "attribute 'nullable' must be 'true' or 'false', got 'no'"),
         ("W_UNKNOWN_ATTR", W, (5, 62), "Entity[E]/Field[b]", "unknown attribute 'frob' ignored")],
        id="namename-with-fkname"),
    pytest.param(
        b'<xsource><Junk/><Settings frob="1"/></xsource>',
        "d5f9bca0c9e470ae165fcf3994058a78f50d964b7eba4bbf75405a688860ff0c",
        [("W_UNKNOWN_ELEM", W, (1, 10), "", "unknown element 'Junk' ignored"),
         ("W_UNKNOWN_ATTR", W, (1, 27), "Settings", "unknown attribute 'frob' ignored"),
         ("E_DOC_SHAPE", E, (1, 1), "", "document has no EntityConfig element")],
        id="no-entity-config"),
    pytest.param(
        b'<model><EntityConfig><Entity frob="1"/></EntityConfig></model>',
        "d5f9bca0c9e470ae165fcf3994058a78f50d964b7eba4bbf75405a688860ff0c",
        [("E_DOC_SHAPE", E, (1, 1), "", "root element must be 'xsource', got 'model'")],
        id="wrong-root"),
    # a parse error found after most entities are bound discards everything
    pytest.param(_wrap(
        "".join(_ENTITY.format(i) for i in range(100))
        + '<Entity name="Last" tableName="L"><Field name="ID" type="int" isPK="true">'
        '</Entity>'),
        (103, 83, "mismatched closing tag '</Entity>' for '<Field>'"), None,
        id="mismatched-close-after-100-entities"),
]


@pytest.mark.parametrize("doc, model, diagnostics", ORDER_QUIRKS)
def test_order_quirks_load_as_pinned(doc, model, diagnostics):
    expected = model if diagnostics is None else (model, diagnostics)
    assert _outcome(doc) == expected
