from pathlib import Path

import pytest

from sfgen import loader, packs
from sfgen.xmlsubset import Document

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


class Node:
    """An element as `Document.parse` reports it, recorded with its children."""

    def __init__(self, document: Document, tag="", attributes=None, offset=0):
        self.document = document
        self.tag = tag
        self.attributes = attributes or {}
        self.offset = offset  # of the start tag's '<'
        self.children: list[Node] = []
        self.text = ""

    @property
    def location(self) -> tuple[int, int]:
        return self.document.location(self.offset)

    @property
    def attribute_locations(self) -> dict[str, tuple[int, int]]:
        return self.document.attribute_locations(self.offset)

    def child(self, tag: str, attributes: dict[str, str], offset: int) -> "Node":
        node = Node(self.document, tag, attributes, offset)
        self.children.append(node)
        return node

    def close(self, text: str) -> None:
        self.text = text


def parse_tree(data: bytes) -> Node:
    """The root element of a UTF-8 document; raises ParseError as the parser does."""
    document = Document(data)
    top = Node(document)  # holds the root as its child
    document.parse(top)
    return top.children[0]


def load_fixture(name: str):
    model, diagnostics = loader.load_model((FIXTURES / name).read_bytes())
    errors = [d for d in diagnostics if d.severity is loader.Severity.ERROR]
    assert not errors, errors
    return model


def render_pack(model, pack, lang="English"):
    """path -> text of every generated artifact."""
    artifacts = packs.generate_all(model, pack, lang=lang)
    return {a.path: a.content.decode("utf-8") for a in artifacts}


@pytest.fixture(scope="session")
def webstack():
    return packs.load_pack(packs.read_pack_dir(packs.builtin_pack_dir()))


@pytest.fixture(scope="session")
def newsboard_model():
    return load_fixture("newsboard.xml")


@pytest.fixture(scope="session")
def fakultet_model():
    return load_fixture("fakultet.xml")


@pytest.fixture(scope="session")
def vest_model():
    return load_fixture("vest.xml")
