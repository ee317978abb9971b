from pathlib import Path

import pytest

from sfgen import loader, packs

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


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
