"""Checked read sets (see readsets.py) over the fixture models and C8's random
models; the differential test in test_incremental.py checks its runs too."""

import json
import random

import pytest

from sfgen import atl, packs

from conftest import load_fixture
from randmodels import random_model
from readsets import ReadChecker


@pytest.mark.parametrize("fixture", ["newsboard.xml", "fakultet.xml", "vest.xml"])
@pytest.mark.parametrize("lang", ["", "Macedonian"])
def test_fixture_renders_read_only_their_inputs(fixture, lang, webstack, monkeypatch):
    checker = ReadChecker().install(monkeypatch)
    packs.generate_all(load_fixture(fixture), webstack, lang=lang)
    assert checker.violations == []
    assert checker.checked >= 10  # 6 per-entity templates and 4 fragment loops


def test_random_model_renders_read_only_their_inputs(webstack, monkeypatch):
    checker = ReadChecker().install(monkeypatch)
    rng = random.Random(7)
    for size in [None] * 99 + [(20, 30)]:
        packs.generate_all(random_model(rng, force_size=size), webstack, lang="")
    assert checker.violations == []
    assert checker.checked > 1000


def test_a_fragment_body_that_reads_the_model_fails_the_check(newsboard_model, monkeypatch):
    """Were a body that reads the `model` root taken for a fragment loop, each
    of its iterations would read outside its entity, and the check says so."""
    monkeypatch.setattr(atl, "_FRAGMENT_NAMES", atl._FRAGMENT_NAMES | {"model"})
    pack = packs.load_pack({
        "pack.json": json.dumps({"name": "p", "version": "1", "outputs": [
            {"template": "t.atl", "path": "t.txt", "per": "model", "ownership": "always"}]}),
        "t.atl": "{% for e in model.entities %}{{ e.name }} of {{ count(model.entities) }}\n"
                 "{% endfor %}"})
    assert pack.templates["t.atl"].fragment is not None
    checker = ReadChecker().install(monkeypatch)
    packs.generate_all(newsboard_model, pack)
    assert checker.violations == [
        f"t.atl iteration {i} for entity {entity.name!r} read ApplicationModel.entities"
        for i, entity in enumerate(newsboard_model.entities, 1)]
