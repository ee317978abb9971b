"""Checked read sets (see readsets.py) over the fixture models and C8's random
models; the differential test in test_incremental.py checks its runs too."""

import json
import random

import pytest

from sfgen import atl, packs
from sfgen import model as m

from conftest import load_fixture
from randmodels import random_model
from readsets import SUBTREE, ReadChecker, reachable


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
    assert checker.violations == ["t.atl fragment loop body reads model"]


def test_the_names_of_an_entity_reach_only_the_classes_of_its_subtree():
    assert reachable(m.Entity) <= SUBTREE
    assert {m.Entity, m.Settings} <= reachable(m.ApplicationModel)  # so the check can fail


def test_a_name_that_reaches_another_entity_fails_the_check(newsboard_model, webstack,
                                                            monkeypatch):
    fakultet, vest = newsboard_model.entities
    monkeypatch.setitem(atl.NAMES[m.Entity], "sibling", atl.Name(
        m.Entity, read=lambda e, ctx, owner: vest if e is fakultet else fakultet))
    checker = ReadChecker().install(monkeypatch)
    assert checker.violations == ["from Entity, atl.NAMES reaches Entity"]
    packs.generate_all(newsboard_model, webstack)
    assert f"tables.sql.atl iteration for entity 'Fakultet' reaches Entity {vest!r}" in checker.violations
    assert f"tables.sql.atl iteration for entity 'Vest' reaches Entity {fakultet!r}" in checker.violations
