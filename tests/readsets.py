"""Checked read sets: every model element a render can read lies in its
declared inputs, or the test that made the render fails.

A per-entity artifact whose template reads neither the `model` root nor any
`location` may read only its entity's subtree and the settings, since its
inputs name only its entity's source. So may each iteration of a fragment loop,
with the entity it iterates. What a render can read is fixed when its template
compiles: the context names it reads, and, from each, the names of atl.NAMES.
So the check is of what compilation resolved: a per-entity template reads no
context name but `entity`, `lang` and `flags`, and a fragment loop's body none
but `lang` and `flags` (besides its item). From an entity, the names of
atl.NAMES reach only classes of its subtree (`reachable`), and on each entity
rendered they reach only its own elements (`outside`), read as a template
reads them. Nothing changes at run time.
"""

from sfgen import atl
from sfgen import model as m

ENTITY_NAMES = frozenset({"entity", "lang", "flags"})  # what a per-entity template may read
ITEM_NAMES = frozenset({"lang", "flags"})  # what a fragment loop's body may read, but its item
SUBTREE = frozenset({m.Field, m.Constraint, m.ColumnSpec, m.LocalizedText, m.Settings})


def reachable(cls):
    """The model classes that the names of atl.NAMES reach from `cls`, transitively."""
    found, todo = set(), [cls]
    while todo:
        for name in atl.NAMES[todo.pop()].values():
            if name.cls is not None and name.cls not in found:
                found.add(name.cls)
                todo.append(name.cls)
    return found


def outside(entity):
    """The model elements that the names of atl.NAMES reach from `entity`,
    read as a template reads them, that are neither `entity` nor in its
    subtree: its fields, constraints and texts. A column is made from the
    entity's fields, so it is in its subtree."""
    own = {id(entity), id(entity.displayNames), id(entity.pluralNames)}
    for element in (*entity.fields, *entity.constraints):
        own.update((id(element), id(element.displayNames if type(element) is m.Field
                                    else element.errorMessages)))
    ctx, seen, todo, strays = {atl.MEMO: {}}, {id(entity)}, [entity], []
    while todo:
        element = todo.pop()
        for name in atl.NAMES[type(element)]:
            # the entity owns every constraint read here
            value = atl._step(element, name, 0, ctx, entity)
            for item in value if type(value) is tuple else (value,):
                if type(item) in atl.NAMES and id(item) not in seen:
                    seen.add(id(item))
                    todo.append(item)
                    if id(item) not in own and type(item) is not m.ColumnSpec:
                        strays.append(item)
    return strays


class ReadChecker:
    def __init__(self):
        self.checked = 0  # renders and fragment iterations checked
        self.violations: list[str] = [
            f"from Entity, atl.NAMES reaches {cls.__name__}"
            for cls in sorted(reachable(m.Entity) - SUBTREE, key=lambda cls: cls.__name__)]
        self.entities = {}  # id -> each entity checked, held so that no id is reused

    def names(self, where, names, allowed):
        self.violations += [f"{where} reads {name}" for name in sorted(names - allowed)]

    def entity(self, entity, where):
        self.checked += 1
        if id(entity) not in self.entities:
            self.entities[id(entity)] = entity
            self.violations += [f"{where} for entity {entity.name!r} reaches "
                                f"{type(stray).__name__} {stray!r}" for stray in outside(entity)]

    def install(self, monkeypatch):
        """Check every render from now until `monkeypatch` is undone."""
        checker, render, render_fragments = self, atl.render, atl.render_fragments

        def checked_render(ast, context):
            entity = context.get("entity")
            if entity is not None and "model" not in ast.names and "location" not in ast.steps:
                checker.names(ast.name, ast.names, ENTITY_NAMES)
                checker.entity(entity, ast.name)
            return render(ast, context)  # else whole-model inputs: it reads anything

        def checked_fragments(ast, context, kept):
            checker.names(f"{ast.name} fragment loop body", ast.fragment.names, ITEM_NAMES)

            def checked_kept(item, loop):
                piece = kept(item, loop)
                if piece is None:  # the iteration is rendered
                    checker.entity(item, f"{ast.name} iteration")
                return piece

            return render_fragments(ast, context, checked_kept)

        monkeypatch.setattr(atl, "render", checked_render)
        monkeypatch.setattr(atl, "render_fragments", checked_fragments)
        return self
