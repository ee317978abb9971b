"""Checked read sets: every model element a render reads lies in its declared
inputs, or the test that made the render fails.

A per-entity artifact whose template reads neither the `model` root nor any
`location` may read only its entity's subtree and the settings, since its
inputs name only its entity's source. So may each iteration of a fragment loop,
with the entity it iterates. Reads are recorded through
`ModelView.__getitem__`, which every path step on a view and every computed
name goes through; nothing changes at run time.
"""

import contextlib
import dataclasses
import itertools

from sfgen import atl
from sfgen import model as m


class ReadChecker:
    def __init__(self):
        self.entity = None  # the entity whose subtree the render being checked may read
        self.where = ""  # what is being rendered
        self.checked = 0  # renders checked
        self.violations: list[str] = []

    @contextlib.contextmanager
    def render(self, entity, where):
        self.entity, self.where = entity, where
        self.checked += 1
        try:
            yield
        finally:
            self.entity = None

    def read(self, view, name):
        if self.entity is None or view.element is self.entity or view.owner is self.entity \
                or type(view.element) is m.Settings:
            return
        self.violations.append(f"{self.where} for entity {self.entity.name!r} read "
                               f"{type(view.element).__name__}.{name}")

    def install(self, monkeypatch):
        """Check every render from now until `monkeypatch` is undone."""
        checker, render, render_fragments = self, atl.render, atl.render_fragments

        def getitem(view, name):
            checker.read(view, name)
            return dict.__getitem__(view, name)  # which calls __missing__ for a new name

        def checked_render(ast, context):
            entity = context.get("entity")
            if entity is None or "model" in ast.names or "location" in ast.steps:
                return render(ast, context)  # whole-model inputs: reads anything
            with checker.render(entity.element, ast.name):
                return render(ast, context)

        def checked_fragments(ast, context, kept):
            compiled = ast.compiled

            def checked_compiled(ctx, append, mark):
                iterations, rendering = itertools.count(1), contextlib.ExitStack()

                def checked_mark(item, loop):
                    rendering.close()  # the iteration before, if any, ends here
                    skip = mark(item, loop)
                    i = next(iterations)
                    if item is not None and not skip:
                        rendering.enter_context(
                            checker.render(item.element, f"{ast.name} iteration {i}"))
                    return skip

                with rendering:
                    compiled(ctx, append, checked_mark)

            return render_fragments(dataclasses.replace(ast, compiled=checked_compiled),
                                    context, kept)

        monkeypatch.setattr(atl.ModelView, "__getitem__", getitem, raising=False)
        monkeypatch.setattr(atl, "render", checked_render)
        monkeypatch.setattr(atl, "render_fragments", checked_fragments)
        return self
