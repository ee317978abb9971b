"""sfgen: model-driven scaffold generator.

Reads an XML entity model, validates it, and renders a template pack into a
consistent multi-tier application scaffold (SQL scripts, data-access layer,
web forms, client validation, docs, API description) while protecting
handwritten code across regenerations.
"""

__version__ = "0.1.0"
