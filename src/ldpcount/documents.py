"""The JSON document format every report is written in.

A report is a frozen dataclass that inherits :class:`Document`.  Its
document is ``{"schema": SCHEMA}`` plus every field, made plain.  A field
whose default is None is left out while it is None.  Bump SCHEMA whenever
a change moves the bytes of a document.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

import numpy as np

SCHEMA = 1


def plain(value):
    """``value`` as JSON builtins.

    Tuples, lists and arrays become lists; dicts get ``str`` keys in sorted
    key order; a report becomes its own document; any other dataclass becomes
    a dict of its fields.
    """
    if isinstance(value, Document):
        return value.to_json_dict()
    if is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in sorted(value.items())}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [plain(x) for x in value]
    return value


class Document:
    """Mixin for report dataclasses: one schema-stamped JSON document each."""

    def to_json_dict(self) -> dict:
        doc = {"schema": SCHEMA}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                doc[f.name] = plain(value)
        return doc
