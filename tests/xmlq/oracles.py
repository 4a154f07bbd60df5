"""A record's XML descriptor (Figure 1), for the cross-layer tests.

No lookup, publish or daemon path builds one: the paper defines covering
on descriptors, so the tests match field queries against them.
"""

from __future__ import annotations

from repro.core.fields import Record, Schema, SchemaError
from tests.xmlq.element import Element


def descriptor_of(record: Record) -> Element:
    """The record's XML descriptor (Figure 1 form): each present field's
    value at its element path under the schema's root tag."""
    tree: dict = {}
    for name, value in record.items():
        path = record.schema.path_of(name)
        *parents, leaf = path.split("/")
        node = tree
        for part in parents:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise SchemaError(f"path conflict at {part!r} in {path!r}")
        if leaf in node:
            raise SchemaError(f"duplicate path {path!r}")
        node[leaf] = value

    def build(tag: str, content) -> Element:
        if isinstance(content, str):
            return Element(tag, text=content)
        return Element(tag, children=[build(*child) for child in content.items()])

    return build(record.schema.root, tree)


def record_from_descriptor(schema: Schema, descriptor: Element) -> Record:
    """Extract a record from a descriptor produced for this schema."""
    if descriptor.tag != schema.root:
        raise SchemaError(
            f"descriptor root <{descriptor.tag}> does not match schema "
            f"<{schema.root}>"
        )
    values: dict[str, str] = {}
    for name in schema.all_field_names:
        text = descriptor.findtext(schema.path_of(name))
        if text is not None:
            values[name] = text
    return Record(schema, values)
