"""``docs/api.md``'s document reference is the rendering of the tables.

The "Scenario document reference" section lists every key of every
document stanza as the field tables of :mod:`repro.schema` declare it.
After an intended change to a table, rewrite the section with
``PYTHONPATH=src python -m tests.test_docs_reference``.
"""

import json
from pathlib import Path

from repro.campaign.spec import SWEEP
from repro.network.scenario import SCENARIO
from repro.schema import ANY, Field, ListOf, Obj, Table, Tagged, Time

API_MD = Path(__file__).parents[1] / "docs" / "api.md"
BEGIN = ("<!-- BEGIN document reference "
         "(python -m tests.test_docs_reference) -->")
END = "<!-- END document reference -->"


def _kind(f: Field) -> str:
    kind = f.kind
    if isinstance(kind, Time):
        return "a number (a time)"
    if isinstance(kind, ListOf) and kind.item is not None:
        return f"a list, each {_kind(kind.item)}"
    if isinstance(kind, Obj) and kind.values is not None:
        return f"an object, each key {kind.key.label}, each value " \
            f"{_kind(kind.values)}"
    if kind is ANY:
        return "one of the choices"
    also = getattr(kind, "also", ())
    return kind.label + "".join(f" or `{json.dumps(a)}`" for a in also)


def _constraint(f: Field) -> str:
    choices = f.choices() if callable(f.choices) else f.choices
    if choices is not None:
        return ", ".join(f"`{json.dumps(choice)}`" for choice in choices)
    if isinstance(f.kind, Time):
        return "positive" if f.kind.positive else ">= 0"
    if f.bounds and isinstance(f.kind, ListOf):
        return f"length {f.bounds}"
    return str(f.bounds or "")


def _nested(f: Field, path: str):
    kind = f.kind
    while True:
        if isinstance(kind, ListOf) and kind.item is not None:
            path, kind = path + "[i]", kind.item.kind
        elif isinstance(kind, Obj) and kind.values is not None:
            path, kind = path + ".<key>", kind.values.kind
        else:
            break
    if isinstance(kind, Obj) and kind.table is not None:
        yield path, kind.table
    elif isinstance(kind, Tagged):
        for tag, table in sorted(kind.tables.items()):
            # the heading names the tag; the table lists the rest
            yield f"{path} ({kind.tag.name}: {tag})", Table(table.fields[1:])


def render(table: Table, title: str, path: str = "", seen=None):
    """Markdown for *table* and, once each, every table nested in it."""
    seen = {} if seen is None else seen
    lines = [f"#### {title}", "",
             "| key | kind | range / choices | default | meaning |",
             "|---|---|---|---|---|"]
    nested = []
    for f in table.fields:
        doc = f.doc
        for sub_path, sub in _nested(f, f"{path}.{f.name}".lstrip(".")):
            if id(sub) in seen:
                doc += f" (as `{seen[id(sub)]}`)"
            else:
                seen[id(sub)] = sub_path
                nested.append((sub_path, sub))
        default = "required" if f.required else \
            "" if f.default is None else f"`{json.dumps(f.default)}`"
        keys = " or ".join(f"`{key}`" for key in f.keys)
        lines.append(f"| {keys} | {_kind(f)} | {_constraint(f)} | "
                     f"{default} | {doc} |")
    lines.append("")
    for sub_path, sub in nested:
        lines += render(sub, f"`{sub_path}`", sub_path.split(" ")[0], seen)
    return lines


def rendering() -> str:
    return "\n".join([
        BEGIN, "",
        *render(SCENARIO, "The scenario document"),
        *render(SWEEP, "The sweep document"),
        END,
    ])


def _section(text: str) -> str:
    return text[text.index(BEGIN):text.index(END) + len(END)]


def test_document_reference_is_the_rendering_of_the_tables():
    assert _section(API_MD.read_text()) == rendering()


if __name__ == "__main__":
    text = API_MD.read_text()
    API_MD.write_text(text.replace(_section(text), rendering()))
    print(f"rewrote the document reference in {API_MD}")
