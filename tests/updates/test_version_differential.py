"""An updated version answers exactly as a fresh parse of its own bytes.

``apply_op`` derives version *n + 1* from version *n* without re-ingesting
anything: numbers are careted, indexes are derived page by page, and the
node tree shares what the update did not touch.  None of that may show in
an answer.  After every op of a seeded sequence, each query is run twice —
on the engine holding the derived version and on an engine over
``parse_document(store.heap.read_all())`` — under ``tree`` / ``indexed`` /
``sql`` over the stored document and under the virtual navigator and
``sql`` over a view, and the serialized answers must be byte-identical.

The queries lean on what sharing could break: the upward and ordering axes
(``parent``, ``ancestor``, siblings, ``following``, ``preceding``), ``/``
from a node inside a predicate, and set operators over the document plus
a second one and over a view beside its document.  A version five ops
back must still answer its own bytes and pass :func:`verify_store`.

Container order across documents is assigned on first sight per engine,
so each comparison first shows the fresh engine its containers in the
order the updated engine already holds them (:func:`_align`).
"""

from __future__ import annotations

import random

import pytest

from repro.dataguide.build import build_dataguide
from repro.errors import ReproError
from repro.query.engine import Engine
from repro.storage.store import DocumentStore
from repro.updates.mutations import apply_op, verify_store
from repro.updates.ops import DeleteSubtree, InsertSubtree, ReplaceText
from repro.workloads.books import books_document
from repro.workloads.querygen import random_queries
from repro.workloads.treegen import random_document, random_spec
from repro.xmlmodel.nodes import Document, NodeKind
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize

URI = "d.xml"
OTHER = "other.xml"
OPS = 20
BACK = 5

#: Every op kind the sequence cycles through; a kind with no target in
#: the current version hands its turn to the next one.
KINDS = (
    "before",
    "after",
    "append",
    "self-closing",
    "delete",
    "delete-attribute",
    "delete-last-content",
    "replace-text",
    "replace-attribute",
)

#: Upward, sibling and ordering axes, ``/`` from a node, over ``{name}``.
AXIS_TEMPLATES = (
    "{source}//{name}/..",
    "{source}//{name}/ancestor::*",
    "{source}//{name}/following-sibling::node()",
    "{source}//{name}/preceding-sibling::*",
    "{source}//{name}/following::*",
    "{source}//{name}/preceding::node()",
    "{source}//text()/parent::*",
    "{source}//@*/..",
    "({source}//{name})[last()][count(//node()) = count({source}//node())]",
    "({source}//{name})[last()]/ancestor-or-self::*/preceding-sibling::*[1]",
)

CASES = [
    ("treegen-0", lambda: random_document(0, max_depth=4, max_children=3, uri=URI)),
    ("treegen-3", lambda: random_document(3, max_depth=4, max_children=3, uri=URI)),
    ("treegen-7", lambda: random_document(7, max_depth=5, max_children=3, uri=URI)),
    ("books-50", lambda: books_document(50, seed=11)),
]


def _fragment(rng: random.Random) -> str:
    """A one-rooted fragment with an attribute, text, an empty element
    and an element whose only content is text — material for every kind
    of a later op."""
    word = rng.choice(["ash", "elm", "yew"])
    tag = rng.choice(["a", "b", "title", "f"])
    return (
        f'<{tag} k="{rng.randrange(100)}">{word}<e/>'
        f"<g>{rng.choice(['oak', 'fir'])}</g></{tag}>"
    )


def _content(element) -> list:
    return [c for c in element.children if c.kind is not NodeKind.ATTRIBUTE]


def _op(rng: random.Random, store: DocumentStore, kind: str):
    """One op of ``kind`` against ``store``, or ``None`` when the version
    offers no target for it."""
    nodes = list(store.document.root.iter_subtree())
    elements = [n for n in nodes if n.kind is NodeKind.ELEMENT]
    if kind in ("before", "after"):
        parents = [e for e in elements if len(_content(e)) >= 2]
        if not parents:
            return None
        parent = rng.choice(parents)
        content = _content(parent)
        if kind == "before":  # between two siblings: a careted number
            return InsertSubtree(
                parent.pbn, _fragment(rng), before=rng.choice(content[1:]).pbn
            )
        return InsertSubtree(parent.pbn, _fragment(rng), after=rng.choice(content[:-1]).pbn)
    if kind == "append":
        parents = [e for e in elements if _content(e)]
        return InsertSubtree(rng.choice(parents).pbn, _fragment(rng)) if parents else None
    if kind == "self-closing":
        parents = [e for e in elements if not _content(e)]
        return InsertSubtree(rng.choice(parents).pbn, _fragment(rng)) if parents else None
    if kind == "delete":
        targets = [
            n for n in nodes[1:]
            if n.kind is not NodeKind.ATTRIBUTE and len(_content(_parent(store, n))) > 1
        ]
        return DeleteSubtree(rng.choice(targets).pbn) if targets else None
    if kind == "delete-attribute":
        targets = [n for n in nodes if n.kind is NodeKind.ATTRIBUTE]
        return DeleteSubtree(rng.choice(targets).pbn) if targets else None
    if kind == "delete-last-content":
        targets = [c for e in elements[1:] for c in _content(e) if len(_content(e)) == 1]
        return DeleteSubtree(rng.choice(targets).pbn) if targets else None
    wanted = NodeKind.TEXT if kind == "replace-text" else NodeKind.ATTRIBUTE
    targets = [n for n in nodes if n.kind is wanted]
    if not targets:
        return None
    # "" too: an emptied text is deleted, an empty attribute value reads
    # back as it is.
    values = ["pine", "a<b & c", '"q"', ""]
    return ReplaceText(rng.choice(targets).pbn, rng.choice(values))


def _parent(store: DocumentStore, node):
    """``node``'s parent in ``store``'s version, found by number."""
    return store.node_by_components(node.pbn.components[:-1])


def _sequence(seed: int, store: DocumentStore):
    """``(kind, op, derived store)`` for ``OPS`` seeded ops from ``store``."""
    rng = random.Random(seed)
    for step in range(OPS):
        for turn in range(len(KINDS)):
            kind = KINDS[(step + turn) % len(KINDS)]
            op = _op(rng, store, kind)
            if op is not None:
                break
        else:  # pragma: no cover - every version has a text to replace
            raise AssertionError(f"no op applies at step {step}")
        store = apply_op(store, op).store
        yield kind, op, store


def _names(document) -> list[str]:
    guide = build_dataguide(document)
    return sorted(
        {
            t.path[-1]
            for t in guide.iter_types()
            if not (t.is_text or t.is_attribute)
        }
    )


def _fresh(store: DocumentStore, other: str) -> Engine:
    """An engine over a fresh parse of ``store``'s bytes, ``other.xml``
    beside it."""
    engine = Engine()
    engine.load(URI, parse_document(store.heap.read_all(), URI))
    engine.load(OTHER, other)
    return engine


def _align(updated: Engine, fresh: Engine, sources: list[str]) -> None:
    """Show ``fresh`` the containers behind ``sources`` in the order
    ``updated`` holds them (a union orders containers by first sight)."""
    order = []
    for item in updated.execute(" | ".join(sources)).items:
        if isinstance(item, Document):
            order.append(f'doc("{item.uri}")')
        else:
            order.extend(s for s in sources if s.startswith("virtualDoc"))
    fresh.execute(" | ".join(order))


def _answer(engine: Engine, text: str, mode):
    try:
        result = engine.execute(text, mode=mode)
    except ReproError as error:  # both engines must fail alike
        return ("error", type(error).__name__, str(error))
    return result.to_xml(), result.values()


def _compare(updated, fresh, cells, context: str, problems: list) -> None:
    for text, mode in cells:
        got, want = _answer(updated, text, mode), _answer(fresh, text, mode)
        if got != want:
            problems.append(
                f"{context} mode={mode} query={text!r}\n"
                f"  derived: {got!r:.300}\n  fresh:   {want!r:.300}"
            )


def _cells(rng: random.Random, names: list[str], spec: str, step: int) -> list:
    """``(query, mode)`` pairs for one version: half the axis templates
    (the other half at the next version) over drawn names, then generated
    queries (set operators included)."""
    stored = f'doc("{URI}")'
    view = f'virtualDoc("{URI}", "{spec}")'
    texts_stored: list[str] = []
    texts_virtual: list[str] = []
    for template in AXIS_TEMPLATES[step % 2 :: 2]:
        name = rng.choice(names)
        texts_stored.append(template.format(source=stored, name=name))
        texts_virtual.append(template.format(source=view, name=name))
    for index, query in enumerate(
        random_queries(rng.randrange(10**6), names, 8, set_operators=True)
    ):
        if query.set_operating:
            texts_stored.append(query.text(stored, f'doc("{OTHER}")'))
            texts_virtual.append(query.text(view, stored))
        elif index % 2:
            texts_stored.append(query.text(stored))
            texts_virtual.append(query.text(view))
    return [(t, mode) for t in texts_stored for mode in ("tree", "indexed", "sql")] + [
        (t, mode) for t in texts_virtual for mode in (None, "sql")
    ]


@pytest.mark.parametrize("label,build", CASES, ids=[label for label, _ in CASES])
def test_every_version_answers_as_a_fresh_parse(label, build):
    document = build()
    document.uri = URI
    store = DocumentStore(document)
    other = serialize(random_document(91, max_depth=3, max_children=3, uri=OTHER))
    seed = sum(map(ord, label))
    rng = random.Random(seed)
    updated = Engine()  # one engine, re-attached at every version
    updated.load(OTHER, other)
    stored = f'doc("{URI}")'
    versions = [store]
    kinds: set[str] = set()
    problems: list[str] = []
    cells = 0
    for step, (kind, op, derived) in enumerate(_sequence(seed, store)):
        kinds.add(kind)
        versions.append(derived)
        updated.attach(URI, derived)
        fresh = _fresh(derived, other)
        names = _names(fresh.document(URI))
        spec = random_spec(build_dataguide(fresh.document(URI)), seed + step,
                           max_roots=2, max_children=2, max_depth=3)
        _align(updated, fresh, [stored, f'doc("{OTHER}")', f'virtualDoc("{URI}", "{spec}")'])
        version_cells = _cells(rng, names, spec, step)
        cells += len(version_cells)
        _compare(updated, fresh, version_cells,
                 f"{label} step={step} op={op.describe()} spec={spec!r}", problems)
        if len(versions) > BACK:
            # An old version in an engine of its own: one engine holds
            # one version of a document.
            old = versions[-1 - BACK]
            verify_store(old)
            previous = Engine()
            previous.attach(URI, old)
            previous.load(OTHER, other)
            fresh = _fresh(old, other)
            _align(previous, fresh, [stored, f'doc("{OTHER}")'])
            name = rng.choice(names)
            _compare(
                previous, fresh,
                [(t.format(source=stored, name=name), mode)
                 for t in AXIS_TEMPLATES[step % 2 :: 2] for mode in ("tree", "indexed")],
                f"{label} version {len(versions) - 1 - BACK} (old)", problems,
            )
        assert not problems, "\n".join(problems[:10])
    assert kinds == set(KINDS), f"{label}: op kinds never applied: {set(KINDS) - kinds}"
    assert cells >= 30 * OPS
