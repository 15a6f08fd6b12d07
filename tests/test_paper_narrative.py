"""The whole paper, as one integration test.

Walks the running example exactly as the paper tells it — Sections 2
through 6 — asserting each figure and worked example along the way.  If
this test passes, the reproduction tells the paper's story end to end.
"""

from repro.core.vpbn import (
    VPbn,
    v_child,
    v_descendant,
    v_following_sibling,
    v_parent,
    v_preceding,
)
from repro.pbn.number import Pbn
from repro.pbn import axes
from repro.query.engine import Engine
from repro.workloads.books import paper_figure2
from repro.xmlmodel.serializer import serialize


def test_the_whole_story():
    # --- Section 2: the data (Figure 2) and Sam's query (Figure 1). -----
    engine = Engine()
    document = paper_figure2()
    store = engine.load("book.xml", document)

    sam = (
        'for $t in doc("book.xml")//book/title let $a := $t/../author '
        "return <title>{$t/text()}{$a}</title>"
    )
    figure3 = (
        "<title>X<author><name>C</name></author></title>"
        "<title>Y<author><name>D</name></author></title>"
    )
    assert engine.execute(sam).to_xml() == figure3

    # Rhonda's nested query (Figure 4) works, but pays construction.
    rhonda_nested = (
        f"for $t in ({sam})//self::title "
        "return <title>{$t/text()}<count>{count($t/author)}</count></title>"
    )
    rhonda_expected = (
        "<title>X<count>1</count></title><title>Y<count>1</count></title>"
    )
    assert engine.execute(rhonda_nested).to_xml() == rhonda_expected

    # --- Section 4.2: PBN numbers (Figure 8) and comparisons. ------------
    assert str(store.node(Pbn(1, 2, 2)).name) == "author"
    x, y = Pbn(1, 1, 2), Pbn(1, 2)
    assert axes.is_preceding(x, y) and not axes.is_preceding_sibling(x, y)

    # --- Section 4.3: the transformation breaks PBN (Figure 9). ----------
    # In the transformed space Y (1.2.1) parents D's name text (1.2.2.1.1),
    # but the raw numbers deny it: 1.2.1 is not a prefix of 1.2.2.1.1.
    assert not Pbn(1, 2, 1).is_prefix_of(Pbn(1, 2, 2, 1, 1))

    # --- Section 5: vPBN fixes it (Figure 10). ---------------------------
    vdoc = engine.virtual("book.xml", "title { author { name } }")
    arrays = {v.dotted(): v.level_array for v in vdoc.vguide.iter_vtypes()}
    assert arrays["title"] == (1, 1, 1)
    assert arrays["title.author"] == (1, 1, 2)
    assert arrays["title.author.name.#text"] == (1, 1, 2, 3, 4)

    vtypes = {v.dotted(): v for v in vdoc.vguide.iter_vtypes()}
    name1 = VPbn(Pbn(1, 1, 2, 1), vtypes["title.author.name"])
    title1 = VPbn(Pbn(1, 1, 1), vtypes["title"])
    title2 = VPbn(Pbn(1, 2, 1), vtypes["title"])
    author2 = VPbn(Pbn(1, 2, 2), vtypes["title.author"])
    c_text = VPbn(Pbn(1, 1, 2, 1, 1), vtypes["title.author.name.#text"])
    d_text = VPbn(Pbn(1, 2, 2, 1, 1), vtypes["title.author.name.#text"])
    # The three worked examples of Section 5:
    assert v_descendant(name1, title1) and not v_descendant(name1, title2)
    assert v_preceding(c_text, author2)
    assert not v_following_sibling(c_text, d_text)
    # And the fixed Figure 9 relationship:
    y_text = VPbn(Pbn(1, 2, 1, 1), vtypes["title.#text"])
    assert v_parent(title2, author2) and v_child(author2, title2)
    assert v_preceding(y_text, author2)

    # --- Figure 6: Rhonda through virtualDoc — same answer, no rebuild. --
    rhonda_virtual = (
        'for $t in virtualDoc("book.xml", "title { author { name } }")//title '
        "return <title>{$t/text()}<count>{count($t/author)}</count></title>"
    )
    engine.reset_stats()
    assert engine.execute(rhonda_virtual).to_xml() == rhonda_expected
    assert engine.stats.page_writes == 0  # nothing materialized

    # --- Materialization (the baseline) reproduces Figure 3 physically. --
    assert serialize(vdoc.materialize()) == figure3

    # --- Section 6: transformed values from the stored string. -----------
    first_title = vdoc.roots()[0]
    assert vdoc.value(first_title) == (
        "<title>X<author><name>C</name></author></title>"
    )
    # The paper's concrete example: the first author's (physical) value.
    assert store.value_of(Pbn(1, 1, 2)) == "<author><name>C</name></author>"
