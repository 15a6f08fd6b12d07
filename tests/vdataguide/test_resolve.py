"""Unit tests for specification resolution against the original guide."""

import pytest

from repro.dataguide.build import build_dataguide
from repro.errors import SpecResolutionError
from repro.vdataguide.grammar import parse_spec, parse_vdataguide
from repro.vdataguide.resolve import resolve_spec
from repro.workloads.books import paper_figure2
from repro.xmlmodel.parser import parse_document


@pytest.fixture
def guide():
    return build_dataguide(paper_figure2())


def _vtypes(vguide):
    return {v.dotted(): v for v in vguide.iter_vtypes()}


def test_figure6_resolution(guide):
    vguide = resolve_spec(parse_spec("title { author { name } }"), guide)
    vtypes = _vtypes(vguide)
    assert vtypes["title"].original.dotted() == "data.book.title"
    assert vtypes["title.author"].original.dotted() == "data.book.author"
    assert vtypes["title.author.name"].original.dotted() == "data.book.author.name"


def test_implicit_text_children_kept(guide):
    vguide = resolve_spec(parse_spec("title { author { name } }"), guide)
    vtypes = _vtypes(vguide)
    assert "title.#text" in vtypes
    assert "title.author.name.#text" in vtypes
    # author has no text child in the data, so none is invented.
    assert "title.author.#text" not in vtypes


def test_virtual_levels(guide):
    vguide = resolve_spec(parse_spec("title { author { name } }"), guide)
    vtypes = _vtypes(vguide)
    assert vtypes["title"].level == 1
    assert vtypes["title.author"].level == 2
    assert vtypes["title.author.name"].level == 3


def test_vtypes_of(guide):
    vguide = resolve_spec(parse_spec("title { author } name { author }"), guide)
    author = guide.resolve_label("author")
    assert len(vguide.vtypes_of(author)) == 2


def test_star_expands_unmentioned_children(guide):
    vguide = resolve_spec(parse_spec("book { title * }"), guide)
    vtypes = _vtypes(vguide)
    # author and publisher are unmentioned -> pulled in as leaves.
    assert "book.author" in vtypes
    assert "book.publisher" in vtypes
    # star expands children only; grandchildren stay out.
    assert "book.publisher.location" not in vtypes
    # title was mentioned -> not duplicated by the star.
    assert sum(1 for d in vtypes if d == "book.title") == 1


def test_starstar_reproduces_subtree(guide):
    vguide = resolve_spec(parse_spec("data { ** }"), guide)
    vtypes = _vtypes(vguide)
    assert "data.book.publisher.location.#text" in vtypes
    assert len(vtypes) == 10  # identical shape to the original guide


def test_starstar_prunes_mentioned_types(guide):
    vguide = resolve_spec(parse_spec("title data { ** }"), guide)
    vtypes = _vtypes(vguide)
    # title is placed at the top level, so ** must not repeat it (or its text).
    assert "data.book.title" not in vtypes
    assert "title" in vtypes
    assert "data.book.author" in vtypes


def test_identity_via_starstar_matches_document(guide):
    from repro.core.virtual_document import VirtualDocument
    from repro.xmlmodel.serializer import serialize

    document = paper_figure2()
    vdoc = VirtualDocument.from_spec(document, "data { ** }")
    assert serialize(vdoc.materialize()) == serialize(document)


def test_unknown_label_rejected(guide):
    with pytest.raises(SpecResolutionError):
        resolve_spec(parse_spec("nothing { title }"), guide)


def test_contextual_disambiguation():
    document = parse_document(
        "<r><article><author>a</author><year>1</year></article>"
        "<paper><author>b</author><year>2</year></paper></r>"
    )
    guide = build_dataguide(document)
    # "year" is ambiguous globally but resolves inside the article entry.
    vguide = resolve_spec(parse_spec("article { year }"), guide)
    vtypes = _vtypes(vguide)
    assert vtypes["article.year"].original.dotted() == "r.article.year"


def test_ambiguous_root_still_rejected():
    document = parse_document("<r><a><x/></a><b><x/></b></r>")
    guide = build_dataguide(document)
    with pytest.raises(SpecResolutionError):
        resolve_spec(parse_spec("x"), guide)


def test_vguide_type_numbering(guide):
    vguide = resolve_spec(parse_spec("title { author } book"), guide)
    roots = vguide.roots
    assert [str(r.pbn) for r in roots] == ["1", "2"]
    title = roots[0]
    assert title.children[0].pbn.is_prefix_of(title.children[0].pbn)
    assert title.is_guide_ancestor_of(title.children[-1])


def test_dotted_path(guide):
    vguide = resolve_spec(parse_spec("title { author { name } }"), guide)
    vtypes = _vtypes(vguide)
    assert vtypes["title.author.name"].dotted() == "title.author.name"


def test_report_dropped_types(guide):
    vguide = resolve_spec(parse_spec("title { author { name } }"), guide)
    from repro.core.level_arrays import build_level_arrays

    build_level_arrays(vguide)
    report = vguide.report()
    dropped = {t.dotted() for t in report["dropped"]}
    assert "data.book.publisher" in dropped
    assert "data.book.publisher.location" in dropped
    # Implicit text leaves count as placed.
    assert "data.book.title.#text" not in dropped
    assert report["chain_exact"] is True
    assert report["duplicated"] == {}
    assert report["inversions"] == []


def test_report_duplicates_and_inversions(guide):
    from repro.core.level_arrays import build_level_arrays

    vguide = resolve_spec(
        parse_spec("title { author } name { author }"), guide
    )
    build_level_arrays(vguide)
    report = vguide.report()
    duplicated = {t.dotted() for t in report["duplicated"]}
    assert "data.book.author" in duplicated
    inversions = {v.dotted() for v in report["inversions"]}
    assert "name.author" in inversions


def test_report_chain_exact_flag(guide):
    from repro.core.level_arrays import build_level_arrays

    vguide = resolve_spec(parse_spec("title { author { publisher } }"), guide)
    build_level_arrays(vguide)
    assert vguide.report()["chain_exact"] is False


def test_identity_drops_nothing(guide):
    from repro.core.level_arrays import build_level_arrays

    vguide = resolve_spec(parse_spec("data { ** }"), guide)
    build_level_arrays(vguide)
    assert vguide.report()["dropped"] == []


def test_to_spec_roundtrip(guide):
    from repro.vdataguide.grammar import parse_vdataguide

    for spec in (
        "title { author { name } }",
        "name { author }",
        "book { title * }",
        "data { ** }",
        "title location",
    ):
        vguide = parse_vdataguide(spec, guide)
        rendered = vguide.to_spec()
        again = parse_vdataguide(rendered, guide)

        def shape(vg):
            return [
                (v.dotted(), v.original.dotted(), v.implicit)
                for v in vg.iter_vtypes()
            ]

        assert shape(again) == shape(vguide), rendered


def test_to_spec_qualifies_ambiguous_labels():
    from repro.vdataguide.grammar import parse_vdataguide

    document = parse_document(
        "<r><article><year>1</year></article><paper><year>2</year></paper></r>"
    )
    ambiguous_guide = build_dataguide(document)
    vguide = parse_vdataguide("article { year }", ambiguous_guide)
    rendered = vguide.to_spec()
    assert "article.year" in rendered or "r.article.year" in rendered
    again = parse_vdataguide(rendered, ambiguous_guide)
    assert len(again) == len(vguide)


def _recursive_mirror_order(guide) -> list:
    """``r { ** }``'s registration order, recursively: every
    unmentioned element child, its implicit leaves, then its subtree."""
    from repro.vdataguide.ast import VGuide, VType
    from repro.vdataguide.resolve import _attach_implicit_leaves

    vguide = VGuide(guide)
    root = vguide.register(VType(guide.roots[0], None))
    _attach_implicit_leaves(root, vguide)

    def mirror(vtype):
        for child in vtype.original.children:
            if not (child.is_text or child.is_attribute):
                child_vtype = vguide.register(VType(child, vtype))
                _attach_implicit_leaves(child_vtype, vguide)
                mirror(child_vtype)

    mirror(root)
    return [(v.original, str(v.pbn)) for v in vguide.iter_vtypes()]


def test_mirrored_subtree_registers_in_preorder():
    guide = build_dataguide(
        parse_document(
            '<r><a x="1"><b>t<c/></b><d/></a>u<e><f><g/></f></e><a><h/></a></r>'
        )
    )
    vguide = resolve_spec(parse_spec("r { ** }"), guide)
    assert [(v.original, str(v.pbn)) for v in vguide.iter_vtypes()] == (
        _recursive_mirror_order(guide)
    )


def test_mirror_of_a_deep_guide_needs_no_recursion():
    depth = 1500
    guide = build_dataguide(parse_document("<a>" * depth + "x" + "</a>" * depth))
    vguide = parse_vdataguide("a { ** }", guide)
    assert len(vguide) == depth + 1  # every a and the innermost text
    deepest = max(vguide.iter_vtypes(), key=lambda v: v.level)
    assert deepest.level == depth + 1 and deepest.level_array[-1] == depth + 1
