"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import _load_documents, main
from repro.shard import ShardedService
from repro.workloads.books import paper_figure2
from repro.xmlmodel.serializer import serialize


@pytest.fixture
def book_file(tmp_path):
    path = tmp_path / "books.xml"
    path.write_text(serialize(paper_figure2()))
    return str(path)


def test_query_from_file(book_file, capsys):
    code = main(
        [
            "query",
            "-d",
            f"book.xml={book_file}",
            'doc("book.xml")//title/text()',
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "XY"


def test_query_values_flag(book_file, capsys):
    main(
        [
            "query",
            "-d",
            f"book.xml={book_file}",
            "--values",
            'doc("book.xml")//name/text()',
        ]
    )
    assert capsys.readouterr().out.splitlines() == ["C", "D"]


def test_query_virtual(book_file, capsys):
    main(
        [
            "query",
            "-d",
            f"book.xml={book_file}",
            'for $t in virtualDoc("book.xml", "title { author }")//title '
            "return count($t/author)",
        ]
    )
    assert capsys.readouterr().out.strip() == "11"


def test_query_synthetic_dataset(capsys):
    code = main(["query", "--books", "3", 'count(doc("book.xml")//book)'])
    assert code == 0
    assert capsys.readouterr().out.strip() == "3"


def test_query_stats(capsys):
    main(["query", "--books", "2", "--stats", 'count(doc("book.xml")//book)'])
    captured = capsys.readouterr()
    assert "# index_range_scans:" in captured.err


def test_query_tree_mode(capsys):
    main(["query", "--books", "2", "--mode", "tree", 'count(doc("book.xml")//book)'])
    assert capsys.readouterr().out.strip() == "2"


def test_query_error_reported(capsys):
    code = main(["query", "--books", "1", 'doc("missing.xml")//x'])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_explain(capsys):
    assert main(["explain", "//a[1]"]) == 0
    out = capsys.readouterr().out
    assert "step descendant-or-self::node()" in out


def test_guide(book_file, capsys):
    main(["guide", "-d", f"book.xml={book_file}"])
    out = capsys.readouterr().out
    assert out.startswith("data { book {")
    assert "data.book.author" in out


def test_guide_requires_unambiguous_uri(book_file, capsys):
    with pytest.raises(SystemExit):
        main(["guide", "-d", f"a={book_file}", "-d", f"b={book_file}"])
    main(["guide", "-d", f"a={book_file}", "-d", f"b={book_file}", "a"])
    assert "data.book" in capsys.readouterr().out


def test_arrays(book_file, capsys):
    main(["arrays", "-d", f"book.xml={book_file}", "title { author { name } }"])
    out = capsys.readouterr().out
    assert "[1, 1, 2, 3]" in out


def test_bad_document_argument():
    with pytest.raises(SystemExit):
        main(["query", "-d", "not-a-pair", "1"])


def test_arrays_warns_about_dropped_types(book_file, capsys):
    main(["arrays", "-d", f"book.xml={book_file}", "title { author }"])
    captured = capsys.readouterr()
    assert "data invisible through this view" in captured.err
    assert "publisher" in captured.err


def test_arrays_warns_about_non_chain_exact(book_file, capsys):
    main(["arrays", "-d", f"book.xml={book_file}", "title { author { publisher } }"])
    assert "not chain-exact" in capsys.readouterr().err


def test_save_and_reopen_image(book_file, tmp_path, capsys):
    image = str(tmp_path / "books.vpbn")
    code = main(["save", "-d", f"book.xml={book_file}", image])
    assert code == 0
    assert "saved book.xml" in capsys.readouterr().out
    # -d accepts store images transparently (magic-sniffed).
    main(["query", "-d", f"book.xml={image}", 'count(doc("book.xml")//book)'])
    assert capsys.readouterr().out.strip() == "2"


def _documents(*specs):
    return argparse.Namespace(document=list(specs), books=None, auction=None, dblp=None, seed=7)


def test_serve_loads_a_saved_image_like_its_text(book_file, tmp_path, capsys):
    """``serve -d URI=IMAGE`` opens a store image onto the sharded
    service ``serve`` builds, and answers what the text load answers."""
    image = str(tmp_path / "books.vpbn")
    assert main(["save", "-d", f"book.xml={book_file}", image]) == 0
    capsys.readouterr()
    query = 'virtualDoc("book.xml", "title { author }")//title'
    answers = []
    for path in (image, book_file):
        service = ShardedService(shards=1)
        assert _load_documents(service, _documents(f"book.xml={path}")) == ["book.xml"]
        answers.append(service.execute(query).to_xml())
        service.close()
    assert answers[0] == answers[1]
    assert "<title>" in answers[0]


def test_batch_prints_each_answer_once_and_metrics_as_json(book_file, capsys):
    """``batch`` runs on the one-shard collection ``serve`` builds: its
    metrics report the shard topology and one routed read per query."""
    queries = ['count(doc("book.xml")//book)', 'doc("book.xml")//title/text()']
    code = main(["batch", "-d", f"book.xml={book_file}", "--repeat", "2", "--metrics", *queries])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines() == ["2", "XY"]
    metrics = json.loads(captured.err)
    assert metrics["caches"]["plan"]["entries"] == 2
    assert metrics["counters"]["service.batches"] == 2
    assert metrics["counters"]["cache.plan.hits"] >= 2
    assert metrics["shards"]["by_shard"] == {"0": ["book.xml"]}
    assert metrics["counters"]["shard.routed_single"] == 4


def test_batch_exits_1_when_a_query_fails(book_file, capsys):
    code = main(["batch", "-d", f"book.xml={book_file}",
                 'count(doc("book.xml")//book)', 'doc("nope.xml")//x'])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.splitlines() == ["2"]
    assert "error: 'doc(\"nope.xml\")//x'" in captured.err
