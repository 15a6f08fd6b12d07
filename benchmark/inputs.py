"""Seeded inputs: documents, the virtual/stored query pairs, and the
update stream with the generator's own model of the document.

Everything a workload feeds the program comes from here and is a pure
function of ``--seed``; the program only ever sees the generated text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.pbn.number import Pbn
from repro.updates.ops import DeleteSubtree, InsertSubtree, ReplaceText, UpdateOp
from repro.workloads import auction_document, books_document, dblp_document
from repro.workloads.queries import ALL_WORKLOADS, instantiate, virtual_source
from repro.xmlmodel.serializer import serialize

#: Document sizes per workload.  The issue's sizes, cut so that a round
#: takes 0.2-0.6 s: on a host three times slower than usual a run of
#: ``run_seconds`` still repeats every op class 20 times or more, which
#: the lower decile that stands for its latency needs.
SIZES = {
    "embedded_read": {"books": 500, "auction": 100, "dblp": 250},
    "cold_open": {"books": 200, "auction": 40, "dblp": 100},
    "durable_mix": {"books": 300, "updates_per_cycle": 10, "checkpoint_after": 6},
    "served_mix": {"documents": 8, "books": 250, "connections": 2},
}

BOOK_SPEC = "title { author { name } }"

_DATASET_URI = {"books": "book.xml", "auction": "auction.xml", "dblp": "dblp.xml"}
_SUITE_URI = {
    "books-invert": "book.xml",
    "books-case2": "book.xml",
    "auction-flat": "auction.xml",
    "auction-pair": "auction.xml",
    "dblp-by-author": "dblp.xml",
}
_GENERATORS = {
    "books": lambda n, seed: books_document(n, seed=seed, numbered=False),
    "auction": lambda n, seed: auction_document(n, seed=seed, numbered=False),
    "dblp": lambda n, seed: dblp_document(n, seed=seed, numbered=False),
}

#: Stored ``doc()`` counterparts of the 13 virtual queries: each reaches
#: the same original nodes through the stored hierarchy.
_STORED = {
    ("books-invert", "titles"): "{source}//title",
    ("books-invert", "author-count"): (
        "for $b in {source}//book "
        "return <entry>{{ $b/title/text() }}<n>{{ count($b/author) }}</n></entry>"
    ),
    ("books-invert", "names"): "{source}//book/author/name/text()",
    ("books-case2", "names"): "{source}//name",
    ("books-case2", "name-authors"): "{source}//author",
    ("auction-flat", "items"): "{source}//item",
    ("auction-flat", "expensive"): (
        "{source}/site/regions/region/item[price > 4500]/name/text()"
    ),
    ("auction-flat", "bid-count"): (
        "for $a in {source}/site/auctions/auction "
        "return <a>{{ count($a/bid) }}</a>"
    ),
    ("auction-pair", "pairs"): "{source}//item/name",
    ("auction-pair", "priced"): "{source}//item[price > 4500]/category/text()",
    ("dblp-by-author", "authors"): "{source}//author",
    ("dblp-by-author", "article-titles"): "{source}//article/title",
    ("dblp-by-author", "recent"): (
        "{source}//inproceedings[year = 2013]/title/text()"
    ),
}


def three_documents(sizes: dict, seed: int) -> dict[str, str]:
    """``uri -> XML text`` for the books + auction + dblp collection."""
    return {
        _DATASET_URI[name]: serialize(_GENERATORS[name](sizes[name], seed * 7 + index))
        for index, name in enumerate(("books", "auction", "dblp"))
    }


@dataclass(frozen=True)
class Query:
    """One read of the paired suite.  ``kind`` is ``virtual`` or
    ``stored``; ``name`` is shared by the two members of a pair."""

    name: str
    kind: str
    uri: str
    spec: str
    text: str


def paired_queries() -> list[Query]:
    """The 13 virtual queries (all three Algorithm-1 cases) followed by
    their 13 stored counterparts."""
    virtual, stored = [], []
    for suite in ALL_WORKLOADS:
        uri = _SUITE_URI[suite.name]
        for name, template in suite.queries.items():
            label = f"{suite.name}.{name}"
            virtual.append(Query(
                label, "virtual", uri, suite.spec,
                instantiate(template, virtual_source(uri, suite.spec)),
            ))
            stored.append(Query(
                label, "stored", uri, "",
                instantiate(_STORED[suite.name, name], f'doc("{uri}")'),
            ))
    return virtual + stored


# -- the books update stream ----------------------------------------------------

#: Authors of inserted books, and the names the by-name reads ask for.
AUTHOR_NAMES = ["Codd", "Hopper", "Knuth", "Lovelace", "Turing"]


@dataclass
class Book:
    pbn: str
    title: str
    names: list


class BookModel:
    """The generator's model of one books document under updates: the
    live books in document order with their numbers, titles and author
    names.  It predicts every read's answer, so reads are checked against
    it and not against the program's own output."""

    def __init__(self, uri: str, books: int, seed: int, tag: str = "") -> None:
        self.uri = uri
        self.tag = tag
        self.edits = 0
        document = books_document(books, seed=seed, numbered=False)
        self.xml = serialize(document)
        self.books = [
            Book(
                f"1.{index}",
                book.children[0].children[0].value,
                [author.children[0].children[0].value for author in book.children[1:-1]],
            )
            for index, book in enumerate(document.root.children, 1)
        ]

    # -- predicted answers ------------------------------------------------------

    def titles(self) -> list[str]:
        return [book.title for book in self.books]

    def titles_by(self, name: str) -> list[str]:
        return [book.title for book in self.books if name in book.names]

    def author_count(self) -> int:
        return sum(len(book.names) for book in self.books)

    # -- updates ----------------------------------------------------------------

    def next_op(self, rng: random.Random, kind: str) -> UpdateOp:
        """The next update of ``kind`` (``replace`` / ``append`` /
        ``before`` / ``delete``); call :meth:`applied` with the minted
        numbers once the program has acknowledged it."""
        self.edits += 1
        self._kind = kind
        self._index = rng.randrange(len(self.books))
        target = self.books[self._index]
        if kind == "replace":
            self._title = f"Retitled {self.tag}{self.edits}"
            return ReplaceText(Pbn.parse(f"{target.pbn}.1.1"), self._title)
        if kind == "delete":
            return DeleteSubtree(Pbn.parse(target.pbn))
        self._title = f"Inserted {self.tag}{self.edits}"
        self._names = [rng.choice(AUTHOR_NAMES) for _ in range(rng.randint(1, 2))]
        fragment = (
            f"<book><title>{self._title}</title>"
            + "".join(f"<author><name>{n}</name></author>" for n in self._names)
            + "<publisher><location>Snowbird</location></publisher></book>"
        )
        before = Pbn.parse(target.pbn) if kind == "before" else None
        return InsertSubtree(Pbn.parse("1"), fragment, before=before)

    def applied(self, minted=()) -> None:
        if self._kind == "replace":
            self.books[self._index].title = self._title
        elif self._kind == "delete":
            del self.books[self._index]
        else:
            book = Book(str(minted[0]), self._title, self._names)
            position = self._index if self._kind == "before" else len(self.books)
            self.books.insert(position, book)


def update_kinds(rng: random.Random):
    """Endless update kinds in shuffled blocks of ten: 5 ``ReplaceText``,
    3 ``InsertSubtree`` (every other one positioned ``before`` a sibling,
    so ordinals get careted), 2 ``DeleteSubtree``."""
    before = False
    while True:
        block = ["replace"] * 5 + ["insert"] * 3 + ["delete"] * 2
        rng.shuffle(block)
        for kind in block:
            if kind == "insert":
                before = not before
                kind = "before" if before else "append"
            yield kind


def book_reads(uri: str, name: str) -> list[Query]:
    """The four reads that follow an update: two virtual, two stored
    value-predicate/aggregate reads over the updated types.  Pair members
    reach the same nodes, so they share one predicted answer."""
    view = virtual_source(uri, BOOK_SPEC)
    return [
        Query("by-name", "virtual", uri, BOOK_SPEC,
              f'{view}//title[author/name = "{name}"]/text()'),
        Query("by-name", "stored", uri, "",
              f'doc("{uri}")//book[author/name = "{name}"]/title/text()'),
        Query("author-count", "virtual", uri, BOOK_SPEC,
              f"count({view}//title/author)"),
        Query("author-count", "stored", uri, "",
              f'count(doc("{uri}")//book/author)'),
    ]


def predicted(model: BookModel, query: Query, name: str) -> str:
    if query.name == "by-name":
        return "".join(model.titles_by(name))
    return str(model.author_count())
