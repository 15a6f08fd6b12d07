#!/usr/bin/env python3
"""Scenario: porting publication queries across hierarchies.

A DBLP-shaped bibliography stores flat publication records.  The faculty
dashboard thinks in terms of *authors owning publications* — the classic
hierarchy inversion.  This example:

* builds the author-centric virtual view (paper case 2, at scale),
* runs the dashboard queries against it,
* demonstrates the duplication semantics for multi-author papers (one
  original record, several virtual positions),
* and shows the virtual value of an author node — a subtree that never
  physically exists.

Run with ``python examples/bibliography_views.py``.
"""

from repro import Engine
from repro.core.values import ValueStats, write
from repro.workloads.dblplike import dblp_document

SPEC = (
    "dblp.article.author { article { title year } } "
    "dblp.inproceedings.author { inproceedings { title year } }"
)


def main() -> None:
    engine = Engine()
    engine.load("dblp.xml", dblp_document(publications=60, seed=31))

    print("== the physical hierarchy ==")
    flat = engine.execute('count(doc("dblp.xml")//article | doc("dblp.xml")//inproceedings)')
    print(f"  {flat.items[0]} publication records, flat under <dblp>")

    print()
    print("== author-centric virtual view ==")
    authors = engine.execute(f'virtualDoc("dblp.xml", "{SPEC}")//author')
    print(f"  {len(authors)} author nodes become virtual roots")

    # Structural views group by *node*: each author element owns the
    # publication it appears in.  Grouping by author *name* is a value
    # join, expressed over the virtual view like over any other document.
    prolific = engine.execute(
        f'let $all := virtualDoc("dblp.xml", "{SPEC}")//author '
        "for $n in distinct-values($all/text()) "
        "let $works := $all[text() = $n]/* "
        "where count($works) >= 3 "
        "return concat($n, ': ', count($works))"
    )
    print(f"  names with 3+ publications: {len(prolific)}")
    for line in sorted(prolific.values())[:6]:
        print("   -", line)

    print()
    print("== duplication semantics ==")
    print("  A two-author paper appears under *both* authors when")
    print("  materialized; virtually it is one record at two positions:")
    first_title = engine.execute(
        f'(virtualDoc("dblp.xml", "{SPEC}")//author/article/title)[1]'
    )
    vnode = first_title[0]
    vdoc = engine.virtual("dblp.xml", SPEC)
    article = vdoc.parents(vnode)[0]
    owners = vdoc.parents(article)
    print(f"  {vnode.node.string_value()!r} is owned by "
          f"{len(owners)} author position(s)")

    print()
    print("== a transformed value that never physically exists ==")
    stats = ValueStats()
    author_vnode = vdoc.roots()[0]
    print(" ", "".join(write(author_vnode, [], stats))[:160], "...")
    print(f"  stitched from {stats.spliced_ranges} stored ranges, "
          f"{stats.constructed_elements} constructed tags")


if __name__ == "__main__":
    main()
