"""Moderate-scale end-to-end smoke: tens of thousands of nodes, every
subsystem touched once, correctness asserted against the physical facts."""

from repro.query.engine import Engine
from repro.workloads.xmarklike import auction_document
from repro.workloads import queries as Q


def test_auction_at_scale():
    items = 1500
    engine = Engine()
    document = auction_document(items=items, seed=99)
    engine.load("auction.xml", document)
    nodes = sum(1 for root in document.children for _ in root.iter_subtree())
    assert nodes > 30_000

    spec = Q.AUCTION_FLAT.spec
    # Virtual flattening preserves the population.
    virtual_items = engine.execute(
        f'count(virtualDoc("auction.xml", "{spec}")/site/item)'
    )
    assert virtual_items.items == [items]

    # Aggregation over the virtual hierarchy equals the physical truth.
    virtual_bids = engine.execute(
        f'sum(for $a in virtualDoc("auction.xml", "{spec}")/site/auction '
        "return count($a/bid))"
    )
    physical_bids = engine.execute('count(doc("auction.xml")//bid)')
    assert virtual_bids.items[0] == float(physical_bids.items[0])

    # A selective predicate query agrees with its physical counterpart.
    virtual_names = engine.execute(
        f'virtualDoc("auction.xml", "{spec}")/site/item[price > 4800]/name/text()'
    )
    physical_names = engine.execute(
        'doc("auction.xml")//item[price > 4800]/name/text()'
    )
    assert virtual_names.values() == physical_names.values()
    assert 0 < len(virtual_names) < items

    # Values stitched from the heap match the in-memory serialization.
    from repro.core.values import ValueStats, write
    from repro.xmlmodel.serializer import serialize

    vdoc = engine.virtual("auction.xml", spec)
    stats = ValueStats()
    first_item = engine.execute(
        f'(virtualDoc("auction.xml", "{spec}")/site/item)[1]'
    )[0]
    assert "".join(write(first_item, [], stats)) == serialize(vdoc.copy_subtree(first_item))
    assert stats.spliced_ranges >= 1  # intact ** subtree spliced
