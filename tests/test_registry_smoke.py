"""Blanket smoke net for the no-oracle registry tail.

The driver's correctness gate runs only the first 50 (oracle-backed)
queries, and each no-oracle query has its own property pytest — but a
rename or refactor could still break a tail query without tripping
either.  This runs EVERY query that has no ``oracle_sql`` entry at
sf0.001 and asserts it executes and yields a well-formed frame, and
that it starts no more Ray Data executions than its checked-in budget
(``tests/execution_budget.json``; ``test_queries_oracle`` checks the
oracle-backed queries against the same file)."""

import pytest


SF = "/root/testdata/sf0.001"


def _tail_names():
    import __ray_entry__ as mod

    return sorted(set(mod.queries()) - set(mod.oracle_sql()))


@pytest.mark.parametrize("name", _tail_names())
def test_tail_query_executes(name, ray_session, execution_budget):
    import __ray_entry__ as mod
    from scripts.check_oracle import to_pandas

    with execution_budget(name):
        df = to_pandas(mod.queries()[name](SF))
    assert df is not None
    assert len(df.columns) > 0, name
    # every tail query is non-degenerate on the test corpus
    assert len(df) > 0, name
