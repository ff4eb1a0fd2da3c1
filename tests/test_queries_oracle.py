"""Every SQL-expressible query vs its DuckDB oracle at sf0.001 —

the in-repo replica of the driver's correctness gate, plus a smoke
test of entry()."""

import duckdb
import pytest


SF = "/root/testdata/sf0.001"
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


@pytest.fixture(scope="module")
def entry_mod(ray_session):
    import __ray_entry__ as mod

    return mod


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _oracle_names():
    import __ray_entry__ as mod

    return sorted(mod.oracle_sql().keys())


@pytest.mark.parametrize("name", _oracle_names())
def test_query_matches_oracle(name, entry_mod, con, execution_budget):
    from scripts.check_oracle import compare, to_pandas

    with execution_budget(name):
        mine = to_pandas(entry_mod.queries()[name](SF))
    oracle = con.execute(entry_mod.oracle_sql()[name]).fetchdf()
    problems = compare(name, mine, oracle)
    assert not problems, problems


def test_every_query_has_callable(entry_mod):
    qs = entry_mod.queries()
    assert len(qs) >= 25
    for name, fn in qs.items():
        assert callable(fn), name


def test_entry_smoke(entry_mod):
    result = entry_mod.entry()
    df = result.to_pandas()
    assert len(df) > 0
    assert "target_url" in df.columns
