"""Local replica of the driver's correctness gate.

Runs every ``queries()`` entry against its ``oracle_sql()`` (DuckDB)
at a given sf dir, compares row count, column names and
order-insensitive values.  Usage:

    python scripts/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import sys
import time

import duckdb
import pandas as pd


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray.data as rd

        if isinstance(result, rd.Dataset):
            df = result.to_pandas()
            schema = None if len(df.columns) else result.schema()
            if schema is not None:
                # a typed zero-row Dataset keeps its columns
                df = schema.base_schema.empty_table().to_pandas()
            return df
    except ImportError:
        pass
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("uint"):
            df[c] = df[c].astype("int64")
        if str(df[c].dtype) == "object":
            df[c] = df[c].astype(str)
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(name: str, mine: pd.DataFrame, oracle: pd.DataFrame) -> list[str]:
    problems = []
    if len(mine) != len(oracle):
        problems.append(f"row count {len(mine)} != oracle {len(oracle)}")
    if sorted(mine.columns) != sorted(oracle.columns):
        problems.append(f"columns {sorted(mine.columns)} != {sorted(oracle.columns)}")
        return problems
    a, b = normalize(mine), normalize(oracle)
    if len(a) == len(b):
        for c in a.columns:
            if str(a[c].dtype) != str(b[c].dtype):
                problems.append(f"dtype[{c}] {a[c].dtype} != {b[c].dtype}")
        try:
            pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
        except AssertionError as e:
            problems.append("values differ: " + str(e).split("\n")[-2][:200])
    return problems


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as mod

    qs, oracles = mod.queries(), mod.oracle_sql()
    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events documents embeddings").split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok*   {name}: {len(mine)} rows in {dt:.1f}s (no SQL oracle, rows-only)")
            continue
        try:
            oracle = con.execute(oracles[name]).fetchdf()
        except Exception as e:
            print(f"FAIL  {name}: ORACLE SQL raised {type(e).__name__}: {e}")
            failures += 1
            continue
        problems = compare(name, mine, oracle)
        if problems:
            failures += 1
            print(f"FAIL  {name} ({len(mine)} vs {len(oracle)} rows, {dt:.1f}s)")
            for p in problems:
                print(f"      - {p}")
        else:
            print(f"OK    {name}: {len(mine)} rows in {dt:.1f}s")
    print("FAILURES:", failures)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
