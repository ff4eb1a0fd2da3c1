"""Alert-rule evaluation / security audit / local-SEO proximity
(pipelines/monitor.py) — semantics the SQL-oracle hash compare does
not isolate: the cooldown actually suppresses repeats, posture levels
cover the rubric, and the vectorized haversine equals the reference's
scalar formula (local_seo_service.py:127-133)."""

from math import asin, cos, radians, sin, sqrt

import polars as pl
import pytest


SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def _ray(ray_session):
    return ray_session


def test_alert_cooldown_suppresses_repeats(_ray):
    from link_profiler_repo_ray.pipelines.monitor import (
        ALERT_COOLDOWN_S,
        ALERT_RULES,
        alert_rules_eval,
    )

    df = pl.from_pandas(alert_rules_eval(SF).to_pandas())

    # at most one alert per (rule, cooldown bucket)
    buckets = df.with_columns(
        (pl.col("triggered_ts").dt.epoch(time_unit="s") // ALERT_COOLDOWN_S).alias("b")
    )
    assert buckets.group_by(["rule_id", "b"]).len().get_column("len").max() == 1

    # every rule with a firing condition in the corpus produced alerts,
    # and severities carry through
    fired_rules = set(df.get_column("rule_id").to_list())
    assert fired_rules == {r[0] for r in ALERT_RULES}
    sev = dict(
        df.select("rule_id", "severity").unique().iter_rows()
    )
    assert sev == {r[0]: r[5] for r in ALERT_RULES}

    # cooldown is load-bearing: the raw fired stream (independently
    # recomputed from the corpus closed forms, no cooldown) has many
    # more rows than the cooled alert stream (97-min page spacing →
    # ~15 pages/day, so each surviving alert suppresses ~a day's worth)
    import duckdb

    import __ray_entry__ as entry

    sql = entry.oracle_sql()["alert_rules_eval"]
    fired_sql = sql[: sql.index("cooled AS")] + "x AS (SELECT 1) SELECT count(*) FROM fired"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')")
    n_fired = con.execute(fired_sql).fetchone()[0]
    assert n_fired > 3 * len(df), (n_fired, len(df))


def test_security_audit_posture(_ray):
    from link_profiler_repo_ray.pipelines.monitor import security_audit_summary
    from link_profiler_repo_ray.sources import corpus

    df = pl.from_pandas(security_audit_summary(SF).to_pandas())
    n_docs = corpus.corpus_n_docs(SF)
    assert len(df) == corpus.n_hosts(n_docs)  # one summary row per host

    # subdomain inventory: 6 slots, at most 2 filtered per host
    assert df.get_column("n_subdomains").min() >= 4
    assert df.get_column("n_subdomains").max() <= 6
    # the risk rubric maps flags → level exactly
    for flags, risk in df.select("risk_flags", "security_risk").iter_rows():
        assert risk == ("high" if flags >= 2 else "medium" if flags == 1 else "low")
    # grade buckets are consistent with the score
    for score, grade in df.select("ssl_score", "ssl_grade").iter_rows():
        want = "A" if score >= 80 else "B" if score >= 60 else "C" if score >= 40 else "F"
        assert grade == want


def _ref_haversine(lat1, lon1, lat2, lon2):
    # the reference's scalar formula, local_seo_service.py:127-133
    R = 6371.0
    dlat = radians(lat2 - lat1)
    dlon = radians(lon2 - lon1)
    a = sin(dlat / 2) ** 2 + cos(radians(lat1)) * cos(radians(lat2)) * sin(dlon / 2) ** 2
    c = 2 * asin(sqrt(a))
    return R * c


def test_local_seo_haversine_matches_reference_formula(_ray):
    from link_profiler_repo_ray.pipelines.monitor import (
        _CENTER_LAT,
        _CENTER_LON,
        local_seo_nearby,
    )

    df = pl.from_pandas(local_seo_nearby(SF).to_pandas())
    assert len(df) > 0
    assert set(df.get_column("place_type").to_list()) == {"cafe"}
    assert df.get_column("distance_km").max() <= 10.0
    for lat, lon, got in df.select("lat", "lon", "distance_km").iter_rows():
        want = _ref_haversine(_CENTER_LAT, _CENTER_LON, lat, lon)
        assert got == pytest.approx(want, abs=1e-6)
