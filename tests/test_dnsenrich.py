"""M14 DNS enrichment: live DoH client vs a local dns-json server,
simulated-fallback determinism, and the enrichment pipeline's
closed-form parity with DuckDB."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import duckdb
import pyarrow as pa
import pytest

from link_profiler_repo_ray.functions.dnsenrich import (
    DnsEnrichStage,
    fetch_dns_records,
    simulate_dns_records,
)

SF = "/root/testdata/sf0.001"


class _DoHHandler(BaseHTTPRequestHandler):
    def log_message(self, *a):
        pass

    def do_GET(self):
        q = parse_qs(urlparse(self.path).query)
        name, rtype = q["name"][0], q["type"][0]
        if rtype == "A":
            answers = [{"name": name, "type": 1, "data": "203.0.113.7"}]
        elif rtype == "NS":
            answers = [{"name": name, "type": 2, "data": f"ns.{name}"}]
        else:
            answers = []
        body = json.dumps({"Status": 0, "Answer": answers}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/dns-json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_doh_client_against_local_server():
    srv = ThreadingHTTPServer(("127.0.0.1", 0), _DoHHandler)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        url = f"http://127.0.0.1:{srv.server_address[1]}/dns-query"
        rec = fetch_dns_records("example.org", url)
        assert rec["A"] == ["203.0.113.7"]
        assert rec["NS"] == ["ns.example.org"]
        assert "MX" not in rec  # empty answers are skipped
    finally:
        srv.shutdown()


def test_doh_failure_falls_back_to_simulated():
    stage = DnsEnrichStage(doh_url="http://127.0.0.1:1/dns-query", timeout_s=0.3)
    import pyarrow as pa

    out = stage(pa.table({"host": ["h3.example.com"]}))
    assert out.column("dns_a").to_pylist() == [simulate_dns_records("h3.example.com")["A"][0]]


def test_simulated_records_deterministic():
    a = simulate_dns_records("h7.example.com")
    assert a == simulate_dns_records("h7.example.com")
    assert a["A"] == ["192.0.2.8"]  # 1 + 7 % 254
    assert len(a["NS"]) == 2


@pytest.mark.usefixtures("ray_session")
def test_dns_enrichment_matches_closed_form_oracle():
    from link_profiler_repo_ray.pipelines.research import dns_enrichment

    mine = dns_enrichment(SF).to_pandas().sort_values("host").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    oracle = con.execute(
        """
WITH params AS (SELECT GREATEST(5, count(*) // 50)::BIGINT AS h FROM documents),
hosts AS (SELECT doc_id AS hid FROM documents WHERE doc_id < (SELECT h FROM params))
SELECT 'h' || hid || '.example.com' AS host,
       '192.0.2.' || (1 + hid % 254) AS dns_a,
       2::BIGINT AS dns_ns_count,
       (10 + hid % 3 * 10) || ' mail.h' || hid || '.example.com' AS dns_mx
FROM hosts ORDER BY host
"""
    ).fetchdf().reset_index(drop=True)
    assert mine.columns.tolist() == ["host", "dns_a", "dns_ns_count", "dns_mx"]
    for c in mine.columns:
        assert mine[c].tolist() == oracle[c].tolist(), c


@pytest.mark.usefixtures("ray_session")
def test_dns_enrichment_blocks_all_carry_the_stage_columns():
    """Every block of the result has the stage's columns, so its blocks
    concatenate; an untyped zero-row block used to sit next to the
    typed one.  Zero documents give one typed empty block."""
    import ray

    from link_profiler_repo_ray.pipelines.research import dns_enrichment

    cols = ["host", "dns_a", "dns_ns_count", "dns_mx"]
    blocks = ray.get(dns_enrichment(SF).materialize().to_arrow_refs())
    assert blocks and all(b.schema.names == cols for b in blocks)
    assert pa.concat_tables(blocks).num_rows == 10


@pytest.mark.usefixtures("ray_session")
def test_dns_enrichment_zero_documents(tmp_path):
    import pyarrow.parquet as pq

    from link_profiler_repo_ray.pipelines.research import dns_enrichment

    docs = pq.read_table(f"{SF}/documents.parquet").slice(0, 0)
    pq.write_table(docs, tmp_path / "documents.parquet")
    out = dns_enrichment(str(tmp_path)).materialize()
    assert out.count() == 0 and out.schema().names == ["host", "dns_a", "dns_ns_count", "dns_mx"]
