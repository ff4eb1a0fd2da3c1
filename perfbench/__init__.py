"""Seeded, oracle-gated benchmark of the crawl engine and the analytics
pipelines; run ``python3 perfbench/run.py --help``."""
