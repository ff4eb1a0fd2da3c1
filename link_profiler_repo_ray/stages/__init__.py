from .stages import (
    ExtractLinksStage,
    SeoStage,
    AIScoreStage,
    AlertStage,
    CRAWL_ALERT_RULES,
    ALERT_SCHEMA,
    CMP_OPS,
)

__all__ = [
    "ExtractLinksStage",
    "SeoStage",
    "AIScoreStage",
    "AlertStage",
    "CRAWL_ALERT_RULES",
    "ALERT_SCHEMA",
    "CMP_OPS",
]
