"""Each classifier query featurizes and trains within its own call: no
state carries over from an earlier query in the same session."""

import pytest

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
def test_scores_cost_the_same_after_train(ray_data_executions):
    from link_profiler_repo_ray.pipelines import classifier

    def scores_executions() -> int:
        before = len(ray_data_executions)
        assert len(classifier.quality_classifier_scores(SF).to_pandas()) > 0
        return len(ray_data_executions) - before

    alone = scores_executions()
    classifier.quality_classifier_train(SF)
    assert scores_executions() == alone
