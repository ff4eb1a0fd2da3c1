import contextlib
import json
import logging
import sys
from pathlib import Path

import pytest

# the checkout these tests belong to; its package is the one imported
REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    yield
    ray.shutdown()


# per registry query, the most Ray Data executions (StreamingExecutor.execute
# calls) that running it at sf0.001 and reading the result into pandas may
# start; an entry may only go down
EXECUTION_BUDGET = REPO / "tests" / "execution_budget.json"


@pytest.fixture
def ray_data_executions(monkeypatch) -> list:
    """A list that grows by one for every Ray Data execution
    (``StreamingExecutor.execute`` call) the test starts."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    started = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        started.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return started


@pytest.fixture
def execution_budget(ray_data_executions):
    """``with execution_budget(name): ...`` fails, naming the query, when
    the block starts more Ray Data executions than ``name``'s budget."""
    budget = json.loads(EXECUTION_BUDGET.read_text())

    @contextlib.contextmanager
    def check(name):
        before = len(ray_data_executions)
        yield
        n = len(ray_data_executions) - before
        assert name in budget, f"{name} has no entry in {EXECUTION_BUDGET.name} (it started {n})"
        assert n <= budget[name], (
            f"{name} started {n} Ray Data executions, over its budget of {budget[name]}")

    return check
