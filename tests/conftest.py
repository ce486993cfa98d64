import os
import time

import pytest
from hypothesis import HealthCheck, settings

from locmst.experiments import _study_task

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def child_first(tmp_path):
    """Makes task functions for a forked study.  In a forked child the
    task runs act(); in this process it waits until a child has done so,
    and then runs `then`.  So a child always takes a task, however small
    the study."""
    parent, started = os.getpid(), tmp_path / "a-child-started"

    def make(act, then=_study_task):
        def task(args):
            if os.getpid() != parent:
                started.touch()
                act()
            give_up = time.monotonic() + 30
            while not started.exists():
                assert time.monotonic() < give_up, "no child took a task"
                time.sleep(0.001)
            return then(args)

        return task

    return make
