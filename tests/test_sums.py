"""Every float sum that reaches an output is a left-to-right fold.

Python 3.12's ``sum`` of floats is compensated, so it would give other bytes
than 3.10/3.11 for the values below.  :func:`repro._sums.left_sum` and the
``+=`` loop of :func:`repro.core.metrics.evaluate` add in order on every
interpreter; these values tell a left fold from a compensated sum.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro._sums import left_sum
from repro.core.kernel_array import _metrics_from_arrays
from repro.core.metrics import evaluate, sum_completion, sum_flow
from repro.core.platform import Platform
from repro.core.schedule import Schedule, TaskRecord
from repro.core.task import TaskSet

#: 1.0 then four halves of an ulp of 1.0: each addition rounds back to 1.0.
TINY = 2.0 ** -53
VALUES = [1.0] + [TINY] * 4


def test_left_sum_differs_from_a_compensated_sum():
    assert left_sum(VALUES) == 1.0
    assert math.fsum(VALUES) == 1.0 + 4 * TINY
    assert left_sum([0.1, 0.2, 0.3]) == (0.1 + 0.2) + 0.3 != math.fsum([0.1, 0.2, 0.3])
    assert left_sum([]) == 0.0
    assert type(left_sum([1, 2])) is float


@pytest.fixture
def adversarial_schedule():
    """One record per value, in that order: every duration, flow and
    completion is the value, every queue wait its negation."""
    platform = Platform.from_times([1.0], [1.0])
    tasks = TaskSet.from_releases([0.0] * len(VALUES))
    records = [
        TaskRecord(task_id, 0, 0.0, 0.0, value, 0.0, value)
        for task_id, value in enumerate(VALUES)
    ]
    return Schedule(platform, tasks, records)


def test_evaluate_folds_left_in_record_order(adversarial_schedule):
    metrics = evaluate(adversarial_schedule)
    assert metrics.sum_flow == metrics.sum_completion == 1.0
    assert sum_flow(adversarial_schedule) == sum_completion(adversarial_schedule) == 1.0
    assert metrics.master_utilisation == 1.0
    assert metrics.worker_utilisation == {0: 1.0}
    assert metrics.mean_queue_wait == -1.0 / len(VALUES)
    assert metrics.makespan == metrics.max_flow == 1.0


def test_array_kernel_metrics_fold_like_evaluate(adversarial_schedule):
    values = np.array(VALUES)
    zeros = np.zeros(len(VALUES))
    arrays = _metrics_from_arrays(
        zeros, zeros, values, zeros, values, np.arange(len(VALUES))
    )
    assert arrays == evaluate(adversarial_schedule).as_dict()
    assert arrays["sum_flow"] == 1.0


def test_platform_throughput_folds_left():
    # 1/p is 1.0 for the first worker and 2**-53 for the others.
    platform = Platform.from_times([0.5] * 5, [1.0] + [2.0 ** 53] * 4)
    assert platform.total_speed == 1.0
    assert platform.steady_state_throughput() == 1.0


def test_total_release_time_folds_left():
    tasks = TaskSet.from_releases([0.1, 0.2, 0.3])
    assert tasks.total_release_time == (0.1 + 0.2) + 0.3
