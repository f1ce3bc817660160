"""Unit tests for the workload base utilities."""

import pytest

from repro.workloads.base import Workload


class TestWorkloadInterface:
    def test_base_methods_abstract(self):
        workload = Workload()
        with pytest.raises(NotImplementedError):
            workload.start()
        with pytest.raises(NotImplementedError):
            workload.stop()
