"""Shared fixtures and the acceptance-verdict terminal summary."""

from __future__ import annotations

import sys

import numpy as np
import pytest

import scmbench as sb


@pytest.fixture
def demo_batches():
    """Factory for sampled batches of the fixed 4-node model.

    Returns batches for one clamp environment per candidate, all derived from
    a single integer seed.
    """

    def build(seed: int, n: int = 2000, scm=None):
        if scm is None:
            scm = sb.four_node_demo_scm()
        rng = np.random.default_rng(seed)
        envs = sb.environments_for(scm, sb.GenConfig(), rng)
        return [sb.sample(scm, env, n, rng) for env in envs]

    return build


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one PASS/FAIL line per acceptance criterion after the test run."""
    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "VERDICTS", None) if module else None
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)
