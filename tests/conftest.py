"""Shared fixtures."""

import contextlib

import pytest

import wptopt.pipeline


@pytest.fixture(scope="session")
def relaxation_only():
    """Context manager under which the dual never certifies a row.

    Inside it, `full_pipeline` (and so `optimize_load` and the CLI) send
    every binding row to the semidefinite relaxation: the reference path
    that the dual path is checked against.
    """

    @contextlib.contextmanager
    def dual_off():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wptopt.pipeline, "_solve_dual", lambda problems: [None] * len(problems.r_load))
            yield

    return dual_off
