"""The caller of a forking map has one OS thread at each fork.

From Python 3.12 a fork in a process with more than one OS thread raises a
DeprecationWarning, which fails an error filter.  A BLAS product starts
OpenBLAS's thread pool, whose fork handler stops it again; this holds each
kind of forking map to one OS thread in the caller just after its forks:
a fit's angles, ``apply``'s bandwidths and a sweep's replications.  It
cannot speak for another BLAS.
"""

import os
import threading

import numpy as np
import pytest

from substat.estimate import fit_theta
from substat.experiments import ExperimentPlan, run_table1
from substat.geometry import PointPattern, Window
from substat.io import run_application_pipeline
from substat.simulate import PoissonBetaModel, simulate_poisson_beta

STAT = "/proc/self/stat"


def os_threads() -> int:
    """The process's OS threads: field 20 of ``/proc/self/stat``, 18th after the command's ``)``."""
    with open(STAT) as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[17])


def pattern(z: float) -> PointPattern:
    """About 100*z Beta(3, 3) points in a z by 1 window."""
    return simulate_poisson_beta(PoissonBetaModel(3.0, Window(z)), np.random.default_rng(5))


MAPS = {
    "fit": lambda: fit_theta(pattern(10.0), 0.05, search_halfwidth_deg=6, threads=2),
    "apply": lambda: run_application_pipeline(
        pattern(3.0), [0.05, 0.1], search_halfwidth_deg=6, threads=2
    ),
    "sweep": lambda: run_table1(
        ExperimentPlan(
            process="poisson", a_values=(3.0,), z_values=(1.0,), h_values=(0.05,),
            replications=2, master_seed=3, target="table1",
        ),
        threads=2,
    ),
}


@pytest.mark.skipif(not os.path.exists(STAT), reason=f"needs {STAT}")
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.parametrize("kind", sorted(MAPS))
def test_each_kind_of_map_forks_with_one_os_thread(monkeypatch, kind):
    assert threading.active_count() == 1
    fork, counts = os.fork, []

    def counted_fork():
        pid = fork()
        if pid:  # the parent, just after the fork
            counts.append(os_threads())
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    square = np.random.default_rng(0).random((300, 300))
    square @ square  # starts OpenBLAS's pool where it has one
    MAPS[kind]()
    assert counts and set(counts) == {1}
