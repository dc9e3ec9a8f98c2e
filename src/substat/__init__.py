"""Intensity estimation for substationary spatial point processes.

A point process is substationary in a 1-D subspace when its distribution
is invariant under shifts along that subspace; the first-order intensity
then depends only on the orthogonal coordinate.  This package estimates
the invariance direction by profile composite likelihood, estimates the
intensity by a boundary-corrected 1-D kernel smoother on the orthogonal
coordinate, and ships seeded Poisson and cluster-process simulators plus
a Monte Carlo harness for the accompanying replication tables.
"""

from .estimate import (
    BandwidthSelectionError,
    FitResult,
    KernelIntensity2D,
    StationaryIntensity,
    SubstationaryIntensity,
    bandwidth_cv_scores,
    fit_theta,
    loglik,
    select_bandwidth,
)
from .experiments import (
    CellSummary,
    ExperimentPlan,
    ExperimentResult,
    integrated_squared_error,
    replication_stream,
    run_table1,
    run_table2,
    write_result_csv,
)
from .geometry import (
    DataError,
    PointPattern,
    Subspace,
    Window,
    chord_measure,
    project_xy,
    unproject_xy,
    v_range,
)
from .io import (
    ApplicationReport,
    ApplicationRow,
    GridExport,
    MalformedDataError,
    RegionSpec,
    export_intensity_grid,
    export_pattern_csv,
    ingest_csv,
    run_application_pipeline,
)
from .kernels import (
    QuadratureError,
    correction_2d,
    correction_substat_closed,
    correction_substat_quadrature,
    kernel_1d,
    normal_cdf,
    normal_pdf,
)
from .simulate import (
    PoissonBetaModel,
    RngStream,
    ThomasModel,
    beta_sampler,
    simulate_poisson_beta,
    simulate_thomas,
)

__version__ = "0.1.0"
