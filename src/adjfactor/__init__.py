"""Adjacency-factor census of S/T simplicial complexes in communication
networks, matched scale-free growth with triad formation, and distribution
fitting with significance comparison."""

from .census import (
    census,
    enumerate_triangles,
    t_adjacency_factor,
    to_distribution,
    write_distribution_csv,
)
from .graph import (
    DataError,
    Graph,
    ParseError,
    average_clustering_coefficient,
    load_edge_list,
    write_edge_list,
)
from .growth import (
    CalibrationError,
    ConfigError,
    GrowthConfig,
    calibrate_pt,
    degree_ccdf_slope,
    derive_growth_config,
    generate_pa_tf,
)
from .models import (
    EMG,
    S_COMPLEX,
    FitError,
    emg_model,
    erfc,
    fit,
    mnd,
    s_complex_model,
)
from .pipeline import ExperimentConfig, run_experiment
from .stats import one_sample_t_test, student_t_cdf

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "ConfigError",
    "DataError",
    "EMG",
    "ExperimentConfig",
    "FitError",
    "Graph",
    "GrowthConfig",
    "ParseError",
    "S_COMPLEX",
    "average_clustering_coefficient",
    "calibrate_pt",
    "census",
    "degree_ccdf_slope",
    "derive_growth_config",
    "emg_model",
    "enumerate_triangles",
    "erfc",
    "fit",
    "generate_pa_tf",
    "load_edge_list",
    "mnd",
    "one_sample_t_test",
    "run_experiment",
    "s_complex_model",
    "student_t_cdf",
    "t_adjacency_factor",
    "to_distribution",
    "write_distribution_csv",
    "write_edge_list",
]
