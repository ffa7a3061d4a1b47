"""spotalign: rectify and align roadside parking-spot GPS points."""

from .geo import GeoPoint, LocalFrame, LocalPoint, make_frame, to_geo
from .rigid import jacobian_values, warp_values
from .roads import (CandidateSet, EmptyCandidateError, InsufficientCandidatesError, RoadSegment, SpotType,
                    sample_candidates, segment_arclength)
from .solver import (
    DegenerateGeometryError,
    NumericalFailureError,
    SolverConfig,
    SolverResult,
    SolverState,
    admm_solve,
    alignment_loss,
    svt_prox,
)
from .matchers import Assignment, baseline_rectify, hungarian_assign
from .pipeline import (
    CollectedSet,
    Mixed,
    NoiseSpec,
    RandomNoise,
    RectifiedSet,
    Rotational,
    Translational,
    inject_noise,
    raa_rectify,
    rectify,
    synth_corpus,
)
from .metrics import EvalReport, evaluate_segments, robustness_index
from .dataio import Dataset, DatasetError, RunConfig, load_dataset, save_dataset

__all__ = [
    "GeoPoint", "LocalFrame", "LocalPoint", "make_frame", "to_geo",
    "jacobian_values", "warp_values",
    "CandidateSet", "EmptyCandidateError", "RoadSegment", "SpotType",
    "sample_candidates", "segment_arclength",
    "DegenerateGeometryError", "NumericalFailureError",
    "SolverConfig", "SolverResult", "SolverState", "admm_solve", "alignment_loss",
    "svt_prox",
    "Assignment", "baseline_rectify", "hungarian_assign",
    "CollectedSet", "InsufficientCandidatesError", "Mixed", "NoiseSpec", "RandomNoise",
    "RectifiedSet", "Rotational", "Translational",
    "inject_noise", "raa_rectify", "rectify", "synth_corpus",
    "EvalReport", "evaluate_segments", "robustness_index",
    "Dataset", "DatasetError", "RunConfig", "load_dataset", "save_dataset",
]

__version__ = "0.1.0"
