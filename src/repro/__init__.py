"""PCOR: Private Contextual Outlier Release via Differentially Private Search.

A full reproduction of Shafieinejad, Kerschbaum & Ilyas (SIGMOD 2021):
release a context in which a queried record is an outlier, under
Output-Constrained Differential Privacy, in polynomial time, via
differentially private graph search.

Quickstart
----------
>>> from repro import PCOR, BFSSampler, LOFDetector, salary_reduced
>>> dataset = salary_reduced(n_records=2000, seed=7)
>>> pcor = PCOR(dataset, LOFDetector(k=10), epsilon=0.2,
...             sampler=BFSSampler(n_samples=50))

See ``examples/quickstart.py`` for a runnable end-to-end walk-through.
"""

from repro.analysis import COEStructure, ReleaseSession, analyze_coe, coe_structure_report
from repro.context import Context, ContextGraph, ContextSpace
from repro.core import (
    BFSSampler,
    COEEnumerator,
    DFSSampler,
    DirectPCOR,
    OutlierVerifier,
    OverlapUtility,
    PCOR,
    PCORResult,
    PopulationSizeUtility,
    ProfileStore,
    RandomWalkSampler,
    ReferenceFile,
    Sampler,
    SamplerInfo,
    SparsityUtility,
    StartingDistanceUtility,
    UniformSampler,
    UtilityFunction,
    UtilityInfo,
    available_samplers,
    available_utilities,
    find_starting_context,
    make_sampler,
    make_utility,
    register_sampler,
    register_utility,
    sampler_info,
    starting_context_from_reference,
    utility_info,
    utility_needs_starting_context,
)
from repro.runtime import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    available_backends,
    make_backend,
)
from repro.service import EngineMetrics, PipelineSpec, ReleaseEngine, ReleaseRequest
from repro.data import (
    BinSpec,
    Dataset,
    bin_numeric_column,
    PredicateMaskIndex,
    homicide_reduced,
    salary_reduced,
    synthetic_homicide_dataset,
    synthetic_salary_dataset,
    tiny_income_dataset,
)
from repro.exceptions import (
    ContextError,
    DatasetError,
    EnumerationError,
    ExecutionError,
    ExperimentError,
    LedgerError,
    MechanismError,
    PrivacyBudgetError,
    ReproError,
    SamplingError,
    SchemaError,
    ServerError,
    SpecError,
    VerificationError,
)
from repro.mechanisms import (
    ExponentialMechanism,
    FNeighborChecker,
    LaplaceMechanism,
    PrivacyAccountant,
    epsilon_one_for,
    total_epsilon_for,
)
from repro.outliers import (
    GrubbsDetector,
    HistogramDetector,
    IQRDetector,
    LOFDetector,
    OutlierDetector,
    ZScoreDetector,
    available_detectors,
    make_detector,
)
from repro.schema import CategoricalAttribute, MetricAttribute, Predicate, Schema

__version__ = "1.0.0"

# Imported after __version__: the server's HTTP handler advertises it, so
# this import must come last to stay cycle-free.
from repro.server import (  # noqa: E402
    DatasetConfig,
    DatasetRegistry,
    InMemoryLedgerStore,
    JsonlLedgerStore,
    LedgerStore,
    PCORClient,
    PCORServer,
    ServerConfig,
    TenantBudgets,
)
from repro.cluster import PCORRouter  # noqa: E402  (imports repro.server)

__all__ = [
    # schema
    "Schema",
    "CategoricalAttribute",
    "MetricAttribute",
    "Predicate",
    # data
    "Dataset",
    "BinSpec",
    "bin_numeric_column",
    "PredicateMaskIndex",
    "synthetic_salary_dataset",
    "synthetic_homicide_dataset",
    "salary_reduced",
    "homicide_reduced",
    "tiny_income_dataset",
    # context
    "Context",
    "ContextSpace",
    "ContextGraph",
    # outliers
    "OutlierDetector",
    "GrubbsDetector",
    "HistogramDetector",
    "LOFDetector",
    "ZScoreDetector",
    "IQRDetector",
    "make_detector",
    "available_detectors",
    # service layer
    "PipelineSpec",
    "ReleaseRequest",
    "ReleaseEngine",
    "EngineMetrics",
    "SamplerInfo",
    "UtilityInfo",
    "available_samplers",
    "available_utilities",
    "make_sampler",
    "make_utility",
    "register_sampler",
    "register_utility",
    "sampler_info",
    "utility_info",
    "utility_needs_starting_context",
    # server (multi-tenant HTTP release service)
    "PCORServer",
    "PCORClient",
    "PCORRouter",
    "ServerConfig",
    "DatasetConfig",
    "DatasetRegistry",
    "TenantBudgets",
    "LedgerStore",
    "InMemoryLedgerStore",
    "JsonlLedgerStore",
    # execution runtime
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "available_backends",
    "make_backend",
    # mechanisms
    "ExponentialMechanism",
    "LaplaceMechanism",
    "PrivacyAccountant",
    "FNeighborChecker",
    "epsilon_one_for",
    "total_epsilon_for",
    # core
    "PCOR",
    "PCORResult",
    "DirectPCOR",
    "OutlierVerifier",
    "ProfileStore",
    "COEEnumerator",
    "ReferenceFile",
    "UtilityFunction",
    "PopulationSizeUtility",
    "OverlapUtility",
    "SparsityUtility",
    "StartingDistanceUtility",
    "Sampler",
    "UniformSampler",
    "RandomWalkSampler",
    "DFSSampler",
    "BFSSampler",
    "find_starting_context",
    "starting_context_from_reference",
    # analysis
    "COEStructure",
    "analyze_coe",
    "coe_structure_report",
    "ReleaseSession",
    # exceptions
    "ReproError",
    "SchemaError",
    "DatasetError",
    "ContextError",
    "SpecError",
    "ExecutionError",
    "LedgerError",
    "ServerError",
    "PrivacyBudgetError",
    "MechanismError",
    "SamplingError",
    "VerificationError",
    "EnumerationError",
    "ExperimentError",
    "__version__",
]
