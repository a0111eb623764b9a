"""The paper's primary contribution: PCOR and its five algorithms."""

from repro.core.direct import DirectPCOR
from repro.core.enumeration import COEEnumerator
from repro.core.pcor import PCOR
from repro.core.profiles import ContextProfile, ProfileStore
from repro.core.reference import ReferenceFile
from repro.core.result import PCORResult
from repro.core.sampling import (
    BFSSampler,
    DFSSampler,
    RandomWalkSampler,
    Sampler,
    SamplerInfo,
    SamplingStats,
    UniformSampler,
    available_samplers,
    make_sampler,
    register_sampler,
    sampler_info,
)
from repro.core.starting import find_starting_context, starting_context_from_reference
from repro.core.utility import (
    OverlapUtility,
    PopulationSizeUtility,
    SparsityUtility,
    StartingDistanceUtility,
    UtilityFunction,
    UtilityInfo,
    available_utilities,
    make_utility,
    register_utility,
    utility_info,
    utility_needs_starting_context,
)
from repro.core.verification import OutlierVerifier

__all__ = [
    "PCOR",
    "ContextProfile",
    "ProfileStore",
    "PCORResult",
    "DirectPCOR",
    "OutlierVerifier",
    "COEEnumerator",
    "ReferenceFile",
    "UtilityFunction",
    "PopulationSizeUtility",
    "OverlapUtility",
    "SparsityUtility",
    "StartingDistanceUtility",
    "Sampler",
    "SamplerInfo",
    "SamplingStats",
    "UniformSampler",
    "RandomWalkSampler",
    "DFSSampler",
    "BFSSampler",
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
    "find_starting_context",
    "starting_context_from_reference",
]
