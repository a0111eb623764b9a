"""Declarative pipeline specs: a PCOR pipeline as data.

A :class:`PipelineSpec` names every knob of one release pipeline — detector,
sampler, utility, budget, sensitivity mode, plus per-component kwargs — and
validates all of it *eagerly* against the component registries
(:mod:`repro.outliers.base`, :mod:`repro.core.sampling.base`,
:mod:`repro.core.utility`), so a bad spec fails at construction time, long
before any data is touched.

Specs built from registry *names* round-trip losslessly through
``to_dict``/``from_dict``, ``to_json``, and ``from_file`` (JSON or TOML), so
a pipeline can live in a config file, a request body, or an audit log.  For
in-process use the component fields also accept live objects — a detector or
sampler *instance*, or a callable utility factory — which is how the
:class:`~repro.core.pcor.PCOR` facade rides the same engine; such specs are
not serializable and ``to_dict`` says so.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Union

import repro.core.sampling  # noqa: F401  (registers the four samplers)
from repro.core.sampling.base import Sampler, make_sampler, sampler_info
from repro.core.utility import (
    UtilityFunction,
    UtilitySpec,
    make_utility,
    utility_info,
    utility_needs_starting_context,
)
from repro.core.verification import OutlierVerifier
from repro.exceptions import ReproError, SpecError
from repro.outliers.base import OutlierDetector, detector_factory, make_detector

# Detector subclasses register themselves on import; pull the package in so a
# spec naming e.g. "lof" validates even if the caller never imported it.
import repro.outliers  # noqa: F401  (registration side effect)


def load_mapping_file(path: Union[str, Path], what: str = "spec") -> Dict[str, Any]:
    """Load a ``.json`` or ``.toml`` file that must hold a single mapping.

    Shared by :meth:`PipelineSpec.from_file` and the server's
    :class:`~repro.server.config.ServerConfig`, so every declarative
    artefact in the system speaks the same two formats with the same
    errors.
    """
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == ".json":
        with open(p, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SpecError(f"invalid JSON in {p}: {exc}") from None
    elif suffix == ".toml":
        import tomllib

        with open(p, "rb") as fh:
            try:
                data = tomllib.load(fh)
            except tomllib.TOMLDecodeError as exc:
                raise SpecError(f"invalid TOML in {p}: {exc}") from None
    else:
        raise SpecError(
            f"unsupported {what} format {suffix!r} for {p}; use .json or .toml"
        )
    if not isinstance(data, Mapping):
        raise SpecError(
            f"{what} file {p} must hold a mapping, got {type(data).__name__}"
        )
    return dict(data)


def _check_kwargs(factory: Callable, kwargs: Mapping[str, Any], what: str) -> None:
    """Reject kwargs the factory's signature cannot bind."""
    try:
        sig = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins/C callables: nothing to check
        return
    try:
        sig.bind_partial(**kwargs)
    except TypeError as exc:
        raise SpecError(f"bad {what}_kwargs {dict(kwargs)!r}: {exc}") from None


@dataclass(frozen=True)
class PipelineSpec:
    """One release pipeline, declarable as data.

    Parameters
    ----------
    detector:
        Registry name (serializable) or an :class:`OutlierDetector` instance.
    sampler:
        Registry name (serializable) or a :class:`Sampler` instance.  For an
        instance, ``n_samples`` is read off the instance and
        ``sampler_kwargs`` must be empty.
    utility:
        Registry name (serializable) or a callable factory
        ``(verifier, record_id, starting_bits, **utility_kwargs)``.
    epsilon:
        Total OCDP budget of one release under this spec.
    n_samples:
        Candidate-pool size for named samplers (the paper's ``n``).
    half_sensitivity:
        Use the paper's halved-sensitivity Exponential mechanism.
    detector_kwargs / sampler_kwargs / utility_kwargs:
        Extra keyword arguments for the named factories; validated against
        the factory signatures at construction time.
    utility_needs_start:
        Explicit override of the utility's needs-starting-context metadata —
        the escape hatch for callable utilities the registry knows nothing
        about (``None`` defers to registry metadata / the callable's
        ``needs_starting_context`` attribute).
    """

    detector: Union[str, OutlierDetector]
    sampler: Union[str, Sampler] = "bfs"
    utility: UtilitySpec = "population_size"
    epsilon: float = 0.2
    n_samples: int = 50
    half_sensitivity: bool = False
    detector_kwargs: Mapping[str, Any] = field(default_factory=dict)
    sampler_kwargs: Mapping[str, Any] = field(default_factory=dict)
    utility_kwargs: Mapping[str, Any] = field(default_factory=dict)
    utility_needs_start: Optional[bool] = None

    # ----------------------------------------------------------- validation

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "half_sensitivity", bool(self.half_sensitivity))
        object.__setattr__(self, "detector_kwargs", dict(self.detector_kwargs))
        object.__setattr__(self, "sampler_kwargs", dict(self.sampler_kwargs))
        object.__setattr__(self, "utility_kwargs", dict(self.utility_kwargs))

        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise SpecError(
                f"epsilon must be positive and finite, got {self.epsilon}"
            )

        self._validate_detector()
        self._validate_sampler()
        self._validate_utility()

        if int(self.n_samples) < 1:
            raise SpecError(f"n_samples must be >= 1, got {self.n_samples}")
        object.__setattr__(self, "n_samples", int(self.n_samples))

    def _validate_detector(self) -> None:
        if isinstance(self.detector, str):
            try:
                factory = detector_factory(self.detector)
            except ReproError as exc:
                raise SpecError(str(exc)) from None
            _check_kwargs(factory, self.detector_kwargs, "detector")
        elif isinstance(self.detector, OutlierDetector):
            if self.detector_kwargs:
                raise SpecError(
                    "detector_kwargs only apply to a detector named by "
                    "registry key, not to a detector instance"
                )
        else:
            raise SpecError(
                f"detector must be a registry name or an OutlierDetector "
                f"instance, got {type(self.detector).__name__}"
            )

    def _validate_sampler(self) -> None:
        if isinstance(self.sampler, str):
            try:
                info = sampler_info(self.sampler)
            except ReproError as exc:
                raise SpecError(str(exc)) from None
            _check_kwargs(
                info.factory,
                {"n_samples": self.n_samples, **self.sampler_kwargs},
                "sampler",
            )
        elif isinstance(self.sampler, Sampler):
            if self.sampler_kwargs:
                raise SpecError(
                    "sampler_kwargs only apply to a sampler named by "
                    "registry key, not to a sampler instance"
                )
            # Keep accounting coherent: the pool size is the instance's.
            object.__setattr__(self, "n_samples", self.sampler.n_samples)
        else:
            raise SpecError(
                f"sampler must be a registry name or a Sampler instance, "
                f"got {type(self.sampler).__name__}"
            )

    def _validate_utility(self) -> None:
        if isinstance(self.utility, str):
            try:
                info = utility_info(self.utility)
            except ReproError as exc:
                raise SpecError(str(exc)) from None
            _check_kwargs(info.factory, self.utility_kwargs, "utility")
        elif not callable(self.utility):
            raise SpecError(
                f"utility must be a registry name or a callable factory, "
                f"got {type(self.utility).__name__}"
            )

    # ------------------------------------------------------------- metadata

    @property
    def is_serializable(self) -> bool:
        """True iff every component is addressed by registry name."""
        return (
            isinstance(self.detector, str)
            and isinstance(self.sampler, str)
            and isinstance(self.utility, str)
        )

    def sampler_requires_starting_context(self) -> bool:
        """Registry/instance metadata: must the sampler start from a valid context?"""
        if isinstance(self.sampler, str):
            return sampler_info(self.sampler).requires_starting_context
        return bool(self.sampler.requires_starting_context)

    def utility_requires_starting_context(self) -> bool:
        """Registry/attribute/override metadata for the utility (Satellite fix:
        callable factories advertise via a ``needs_starting_context`` attribute
        or the spec's explicit ``utility_needs_start`` flag)."""
        return utility_needs_starting_context(self.utility, self.utility_needs_start)

    def needs_starting_context(self) -> bool:
        """Does a release under this spec need a starting context at all?"""
        return (
            self.sampler_requires_starting_context()
            or self.utility_requires_starting_context()
        )

    # ------------------------------------------------------------- builders

    def build_detector(self) -> OutlierDetector:
        """The spec's detector (instantiating named factories)."""
        if isinstance(self.detector, OutlierDetector):
            return self.detector
        return make_detector(self.detector, **self.detector_kwargs)

    def build_sampler(self) -> Sampler:
        """The spec's sampler (instantiating named factories)."""
        if isinstance(self.sampler, Sampler):
            return self.sampler
        return make_sampler(
            self.sampler, n_samples=self.n_samples, **self.sampler_kwargs
        )

    def build_utility(
        self,
        verifier: OutlierVerifier,
        record_id: int,
        starting_bits: Optional[int],
    ) -> UtilityFunction:
        """The spec's utility, bound to one verifier/record/starting context."""
        if isinstance(self.utility, str):
            return make_utility(
                self.utility, verifier, record_id, starting_bits,
                **self.utility_kwargs,
            )
        return self.utility(verifier, record_id, starting_bits, **self.utility_kwargs)

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        """JSON/TOML-able mapping; raises for instance-bearing specs."""
        if not self.is_serializable:
            raise SpecError(
                "spec holds in-memory components (detector/sampler instance "
                "or callable utility) and cannot be serialized; use registry "
                "names instead"
            )
        out: Dict[str, Any] = {
            "detector": self.detector,
            "sampler": self.sampler,
            "utility": self.utility,
            "epsilon": self.epsilon,
            "n_samples": self.n_samples,
            "half_sensitivity": self.half_sensitivity,
            "detector_kwargs": dict(self.detector_kwargs),
            "sampler_kwargs": dict(self.sampler_kwargs),
            "utility_kwargs": dict(self.utility_kwargs),
        }
        if self.utility_needs_start is not None:
            out["utility_needs_start"] = self.utility_needs_start
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineSpec":
        """Build (and fully validate) a spec from a plain mapping."""
        if not isinstance(data, Mapping):
            raise SpecError(f"spec must be a mapping, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown spec field(s) {unknown}; known: {sorted(known)}"
            )
        if "detector" not in data:
            raise SpecError("spec is missing the required 'detector' field")
        return cls(**dict(data))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "PipelineSpec":
        """Load a spec from a ``.json`` or ``.toml`` file."""
        return cls.from_dict(load_mapping_file(path, what="spec"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        det = self.detector if isinstance(self.detector, str) else self.detector.name
        smp = self.sampler if isinstance(self.sampler, str) else self.sampler.name
        util = (
            self.utility
            if isinstance(self.utility, str)
            else getattr(self.utility, "__name__", repr(self.utility))
        )
        return (
            f"PipelineSpec(detector={det!r}, sampler={smp!r}, utility={util!r}, "
            f"epsilon={self.epsilon}, n_samples={self.n_samples})"
        )
