"""Component-level power model for a large computing system.

A system is described as a list of power-drawing component classes, each with
a unit count and per-unit idle/loaded draw in kW. Total draw is a function of
one global utilization figure; operational interventions (BIOS mode changes,
frequency caps) enter as multiplicative factors on a single component's draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .datafiles import check_fields, integer, number, read_json, string, to_json
from .errors import DataFormatError, DomainError
from .errors import check_count, check_finite, check_fraction, check_nonnegative


class LoadResponse(Enum):
    """How a component's draw responds to system utilization."""

    LINEAR = "linear"
    CONSTANT = "constant"


class FactorMode(Enum):
    """Which part of a component's per-unit draw a power factor scales."""

    WHOLE_DRAW = "whole_draw"
    DYNAMIC_ONLY = "dynamic_only"


@dataclass(frozen=True)
class ComponentSpec:
    """One component class: unit count and per-unit idle/loaded draw in kW.

    A CONSTANT response means the component draws its idle figure regardless
    of utilization (e.g. interconnect switches); LINEAR interpolates between
    the idle and loaded figures.
    """

    name: str
    count: int
    idle_kw_per_unit: float
    loaded_kw_per_unit: float
    load_response: LoadResponse = LoadResponse.LINEAR

    def __post_init__(self) -> None:
        if not self.name:
            raise DomainError("component name must be non-empty")
        if check_count(self.count, "component {!r}: count", self.name) is not self.count:
            object.__setattr__(self, "count", int(self.count))  # a numpy integer
        check_nonnegative(self.idle_kw_per_unit, "component {!r}: idle draw", "kW", self.name)
        check_finite(self.loaded_kw_per_unit, "component {!r}: loaded draw", self.name)
        if self.loaded_kw_per_unit < self.idle_kw_per_unit:
            raise DomainError(
                f"component {self.name!r}: loaded draw {self.loaded_kw_per_unit} kW "
                f"is below idle draw {self.idle_kw_per_unit} kW"
            )


@dataclass(frozen=True)
class SystemModel:
    """An ordered collection of components plus the designated compute component.

    The compute component is the target of frequency-policy scaling; a model
    without one (compute_component=None) can still be evaluated for power but
    cannot run policy scenarios.
    """

    name: str
    components: tuple[ComponentSpec, ...]
    compute_component: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise DomainError(f"duplicate component names: {', '.join(dup)}")
        if self.compute_component is not None and self.compute_component not in names:
            raise DomainError(
                f"compute component {self.compute_component!r} is not among {names}"
            )

    def component(self, name: str) -> ComponentSpec:
        for comp in self.components:
            if comp.name == name:
                return comp
        raise DomainError(f"unknown component {name!r} in model {self.name!r}")


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-component power in kW plus the system total."""

    per_component: dict[str, float]
    total_kw: float


def _draw(spec: ComponentSpec, utilization: float) -> float:
    if spec.load_response is LoadResponse.CONSTANT:
        return spec.count * spec.idle_kw_per_unit
    dynamic = spec.loaded_kw_per_unit - spec.idle_kw_per_unit
    return spec.count * (spec.idle_kw_per_unit + utilization * dynamic)


def component_power(spec: ComponentSpec, utilization: float) -> float:
    """Power draw of one component class in kW at the given utilization.

    LINEAR components draw count * (idle + u * (loaded - idle)); CONSTANT
    components draw count * idle at every utilization.
    """
    check_fraction(utilization, "utilization")
    return _draw(spec, utilization)


def system_power(model: SystemModel, utilization: float) -> PowerBreakdown:
    """Evaluate every component at the given utilization and sum the draws.

    The utilization is checked once, before any component, so a model without
    components rejects it too; finite draws whose total passes the float range
    raise a DomainError. The draws are added in component order, as sum() did
    before Python 3.12, so that every Python gives the same total."""
    check_fraction(utilization, "utilization")
    per_component = {}
    total_kw = 0
    for c in model.components:
        per_component[c.name] = draw = _draw(c, utilization)
        total_kw += draw
    if not math.isfinite(total_kw):
        raise DomainError(
            f"model {model.name!r}: total power exceeds the float range "
            f"at utilization {utilization}"
        )
    return PowerBreakdown(per_component=per_component, total_kw=total_kw)


def apply_power_factor(
    model: SystemModel, component: str, factor: float, mode: FactorMode
) -> SystemModel:
    """Return a new model with one component's draw scaled by a factor.

    WHOLE_DRAW scales both the idle and loaded per-unit figures; DYNAMIC_ONLY
    scales only the loaded-minus-idle span, leaving the idle floor untouched.
    Factors compose multiplicatively and order-independently; the input model
    is not modified. The scaled component is checked as a new ComponentSpec;
    the model's names are the input's, which passed SystemModel's checks, so
    they are not checked again.
    """
    check_nonnegative(factor, "power factor")
    spec = model.component(component)
    idle = spec.idle_kw_per_unit
    if mode is FactorMode.WHOLE_DRAW:
        idle, loaded = idle * factor, spec.loaded_kw_per_unit * factor
    else:
        loaded = idle + (spec.loaded_kw_per_unit - idle) * factor
    scaled = ComponentSpec(spec.name, spec.count, idle, loaded, spec.load_response)
    scaled_model = object.__new__(SystemModel)
    scaled_model.__dict__.update(
        model.__dict__, components=tuple([scaled if c is spec else c for c in model.components])
    )
    return scaled_model


_MODEL_FIELDS = ("name", "components", "compute_component")
_COMPONENT_FIELDS = ("name", "count", "idle_kw_per_unit", "loaded_kw_per_unit", "load_response")


def model_to_dict(model: SystemModel) -> dict:
    """JSON view of a model; as in the bundled files, compute_component precedes components."""
    return {
        "name": model.name,
        "compute_component": model.compute_component,
        "components": to_json(model.components),
    }


def _component_from_dict(doc, where: str) -> ComponentSpec:
    check_fields(doc, where, _COMPONENT_FIELDS)
    response = string(doc, "load_response", where)
    try:
        load_response = LoadResponse(response)
    except ValueError:
        raise DataFormatError(
            f"{where}: 'load_response' must be 'linear' or 'constant', got {response!r}"
        ) from None
    return ComponentSpec(
        name=string(doc, "name", where),
        count=integer(doc, "count", where),
        idle_kw_per_unit=number(doc, "idle_kw_per_unit", where),
        loaded_kw_per_unit=number(doc, "loaded_kw_per_unit", where),
        load_response=load_response,
    )


def model_from_dict(doc, where: str = "model document") -> SystemModel:
    """Build a SystemModel from its JSON representation; unknown fields are rejected."""
    check_fields(doc, where, _MODEL_FIELDS)
    compute = doc["compute_component"]
    if compute is not None:
        compute = string(doc, "compute_component", where)
    components = doc["components"]
    if not isinstance(components, list):
        raise DataFormatError(f"{where}: 'components' must be a list")
    return SystemModel(
        name=string(doc, "name", where),
        components=tuple(
            _component_from_dict(comp, f"{where}: component #{i}")
            for i, comp in enumerate(components, start=1)
        ),
        compute_component=compute,
    )


def load_model(path: str | Path) -> SystemModel:
    """Load a SystemModel from a JSON file."""
    return model_from_dict(read_json(path), str(path))
