"""INI-style configuration files and command-line overrides.

Sections [system], [lead_L], [lead_R] mirror the parameter dataclasses
field by field.  An optional [bias] section with ``delta_mu`` splits
the bias symmetrically over the two leads (overriding their
``chem_potential`` entries), and an optional [sweep] section describes
a one- or two-axis sweep.  Overrides are dotted ``section.key=value``
strings applied before the objects are built.  A section or key not in
:data:`SECTIONS` is an error, reported after any missing key.
"""

from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Container, Iterator, get_type_hints

from .model import LeadParams, ModelConfig, SystemParams

# sweep axis -> how its value enters a ModelConfig
_AXIS_SETTERS = {
    "mu_tilde": lambda config, value: replace(config, system=replace(config.system, mu_tilde=value)),
    "delta_mu": ModelConfig.with_bias,
    "lam": lambda config, value: replace(config, system=replace(config.system, lam=value)),
}
SWEEP_AXES = tuple(_AXIS_SETTERS)
OUTPUT_GROUPS = ("transport", "thermo", "phasespace", "mode")


@dataclass(frozen=True)
class SweepAxis:
    """``count`` evenly spaced values of one parameter, from ``start`` to ``stop``."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.name not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.name!r}; expected one of {SWEEP_AXES}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"axis start and stop must be finite, got {self.start!r} and {self.stop!r}")
        if not math.isfinite(self.stop - self.start):  # values() steps by the span
            raise ValueError(f"axis span stop - start must be finite, got {self.start!r} to {self.stop!r}")
        if self.count < 1:
            raise ValueError("axis count must be >= 1")

    def __str__(self) -> str:
        """The ``name,start,stop,count`` text that a [sweep] axis key reads back."""
        return f"{self.name},{self.start!r},{self.stop!r},{self.count}"

    def values(self) -> list[float]:
        if self.count == 1:
            return [self.start]
        step = (self.stop - self.start) / (self.count - 1)
        return [self.start + i * step for i in range(self.count)]

    def apply(self, config: ModelConfig, value: float) -> ModelConfig:
        """``config`` with this axis's parameter set to ``value``."""
        return _AXIS_SETTERS[self.name](config, value)


@dataclass(frozen=True)
class SweepSpec:
    axis1: SweepAxis
    axis2: SweepAxis | None = None
    outputs: tuple[str, ...] = OUTPUT_GROUPS
    n_cut_policy: str = "fixed"
    workers: int = 1

    def __post_init__(self) -> None:
        for group in self.outputs:
            if group not in OUTPUT_GROUPS:
                raise ValueError(f"sweep.outputs: unknown group {group!r}; expected some of {OUTPUT_GROUPS}")
        if self.n_cut_policy not in ("fixed", "adaptive"):
            raise ValueError("sweep.n_cut_policy must be 'fixed' or 'adaptive'")
        if self.workers < 1:
            raise ValueError(f"sweep.workers must be >= 1, got {self.workers}")
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise ValueError(f"sweep.axis1 and sweep.axis2 both sweep {self.axis1.name!r}")

    @property
    def axes(self) -> tuple[SweepAxis, ...]:
        return (self.axis1,) if self.axis2 is None else (self.axis1, self.axis2)

    def points(self) -> Iterator[tuple[int, dict[str, float]]]:
        """(row index, {axis name: value}) of every grid point, in row-major order."""
        grid = itertools.product(*(axis.values() for axis in self.axes))
        for index, values in enumerate(grid):
            yield index, {axis.name: value for axis, value in zip(self.axes, values)}


class ConfigError(ValueError):
    pass


def _schema(cls) -> dict[str, type]:
    """key -> int or float of each numeric field of a parameter dataclass, in field order."""
    types = get_type_hints(cls)
    return {f.name: types[f.name] for f in fields(cls) if f.name != "label"}


def _parse_axis(text: str) -> SweepAxis:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"axis spec must be 'name, start, stop, count', got {text!r}")
    return SweepAxis(parts[0], float(parts[1]), float(parts[2]), int(parts[3]))


# section -> {key: parser of its text}: every section and key a config file may hold
SECTIONS = {
    "system": _schema(SystemParams),
    "lead_L": _schema(LeadParams),
    "lead_R": _schema(LeadParams),
    "bias": {"delta_mu": float},
    "sweep": {
        "axis1": _parse_axis,
        "axis2": _parse_axis,
        "outputs": lambda text: tuple(g.strip() for g in text.split(",") if g.strip()),
        "n_cut_policy": str.strip,
        "workers": int,
    },
}
OPTIONAL_KEYS = {"chem_potential": 0.0}  # lead keys a config file may omit, with their values


def _read_section(parser: configparser.ConfigParser, section: str, optional: Container[str] = ()) -> dict:
    """Parsed values of the keys ``section`` holds; each key not ``optional`` must be there."""
    values = {}
    for key, parse in SECTIONS[section].items():
        if parser.has_option(section, key):
            try:
                values[key] = parse(parser.get(section, key))
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc
        elif key not in optional:
            raise ConfigError(f"[{section}] missing key {key!r}")
    return values


def apply_overrides(parser: configparser.ConfigParser, overrides: list[str]) -> None:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        key, value = item.split("=", 1)
        if "." not in key:
            raise ConfigError(f"override key must be dotted section.key, got {key!r}")
        section, field = (part.strip() for part in key.split(".", 1))
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, field, value.strip())


def load_config(
    path: str | Path, overrides: list[str] | None = None
) -> tuple[ModelConfig, SweepSpec | None]:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:  # a line outside a section, a repeated key, ...
        raise ConfigError(f"bad config file {path}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    try:
        apply_overrides(parser, overrides or [])  # raises ValueError for [DEFAULT] or a bare '%' too
        system = SystemParams(**_read_section(parser, "system"))
        lead_L, lead_R = (
            LeadParams(label=label, **{**OPTIONAL_KEYS, **_read_section(parser, f"lead_{label}", OPTIONAL_KEYS)})
            for label in ("L", "R")
        )
        config = ModelConfig(system=system, lead_L=lead_L, lead_R=lead_R)
        bias = _read_section(parser, "bias", optional=("delta_mu",))
        if "delta_mu" in bias:
            if not math.isfinite(bias["delta_mu"]):
                raise ValueError(f"bias.delta_mu must be finite, got {bias['delta_mu']!r}")
            config = config.with_bias(bias["delta_mu"])
        sweep = None
        if parser.has_section("sweep"):
            optional = ("axis2", "outputs", "n_cut_policy", "workers")
            sweep = SweepSpec(**_read_section(parser, "sweep", optional))
        for section in parser.sections():  # a [DEFAULT] key shows up in each section, so it is unknown too
            known = SECTIONS.get(section)
            if known is None:
                raise ConfigError(f"unknown section [{section}]; expected one of {', '.join(SECTIONS)}")
            for key in parser.options(section):
                if key not in known:
                    raise ConfigError(f"[{section}] unknown key {key!r}; expected one of {', '.join(known)}")
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    return config, sweep


def config_to_dict(config: ModelConfig) -> dict:
    """Flat ``section.key`` dump of every parameter (the CSV metadata echo)."""
    out = {f"system.{key}": getattr(config.system, key) for key in SECTIONS["system"]}
    for lead in config.leads:
        out.update({f"lead_{lead.label}.{key}": getattr(lead, key) for key in SECTIONS[f"lead_{lead.label}"]})
    return out
