"""INI-style configuration files and command-line overrides.

Sections [system], [lead_L], [lead_R] mirror the parameter dataclasses
field by field.  An optional [bias] section with ``delta_mu`` splits
the bias symmetrically over the two leads (overriding their
``chem_potential`` entries), and an optional [sweep] section describes
a one- or two-axis sweep.  Overrides are dotted ``section.key=value``
strings applied before the objects are built.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from .model import LeadParams, ModelConfig, SystemParams

SWEEP_AXES = ("mu_tilde", "delta_mu", "lam")
OUTPUT_GROUPS = ("transport", "thermo", "phasespace", "mode")


def _schema(cls) -> tuple[tuple[str, type], ...]:
    """(key, int or float) of each numeric field of a parameter dataclass, in field order."""
    types = get_type_hints(cls)
    return tuple((f.name, types[f.name]) for f in fields(cls) if f.name != "label")


SYSTEM_SCHEMA = _schema(SystemParams)
LEAD_SCHEMA = _schema(LeadParams)
OPTIONAL_KEYS = {"chem_potential": 0.0}  # keys a config file may omit, with their values


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.name not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.name!r}; expected one of {SWEEP_AXES}")
        if self.count < 1:
            raise ValueError("axis count must be >= 1")

    def values(self) -> list[float]:
        if self.count == 1:
            return [self.start]
        step = (self.stop - self.start) / (self.count - 1)
        return [self.start + i * step for i in range(self.count)]


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
                raise ValueError(f"unknown output group {group!r}")
        if self.n_cut_policy not in ("fixed", "adaptive"):
            raise ValueError("n_cut_policy must be 'fixed' or 'adaptive'")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


class ConfigError(ValueError):
    pass


def _parse_axis(text: str) -> SweepAxis:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ConfigError(f"axis spec must be 'name, start, stop, count', got {text!r}")
    return SweepAxis(parts[0], float(parts[1]), float(parts[2]), int(parts[3]))


def _read_section(sec: configparser.SectionProxy, schema: tuple[tuple[str, type], ...]) -> dict:
    values = {}
    for key, kind in schema:
        read = sec.getint if kind is int else sec.getfloat
        value = read(key, fallback=OPTIONAL_KEYS.get(key))
        if value is None:
            raise ConfigError(f"[{sec.name}] missing key {key!r}")
        values[key] = value
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
    except configparser.Error as exc:  # no section header, a repeated key, a line not key = value
        raise ConfigError(f"bad config file {path}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if overrides:
        apply_overrides(parser, overrides)
    try:
        system = SystemParams(**_read_section(parser["system"], SYSTEM_SCHEMA))
        leads = {
            label: LeadParams(label=label, **_read_section(parser[f"lead_{label}"], LEAD_SCHEMA))
            for label in ("L", "R")
        }
        config = ModelConfig(system=system, lead_L=leads["L"], lead_R=leads["R"])
        if parser.has_option("bias", "delta_mu"):
            config = config.with_bias(parser.getfloat("bias", "delta_mu"))
    except (KeyError, ValueError, TypeError, configparser.Error) as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc

    sweep = None
    if parser.has_section("sweep"):
        sec = parser["sweep"]
        if "axis1" not in sec:
            raise ConfigError("[sweep] section requires axis1")
        axis1 = _parse_axis(sec["axis1"])
        axis2 = _parse_axis(sec["axis2"]) if "axis2" in sec else None
        outputs = tuple(
            g.strip() for g in sec.get("outputs", ",".join(OUTPUT_GROUPS)).split(",") if g.strip()
        )
        sweep = SweepSpec(
            axis1=axis1,
            axis2=axis2,
            outputs=outputs,
            n_cut_policy=sec.get("n_cut_policy", "fixed").strip(),
            workers=sec.getint("workers", fallback=1),
        )
    return config, sweep


def config_to_dict(config: ModelConfig) -> dict:
    """Flat ``section.key`` dump of every parameter (the CSV metadata echo)."""
    out = {f"system.{key}": getattr(config.system, key) for key, _ in SYSTEM_SCHEMA}
    for lead in config.leads:
        out.update({f"lead_{lead.label}.{key}": getattr(lead, key) for key, _ in LEAD_SCHEMA})
    return out

