"""Experiment configuration: INI parsing, validation, and defaults."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .aperture import ApertureGeometry, OpticalContext
from .codes import Pattern
from .forward import Signal, make_boxcar_signal, make_gaussian_signal
from .metrics import SWEEP_KINDS


class ConfigError(ValueError):
    """Invalid or missing configuration; messages carry [section] key context."""


TEMPLATES = ("gaussian", "boxcar")


def _at_least(minimum):
    return f"must be >= {minimum:g}", lambda value: value >= minimum


def _one_of(choices):
    return f"expected one of {', '.join(choices)}", lambda value: value in choices


_POSITIVE = ("must be positive", lambda value: value > 0)
_ANGLE = (_at_least(0), ("must be < 90", lambda value: value < 90))

# Per [section] key, in ExperimentConfig field order: the field it sets, how
# its text parses (int, float, text, floats: a comma-separated list,
# floats_inf: one where inf means noiseless, or path: a load_mu_table file
# relative to the config) and the field's bound, (words, test) checks that
# the value, or each value of a list, must pass in order. None passes where
# it is the default.
_KEYS = {
    ("aperture", "pattern_order"): ("pattern_order", "int", (_at_least(1),)),
    ("aperture", "bit_size_zero_um"): ("bit_size_zero_um", "float", (_POSITIVE,)),
    ("aperture", "bit_size_one_um"): ("bit_size_one_um", "float", (_POSITIVE,)),
    ("aperture", "thickness_um"): ("thickness_um", "float", (_POSITIVE,)),
    ("optics", "mu_per_um"): ("mu_per_um", "float", (_at_least(0),)),
    ("optics", "energy_kev"): ("energy_kev", "float", (_POSITIVE,)),
    ("optics", "mu_table"): ("mu_table", "path", ()),
    ("optics", "incidence_angle_deg"): ("incidence_angle_deg", "float", _ANGLE),
    ("signal", "width_um"): ("signal_width_um", "float", (_POSITIVE,)),
    ("signal", "template"): ("template", "text", (_one_of(TEMPLATES),)),
    ("scan", "grid_step_um"): ("grid_step_um", "float", (_POSITIVE,)),
    ("scan", "scan_bits"): ("scan_bits", "float", (_at_least(1),)),
    ("scan", "noise_levels"): ("noise_levels", "floats_inf", (_POSITIVE,)),
    ("scan", "seed"): ("seed", "int", (_at_least(0),)),
    ("scan", "oversample"): ("oversample", "int", (_at_least(1),)),
    ("sweep", "kind"): ("sweep_kind", "text", (_one_of(SWEEP_KINDS),)),
    ("sweep", "bsr_values"): ("bsr_values", "floats", (_POSITIVE,)),
    ("sweep", "scan_bits_values"): ("scan_bits_values", "floats", (_POSITIVE, _at_least(1))),
    ("sweep", "aspect_values"): ("aspect_values", "floats", (_POSITIVE,)),
    ("sweep", "angles_deg"): ("angles_deg", "floats", _ANGLE),
    ("sweep", "energies_kev"): ("energies_kev", "floats", (_POSITIVE,)),
    ("sweep", "replicates"): ("replicates", "int", (_at_least(1),)),
    ("sweep", "position_stride"): ("position_stride", "int", (_at_least(1),)),
    ("criteria", "epsilon"): ("epsilon", "float", (_POSITIVE,)),
    ("criteria", "position_margin_bits"): ("position_margin_bits", "float", (_at_least(0),)),
    ("recover", "max_rounds"): ("max_rounds", "int", (_at_least(1),)),
    ("output", "csv"): ("out_csv", "text", ()),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment parameters; a sweep's trials derive from them alone.

    A sweep cell is this config with the fields its axis sets replaced
    (the ``*_values`` tuples, ``energies_kev`` and ``angles_deg`` hold the
    axes); every other field pins what that sweep does *not* vary. ``template``
    selects the solver's probe shape; the simulated truth is always the
    bounded Gaussian. A noise level of ``inf`` means exact intensities. An
    empty ``mu_table`` stands for the bundled gold table, read when the
    config is built.
    """

    pattern_order: int = 8
    bit_size_zero_um: float = 10.0
    bit_size_one_um: float = 10.0
    thickness_um: float = 10.0
    mu_per_um: float | None = None  # overrides the table lookup when set
    energy_kev: float = 10.0
    mu_table: tuple = ()
    incidence_angle_deg: float = 0.0
    signal_width_um: float = 10.0
    template: str = "gaussian"
    grid_step_um: float = 1.0
    scan_bits: float = 8.0
    noise_levels: tuple = (10.0, 100.0)
    seed: int = 0
    oversample: int = 16
    sweep_kind: str = "bsr"
    bsr_values: tuple = (0.25, 0.5, 1.0, 2.0)
    scan_bits_values: tuple = (2.0, 4.0, 8.0, 16.0, 24.0)
    aspect_values: tuple = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
    angles_deg: tuple = (0.0, 10.0, 20.0, 40.0)
    energies_kev: tuple = (5.0, 10.0, 20.0, 30.0)
    replicates: int = 30
    position_stride: int = 1
    epsilon: float = 0.02
    position_margin_bits: float = 1.0
    max_rounds: int = 3
    out_csv: str | None = None

    def __post_init__(self):
        table = self.mu_table or load_mu_table(default_mu_table_path())
        object.__setattr__(self, "mu_table", tuple((float(e), float(m)) for e, m in table))
        for (section, key), (name, parse, bound) in _KEYS.items():
            if parse in ("floats", "floats_inf"):
                object.__setattr__(self, name, tuple(getattr(self, name)))
            if getattr(self, name) is not None or getattr(ExperimentConfig, name) is not None:
                _check(getattr(self, name), bound, f"[{section}] {key}")
        if min(self.bit_size_zero_um, self.bit_size_one_um) < self.grid_step_um:
            raise ConfigError(f"a bit size is below the grid step of {self.grid_step_um:g} um")

    def geometry(self, pattern: Pattern) -> ApertureGeometry:
        return ApertureGeometry(
            self.bit_size_zero_um, self.bit_size_one_um, self.thickness_um, pattern
        )

    @property
    def bit_size_um(self) -> float:
        """The bit that sweeps, ``simulate`` and ``--truncate-bits`` count travel in."""
        if self.bit_size_zero_um != self.bit_size_one_um:
            raise ConfigError(
                "[aperture] bit_size_zero_um and bit_size_one_um differ; sweeps, simulate "
                "and --truncate-bits need equal bit sizes"
            )
        return self.bit_size_zero_um

    def mu_at(self, energy_kev: float) -> float:
        """Absorber attenuation in 1/um: ``mu_per_um`` if set, else the table's."""
        if self.mu_per_um is not None:
            return self.mu_per_um
        table = dict(self.mu_table)
        if energy_kev not in table:
            raise ConfigError(
                f"[optics] mu_table: no attenuation entry for {energy_kev:g} keV"
            )
        return table[energy_kev]

    def optics(self) -> OpticalContext:
        return OpticalContext(self.mu_at(self.energy_kev), self.incidence_angle_deg)

    def probe(self) -> Signal:
        """The solver's search template, ``signal_width_um`` wide."""
        make = make_gaussian_signal if self.template == "gaussian" else make_boxcar_signal
        return make(self.signal_width_um, self.grid_step_um)

    def echo_items(self):
        """Resolved (key, value) pairs, one per field, for output headers."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                if value and isinstance(value[0], tuple):
                    value = "; ".join(f"{e:g}={m:g}" for e, m in value)
                else:
                    value = ", ".join(f"{v:g}" for v in value)
            yield f.name, str(value)


def default_mu_table_path() -> Path:
    return Path(str(resources.files("codedscan").joinpath("data/au_mu_table.cfg")))


def _ini_parser() -> configparser.ConfigParser:
    """An INI parser without a default section. No section header is empty,
    so ``[DEFAULT]`` reads as a section like any other: its keys are not
    copied into every section."""
    return configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="")


def load_mu_table(path) -> tuple:
    """Read an energy -> attenuation table: [attenuation] section, keV = 1/um."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"attenuation table not found: {path}")
    parser = _ini_parser()
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
        if not parser.has_section("attenuation"):
            raise ConfigError(f"attenuation table {path}: missing [attenuation] section")
        items = parser.items("attenuation")
    except configparser.Error as exc:  # a malformed file or a bad '%' interpolation
        raise ConfigError(f"attenuation table {path}: {exc}") from exc
    entries = []
    for key, raw in items:
        try:
            energy, mu = float(key), float(raw)
        except ValueError:
            energy = mu = math.nan
        if not (math.isfinite(energy) and math.isfinite(mu)):
            raise ConfigError(f"attenuation table {path}: bad entry {key!r} = {raw!r}")
        if mu < 0:
            raise ConfigError(f"attenuation table {path}: negative mu at {key} keV")
        entries.append((energy, mu))
    if not entries:
        raise ConfigError(f"attenuation table {path}: no entries")
    return tuple(sorted(entries))


def _check(value, bound, where: str):
    """Raise a ConfigError, prefixed ``where``, if ``value`` breaks ``bound``."""
    if value == ():
        raise ConfigError(f"{where}: empty list")
    for words, holds in bound:
        if isinstance(value, tuple):
            if not all(map(holds, value)):
                raise ConfigError(f"{where}: all values {words}")
        elif not holds(value):
            shown = f"{value:g}" if isinstance(value, float) else repr(value)
            raise ConfigError(f"{where}: {words}, got {shown}")


def _parse(text, parse):
    """The value ``text`` spells as a ``parse`` key; ValueError says why not."""
    if parse == "text":
        return text
    number, kind = (int, "an integer") if parse == "int" else (float, "a number")
    listed = parse in ("floats", "floats_inf")
    parts = [p for p in map(str.strip, text.split(",")) if p] if listed else [text]
    values = []
    for part in parts:
        try:
            values.append(number(part))
        except ValueError:
            raise ValueError(f"not {kind}: {part!r}") from None
        if math.isnan(values[-1]) or (math.isinf(values[-1]) and parse != "floats_inf"):
            raise ValueError(f"must be finite, got {part!r}")
    return tuple(values) if listed else values[0]


def load_config(path) -> ExperimentConfig:
    """Parse an experiment file; unknown keys are errors, left-out keys keep
    the ExperimentConfig defaults."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = _ini_parser()
    given = {}
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
        for section in parser.sections():
            if not any(section == known for known, _ in _KEYS):
                raise ConfigError(f"[{section}]: unknown section")
            for key, text in parser.items(section):
                if (section, key) not in _KEYS:
                    raise ConfigError(f"[{section}] {key}: unknown key")
                name, parse, _ = _KEYS[section, key]
                if parse == "path":
                    given[name] = load_mu_table(path.parent / text.strip())
                    continue
                try:
                    given[name] = _parse(text.strip(), parse)
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key}: {exc}") from None
    except configparser.Error as exc:  # a malformed file or a bad '%' interpolation
        raise ConfigError(f"{path}: {exc}") from exc
    return ExperimentConfig(**given)
