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


_VALID_KEYS = {
    "aperture": ("pattern_order", "bit_size_zero_um", "bit_size_one_um", "thickness_um"),
    "optics": ("mu_per_um", "energy_kev", "mu_table", "incidence_angle_deg"),
    "signal": ("width_um", "template"),
    "scan": ("grid_step_um", "scan_bits", "noise_levels", "seed", "oversample",
             "normalization"),
    "sweep": ("kind", "bsr_values", "scan_bits_values", "aspect_values",
              "angles_deg", "energies_kev", "replicates", "position_stride"),
    "criteria": ("epsilon", "position_margin_bits"),
    "recover": ("max_rounds",),
    "output": ("csv",),
}


TEMPLATES = ("gaussian", "boxcar")
NORMALIZATIONS = ("corrected", "minmax")
_TUPLE_FIELDS = (
    "noise_levels",
    "bsr_values",
    "scan_bits_values",
    "aspect_values",
    "angles_deg",
    "energies_kev",
)


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
    normalization: str = "corrected"
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
        if self.sweep_kind not in SWEEP_KINDS:
            raise ValueError(f"sweep_kind must be one of {SWEEP_KINDS}, got {self.sweep_kind!r}")
        if self.template not in TEMPLATES:
            raise ValueError(f"unknown template {self.template!r}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.position_stride < 1:
            raise ValueError("position_stride must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if min(self.bit_size_zero_um, self.bit_size_one_um) < self.grid_step_um:
            raise ValueError(f"a bit size is below the grid step of {self.grid_step_um:g} um")
        if self.scan_bits < 1:
            raise ValueError(f"scan length of {self.scan_bits:g} bits is below one bit")
        if not 0 <= self.incidence_angle_deg < 90:
            raise ValueError(f"incidence angle {self.incidence_angle_deg:g} outside [0, 90)")
        if not self.thickness_um > 0:
            raise ValueError(f"bar thickness must be positive, got {self.thickness_um:g} um")
        for name in _TUPLE_FIELDS:
            value = tuple(getattr(self, name))
            if not value:
                raise ValueError(f"{name} must not be empty")
            object.__setattr__(self, name, value)
        table = self.mu_table or load_mu_table(default_mu_table_path())
        object.__setattr__(self, "mu_table", tuple((float(e), float(m)) for e, m in table))

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


def load_mu_table(path) -> tuple:
    """Read an energy -> attenuation table: [attenuation] section, keV = 1/um."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"attenuation table not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError(f"attenuation table {path}: {exc}") from exc
    if not parser.has_section("attenuation"):
        raise ConfigError(f"attenuation table {path}: missing [attenuation] section")
    entries = []
    for key, raw in parser.items("attenuation"):
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


class _Reader:
    """Typed accessors over one parsed file with [section] key diagnostics.

    Each returns None for a key the file does not set.
    """

    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser

    def _raw(self, section, key):
        if self.parser.has_option(section, key):
            return self.parser.get(section, key).strip()
        return None

    def string(self, section, key, choices=None):
        raw = self._raw(section, key)
        if raw is not None and choices is not None and raw not in choices:
            raise ConfigError(
                f"[{section}] {key}: expected one of {', '.join(choices)}, got {raw!r}"
            )
        return raw

    def number(self, section, key, minimum=None, positive=False):
        raw = self._raw(section, key)
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
        self._check_range(section, key, value, minimum, positive)
        return value

    def integer(self, section, key, minimum=None):
        raw = self._raw(section, key)
        if raw is None:
            return None
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from None
        if minimum is not None and value < minimum:
            raise ConfigError(f"[{section}] {key}: must be >= {minimum}, got {value}")
        return value

    def numbers(self, section, key, positive=False, allow_inf=False):
        raw = self._raw(section, key)
        if raw is None:
            return None
        parts = [p for p in (s.strip() for s in raw.split(",")) if p]
        if not parts:
            raise ConfigError(f"[{section}] {key}: empty list")
        values = []
        for part in parts:
            try:
                values.append(float(part))
            except ValueError:
                raise ConfigError(f"[{section}] {key}: not a number: {part!r}") from None
            if math.isnan(values[-1]) or (math.isinf(values[-1]) and not allow_inf):
                raise ConfigError(f"[{section}] {key}: must be finite, got {part!r}")
        if positive and any(v <= 0 for v in values):
            raise ConfigError(f"[{section}] {key}: all values must be positive")
        return tuple(values)

    @staticmethod
    def _check_range(section, key, value, minimum, positive):
        if positive and not value > 0:
            raise ConfigError(f"[{section}] {key}: must be positive, got {value:g}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"[{section}] {key}: must be >= {minimum:g}, got {value:g}")


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment file; unknown keys are errors."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for section in parser.sections():
        if section not in _VALID_KEYS:
            raise ConfigError(f"[{section}]: unknown section")
        for key, _ in parser.items(section):
            if key not in _VALID_KEYS[section]:
                raise ConfigError(f"[{section}] {key}: unknown key")

    r = _Reader(parser)
    mu_table_path = r.string("optics", "mu_table")
    given = dict(
        pattern_order=r.integer("aperture", "pattern_order", minimum=1),
        bit_size_zero_um=r.number("aperture", "bit_size_zero_um", positive=True),
        bit_size_one_um=r.number("aperture", "bit_size_one_um", positive=True),
        thickness_um=r.number("aperture", "thickness_um", positive=True),
        mu_per_um=r.number("optics", "mu_per_um", minimum=0.0),
        energy_kev=r.number("optics", "energy_kev", positive=True),
        mu_table=None if mu_table_path is None else load_mu_table(path.parent / mu_table_path),
        incidence_angle_deg=r.number("optics", "incidence_angle_deg", minimum=0.0),
        signal_width_um=r.number("signal", "width_um", positive=True),
        template=r.string("signal", "template", choices=TEMPLATES),
        grid_step_um=r.number("scan", "grid_step_um", positive=True),
        scan_bits=r.number("scan", "scan_bits", minimum=1.0),
        # inf is the documented spelling of noiseless (exact intensities)
        noise_levels=r.numbers("scan", "noise_levels", positive=True, allow_inf=True),
        seed=r.integer("scan", "seed", minimum=0),
        oversample=r.integer("scan", "oversample", minimum=1),
        normalization=r.string("scan", "normalization", choices=NORMALIZATIONS),
        sweep_kind=r.string("sweep", "kind", choices=SWEEP_KINDS),
        bsr_values=r.numbers("sweep", "bsr_values", positive=True),
        scan_bits_values=r.numbers("sweep", "scan_bits_values", positive=True),
        aspect_values=r.numbers("sweep", "aspect_values", positive=True),
        angles_deg=r.numbers("sweep", "angles_deg"),
        energies_kev=r.numbers("sweep", "energies_kev", positive=True),
        replicates=r.integer("sweep", "replicates", minimum=1),
        position_stride=r.integer("sweep", "position_stride", minimum=1),
        epsilon=r.number("criteria", "epsilon", positive=True),
        position_margin_bits=r.number("criteria", "position_margin_bits", minimum=0.0),
        max_rounds=r.integer("recover", "max_rounds", minimum=1),
        out_csv=r.string("output", "csv"),
    )
    # Keys the file leaves out keep the ExperimentConfig defaults.
    return ExperimentConfig(**{key: value for key, value in given.items() if value is not None})
