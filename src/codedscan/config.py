"""Experiment configuration: INI parsing, validation, and defaults."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

from .aperture import DEFAULT_OVERSAMPLE, ApertureGeometry, OpticalContext
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


def _key(section: str, key: str, parse: str, default, *bound):
    """A field that ``[section] key`` sets, with its ``default``.

    ``parse`` is how the key's text parses: int, float, text, floats (a
    comma-separated list), floats_inf (one where inf means noiseless) or path
    (a load_mu_table file relative to the config). ``bound`` holds the
    (words, test) checks that the value, or each value of a list, must pass
    in order. None passes where it is the default.
    """
    return field(default=default, metadata={"ini": (section, key, parse, bound)})


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

    pattern_order: int = _key("aperture", "pattern_order", "int", 8, _at_least(1))
    bit_size_zero_um: float = _key("aperture", "bit_size_zero_um", "float", 10.0, _POSITIVE)
    bit_size_one_um: float = _key("aperture", "bit_size_one_um", "float", 10.0, _POSITIVE)
    thickness_um: float = _key("aperture", "thickness_um", "float", 10.0, _POSITIVE)
    # overrides the table lookup when set
    mu_per_um: float | None = _key("optics", "mu_per_um", "float", None, _at_least(0))
    energy_kev: float = _key("optics", "energy_kev", "float", 10.0, _POSITIVE)
    mu_table: tuple = _key("optics", "mu_table", "path", ())
    incidence_angle_deg: float = _key("optics", "incidence_angle_deg", "float", 0.0, *_ANGLE)
    signal_width_um: float = _key("signal", "width_um", "float", 10.0, _POSITIVE)
    template: str = _key("signal", "template", "text", "gaussian", _one_of(TEMPLATES))
    grid_step_um: float = _key("scan", "grid_step_um", "float", 1.0, _POSITIVE)
    scan_bits: float = _key("scan", "scan_bits", "float", 8.0, _at_least(1))
    noise_levels: tuple = _key("scan", "noise_levels", "floats_inf", (10.0, 100.0), _POSITIVE)
    seed: int = _key("scan", "seed", "int", 0, _at_least(0))
    oversample: int = _key("scan", "oversample", "int", DEFAULT_OVERSAMPLE, _at_least(1))
    sweep_kind: str = _key("sweep", "kind", "text", "bsr", _one_of(SWEEP_KINDS))
    bsr_values: tuple = _key("sweep", "bsr_values", "floats", (0.25, 0.5, 1.0, 2.0), _POSITIVE)
    scan_bits_values: tuple = _key(
        "sweep", "scan_bits_values", "floats", (2.0, 4.0, 8.0, 16.0, 24.0), _POSITIVE, _at_least(1)
    )
    aspect_values: tuple = _key(
        "sweep", "aspect_values", "floats", (0.1, 0.5, 1.0, 2.0, 5.0, 10.0), _POSITIVE
    )
    angles_deg: tuple = _key("sweep", "angles_deg", "floats", (0.0, 10.0, 20.0, 40.0), *_ANGLE)
    energies_kev: tuple = _key(
        "sweep", "energies_kev", "floats", (5.0, 10.0, 20.0, 30.0), _POSITIVE
    )
    replicates: int = _key("sweep", "replicates", "int", 30, _at_least(1))
    position_stride: int = _key("sweep", "position_stride", "int", 1, _at_least(1))
    epsilon: float = _key("criteria", "epsilon", "float", 0.02, _POSITIVE)
    position_margin_bits: float = _key(
        "criteria", "position_margin_bits", "float", 1.0, _at_least(0)
    )
    out_csv: str | None = _key("output", "csv", "text", None)

    def __post_init__(self):
        table = self.mu_table or load_mu_table(default_mu_table_path())
        object.__setattr__(self, "mu_table", tuple((float(e), float(m)) for e, m in table))
        energies = sorted(energy for energy, _ in self.mu_table)
        twice = [e for e, next_e in zip(energies, energies[1:]) if e == next_e]
        if twice:
            raise ConfigError(f"[optics] mu_table: {twice[0]:g} keV is given twice")
        for f in fields(self):
            section, key, parse, bound = f.metadata["ini"]
            if parse in ("floats", "floats_inf"):
                object.__setattr__(self, f.name, tuple(getattr(self, f.name)))
            if getattr(self, f.name) is not None or f.default is not None:
                _check(getattr(self, f.name), bound, f"[{section}] {key}")
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


# Per [section] key, in field order: the field it sets, how its text parses
# and its bound.
_KEYS = {
    (section, key): (f.name, parse, bound)
    for f in fields(ExperimentConfig)
    for section, key, parse, bound in [f.metadata["ini"]]
}
# Sections a file may hold. [recover] has no key left; an old file's key
# there is named as an unknown key, not its section as an unknown section.
_SECTIONS = {section for section, _ in _KEYS} | {"recover"}


def default_mu_table_path() -> Path:
    return Path(str(resources.files("codedscan").joinpath("data/au_mu_table.cfg")))


def _read_ini(path: Path, what: str, where: str) -> configparser.ConfigParser:
    """The INI file at ``path``, every value read exactly as written: ``%``
    has no special meaning. There is no default section, since no section
    header is empty, so ``[DEFAULT]`` reads as a section like any other: its
    keys are not copied into every section. A missing file raises a
    ConfigError naming ``what``, a malformed one a ConfigError prefixed
    ``where``."""
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#",), default_section="", interpolation=None
    )
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return parser


def load_mu_table(path) -> tuple:
    """Read an energy -> attenuation table: [attenuation] section, keV = 1/um."""
    path = Path(path)
    where = f"attenuation table {path}"
    parser = _read_ini(path, "attenuation table", where)
    if not parser.has_section("attenuation"):
        raise ConfigError(f"{where}: missing [attenuation] section")
    entries = {}  # energy -> (key, mu)
    for key, raw in parser.items("attenuation"):
        try:
            energy, mu = float(key), float(raw)
        except ValueError:
            energy = mu = math.nan
        if not (math.isfinite(energy) and math.isfinite(mu)):
            raise ConfigError(f"{where}: bad entry {key!r} = {raw!r}")
        if mu < 0:
            raise ConfigError(f"{where}: negative mu at {key} keV")
        if energy in entries:
            raise ConfigError(
                f"{where}: keys {entries[energy][0]!r} and {key!r} are both {energy:g} keV"
            )
        entries[energy] = (key, mu)
    if not entries:
        raise ConfigError(f"{where}: no entries")
    return tuple(sorted((energy, mu) for energy, (_, mu) in entries.items()))


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
    parser = _read_ini(path, "config file", str(path))
    given = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"[{section}]: unknown section")
        for key, text in parser.items(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"[{section}] {key}: unknown key")
            name, parse, _ = _KEYS[section, key]
            if parse == "path":
                if not text.strip():
                    raise ConfigError(f"[{section}] {key}: empty value")
                given[name] = load_mu_table(path.parent / text.strip())
                continue
            try:
                given[name] = _parse(text.strip(), parse)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
    return ExperimentConfig(**given)
