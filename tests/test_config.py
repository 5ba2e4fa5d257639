"""Experiment-file parsing, validation diagnostics, and defaults."""

import contextlib
import io
import math
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from codedscan.cli import main
from codedscan.config import (
    _KEYS,
    ConfigError,
    ExperimentConfig,
    default_mu_table_path,
    load_config,
    load_mu_table,
)


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_empty_file_resolves_to_defaults(tmp_path):
    cfg = load_config(write(tmp_path, ""))
    assert cfg.pattern_order == 8
    assert cfg.bit_size_zero_um == 10.0
    assert cfg.signal_width_um == 10.0
    assert cfg.noise_levels == (10.0, 100.0)
    assert cfg.sweep_kind == "bsr"
    assert cfg.replicates == 30
    assert cfg.out_csv is None


def test_bundled_attenuation_table_matches_harness_default():
    bundled = load_mu_table(default_mu_table_path())
    assert ExperimentConfig().mu_table == bundled
    assert dict(bundled)[10.0] == 0.219


def test_full_file_round_trip(tmp_path):
    cfg = load_config(write(tmp_path, """
[aperture]
pattern_order = 6
bit_size_zero_um = 15.0
bit_size_one_um = 7.5
thickness_um = 20.0

[optics]
mu_per_um = 0.3
energy_kev = 20
incidence_angle_deg = 16.7

[signal]
width_um = 12.0
template = boxcar

[scan]
grid_step_um = 0.5
scan_bits = 10
noise_levels = 20, 200   # peak photon counts
seed = 42
oversample = 8

[sweep]
kind = aspect
aspect_values = 1, 2
angles_deg = 0, 16.7
replicates = 7
position_stride = 3

[criteria]
epsilon = 0.05
position_margin_bits = 2

[recover]
max_rounds = 5

[output]
csv = results.csv
"""))
    assert cfg.pattern_order == 6
    assert (cfg.bit_size_zero_um, cfg.bit_size_one_um) == (15.0, 7.5)
    assert cfg.mu_per_um == 0.3
    assert cfg.incidence_angle_deg == 16.7
    assert cfg.template == "boxcar"
    assert cfg.noise_levels == (20.0, 200.0)
    assert cfg.sweep_kind == "aspect"
    assert cfg.aspect_values == (1.0, 2.0)
    assert cfg.angles_deg == (0.0, 16.7)
    assert cfg.replicates == 7
    assert cfg.epsilon == 0.05
    assert cfg.max_rounds == 5
    assert cfg.out_csv == "results.csv"


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.cfg")


def test_unknown_section_and_key_are_named(tmp_path):
    with pytest.raises(ConfigError, match=r"\[detector\]"):
        load_config(write(tmp_path, "[detector]\ngain = 2\n"))
    with pytest.raises(ConfigError, match=r"\[scan\] sped"):
        load_config(write(tmp_path, "[scan]\nsped = 1\n"))
    # retired keys: the NNLS tolerance is a solver constant, and --svg
    # always names its plots after the CSV
    with pytest.raises(ConfigError, match=r"\[recover\] nnls_tol: unknown key"):
        load_config(write(tmp_path, "[recover]\nnnls_tol = 1e-9\n"))
    with pytest.raises(ConfigError, match=r"\[output\] svg_prefix: unknown key"):
        load_config(write(tmp_path, "[output]\nsvg_prefix = plots/run\n"))
    # every series is fitted as unit-peak counts
    with pytest.raises(ConfigError, match=r"\[scan\] normalization: unknown key"):
        load_config(write(tmp_path, "[scan]\nnormalization = minmax\n"))
    # non-bsr sweeps take their bit from [aperture]
    with pytest.raises(ConfigError, match=r"\[sweep\] bsr: unknown key"):
        load_config(write(tmp_path, "[sweep]\nbsr = 0.5\n"))


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nseed = 5\n[scan]\nseed = 1\n",  # configparser would read the seed into [scan]
    "[DEFAULT]\nseed = 5\n",  # ... and ignore it here
    "[DEFAULT]\nseed = 5\n[aperture]\nthickness_um = 3\n",  # ... and blame [aperture] here
])
def test_default_section_is_an_unknown_section(tmp_path, text):
    with pytest.raises(ConfigError, match=r"^\[DEFAULT\]: unknown section$"):
        load_config(write(tmp_path, text))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["pattern", "--config", str(tmp_path / "exp.cfg")]) == 2
    assert err.getvalue() == "error: [DEFAULT]: unknown section\n"


def test_readme_config_example_loads_to_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
    assert load_config(write(tmp_path, block)) == ExperimentConfig()


def test_type_errors_carry_section_and_key(tmp_path):
    with pytest.raises(ConfigError, match=r"\[scan\] grid_step_um: not a number"):
        load_config(write(tmp_path, "[scan]\ngrid_step_um = fast\n"))
    with pytest.raises(ConfigError, match=r"\[scan\] seed: not an integer"):
        load_config(write(tmp_path, "[scan]\nseed = 1.5\n"))
    with pytest.raises(ConfigError, match=r"\[scan\] noise_levels: not a number"):
        load_config(write(tmp_path, "[scan]\nnoise_levels = 10, soft\n"))


def test_bad_interpolation_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="exp.cfg: '%' must be followed by"):
        load_config(write(tmp_path, "[output]\ncsv = run%.csv\n"))
    write(tmp_path, "[attenuation]\n10 = 0.2%\n", name="mu.cfg")
    with pytest.raises(ConfigError, match="attenuation table .*mu.cfg: '%' must be followed by"):
        load_config(write(tmp_path, "[optics]\nmu_table = mu.cfg\n"))


def test_choice_and_range_validation(tmp_path):
    with pytest.raises(ConfigError, match=r"\[sweep\] kind"):
        load_config(write(tmp_path, "[sweep]\nkind = resolution\n"))
    with pytest.raises(ConfigError, match=r"\[signal\] template"):
        load_config(write(tmp_path, "[signal]\ntemplate = sinc\n"))
    with pytest.raises(ConfigError, match=r"\[signal\] width_um: must be positive"):
        load_config(write(tmp_path, "[signal]\nwidth_um = -3\n"))
    with pytest.raises(ConfigError, match=r"\[sweep\] replicates: must be >= 1"):
        load_config(write(tmp_path, "[sweep]\nreplicates = 0\n"))
    with pytest.raises(ConfigError, match=r"\[scan\] noise_levels: all values must be positive"):
        load_config(write(tmp_path, "[scan]\nnoise_levels = 10, 0\n"))
    with pytest.raises(ConfigError, match=r"\[scan\] scan_bits: must be >= 1"):
        load_config(write(tmp_path, "[scan]\nscan_bits = 0.5\n"))


@pytest.mark.parametrize("section, key, value", [
    ("sweep", "bsr_values", "1, inf"),
    ("sweep", "energies_kev", "nan"),
    ("signal", "width_um", "inf"),
    ("optics", "incidence_angle_deg", "nan"),
    ("aperture", "thickness_um", "-inf"),
    ("scan", "noise_levels", "10, nan"),
])
def test_non_finite_numbers_are_rejected(tmp_path, section, key, value):
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: must be finite"):
        load_config(write(tmp_path, f"[{section}]\n{key} = {value}\n"))


def test_missing_mu_table_path_names_the_file(tmp_path):
    with pytest.raises(ConfigError, match="mu_missing.cfg"):
        load_config(write(tmp_path, "[optics]\nmu_table = mu_missing.cfg\n"))


def test_custom_mu_table_resolved_relative_to_config(tmp_path):
    write(tmp_path, "[attenuation]\n8.0 = 0.5\n4.0 = 1.25\n", name="mu.cfg")
    cfg = load_config(write(tmp_path, "[optics]\nmu_table = mu.cfg\nenergy_kev = 8\n"))
    assert cfg.mu_table == ((4.0, 1.25), (8.0, 0.5))  # sorted by energy
    assert cfg.optics().mu_per_um == 0.5


def test_mu_table_default_section_adds_no_entry(tmp_path):
    # configparser would copy 50 = 0.1 into [attenuation]
    table = write(tmp_path, "[DEFAULT]\n50 = 0.1\n[attenuation]\n10 = 0.2\n", name="mu.cfg")
    assert load_mu_table(table) == ((10.0, 0.2),)


def test_mu_table_validation(tmp_path):
    bad_entry = write(tmp_path, "[attenuation]\nten = 0.2\n", name="a.cfg")
    with pytest.raises(ConfigError, match="bad entry"):
        load_mu_table(bad_entry)
    not_finite = write(tmp_path, "[attenuation]\n10 = inf\n", name="e.cfg")
    with pytest.raises(ConfigError, match="bad entry"):
        load_mu_table(not_finite)
    negative = write(tmp_path, "[attenuation]\n10 = -0.2\n", name="b.cfg")
    with pytest.raises(ConfigError, match="negative"):
        load_mu_table(negative)
    missing_section = write(tmp_path, "[mu]\n10 = 0.2\n", name="c.cfg")
    with pytest.raises(ConfigError, match=r"\[attenuation\]"):
        load_mu_table(missing_section)
    empty = write(tmp_path, "[attenuation]\n", name="d.cfg")
    with pytest.raises(ConfigError, match="no entries"):
        load_mu_table(empty)


def test_sweep_config_mapping_and_overrides(tmp_path):
    cfg = load_config(write(tmp_path, """
[sweep]
kind = scan_length
replicates = 9

[scan]
seed = 13
noise_levels = 25
"""))
    assert cfg.sweep_kind == "scan_length"
    assert cfg.replicates == 9
    assert cfg.seed == 13
    assert cfg.noise_levels == (25.0,)
    assert cfg.mu_table == load_mu_table(default_mu_table_path())
    # a run's overrides are a replaced copy; the loaded config is untouched
    quick = replace(cfg, noise_levels=(math.inf,), seed=99, replicates=5)
    assert (quick.noise_levels, quick.seed, quick.replicates) == ((math.inf,), 99, 5)
    assert (quick.sweep_kind, quick.mu_table) == (cfg.sweep_kind, cfg.mu_table)
    assert (cfg.seed, cfg.replicates) == (13, 9)
    with pytest.raises(ValueError, match="replicates"):
        replace(cfg, replicates=0)


def test_geometry_and_optics_accessors(tmp_path):
    cfg = load_config(write(tmp_path, """
[aperture]
bit_size_zero_um = 15.0
bit_size_one_um = 7.5

[optics]
energy_kev = 20
incidence_angle_deg = 2.7
"""))
    from codedscan import generate_de_bruijn

    geometry = cfg.geometry(generate_de_bruijn(8))
    assert geometry.bit_size_zero_um == 15.0
    assert geometry.bit_size_one_um == 7.5
    optics = cfg.optics()
    assert optics.mu_per_um == 0.152  # 20 keV entry of the bundled table
    assert optics.incidence_angle_deg == 2.7


@pytest.mark.parametrize("field, value, message", [
    ("incidence_angle_deg", 90.0, "[optics] incidence_angle_deg: must be < 90, got 90"),
    ("bit_size_one_um", 0.5, "below the grid step"),
    ("scan_bits", 0.5, "[scan] scan_bits: must be >= 1, got 0.5"),
    ("thickness_um", 0.0, "[aperture] thickness_um: must be positive, got 0"),
])
def test_replaced_configs_keep_the_range_checks(field, value, message):
    # Sweep cells are replaced copies, so the checks hold for each of them.
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(ExperimentConfig(), **{field: value})


def test_every_field_has_one_key():
    assert [name for name, _, _ in _KEYS.values()] == [f.name for f in fields(ExperimentConfig)]


@st.composite
def out_of_bounds_keys(draw):
    """``(section, key, text)``: one bounded key set to values that break its bound."""
    section, key = draw(st.sampled_from(sorted(where for where, entry in _KEYS.items()
                                               if entry[2])))
    _, parse, bound = _KEYS[section, key]
    if parse == "text":
        values = [draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True))]
    else:
        number = (st.integers(-10**9, 10**9) if parse == "int"
                  else st.floats(allow_nan=False, allow_infinity=False))
        listed = parse.startswith("floats")
        values = draw(st.lists(number, min_size=0 if listed else 1, max_size=4 if listed else 1))
    assume(not values or any(not holds(v) for _, holds in bound for v in values))
    return section, key, ", ".join(map(str, values))


@settings(max_examples=150, deadline=None)
@given(out_of_bounds_keys())
def test_a_value_out_of_bounds_exits_2_naming_its_key(case):
    section, key, text = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "exp.cfg"
        path.write_text(f"[{section}]\n{key} = {text}\n", encoding="utf-8")
        # main turns ValueError and OSError into exit codes; anything else
        # would escape here as a traceback
        with contextlib.redirect_stderr(err):
            assert main(["pattern", "--config", str(path)]) == 2
    assert err.getvalue().startswith(f"error: [{section}] {key}: ")


def test_optics_requires_a_known_energy(tmp_path):
    cfg = load_config(write(tmp_path, "[optics]\nenergy_kev = 7\n"))
    with pytest.raises(ConfigError, match="7 keV"):
        cfg.optics()


def test_echo_items_cover_every_field(tmp_path):
    cfg = load_config(write(tmp_path, "[scan]\nseed = 5\n"))
    items = dict(cfg.echo_items())
    assert len(items) == len(ExperimentConfig.__dataclass_fields__)
    assert items["seed"] == "5"
    assert items["mu_per_um"] == "None"
    assert items["noise_levels"] == "10, 100"
    assert "5=1.373" in items["mu_table"]
