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
    # every series gets one position search and one shape solve
    with pytest.raises(ConfigError, match=r"^\[recover\] max_rounds: unknown key$"):
        load_config(write(tmp_path, "[recover]\nmax_rounds = 3\n"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["pattern", "--config", str(tmp_path / "exp.cfg")]) == 2
    assert err.getvalue() == "error: [recover] max_rounds: unknown key\n"
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


def test_readme_config_example_names_every_key_under_its_section():
    # a key added to a field must be documented, commented out or not
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
    named, section = [], None
    for line in block.splitlines():
        if header := re.fullmatch(r"\[(\w+)\]", line):
            section = header[1]
        elif entry := re.match(r"#?\s*(\w+)\s*=", line):
            named.append((section, entry[1]))
    assert sorted(named) == sorted(_KEYS)


def test_type_errors_carry_section_and_key(tmp_path):
    with pytest.raises(ConfigError, match=r"\[scan\] grid_step_um: not a number"):
        load_config(write(tmp_path, "[scan]\ngrid_step_um = fast\n"))
    with pytest.raises(ConfigError, match=r"\[scan\] seed: not an integer"):
        load_config(write(tmp_path, "[scan]\nseed = 1.5\n"))
    with pytest.raises(ConfigError, match=r"\[scan\] noise_levels: not a number"):
        load_config(write(tmp_path, "[scan]\nnoise_levels = 10, soft\n"))


def test_percent_is_read_as_written_and_malformed_files_are_config_errors(tmp_path):
    # '%' has no special meaning: values are read exactly as written
    assert load_config(write(tmp_path, "[output]\ncsv = run%.csv\n")).out_csv == "run%.csv"
    write(tmp_path, "[attenuation]\n10 = 0.2%\n", name="mu.cfg")
    with pytest.raises(ConfigError, match=r"attenuation table .*mu.cfg: bad entry '10' = '0.2%'"):
        load_config(write(tmp_path, "[optics]\nmu_table = mu.cfg\n"))
    # a file the INI reader refuses is a ConfigError prefixed with the file
    for text, words in [
        ("{key} = 0.2\n[{section}]\n", "contains no section headers"),
        ("[{section}]\n{key} = 0.2\n{key} = 0.3\n", "already exists"),
        ("[{section}]\n{key} = 0.2\nbare text\n", "contains parsing errors"),
    ]:
        config = write(tmp_path, text.format(section="optics", key="mu_per_um"))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(config))}: .*{words}"):
            load_config(config)
        table = write(tmp_path, text.format(section="attenuation", key="10"), name="mu.cfg")
        with pytest.raises(ConfigError, match=f"^attenuation table {re.escape(str(table))}: "
                                              f".*{words}"):
            load_mu_table(table)


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


def test_empty_mu_table_value_is_named_and_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "[optics]\nmu_table =\n")
    with pytest.raises(ConfigError, match=r"^\[optics\] mu_table: empty value$"):
        load_config(cfg)
    assert main(["pattern", "3", "--config", str(cfg)]) == 2
    assert "[optics] mu_table: empty value" in capsys.readouterr().err


def test_one_energy_spelled_twice_in_a_mu_table_is_refused(tmp_path, capsys):
    # configparser sees three keys; all three are 10 keV
    table = write(tmp_path, "[attenuation]\n10 = 0.2\n10.0 = 0.3\n1e1 = 0.1\n", name="mu.cfg")
    clash = f"attenuation table {table}: keys '10' and '10.0' are both 10 keV"
    with pytest.raises(ConfigError, match=re.escape(clash)):
        load_mu_table(table)
    cfg = write(tmp_path, "[optics]\nmu_table = mu.cfg\nenergy_kev = 10\n")
    assert main(["pattern", "3", "--config", str(cfg)]) == 2
    assert "keys '10' and '10.0' are both 10 keV" in capsys.readouterr().err


def test_one_energy_given_twice_in_code_is_refused():
    # A table built in code is checked as a file's is: dict(mu_table) would
    # keep only the last entry for 10 keV and read 0.3 silently.
    with pytest.raises(ConfigError, match=r"^\[optics\] mu_table: 10 keV is given twice$"):
        ExperimentConfig(mu_table=((10.0, 0.2), (10.0, 0.3)), energy_kev=10.0)
    with pytest.raises(ConfigError, match="30 keV is given twice"):
        ExperimentConfig(mu_table=((30, 0.1), (10.0, 0.2), (30.0, 0.1)))
    assert ExperimentConfig(mu_table=((10.0, 0.2), (30.0, 0.1))).mu_at(30.0) == 0.1


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


_INI_SECTIONS = sorted({section for section, _ in _KEYS} | {"DEFAULT", "recover", "detector"})
_INI_KEYS = sorted({key for _, key in _KEYS} | {"sped", "bsr", "nnls_tol"})
# "\u0661" is ARABIC-INDIC DIGIT ONE, which int() and float() read as 1
_INI_VALUES = ["%", "%(seed)s", "nan", "1e400", "\u0661", "inf", "-1", "0", "1", "2.5",
               "10, 100", "", "gaussian", "bsr", "run.csv"]


@st.composite
def ini_texts(draw):
    """Config text: known and unknown sections and keys, lines before any
    section, odd values, and now and then a continuation line or bare text."""
    values = st.sampled_from(_INI_VALUES)
    lines = []
    for section in draw(st.lists(st.sampled_from([None, *_INI_SECTIONS]), max_size=4,
                                 unique=True)):
        if section is not None:
            lines.append(f"[{section}]")
        known = [key for where, key in _KEYS if where == section]
        keys = st.sampled_from(_INI_KEYS)
        for key in draw(st.lists(st.sampled_from(known) | keys if known else keys, max_size=4,
                                 unique=True)):
            lines.append(f"{key} = {draw(values)}")
            extra = draw(st.sampled_from([None] * 6 + ["continuation", "bare"]))
            if extra is not None:
                lines.append(f"    {draw(values)}" if extra == "continuation" else draw(values))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(ini_texts())
def test_no_config_text_escapes_as_a_traceback(text):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "exp.cfg"
        path.write_text(text, encoding="utf-8")
        # main turns ValueError and OSError into exit codes; anything else
        # would escape here as a traceback
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["pattern", "--config", str(path)]) in (0, 2)


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
