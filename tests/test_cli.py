import pytest

from entropic_uncertainty.cli import main, parse_config_text, preset_rows
from entropic_uncertainty.sweep import MAX_GRID_ROWS, ConfigError, render_csv

GOOD_CONFIG = """\
# damping sweep over the full noise range
channel = AD
c1 = -0.5
c2 = 0.4
c3 = 0.8
param_start = 0
param_stop = 1
param_points = 5
outputs = u, berta
"""


def test_parse_config_text_roundtrip():
    cfg = parse_config_text(GOOD_CONFIG)
    assert cfg.channel == "AD"
    assert cfg.param_points == 5
    assert cfg.outputs == ("u", "berta")


def test_parse_config_collects_all_problems():
    bad = "channel = XX\nc1 = wat\nparam_points = 1\nmystery = 3\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    text = str(err.value)
    assert "mystery" in text
    assert "c1" in text


def test_parse_config_steering_list():
    cfg = parse_config_text(
        GOOD_CONFIG + "steering_kind = weak\nsteering_strengths = 0, 0.4, 0.8\n"
    )
    assert cfg.steering_strengths == (0.0, 0.4, 0.8)


def test_sweep_command_writes_csv(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(GOOD_CONFIG)
    out_path = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "channel,param,C1,C2,C3,u,berta"
    assert len(lines) == 6


def test_sweep_command_bad_config_exit_2(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("channel = AD\nc1 = 2\nc2 = 0\nc3 = 0\n")
    assert main(["sweep", "--config", str(cfg_path)]) == 2


def test_sweep_command_missing_config_exit_4(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 4


def test_sweep_command_unwritable_out_exit_4(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(GOOD_CONFIG)
    missing_dir = tmp_path / "no" / "such" / "dir" / "o.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(missing_dir)]) == 4
    assert str(missing_dir) in capsys.readouterr().err


def test_sweep_config_singular_steering_key_is_unknown(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(GOOD_CONFIG + "steering_kind = weak\nsteering_strength = 0.4\n")
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert "unknown key 'steering_strength'" in capsys.readouterr().err


def test_witness_command(capsys):
    code = main(["witness", "--channel", "AD", "--c1", "-1", "--c2", "1", "--c3", "1"])
    out = capsys.readouterr().out
    assert code == 0
    value = float(out.split("critical_value=")[1].splitlines()[0])
    assert abs(value - 0.4058) < 0.005
    assert "window=[0, " in out


def test_witness_command_no_threshold_exit_3(capsys):
    code = main(["witness", "--channel", "AD", "--c1", "0", "--c2", "0", "--c3", "0"])
    assert code == 3
    assert "no threshold" in capsys.readouterr().err


def test_capacity_command(tmp_path):
    out_path = tmp_path / "cap.csv"
    code = main(
        ["capacity", "--channel", "BPF", "--points", "11", "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "param,capacity"
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(2.0, abs=1e-9)


def test_errata_command(capsys):
    assert main(["errata", "--channel", "BPF", "--points", "5"]) == 0
    out = capsys.readouterr().out
    assert "closed-form cross-check report" in out


def test_preset_names_and_shapes():
    rows = preset_rows("fig1")
    assert len(rows) == 101
    header = render_csv(rows).splitlines()[0]
    assert header == "channel,param,C1,C2,C3,u,berta,pati,adabi"
    rows5 = preset_rows("fig5")
    assert {row.channel for row in rows5} == {"AD", "BPF"}
    assert len(rows5) == 2 * 3 * 101
    with pytest.raises(ConfigError):
        preset_rows("fig9")


def test_preset_command_stdout(capsys):
    assert main(["preset", "fig1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "channel,param,C1,C2,C3,u,berta,pati,adabi"


UNPHYSICAL = ["--c1", "0.9", "--c2", "0.9", "--c3", "0.9"]


def test_unphysical_witness_coeffs_exit_2(capsys):
    code = main(["witness", "--channel", "AD"] + UNPHYSICAL)
    assert code == 2
    assert "unphysical" in capsys.readouterr().err


def test_unphysical_coeffs_listed_with_capacity_points_exit_2(capsys):
    too_many = str(MAX_GRID_ROWS + 1)
    assert main(["capacity", "--channel", "AD"] + UNPHYSICAL + ["--points", too_many]) == 2
    err = capsys.readouterr().err
    assert "unphysical Bell-diagonal coefficients: (1 - c1 - c2 - c3)/4" in err
    assert f"--points {too_many} outside [2, {MAX_GRID_ROWS}]" in err


def test_unphysical_coeffs_listed_with_witness_strength_exit_2(capsys):
    assert main(["witness", "--channel", "BPF"] + UNPHYSICAL + ["--s", "2"]) == 2
    err = capsys.readouterr().err
    assert "unphysical Bell-diagonal coefficients: (1 - c1 - c2 - c3)/4" in err
    assert "--s 2.0 outside [0, 1)" in err


def test_coeff_out_of_range_flag_named_exit_2(capsys):
    assert main(["errata", "--channel", "AD", "--c1", "1.5", "--c3=-inf"]) == 2
    err = capsys.readouterr().err
    assert "--c1 = 1.5 outside [-1, 1]" in err
    assert err.count("--c3 = -inf is not finite") == 1
    assert "--c2" not in err and "unphysical" not in err


@pytest.mark.parametrize(
    "argv, problems",
    [
        (["witness", "--channel", "AD", "--c1", "-0.9", "--c2", "0.9", "--c3", "-inf",
          "--s", "2"], ["--c3 = -inf is not finite", "--s 2.0 outside [0, 1)"]),
        (["capacity", "--channel", "BPF", "--c3", "-inf", "--points", "1"],
         ["--c3 = -inf is not finite", "--points 1 outside [2, 1000000]"]),
        (["errata", "--channel", "AD", "--c3", "-inf", "--c1", "-nan"],
         ["--c3 = -inf is not finite", "--c1 = nan is not finite"]),
        (["capacity", "--channel", "AD", "--lambda", "-1e-3", "--c3", "-inf"],
         ["--c3 = -inf is not finite", "--lambda -0.001 must be positive"]),
    ],
)
def test_negative_values_as_separate_arguments_exit_2(capsys, argv, problems):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "expected one argument" not in err
    for problem in problems:
        assert problem in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_capacity_nonfinite_lambda_exit_2(capsys, value):
    assert main(["capacity", "--channel", "AD", "--lambda", value]) == 2
    assert f"--lambda = {value} is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_witness_nonfinite_flags_all_listed_exit_2(capsys, value):
    argv = ["witness", "--channel", "BPF", "--c1", value, "--c2", "1", "--c3", value]
    assert main(argv + ["--s", value]) == 2
    err = capsys.readouterr().err
    for flag in ("--c1", "--c3", "--s"):
        assert f"{flag} = {value} is not finite" in err
    assert "--c2" not in err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_sweep_nonfinite_rate_lambda_exit_2(tmp_path, capsys, value):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(GOOD_CONFIG.replace("param_stop = 1", "param_stop = 10")
                        + f"rate_lambda = {value}\n")
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    assert "rate_lambda" in capsys.readouterr().err


def test_sweep_every_nonfinite_float_key_listed(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(
        "channel = AD\nc1 = nan\nc2 = inf\nc3 = -inf\nparam_start = nan\n"
        "param_stop = inf\nrate_lambda = nan\n"
        "steering_kind = weak\nsteering_strengths = 0.2, inf\n"
    )
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    for key in ("c1", "c2", "c3", "param_start", "param_stop", "rate_lambda",
                "steering strength"):
        assert f"  - {key} = " in err
    assert err.count("is not finite") == 7


def test_grid_limits_exit_2_with_every_problem(tmp_path, capsys):
    too_many = str(MAX_GRID_ROWS + 1)
    assert main(["capacity", "--channel", "BPF", "--lambda", "-1", "--points", too_many]) == 2
    err = capsys.readouterr().err
    assert f"--points {too_many} outside [2, {MAX_GRID_ROWS}]" in err
    assert "--lambda -1.0 must be positive" in err
    assert "--lambda only applies to the AD channel" in err
    assert main(["capacity", "--channel", "AD", "--points", "1"]) == 2
    assert f"--points 1 outside [2, {MAX_GRID_ROWS}]" in capsys.readouterr().err
    assert main(["errata", "--channel", "AD", "--points", too_many]) == 2
    assert f"--points {too_many} outside [1, {MAX_GRID_ROWS}]" in capsys.readouterr().err
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(
        GOOD_CONFIG.replace("param_points = 5", f"param_points = {MAX_GRID_ROWS // 4 + 1}")
        + "steering_kind = weak\nsteering_strengths = 0, 0.2, 0.4, 1.5\n"
    )
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"grid of {4 * (MAX_GRID_ROWS // 4 + 1)} rows exceeds the limit" in err
    assert "weak strength 1.5 outside [0, 1)" in err


@pytest.mark.parametrize("edit, problems", [
    (("param_points = 5", "param_points = 1\nsteering_kind = filtr"),
     ["param_points = 1 < 2", "steering_kind 'filtr' not one of ('filter', 'weak')"]),
    (("outputs = u, berta", "outputs = u, berta, u, bogus"),
     ["output tag 'u' given 2 times", "unknown output tag 'bogus'"]),
])
def test_sweep_config_problem_listed_with_another_exit_2(tmp_path, capsys, edit, problems):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(GOOD_CONFIG.replace(*edit))
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    for problem in problems:
        assert f"  - {problem}\n" in err
