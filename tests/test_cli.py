import hashlib

import pytest

from entropic_uncertainty.cli import (
    PRESETS,
    _field_reader,
    build_parser,
    main,
    parse_config_text,
    preset_rows,
)
from entropic_uncertainty.sweep import MAX_GRID_ROWS, ConfigError, SweepConfig, render_csv

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


def test_parse_config_reads_every_field_by_its_type():
    cfg = SweepConfig("AD", -0.5, 0.4, 0.8, 0.25, 7.5, 12, "weak", (0.0, 0.4), 0.3,
                      ("u", "witness"))
    text = "".join(
        f"{name} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}\n"
        for name, v in vars(cfg).items()
    )
    assert parse_config_text(text) == cfg
    # unset keys take SweepConfig's defaults, which are fig1's grid
    assert parse_config_text("channel = AD\nc1 = -0.5\nc2 = 0.4\nc3 = 0.8\n") == PRESETS["fig1"][0]


@pytest.mark.parametrize("hint", [bool, complex, complex | None, tuple[int, ...], list[float]])
def test_field_type_without_a_reader_fails_loudly(hint):
    # a SweepConfig field of such a type fails the import of the cli module
    with pytest.raises(KeyError):
        _field_reader(hint)


def test_parse_config_lists_problems_in_file_order_then_missing_keys():
    text = "c1 = wat\nsteering_strengths = 0.2, x\nmystery = 3\nrate_lambda = q\nnoeq\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(text, source="f.cfg")
    assert err.value.problems == (
        "f.cfg:1: key 'c1' = 'wat' is not a number",
        "f.cfg:2: key 'steering_strengths' = '0.2, x' is not a list of numbers",
        "f.cfg:3: unknown key 'mystery'",
        "f.cfg:4: key 'rate_lambda' = 'q' is not a number",
        "f.cfg:5: expected 'key = value', got 'noeq'",
        "f.cfg: missing required key 'channel'",
        "f.cfg: missing required key 'c2'",
        "f.cfg: missing required key 'c3'",
    )


def test_sweep_config_not_utf8_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_bytes(b"channel = AD\nc1 = -0.5\xff\n")
    assert main(["sweep", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg_path}: not UTF-8 text" in err
    assert "numeric failure" not in err


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


WITNESS = ["witness", "--c1", "-1", "--c2", "1", "--c3", "1"]


# exact stdout of outputs that no golden covers
@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (WITNESS + ["--channel", "AD"],
         "channel=AD\nparameter=d\ncritical_value=0.405237\nsteering_s=0\n"
         "window=[0, 0.405237)\n"),
        (WITNESS + ["--channel", "BPF", "--s", "0.4"],
         "channel=BPF\nparameter=p\ncritical_value=0.106384\nsteering_s=0.4\n"
         "window=[0, 0.106384) U (0.893616, 1]\n"),
        # U(d = 1) is 1 - 4e-16 here: the solve ends where bounds.witnessed stops firing
        (WITNESS + ["--channel", "AD", "--s", "0.999999"],
         "channel=AD\nparameter=d\ncritical_value=0.999832\nsteering_s=0.999999\n"
         "window=[0, 0.999832)\n"),
        # printed with the CSV's 12 digits: 6 would round the accepted strength to 1
        (WITNESS + ["--channel", "AD", "--s", "0.99999999"],
         "channel=AD\nparameter=d\ncritical_value=0.994342\nsteering_s=0.99999999\n"
         "window=[0, 0.994342)\n"),
        # with AD-s0.999999 and AD-s0.99999999, the `eur witness` column of ROADMAP's s -> 1
        # table: the threshold rises with s, then falls once the witness tolerance sets it
        (WITNESS + ["--channel", "AD", "--s", "0.99"],
         "channel=AD\nparameter=d\ncritical_value=0.974686\nsteering_s=0.99\n"
         "window=[0, 0.974686)\n"),
        (WITNESS + ["--channel", "AD", "--s", "0.9999"],
         "channel=AD\nparameter=d\ncritical_value=0.999722\nsteering_s=0.9999\n"
         "window=[0, 0.999722)\n"),
        (WITNESS + ["--channel", "AD", "--s", "0.999999999"],
         "channel=AD\nparameter=d\ncritical_value=0.958220\nsteering_s=0.999999999\n"
         "window=[0, 0.958220)\n"),
        # an unsteered BPF solve: the window is mirrored about p = 1/2 as for s = 0.4
        (WITNESS + ["--channel", "BPF", "--s", "0"],
         "channel=BPF\nparameter=p\ncritical_value=0.110028\nsteering_s=0\n"
         "window=[0, 0.110028) U (0.889972, 1]\n"),
    ],
    ids=["AD", "BPF-s0.4", "AD-s0.999999", "AD-s0.99999999", "AD-s0.99", "AD-s0.9999",
         "AD-s0.999999999", "BPF-s0"],
)
def test_witness_stdout_is_pinned(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    ("argv", "sha256"),
    [
        (["capacity", "--channel", "AD", "--lambda", "0.3"],
         "01a65db9f6123ea25eafe13d2555ab2b2032719e54ab80b2e8fee051855bfda3"),
        (["capacity", "--channel", "BPF", "--c1", "0.3", "--c2", "-0.2", "--c3", "0.5"],
         "ef4db0985266ab8521711533c95d6fe8020f10f8c6bee1f74ed5ce529d685908"),
    ],
    ids=["AD-lambda", "BPF"],
)
def test_capacity_stdout_sha256_is_pinned(capsys, argv, sha256):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    ("channel", "sha256"),
    [
        ("AD", "313af27bae15b79c5c26f64134834c2d45fa6830bc78328550d34902abf90f37"),
        ("BPF", "0cf0c6519ea4acb326b8033366d0d09816d1cf69917b9969355532ae1231ee09"),
        # (1, 1, -1) starts with |a23| = sqrt(d22*d33) exactly, on the edge of positivity
        ("AD --c1 1 --c2 1 --c3 -1",
         "8e8dbaf1ac6280d0a3519e34f9c61548a190b5651736f072f5fe26b5793f81bc"),
        ("BPF --c1 1 --c2 1 --c3 -1",
         "f9284f1658913119be7df1170598b1126950a0e0392b2ddab61926e51db8c554"),
    ],
    ids=["AD", "BPF", "AD-edge", "BPF-edge"],  # named, so a moved pin keeps its id
)
def test_errata_stdout_sha256_is_pinned(capsys, channel, sha256):
    # the channel, then any coefficient flags (else the defaults); 101 points
    assert main(["errata", "--channel", *channel.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


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


# the whole stderr of one multi-problem run per command: every problem, in check order
@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (["witness", "--channel", "AD", "--c1", "2", "--c2", "nan", "--c3", "1", "--s", "1"],
         "invalid witness flags:\n"
         "  - --c1 = 2.0 outside [-1, 1]\n"
         "  - --c2 = nan is not finite\n"
         "  - --s 1.0 outside [0, 1)\n"),
        (["capacity", "--channel", "BPF", "--c3", "-inf", "--lambda", "-1", "--points", "1"],
         "invalid capacity flags:\n"
         "  - --c3 = -inf is not finite\n"
         "  - --points 1 outside [2, 1000000]\n"
         "  - --lambda -1.0 must be positive\n"
         "  - --lambda only applies to the AD channel\n"),
        (["errata", "--channel", "AD", "--c1", "1.5", "--points", "0"],
         "invalid errata flags:\n"
         "  - --c1 = 1.5 outside [-1, 1]\n"
         "  - --points 0 outside [1, 1000000]\n"),
    ],
    ids=["witness", "capacity", "errata"],
)
def test_flag_problems_stderr_is_pinned(capsys, argv, expected):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", expected)


@pytest.mark.parametrize("command", ["witness", "capacity", "errata"])
def test_flag_problems_are_headed_by_their_command(capsys, command):
    # no sweep is involved, so the heading names the command's flags
    assert main([command, "--channel", "AD", "--c1", "2", "--c2", "0", "--c3", "0"]) == 2
    assert capsys.readouterr().err == f"invalid {command} flags:\n  - --c1 = 2.0 outside [-1, 1]\n"


def test_each_command_takes_the_same_option_strings(capsys):
    # the whole command-line surface: a new flag, or --out on witness, changes this table
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    options = {
        name: [action.option_strings or [action.dest] for action in parser._actions]
        for name, parser in sub.choices.items()
    }
    shared = [["--channel"], ["--c1"], ["--c2"], ["--c3"]]
    assert options == {
        "sweep": [["-h", "--help"], ["--config"], ["--out"]],
        "preset": [["-h", "--help"], ["name"], ["--out"]],
        "witness": [["-h", "--help"], *shared, ["--s"]],
        "capacity": [["-h", "--help"], *shared, ["--lambda"], ["--points"], ["--out"]],
        "errata": [["-h", "--help"], *shared, ["--points"], ["--out"]],
    }
    with pytest.raises(SystemExit) as exit_:
        main(["witness", "--channel", "AD", "--c1", "-1", "--c2", "1", "--c3", "1", "--out", "w"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --out w" in capsys.readouterr().err


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
