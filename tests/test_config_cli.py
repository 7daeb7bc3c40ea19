import json
import os

import numpy as np
import pytest

from freqlab.cli import main
from freqlab.config import (ConfigError, RunConfig, parse_problem_spec,
                            parse_run_config)
from freqlab.fields import sample_grid2d, save_field
from freqlab.io import content_hash_of_dir

DEMO_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                            "configs")

MODEL_CONFIG = """
[domain]
dimension = 2
outer_radius = 1.0

[coefficients]
field = identity

[potential]
field = 0

[nonlinearity]
kind = homogeneous
q = 1.5
eps0 = 1.0
"""

VARIABLE_CONFIG = """
[domain]
dimension = 2
outer_radius = 0.8

[coefficients]
field = expr
a11 = 1 + x1^2/4
a12 = 0
a22 = 1
ellipticity = 0.7

[potential]
field = 0.25*cos(x2)

[nonlinearity]
kind = sum_of_powers
terms = 1.5: 2.0 | 1.0: 1 + 0.5*x1^2
eps0 = 1.0
kappa1 = 2.0
kappa2 = 0.4
"""


class TestProblemSpecConfig:
    def test_model_config(self):
        spec = parse_problem_spec(MODEL_CONFIG)
        assert spec.dim == 2 and spec.outer_radius == 1.0
        assert spec.is_model
        assert spec.nonlinearity.q == 1.5

    def test_variable_coefficient_config(self):
        spec = parse_problem_spec(VARIABLE_CONFIG)
        pts = np.array([[0.4, 0.1]])
        a = spec.coefficients.entries(pts)[0]
        assert a[0, 0] == pytest.approx(1 + 0.16 / 4)
        assert spec.V(pts)[0] == pytest.approx(0.25 * np.cos(0.1))
        assert spec.nonlinearity.kind == "sum_of_powers"
        assert spec.nonlinearity.q == 1.5

    def test_builtin_calls(self):
        spec = parse_problem_spec(MODEL_CONFIG.replace(
            "field = identity", "field = diagonal(4.0, 1.0)"))
        a = spec.coefficients.entries(np.zeros((1, 2)))[0]
        np.testing.assert_allclose(a, np.diag([4.0, 1.0]))
        spec = parse_problem_spec(MODEL_CONFIG.replace(
            "field = identity", "field = rotation_perturbed(0.2)"))
        assert spec.coefficients.kind == "rotation_perturbed"

    @pytest.mark.parametrize("mutate", [
        lambda t: t.replace("q = 1.5", "q = 2.5"),
        lambda t: t.replace("[domain]\ndimension = 2", "[domain]"),
        lambda t: t.replace("field = identity", "field = bogus"),
        lambda t: t.replace("kind = homogeneous", "kind = tabulated"),
    ])
    def test_rejects_bad_configs(self, mutate):
        with pytest.raises(ConfigError):
            parse_problem_spec(mutate(MODEL_CONFIG))


class TestRunConfig:
    def test_round_trip_default(self):
        # every default, written out as [run] text, parses back to itself
        text = """[run]
command = ode
dimension = 2
q = 1.5
outer_radius = 1.0
amplitude = 0.5
radial_step = 0.001
t0 = 0.0
t_max = 10.0
rings = 64
angles = 128
n_radii = 800
boundary = radial-trace
mode = radial
ode_task = counterexample
residual_gate = none
h_floor_rel = 1e-14
damping = 0.0
fp_tol = 1e-10
max_iters = 400
out_dir = freq-lab-out
field_file = none
config_path = none
"""
        assert parse_run_config(text) == RunConfig()
        assert parse_run_config("[run]\n") == RunConfig()

    def test_round_trip_modified(self):
        # typed ints and floats, none and strings, as a config file holds them
        cfg = parse_run_config("[run]\ncommand = audit\nq = 1.25\nrings = 96\n"
                               "residual_gate = none\nout_dir = somewhere\n"
                               "field_file = f.txt\nradial_step = 2.5e-4\n"
                               "t0 = 2\n")
        assert cfg == RunConfig(command="audit", q=1.25, rings=96,
                                residual_gate=None, out_dir="somewhere",
                                field_file="f.txt", radial_step=2.5e-4, t0=2.0)
        assert type(cfg.rings) is int and type(cfg.t0) is float

    @pytest.mark.parametrize("line", ["jobs = 3", "dampng = 0.9",
                                      "identity_tol_scale = 2"])
    def test_rejects_unknown_keys(self, line):
        with pytest.raises(ConfigError, match=repr(line.split(" = ")[0])):
            parse_run_config(f"[run]\ncommand = solve\n{line}\n")

    def test_cli_exits_2_on_unknown_key(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[run]\ndampng = 0.9\n")
        assert main(["solve", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
        assert "unknown [run] key 'dampng'" in capsys.readouterr().err

    def test_cli_exits_2_on_manufactured_key(self, tmp_path, capsys):
        # `solve --manufactured` is gone; its config key is unknown
        config = tmp_path / "run.ini"
        config.write_text("[run]\nmanufactured = true\n")
        assert main(["solve", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
        assert "unknown [run] key 'manufactured'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--manufactured", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_cli_exits_2_on_spec_file_key(self, tmp_path, capsys):
        # the problem is named by [domain] in --config; spec_file is gone
        spec = tmp_path / "model.ini"
        spec.write_text(MODEL_CONFIG)
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\nspec_file = {spec}\n")
        assert main(["check", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
        assert "unknown [run] key 'spec_file'" in capsys.readouterr().err

    def test_every_flag_sets_a_run_config_field(self):
        # _resolve copies flags onto RunConfig by field name, so a flag
        # stored under any other name would be dropped silently
        import argparse
        import dataclasses

        from freqlab.cli import _build_parser

        parser = _build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for sp in sub.choices.values() for a in sp._actions
                 if not isinstance(a, argparse._HelpAction)}
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        special = {"command", "config", "q"}
        assert dests - special <= fields
        assert {"out_dir", "field_file", "ode_task", "dimension"} <= dests

    def test_empty_out_dir_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv("FREQ_LAB_OUT", raising=False)
        assert main(["check", "--out", ""]) == 2
        assert "out_dir must not be empty" in capsys.readouterr().err

    @pytest.mark.parametrize("damping", ["1.0", "1.5", "-0.1", "nan", "none"])
    def test_cli_exits_2_on_damping_outside_0_1(self, tmp_path, capsys, damping):
        # at damping 1 every step is zero: the solve stopped after one
        # iteration on a zero interior, and audit certified it genuine
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\ndamping = {damping}\n")
        assert main(["solve", "--mode", "grid2d", "--boundary", "cos:0:0.3",
                     "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "damping must lie in [0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_cli_runs_undamped(self, tmp_path):
        # damping 0 is plain Picard, the solver's default
        config = tmp_path / "run.ini"
        config.write_text("[run]\ndamping = 0\n")
        out = tmp_path / "o"
        assert main(["solve", "--mode", "grid2d", "--rings", "16", "--angles",
                     "32", "--boundary", "cos:0:0.3", "--config", str(config),
                     "--out", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        assert record["summary"]["solver"]["damping"] == 0.0

    @pytest.mark.parametrize("key, value", [
        *((key, value) for key in ("radial_step", "outer_radius", "fp_tol",
                                   "h_floor_rel")
          for value in ("none", "nan", "inf", "-inf", "0")),
        *((key, value) for key in ("rings", "angles", "n_radii", "max_iters")
          for value in ("none", "0", "-3")),
        *((key, "none") for key in ("q", "amplitude", "t0", "t_max",
                                    "dimension")),
        # a NaN or non-positive gate vetoed every field (exit 5)
        *(("residual_gate", value) for value in ("nan", "0", "-1")),
        # seed and tol_d_rel are no longer [run] keys: any value is refused
        # as an unknown key, still with exit 2 and the key named
        ("seed", "none"),
        *(("tol_d_rel", value) for value in ("none", "nan", "inf", "-inf", "0")),
    ])
    def test_cli_exits_2_on_a_bad_numeric_value(self, tmp_path, capsys,
                                                   key, value):
        # `none` used to reach the solver as None (a TypeError, exit 1), and
        # fp_tol = nan ran max_iters iterations before exit 3
        run = {"rings": "16", "angles": "32", key: value}
        config = tmp_path / "run.ini"
        config.write_text("[run]\n" + "".join(f"{k} = {v}\n" for k, v in run.items()))
        assert main(["solve", "--mode", "grid2d", "--boundary", "cos:0:0.3",
                     "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_cli_exits_2_on_the_removed_keys(self, tmp_path, capsys):
        # seed and tol_d_rel set nothing a verdict reads: check samples with
        # default_rng(0), and the audit's d threshold is audit._TOL_D_REL
        config = tmp_path / "run.ini"
        for line in ("seed = 3", "tol_d_rel = 1e-8"):
            config.write_text(f"[run]\n{line}\n")
            assert main(["check", "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 2
            key = line.split(" = ")[0]
            assert f"unknown [run] key {key!r}" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--tol-d", "1e-8"],
                                      ["--samples-x", "-4"],
                                      ["--samples-s", "64"]])
    def test_removed_flags_exit_2(self, tmp_path, capsys, flag):
        # `check --samples-x -4` exited 1 with a TypeError traceback
        command = ["audit", str(tmp_path / "f.npz")] if flag[0] == "--tol-d" \
            else ["check"]
        with pytest.raises(SystemExit) as exc:
            main([*command, *flag, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(command="bogus").validate()
        with pytest.raises(ConfigError):
            RunConfig(ode_task="counterexample", q=1.0).validate()
        with pytest.raises(ConfigError):
            RunConfig(rings=0).validate()


class TestConfigInput:
    @pytest.mark.parametrize("old, new, where", [
        ("kappa2 = 0.4", "kappa2 = 0.4\n\n[run]\nrings = abc", "[run] rings"),
        ("outer_radius = 0.8", "outer_radius = abc", "[domain] outer_radius"),
        ("field = expr", "field = diagonal(2, abc)", "[coefficients] field"),
        ("a11 = 1 + x1^2/4", "a11 = 1 + x3^2/4", "a11"),
        ("ellipticity = 0.7", "ellipticity = abc", "[coefficients] ellipticity"),
        ("field = 0.25*cos(x2)", "field = 0.25*cos(x2", "[potential] field"),
        ("1.0: 1 + 0.5*x1^2", "1.0: 1 + 0.5*x3^2", "[nonlinearity] terms, term 2"),
        ("1.5: 2.0", "abc: 2.0", "[nonlinearity] terms, term 1"),
        ("kappa2 = 0.4", "kappa2 = abc", "[nonlinearity] kappa2"),
        # variable-free parts must be finite reals
        ("field = 0.25*cos(x2)", "field = 1/0", "[potential] field: constant"),
        ("field = 0.25*cos(x2)", "field = (0-8)^(1/3)", "[potential] field: constant"),
        ("a12 = 0", "a12 = exp(1000)", "[coefficients] a12: constant"),
        ("1.0: 1 + 0.5*x1^2", "1.0: 1 + x1*(1/0)", "[nonlinearity] terms, term 2"),
    ])
    def test_bad_value_names_its_key(self, tmp_path, capsys, old, new, where):
        assert old in VARIABLE_CONFIG
        config = tmp_path / "bad.ini"
        config.write_text(VARIABLE_CONFIG.replace(old, new))
        assert main(["check", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err
        assert not (tmp_path / "o").exists()

    def test_solve_rejects_potential_1_over_0_before_numerics(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text(VARIABLE_CONFIG.replace("field = 0.25*cos(x2)",
                                                  "field = 1/0"))
        assert main(["solve", "--mode", "grid2d", "--rings", "16", "--angles",
                     "32", "--boundary", "cos:1:0.2", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [potential] field: constant '1/0'")
        assert not (tmp_path / "o").exists()

    def test_solve_rejects_a_non_elliptic_A_before_numerics(self, tmp_path,
                                                            capsys):
        # a11 = x1 < 0 on half the disc: the inner GMRES stalled and the
        # run exited 3 as a solver failure; `check` exits 7 on the same file
        config = tmp_path / "bad.ini"
        config.write_text("[domain]\ndimension = 2\nouter_radius = 1.0\n\n"
                          "[coefficients]\nfield = expr\na11 = x1\na12 = 0\n"
                          "a22 = 1\nellipticity = 0.7\n\n"
                          "[nonlinearity]\nkind = sum_of_powers\nterms = 1.5: 1\n")
        assert main(["solve", "--mode", "grid2d", "--rings", "16", "--angles",
                     "32", "--boundary", "cos:1:0.1", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the coefficients fail A1.ellipticity "
                              "(margin -1.67")
        assert not (tmp_path / "o").exists()
        assert main(["check", "--config", str(config),
                     "--out", str(tmp_path / "c")]) == 7

    @pytest.mark.parametrize("line, key", [("a13 = x9 + bogus", "a13"),
                                           ("b11 = 1", "b11"),
                                           ("a33 = 1", "a33"),
                                           ("elipticity = 0.7", "elipticity")])
    def test_unknown_coefficient_key_exits_2(self, tmp_path, capsys, line, key):
        config = tmp_path / "bad.ini"
        config.write_text(VARIABLE_CONFIG.replace("a22 = 1", f"a22 = 1\n{line}"))
        assert main(["check", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"unknown [coefficients] key {key!r}" in err
        assert not (tmp_path / "o").exists()

    def test_both_off_diagonal_entries_are_known_keys(self):
        spec = parse_problem_spec(VARIABLE_CONFIG.replace("a12 = 0",
                                                          "a12 = 0\na21 = 0"))
        assert spec.coefficients.kind == "expressions"

    @pytest.mark.parametrize("name", ["vc.ini", "vc=1.ini"])
    def test_config_path_may_hold_equals_sign(self, tmp_path, name):
        config = tmp_path / name
        config.write_text(VARIABLE_CONFIG)
        assert parse_problem_spec(str(config)).coefficients.kind == "expressions"
        assert main(["check", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 0

    def test_missing_config_path(self, tmp_path, capsys):
        missing = tmp_path / "absent=1.ini"
        assert main(["check", "--config", str(missing),
                     "--out", str(tmp_path / "o")]) == 2
        assert "cannot read config" in capsys.readouterr().err


def _radial_field(tmp_path, q="1.5", dim="2"):
    so = tmp_path / "so"
    assert main(["solve", "--mode", "radial", "--q", q, "--N", dim,
                 "--amplitude", "0.5", "--radius", "1.0", "--out", str(so)]) == 0
    return so / "field.npz"


def _judged(out):
    config = json.loads((out / "record.json").read_text())["config"]
    return config["dimension"], config["q"], config["outer_radius"]


class TestOneProblemSource:
    """The problem comes from one source: the config's problem sections,
    else the field header (frequency, audit), else --q / --N / --radius and
    the matching [run] keys."""

    @pytest.mark.parametrize("flags, named", [
        (["--N", "3", "--radius", "1.0"], "--N, --radius"),
        (["--q", "1.2"], "--q"),
    ])
    def test_solve_flag_beside_problem_sections_exits_2(self, tmp_path, capsys,
                                                         flags, named):
        # `--N 3` used to be ignored: the run solved N = 2 and record.json
        # said dimension 3
        config = tmp_path / "model.ini"
        config.write_text(MODEL_CONFIG)
        out = tmp_path / "o"
        assert main(["solve", "--config", str(config), "--mode", "radial",
                     *flags, "--step", "1e-3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}: the problem is already given "
                              f"by [domain], [coefficients], [potential], "
                              f"[nonlinearity] in {config}")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["q = 1.5", "dimension = 2",
                                     "outer_radius = 1.0"])
    def test_run_key_beside_problem_sections_exits_2(self, tmp_path, capsys,
                                                     key):
        config = tmp_path / "model.ini"
        config.write_text(MODEL_CONFIG + f"\n[run]\n{key}\n")
        out = tmp_path / "o"
        assert main(["check", "--config", str(config), "--out", str(out)]) == 2
        assert f"[run] {key.split(' = ')[0]}: the problem is already given" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_q_list_outside_ode_exits_2(self, tmp_path, capsys):
        # the run solved q = 1.2 only and exited 0
        out = tmp_path / "o"
        assert main(["solve", "--mode", "radial", "--q", "1.2,1.5", "--N", "2",
                     "--radius", "1.0", "--step", "1e-3", "--out", str(out)]) == 2
        assert "--q 1.2,1.5: only ode takes a list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["frequency", "audit"])
    def test_run_keys_beside_the_field_header_exit_2(self, tmp_path, capsys,
                                                     command):
        # `audit` exited 0 with genuine_nonvanishing on the field's own
        # q = 1.5, N = 2, and record.json said q 1.2, dimension 3
        field = _radial_field(tmp_path)
        config = tmp_path / "run.ini"
        config.write_text("[run]\nq = 1.2\ndimension = 3\n")
        capsys.readouterr()
        out = tmp_path / "o"
        assert main([command, str(field), "--config", str(config),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: [run] dimension, [run] q: the problem is already given by "
            f"the header of {field}")
        assert not out.exists()

    def test_flag_and_run_key_for_one_value_exit_2(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[run]\nq = 1.5\n")
        out = tmp_path / "o"
        assert main(["check", "--q", "1.5", "--config", str(config),
                     "--out", str(out)]) == 2
        assert "--q: the problem is already given by [run] q in" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_misspelled_section_exits_2(self, tmp_path, capsys):
        # [domian] used to be skipped, and so was the [nonlinearity] beside
        # it: the run solved the default q = 1.5
        config = tmp_path / "typo.ini"
        config.write_text(MODEL_CONFIG.replace("[domain]", "[domian]")
                          .replace("q = 1.5", "q = 1.2"))
        out = tmp_path / "o"
        assert main(["solve", "--config", str(config), "--mode", "radial",
                     "--step", "1e-3", "--out", str(out)]) == 2
        assert "unknown section [domian]" in capsys.readouterr().err
        assert not out.exists()

    def test_ode_takes_no_problem_section(self, tmp_path, capsys):
        config = tmp_path / "model.ini"
        config.write_text(MODEL_CONFIG)
        out = tmp_path / "o"
        assert main(["ode", "--counterexample", "--config", str(config),
                     "--out", str(out)]) == 2
        assert "ode takes no problem section: [domain]" in capsys.readouterr().err
        assert not out.exists()

    def test_comment_naming_domain_is_a_run_config(self, tmp_path):
        # a substring test for "[domain]" read this as a problem config and
        # exited 2 with "missing [domain] section"
        config = tmp_path / "run.ini"
        config.write_text("# no [domain] here: the problem comes from [run]\n"
                          "[run]\nq = 1.2\ndimension = 3\n")
        out = tmp_path / "o"
        assert main(["check", "--config", str(config), "--out", str(out)]) == 0
        assert _judged(out) == (3, 1.2, 1.0)

    def test_record_holds_the_judged_problem_without_domain(self, tmp_path):
        so, config = tmp_path / "so", tmp_path / "run.ini"
        config.write_text("[run]\nq = 1.2\ndimension = 3\nouter_radius = 1.5\n")
        for command in ("solve", "check"):
            out = so if command == "solve" else tmp_path / command
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
            assert _judged(out) == (3, 1.2, 1.5), command
        for command in ("frequency", "audit"):
            out = tmp_path / command
            main([command, str(so / "field.npz"), "--out", str(out)])
            assert _judged(out) == (3, 1.2, 1.5), command
        out = tmp_path / "flags"
        assert main(["check", "--q", "1.2", "--N", "3", "--out", str(out)]) == 0
        assert _judged(out) == (3, 1.2, 1.0)

    def test_record_holds_the_judged_problem_with_domain(self, tmp_path):
        # the record held RunConfig's defaults (q 1.5), not the config's q
        config = tmp_path / "model.ini"
        config.write_text(MODEL_CONFIG.replace("q = 1.5", "q = 1.2")
                          .replace("outer_radius = 1.0", "outer_radius = 0.8"))
        so = tmp_path / "so"
        assert main(["solve", "--mode", "grid2d", "--rings", "32", "--angles",
                     "64", "--boundary", "cos:0:0.3", "--config", str(config),
                     "--out", str(so)]) == 0
        assert _judged(so) == (2, 1.2, 0.8)
        for command in ("frequency", "audit", "check"):
            out = tmp_path / command
            field = [str(so / "field.npz")] if command != "check" else []
            main([command, *field, "--config", str(config), "--out", str(out)])
            assert _judged(out) == (2, 1.2, 0.8), command

    @pytest.mark.parametrize("command", ["check", "audit"])
    def test_config_file_is_opened_once(self, tmp_path, monkeypatch, command):
        import builtins

        config = tmp_path / "model.ini"
        config.write_text(MODEL_CONFIG)
        field = [str(_radial_field(tmp_path))] if command == "audit" else []
        opened, real_open = [], builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        main([command, *field, "--config", str(config),
              "--out", str(tmp_path / "o")])
        assert opened.count(str(config)) == 1


class TestCliExitCodes:
    def test_counterexample_ok(self, tmp_path):
        out = tmp_path / "o1"
        assert main(["ode", "--counterexample", "--q", "1.5",
                     "--out", str(out)]) == 0
        blob = json.loads((out / "ode_summary.json").read_text())
        assert blob["passed"]
        assert blob["results"][0]["max_relative_residual"] <= 1e-12

    def test_rejects_q_out_of_range(self, tmp_path, capsys):
        assert main(["ode", "--q", "2.5", "--out", str(tmp_path / "x")]) == 2
        assert "q must lie" in capsys.readouterr().err

    def test_pme_summary(self, tmp_path):
        out = tmp_path / "o2"
        assert main(["ode", "--pme", "--q", "1.5", "--N", "3",
                     "--amplitude", "0.5", "--radius", "2.0",
                     "--out", str(out)]) == 0
        blob = json.loads((out / "ode_summary.json").read_text())
        assert blob["results"][0]["relative_residual"] <= 1e-6

    @pytest.mark.parametrize("grid", [["--angles", "33"], ["--rings", "3"]],
                             ids=["odd-angles", "three-rings"])
    def test_grid_the_solver_rejects_leaves_no_output(self, tmp_path, capsys,
                                                      grid):
        # the output directory used to be made before the solver checked
        # its grid, and the run left it empty
        out = tmp_path / "o"
        assert main(["solve", "--mode", "grid2d", "--boundary", "cos:1:0.1",
                     *grid, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: need ")
        assert not out.exists()

    def test_solver_failure_exits_3_with_a_record(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[run]\nmax_iters = 1\n")
        out = tmp_path / "o"
        assert main(["solve", "--mode", "grid2d", "--rings", "16", "--angles",
                     "32", "--boundary", "cos:1:0.1", "--config", str(config),
                     "--out", str(out)]) == 3
        assert "solver failed" in capsys.readouterr().err
        record = json.loads((out / "record.json").read_text())
        assert record["summary"]["error"] and record["manifest"] == []

    def test_solver_failure_record_says_how_far_it_had_to_go(self, tmp_path):
        # exit 3 records the contraction estimate and the iterations it
        # predicts, as SolverError carries them; a steady ratio shows at
        # step 38, where the iteration jumps on it
        config = tmp_path / "run.ini"
        config.write_text("[run]\nmax_iters = 38\n")
        out = tmp_path / "o"
        assert main(["solve", "--mode", "grid2d", "--rings", "32", "--angles",
                     "64", "--boundary", "cos:1:0.05", "--config", str(config),
                     "--out", str(out)]) == 3
        summary = json.loads((out / "record.json").read_text())["summary"]
        assert 0.0 < summary["contraction"] < 1.0
        assert summary["predicted_iterations"] > 38

    def test_ode_records_every_exponent(self, tmp_path):
        # record.json's config.q held the first exponent of the list only
        out = tmp_path / "o"
        assert main(["ode", "--counterexample", "--q", "1.2,1.5",
                     "--out", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        assert record["config"]["q"] == [1.2, 1.5]
        assert sorted(m["path"] for m in record["manifest"]) == [
            "counterexample_q1.2.csv", "counterexample_q1.5.csv",
            "ode_summary.json"]

    @pytest.mark.parametrize("task, recorded", [
        ("--counterexample", False), ("--energy", False), ("--shoot", True),
        ("--pme", True)])
    def test_ode_records_only_a_ball_it_uses(self, tmp_path, task, recorded):
        # the counterexample and the energy run integrate ODEs in t, with no
        # dimension and no outer radius; shoot and pme integrate on a ball
        out = tmp_path / "o"
        assert main(["ode", task, "--q", "1.5", "--step", "2e-3", "--tmax",
                     "2", "--out", str(out)]) == 0
        config = json.loads((out / "record.json").read_text())["config"]
        assert ("dimension" in config) == recorded
        assert ("outer_radius" in config) == recorded
        assert config["q"] == [1.5] and config["ode_task"] == task[2:]

    @pytest.mark.parametrize("task", ["--counterexample", "--energy"])
    @pytest.mark.parametrize("args, named", [
        (["--N", "3"], "--N"), (["--radius", "2"], "--radius"),
        (["--N", "3", "--radius", "2"], "--N, --radius")])
    def test_ode_in_t_rejects_the_ball_flags(self, tmp_path, capsys, task,
                                             args, named):
        # both tasks integrate in t on no ball; --N and --radius were
        # accepted and ignored
        out = tmp_path / "o"
        assert main(["ode", task, "--q", "1.5", *args, "--step", "2e-3",
                     "--tmax", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}: ode {task} integrates in t")
        assert not out.exists()

    def test_missing_field_file(self, tmp_path, capsys):
        assert main(["frequency", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("step", ["1e-3", "5e-4"])
    def test_radial_step_too_coarse_for_the_amplitude_exits_2(self, tmp_path,
                                                              capsys, step):
        # at a = 1e-12 the solution's length scale is 1e-3: the origin's
        # Taylor step fills fewer than two nodes, and the run stops before
        # it writes anything
        out = tmp_path / "o"
        assert main(["solve", "--mode", "radial", "--N", "3", "--q", "1.5",
                     "--radius", "6", "--step", step, "--amplitude", "1e-12",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"step h = {float(step):g} does not resolve" in err
        assert not out.exists()

    @pytest.mark.parametrize("task", ["--shoot", "--pme"])
    def test_ode_exit_2_leaves_no_output(self, tmp_path, capsys, task):
        # the origin's Taylor step rejects the step before anything is
        # written, so no output directory is made
        out = tmp_path / "o"
        assert main(["ode", task, "--q", "1.5", "--N", "3", "--amplitude",
                     "1e-12", "--radius", "6", "--step", "1e-3",
                     "--out", str(out)]) == 2
        assert "does not resolve" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, key", [
        (["--shoot", "--N", "0"], "dimension"),     # was ZeroDivisionError
        (["--shoot", "--N", "-2"], "dimension"),
        (["--energy", "--tmax", "inf"], "t_max"),   # was OverflowError
        (["--counterexample", "--t0", "nan"], "t0"),  # was exit 7
        (["--pme", "--t0", "nan"], "t0"),
        (["--shoot", "--amplitude", "nan"], "amplitude"),  # named no key
    ])
    def test_ode_bad_value_exits_2_naming_its_key(self, tmp_path, capsys,
                                                    args, key):
        out = tmp_path / "o"
        assert main(["ode", *args, "--out", str(out)]) == 2
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["frequency", "audit"])
    def test_field_too_short_for_a_profile_leaves_no_output(self, tmp_path,
                                                             capsys, command):
        so = tmp_path / "so"
        assert main(["solve", "--mode", "radial", "--N", "2", "--q", "1.5",
                     "--radius", "0.012", "--step", "1e-3",
                     "--out", str(so)]) == 0
        out = tmp_path / "o"
        assert main([command, str(so / "field.npz"), "--out", str(out)]) == 2
        assert "grid too coarse" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new", [
        ("dimension = 2", "dimension = 3"),
        ("outer_radius = 1.0", "outer_radius = 2.0"),
    ], ids=["dimension", "outer_radius"])
    def test_spec_that_disagrees_with_its_field_exits_2(self, tmp_path, capsys,
                                                        old, new):
        # before the check, dimension = 3 exited 2 with numpy's broadcast
        # message and outer_radius = 2.0 was ignored (genuine_nonvanishing)
        config, bad = tmp_path / "model.ini", tmp_path / "bad.ini"
        config.write_text(MODEL_CONFIG)
        bad.write_text(MODEL_CONFIG.replace(old, new))
        so = tmp_path / "so"
        assert main(["solve", "--mode", "grid2d", "--rings", "32", "--angles",
                     "64", "--boundary", "cos:0:0.3", "--config", str(config),
                     "--out", str(so)]) == 0
        for command in ("frequency", "audit"):
            out = tmp_path / command
            assert main([command, str(so / "field.npz"), "--config", str(bad),
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "is not the field's (N=2, R=1)" in err, err
            assert not out.exists()

    @pytest.mark.parametrize("mode", [
        ["--mode", "radial"],
        ["--mode", "grid2d", "--rings", "16", "--angles", "32",
         "--boundary", "radial-trace"],
    ], ids=["radial", "radial-trace"])
    def test_radial_route_exits_2_on_a_problem_it_does_not_admit(
            self, tmp_path, capsys, mode):
        # A = diag(2, 1) does not keep A nu = nu on radial fields, so no
        # radial profile stands for this problem: the radial solve, and
        # the radial trace of a grid2d solve, stop before any output
        config = tmp_path / "diagonal.ini"
        config.write_text(MODEL_CONFIG.replace("field = identity",
                                               "field = diagonal(2, 1)"))
        out = tmp_path / "so"
        assert main(["solve", *mode, "--amplitude", "0.5", "--config",
                     str(config), "--out", str(out)]) == 2
        assert "A nu = nu" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["frequency", "audit"])
    def test_analysis_takes_no_problem_flags(self, tmp_path, capsys, command):
        # the problem comes from --config or the field header: `--q 1.2
        # --N 3` used to exit 0, judge the field's own q = 1.5, N = 2 and
        # record q 1.2 and dimension 3 in record.json
        so = tmp_path / "so"
        assert main(["solve", "--mode", "radial", "--q", "1.5", "--N", "2",
                     "--amplitude", "0.5", "--radius", "1.0",
                     "--out", str(so)]) == 0
        capsys.readouterr()
        for flag, value in (("--q", "1.2"), ("--N", "3")):
            out = tmp_path / flag.strip("-")
            with pytest.raises(SystemExit) as exc:
                main([command, str(so / "field.npz"), flag, value,
                      "--out", str(out)])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in \
                capsys.readouterr().err
            assert not out.exists()

    def test_radial_frequency_with_zeros_passes(self, tmp_path):
        # the criterion-11 radial field (three zeros on the ball): every
        # identity passes once the profile is differentiated at the node
        # step
        so, fq = tmp_path / "so", tmp_path / "fq"
        assert main(["solve", "--mode", "radial", "--N", "3", "--q", "1.5",
                     "--radius", "6", "--step", "1e-4", "--amplitude", "0.5",
                     "--out", str(so)]) == 0
        assert main(["frequency", str(so / "field.npz"), "--out", str(fq)]) == 0

    def test_solve_frequency_audit_pipeline(self, tmp_path):
        out1 = tmp_path / "solve"
        assert main(["solve", "--mode", "radial", "--q", "1.5", "--N", "2",
                     "--amplitude", "0.5", "--radius", "1.2",
                     "--out", str(out1)]) == 0
        field = out1 / "field.npz"
        assert field.exists()
        out2 = tmp_path / "freq"
        assert main(["frequency", str(field), "--out", str(out2)]) == 0
        out3 = tmp_path / "audit"
        assert main(["audit", str(field), "--out", str(out3)]) == 0
        cert = json.loads((out3 / "certificate.json").read_text())
        assert cert["classification"] == "genuine_nonvanishing"

    def test_audit_exit_codes_on_glued_field(self, tmp_path, glued_trio):
        from freqlab.fields import save_field

        path = tmp_path / "glued.npz"
        save_field(glued_trio[(2, 1.5, 0.3)], path)
        out = tmp_path / "a1"
        assert main(["audit", str(path), "--out", str(out)]) == 5
        out = tmp_path / "a2"
        assert main(["audit", str(path), "--residual-gate", "1e9",
                     "--out", str(out)]) == 4

    def test_frequency_records_the_verdicts_and_the_arrays(self, tmp_path):
        # identities.json holds the verdicts and scalars, identities.npz the
        # per-radius arrays; the manifest hashes both
        so, fq = tmp_path / "so", tmp_path / "fq"
        assert main(["solve", "--mode", "radial", "--q", "1.5", "--N", "2",
                     "--amplitude", "0.5", "--radius", "1.0",
                     "--out", str(so)]) == 0
        assert main(["frequency", str(so / "field.npz"), "--out", str(fq)]) == 0
        record = json.loads((fq / "record.json").read_text())
        assert [m["path"] for m in record["manifest"]] == [
            "identities.json", "identities.npz", "profile.csv"]
        assert record["content_hash"] == content_hash_of_dir(fq)
        blob = json.loads((fq / "identities.json").read_text())
        with np.load(fq / "identities.npz", allow_pickle=False) as data:
            keys = set(data.files)
        for name in blob.keys() - {"schema_version"}:
            assert {f"{name}.radii", f"{name}.lhs", f"{name}.rhs"} <= keys

    def test_stage_timings_stay_out_of_the_content_hash(self, tmp_path):
        # solve, frequency and audit record seconds per stage in
        # summary.timings; content_hash reads only the manifest, so a record
        # with the timings and one without them hash alike
        from freqlab.io import RunRecord

        field = str(tmp_path / "so" / "field.npz")
        runs = {
            "so": (["solve", "--mode", "radial", "--q", "1.5", "--N", "2",
                    "--amplitude", "0.5", "--radius", "1.0"],
                   {"solve", "write"}),
            "fq": (["frequency", field], {"profile", "identities", "write"}),
            "au": (["audit", field], {"audit", "write"}),
        }
        for name, (argv, stages) in runs.items():
            out = tmp_path / name
            assert main(argv + ["--out", str(out)]) == 0
            record = json.loads((out / "record.json").read_text())
            timings = record["summary"]["timings"]
            assert set(timings) == stages
            assert all(t >= 0.0 for t in timings.values())
            assert record["content_hash"] == content_hash_of_dir(out)
            summary = dict(record["summary"])
            del summary["timings"]
            bare = RunRecord(record["command"], record["config"], str(out),
                             record["tool_version"],
                             manifest=record["manifest"], summary=summary)
            assert bare.content_hash() == content_hash_of_dir(out)

    def test_frequency_exits_7_on_failed_identity(self, tmp_path, glued_trio):
        # a glued candidate is no solution: an identity fails, which is a
        # failed check (7), not a bad config (2)
        from freqlab.fields import save_field

        path = tmp_path / "glued.npz"
        save_field(glued_trio[(2, 1.5, 0.3)], path)
        out = tmp_path / "fq"
        assert main(["frequency", str(path), "--out", str(out)]) == 7
        blob = json.loads((out / "identities.json").read_text())
        assert any(rep["verdict"] == "fail" for name, rep in blob.items()
                   if name != "schema_version")

    def test_check_sizes_rotation_perturbed_for_the_domain(self, tmp_path):
        # eigenvalues 1 and 1 + eps |x|^2: the ellipticity must cover
        # |x| <= outer_radius, not the unit ball
        cfgfile = tmp_path / "rot.ini"
        cfgfile.write_text(MODEL_CONFIG.replace(
            "outer_radius = 1.0", "outer_radius = 2").replace(
            "field = identity", "field = rotation_perturbed(0.3)"))
        out = tmp_path / "rot"
        assert main(["check", "--config", str(cfgfile),
                     "--out", str(out)]) == 0
        blob = json.loads((out / "assumptions.json").read_text())
        assert blob["A1"]["clauses"]["A1.ellipticity"]["passed"]

    def test_check_command(self, tmp_path):
        cfgfile = tmp_path / "spec.ini"
        cfgfile.write_text(MODEL_CONFIG)
        out = tmp_path / "chk"
        assert main(["check", "--config", str(cfgfile),
                     "--out", str(out)]) == 0
        blob = json.loads((out / "assumptions.json").read_text())
        assert blob["A3"]["passed"] and blob["A1"]["passed"]

    def test_check_flags_violator(self, tmp_path):
        bad = VARIABLE_CONFIG.replace("terms = 1.5: 2.0 | 1.0: 1 + 0.5*x1^2",
                                      "terms = 1.5: x1^2")
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text(bad)
        out = tmp_path / "chk2"
        assert main(["check", "--config", str(cfgfile),
                     "--out", str(out)]) == 7
        blob = json.loads((out / "assumptions.json").read_text())
        assert not blob["A3"]["passed"]

    def test_manifest_files_exist(self, tmp_path):
        out = tmp_path / "o3"
        assert main(["ode", "--energy", "--q", "1.5", "--step", "2e-3",
                     "--tmax", "4", "--out", str(out)]) == 0
        record = json.loads((out / "record.json").read_text())
        for entry in record["manifest"]:
            assert (out / entry["path"]).exists()
        assert record["content_hash"]

    def test_env_var_overrides_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("FREQ_LAB_OUT", str(target))
        assert main(["ode", "--counterexample", "--q", "1.4",
                     "--out", str(tmp_path / "ignored")]) == 0
        assert (target / "ode_summary.json").exists()


# x1^0.5 is NaN on the half disc x1 < 0, in V, in A and in f in turn
_NAN_CONFIGS = {
    "V": MODEL_CONFIG.replace("[potential]\nfield = 0",
                              "[potential]\nfield = x1^0.5"),
    "A": MODEL_CONFIG.replace("field = identity",
                              "field = expr\na11 = 1 + x1^0.5\na12 = 0\n"
                              "a22 = 1\nellipticity = 0.5"),
    "f": MODEL_CONFIG.replace("kind = homogeneous\nq = 1.5",
                              "kind = sum_of_powers\nterms = 1.5: x1^0.5\n"
                              "kappa1 = 2.0\nkappa2 = 0.4"),
}


# finite on the ball, but not Lipschitz: its gradient is infinite on the
# line x1 = 0, which check's samples miss and the polar nodes' pole is on
_NON_LIPSCHITZ_CONFIG = MODEL_CONFIG.replace(
    "field = identity", "field = expr\na11 = 1 + (x1^2)^0.25\na12 = 0\n"
                        "a22 = 1\nellipticity = 0.5")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_entry_without_a_finite_gradient_stops_the_analysis(tmp_path, capsys):
    path = tmp_path / "sqrt_abs.ini"
    path.write_text(_NON_LIPSCHITZ_CONFIG)
    fpath = tmp_path / "field.npz"
    save_field(sample_grid2d(lambda x: 0.5 + 0.1 * x[..., 0], 1.0, 32, 64, 1.5),
               str(fpath))
    assert main(["check", "--config", str(path), "--out",
                 str(tmp_path / "ck")]) == 0
    blob = json.loads((tmp_path / "ck" / "assumptions.json").read_text())
    assert blob["A1"]["clauses"]["A1.entry_gradients"]["passed"]
    capsys.readouterr()
    for command in ("frequency", "audit"):
        out = tmp_path / command
        assert main([command, str(fpath), "--config", str(path),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: grad A is not finite at node (0, 0), x = (0, 0)\n"
        assert not out.exists()


@pytest.mark.filterwarnings("ignore:invalid value encountered")
class TestNonFiniteInputs:
    """A config expression that is NaN on part of the ball stops every
    command before a verdict: the analysis and the solve exit 2 naming
    the quantity and a node, and check records a failing clause with a
    witness point."""

    @pytest.fixture
    def config(self, tmp_path, request):
        path = tmp_path / f"{request.param}.ini"
        text = _NAN_CONFIGS[request.param]
        assert text != MODEL_CONFIG
        path.write_text(text)
        return request.param, path

    @pytest.mark.parametrize("config", ["V", "A", "f"], indirect=True)
    @pytest.mark.parametrize("command", ["audit", "frequency"])
    def test_analysis_exits_2_naming_the_quantity(self, tmp_path, capsys,
                                                  config, command):
        # before, the gate's sums were NaN and masked to 0: audit read
        # genuine_nonvanishing with epsilon 0, and frequency exited 7
        quantity, path = config
        fpath = tmp_path / "field.npz"
        save_field(sample_grid2d(lambda x: 0.5 + 0.1 * x[..., 0], 1.0, 32,
                                 64, 1.5), str(fpath))
        out = tmp_path / command
        assert main([command, str(fpath), "--config", str(path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {quantity} is not finite at node (1, 17), x = (" in err
        assert not out.exists()

    @pytest.mark.parametrize("config", ["V", "f"], indirect=True)
    def test_solve_exits_2_before_the_first_inner_solve(self, tmp_path,
                                                        capsys, config):
        # before, the Picard iteration ran its 400 steps and exited 3
        quantity, path = config
        out = tmp_path / "so"
        assert main(["solve", "--mode", "grid2d", "--rings", "16",
                     "--angles", "32", "--boundary", "cos:1:0.2", "--config",
                     str(path), "--out", str(out)]) == 2
        assert f"error: {quantity} is not finite at node" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, clause", [("V", "A2.bounded"),
                                                ("A", "A1.symmetric"),
                                                ("f", "A3.ii")],
                             indirect=["config"])
    def test_check_records_a_failing_clause_with_a_witness(self, tmp_path,
                                                           config, clause):
        # before, a potential was written up as "a bounded expression on
        # the closed ball" without being sampled, and check exited 0
        _, path = config
        out = tmp_path / "ck"
        assert main(["check", "--config", str(path), "--out", str(out)]) == 7
        blob = json.loads((out / "assumptions.json").read_text())
        verdict = blob[clause.split(".")[0]]["clauses"][clause]
        assert not verdict["passed"]
        assert verdict["witness"][0] < 0.0  # x1 < 0, where x1^0.5 is NaN

    @pytest.mark.parametrize("config", ["f"], indirect=True)
    def test_check_fails_every_clause_whose_margin_is_nan(self, tmp_path,
                                                          config):
        # before, A3.i, A3.iii and both coefficient clauses passed with a
        # null margin: a NaN margin never compares below the slack
        _, path = config
        out = tmp_path / "ck"
        assert main(["check", "--config", str(path), "--out", str(out)]) == 7
        clauses = json.loads((out / "assumptions.json").read_text())["A3"][
            "clauses"]
        assert len(clauses) == 7
        for name, verdict in clauses.items():
            assert not verdict["passed"], name
            if name != "coefficients.log_gradient":  # a sup, with no point
                assert verdict["witness"][0] < 0.0, name

    def test_check_samples_a_bounded_potential(self, tmp_path):
        out = tmp_path / "ck"
        cfgfile = tmp_path / "variable.ini"
        cfgfile.write_text(VARIABLE_CONFIG)
        assert main(["check", "--config", str(cfgfile),
                     "--out", str(out)]) == 0
        blob = json.loads((out / "assumptions.json").read_text())
        assert blob["A2"]["clauses"]["A2.bounded"]["passed"]
        assert "A2_note" not in blob


class TestHarmonicBoundary:
    def test_solve_with_harmonic_boundary(self, tmp_path):
        out = tmp_path / "harm"
        assert main(["solve", "--mode", "grid2d", "--q", "1.5", "--N", "2",
                     "--boundary", "harmonic", "--rings", "24",
                     "--angles", "48", "--radius", "1.0", "--amplitude",
                     "0.3", "--out", str(out)]) == 0
        assert (out / "field.npz").exists()

    @pytest.mark.parametrize("boundary", ["cos:1", "cos:1:0.05:7", "cos:x:0.1",
                                          "cos:1.5:0.1", "cos:1:nan",
                                          "cos:1:inf", "bogus"])
    def test_malformed_boundary_exits_2_before_any_output(self, tmp_path, capsys,
                                                          boundary):
        assert main(["solve", "--mode", "grid2d", "--rings", "16", "--angles",
                     "32", "--boundary", boundary,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --boundary {boundary!r}: ")
        assert not (tmp_path / "o").exists()

    def test_solve_records_solver_summary(self, tmp_path):
        records = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["solve", "--mode", "grid2d", "--q", "1.5", "--N", "2",
                         "--rings", "16", "--angles", "32", "--radius", "1.0",
                         "--out", str(out)]) == 0
            records.append(json.loads((out / "record.json").read_text()))
        solver = records[0]["summary"]["solver"]
        assert solver["iterations"] >= 1
        # A = id: the preconditioner is L, so one inner step per iteration
        assert solver["inner_iterations"] == solver["iterations"]
        assert 0.0 <= solver["final_distance"] < 1e-10
        # three arrays of 16 rows (4 blocks of 4) by 17 modes, and 3 block
        # products per mode for each of the factor's two sweeps
        assert solver["preconditioner_entries"] == 3 * 16 * 17 + 2 * 3 * 17
        assert records[1]["summary"]["solver"] == solver
        assert records[0]["content_hash"] == records[1]["content_hash"]
        assert content_hash_of_dir(tmp_path / "s1") == content_hash_of_dir(tmp_path / "s2")

    @pytest.mark.parametrize("config, inner_solve", [
        (None, "fourier"), ("variable_coefficients.ini", "gmres")])
    def test_solve_records_which_inner_solve_ran(self, tmp_path, config,
                                                 inner_solve):
        # theta-invariant A: the Fourier factor is L; any other A: GMRES
        argv = ["solve", "--mode", "grid2d", "--rings", "16", "--angles", "32",
                "--boundary", "cos:1:0.2", "--out", str(tmp_path / "o")]
        if config:
            argv += ["--config", os.path.join(DEMO_CONFIGS, config)]
        assert main(argv) == 0
        record = json.loads((tmp_path / "o" / "record.json").read_text())
        assert record["summary"]["solver"]["inner_solve"] == inner_solve

    def test_solve_records_damping_and_contraction(self, tmp_path, monkeypatch):
        import freqlab.fields

        argv = ["solve", "--mode", "grid2d", "--rings", "16", "--angles", "32",
                "--boundary", "cos:1:0.2"]
        assert main(argv + ["--out", str(tmp_path / "s1")]) == 0
        record = json.loads((tmp_path / "s1" / "record.json").read_text())
        solver = record["summary"]["solver"]
        assert solver["damping"] == 0.0
        assert 0.0 < solver["contraction"] < 1.0
        assert solver["error_bound"] == (solver["contraction"]
                                         / (1.0 - solver["contraction"])
                                         * solver["final_distance"])
        # each jump along the slow mode, with the rho it used; the last one
        # floors the contraction
        jumps = solver["extrapolations"]
        assert jumps and all(set(j) == {"iteration", "rho"} for j in jumps)
        assert jumps[-1]["iteration"] < solver["iterations"]
        assert solver["contraction"] >= jumps[-1]["rho"]
        assert record["content_hash"] == content_hash_of_dir(tmp_path / "s1")
        # the three keys report on the run; the artifacts' hash ignores them
        monkeypatch.setattr(freqlab.fields, "_contraction", lambda d, j: 0.5)
        assert main(argv + ["--out", str(tmp_path / "s2")]) == 0
        other = json.loads((tmp_path / "s2" / "record.json").read_text())
        assert other["summary"]["solver"]["contraction"] == 0.5
        assert other["content_hash"] == record["content_hash"]
        monkeypatch.setattr(freqlab.fields, "_steady_ratio", lambda d, j: None)
        assert main(argv + ["--out", str(tmp_path / "s3")]) == 0
        plain = json.loads((tmp_path / "s3" / "record.json").read_text())
        assert plain["summary"]["solver"]["extrapolations"] == []
