import json

import numpy as np
import pytest

from perimap import cli


def write_config(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


SOLVE_E1 = {
    "system": {"name": "linear-shear", "params": {"q": 0.5}},
    "mode": "solve-curve",
    "omega": 0.25,
    "eps": 0.01,
    "solver": {"n_nodes": 256, "tol": 1e-12, "max_iter": 100},
    "sampling": {"n_samples": 128, "seed": 1},
}


class TestConfigValidation:
    def test_negative_tol_rejected(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "c.json", {
            "system": {"name": "linear-shear"},
            "solver": {"tol": -1}, "sampling": {"seed": 1}})
        rc = cli.main(["solve-curve", "--config", cfgp,
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "tol" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "c.json", {
            "system": {"name": "linear-shear"},
            "frobnicate": 1, "sampling": {"seed": 1}})
        rc = cli.main(["check-map", "--config", cfgp, "--out", str(tmp_path)])
        assert rc == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_unknown_tolerance_rejected(self, tmp_path, capsys):
        # check-map reads only a2 and periodicity; a misspelt key was ignored
        cfgp = write_config(tmp_path, "c.json", {
            "system": {"name": "linear-shear"}, "sampling": {"seed": 1},
            "tolerances": {"a3": 1e-30, "periodicty": 1e-30}})
        rc = cli.main(["check-map", "--config", cfgp, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "a3" in err and "periodicty" in err

    def test_seed_mandatory(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "c.json",
                            {"system": {"name": "linear-shear"}})
        rc = cli.main(["check-map", "--config", cfgp, "--out", str(tmp_path)])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_seed_flag_overrides(self, tmp_path):
        cfgp = write_config(tmp_path, "c.json",
                            {"system": {"name": "linear-shear"}})
        rc = cli.main(["check-map", "--config", cfgp, "--out", str(tmp_path),
                       "--seed", "7"])
        assert rc == 0

    @pytest.mark.parametrize("system, key", [
        ("linear-shear", "system"),
        ({"name": "linear-shear", "params": "oops"}, "params"),
        ({"name": "linear-shear", "params": {"q": "0.5"}}, "'q'"),
        ({"name": "polar-hybrid", "params": {"kappa": None}}, "'kappa'"),
        ({"name": "polar-hybrid", "params": {"amp": 3}}, "'amp'"),
        ({"name": "linear-shear", "params": {"q": float("nan")}}, "'q'"),
    ], ids=["string", "params-string", "q-string", "kappa-null", "amp-scalar",
            "q-nan"])
    def test_malformed_system_rejected(self, tmp_path, capsys, system, key):
        cfgp = write_config(tmp_path, "c.json",
                            {"system": system, "sampling": {"seed": 1}})
        rc = cli.main(["solve-curve", "--config", cfgp,
                       "--out", str(tmp_path)])
        assert rc == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("extra, key", [
        ({"omega": "x"}, "omega"),
        ({"solver": {"n_nodes": "a"}}, "n_nodes"),
        ({"tolerances": "x"}, "tolerances"),
        ({"eps_list": 3}, "eps_list"),
        ({"eps_list": [0.01, float("nan")]}, "eps_list"),
        ({"eps_list": [0.01, float("inf")]}, "eps_list"),
    ], ids=["omega-string", "n_nodes-string", "tolerances-string",
            "eps_list-scalar", "eps_list-nan", "eps_list-infinity"])
    def test_malformed_value_rejected(self, tmp_path, capsys, extra, key):
        cfgp = write_config(tmp_path, "c.json", {
            "system": {"name": "linear-shear"}, "sampling": {"seed": 1},
            **extra})
        rc = cli.main(["sweep-eps", "--config", cfgp, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    @pytest.mark.parametrize("extra, key", [
        ({"n_trajectories": 0}, "n_trajectories"),
        ({"n_trajectories": -2}, "n_trajectories"),
        ({"n_trajectories": 2.5}, "n_trajectories"),
        ({"solver": {"n_nodes": 256.7}}, "n_nodes"),
        ({"solver": {"max_iter": 10.5}}, "max_iter"),
        ({"sampling": {"seed": 1, "n_samples": 16.2}}, "n_samples"),
        ({"sampling": {"seed": 1.5}}, "seed"),
    ], ids=["trajectories-0", "trajectories-negative",
            "trajectories-fraction", "n_nodes-fraction", "max_iter-fraction",
            "n_samples-fraction", "seed-fraction"])
    def test_bad_count_rejected(self, tmp_path, capsys, extra, key):
        # 0 or -2 trajectories once solved the whole curve and then failed
        # with a traceback; 256.7 nodes silently became 256
        cfgp = write_config(tmp_path, "c.json", {
            "system": {"name": "polar-hybrid"}, "eps": 0.01,
            "sampling": {"seed": 1}, **extra})
        rc = cli.main(["cylinder-data", "--config", cfgp,
                       "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    def test_integral_float_count_accepted(self):
        cfg = cli.parse_config({"system": {"name": "linear-shear"},
                                "solver": {"n_nodes": 64.0},
                                "sampling": {"seed": 3.0}}, "solve-curve")
        assert cfg.n_nodes == 64 and cfg.seed == 3

    @pytest.mark.parametrize("mode, name", [
        ("check-map", "polar-hybrid"),
        ("certify", "polar-hybrid"),
        ("hybrid-analyze", "linear-shear"),
        ("cylinder-data", "linear-shear"),
    ])
    def test_system_kind_mismatch_rejected(self, tmp_path, capsys, mode, name):
        cfgp = write_config(tmp_path, "c.json",
                            {"system": {"name": name}, "sampling": {"seed": 1}})
        rc = cli.main([mode, "--config", cfgp, "--out", str(tmp_path)])
        assert rc == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("extra, key", [
        ({"delta": -1}, "delta"),
        ({"tolerances": {"a2": 0}}, "a2"),
    ], ids=["delta-negative", "tolerance-zero"])
    def test_nonpositive_bound_rejected(self, tmp_path, capsys, extra, key):
        cfgp = write_config(tmp_path, "c.json", {
            "system": {"name": "linear-shear"}, "sampling": {"seed": 1},
            **extra})
        rc = cli.main(["check-map", "--config", cfgp, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "strictly positive" in err and key in err

    @pytest.mark.parametrize("mode, extra, key", [
        ("check-map", {"tolerances": {"a2": float("inf")}}, "tolerances"),
        ("hybrid-analyze",
         {"system": {"name": "polar-hybrid",
                     "params": {"amp": [float("nan"), 0]}}}, "'amp'"),
    ], ids=["a2-infinity", "amp-nan"])
    def test_nonfinite_number_rejected(self, tmp_path, capsys, mode, extra,
                                       key):
        # json writes NaN and Infinity, and json.load reads them back; both
        # configs ran to exit 0, the first with its a2 gate switched off
        cfgp = write_config(tmp_path, "c.json", {
            "system": {"name": "linear-shear"}, "sampling": {"seed": 1},
            **extra})
        rc = cli.main([mode, "--config", cfgp, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "finite" in err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["check-map", "--config", str(tmp_path / "none.json"),
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_hybrid_amp_of_three_components(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "c.json", {
            "system": {"name": "polar-hybrid", "params": {"amp": [1, 0, 0]}},
            "sampling": {"seed": 1}})
        rc = cli.main(["hybrid-analyze", "--config", cfgp,
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "amp must have two components" in capsys.readouterr().err

    def test_mode_mismatch_rejected(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, "c.json", SOLVE_E1)
        rc = cli.main(["check-map", "--config", cfgp, "--out", str(tmp_path)])
        assert rc == 2
        assert "mode" in capsys.readouterr().err


class TestSolveCurve:
    def test_matches_closed_form(self, tmp_path):
        cfgp = write_config(tmp_path, "c.json", SOLVE_E1)
        out = tmp_path / "out"
        assert cli.main(["solve-curve", "--config", cfgp,
                         "--out", str(out)]) == 0
        rows = np.loadtxt(out / "curve.csv", delimiter=",", skiprows=1)
        c = 0.01 / (np.exp(2j * np.pi * 0.25) - 0.5)
        exact = (c * np.exp(2j * np.pi * rows[:, 0])).imag
        assert np.max(np.abs(rows[:, 1] - exact)) <= 1e-8
        report = json.loads((out / "solver_report.json").read_text())
        assert report["report"]["converged"] is True

    def test_byte_deterministic(self, tmp_path):
        cfgp = write_config(tmp_path, "c.json", SOLVE_E1)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli.main(["solve-curve", "--config", cfgp,
                             "--out", str(out)]) == 0
            outs.append(((out / "curve.csv").read_bytes(),
                         (out / "solver_report.json").read_bytes()))
        assert outs[0] == outs[1]

    def test_nonconvergence_exits_nonzero(self, tmp_path, capsys):
        # the shear converges in 2 pushes, so 1 misses tol
        cfg = dict(SOLVE_E1, solver={"n_nodes": 64, "tol": 1e-12,
                                     "max_iter": 1})
        cfgp = write_config(tmp_path, "c.json", cfg)
        rc = cli.main(["solve-curve", "--config", cfgp,
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "solve-curve" in capsys.readouterr().err


class TestOtherModes:
    def test_check_map(self, tmp_path):
        cfgp = write_config(tmp_path, "c.json", {
            "system": {"name": "nonlinear-toy"},
            "sampling": {"n_samples": 64, "seed": 2}})
        out = tmp_path / "out"
        assert cli.main(["check-map", "--config", cfgp, "--out", str(out)]) == 0
        rep = json.loads((out / "assumptions.json").read_text())
        assert abs(rep["q_estimate"] - 0.5) < 0.05

    def test_certify(self, tmp_path):
        cfgp = write_config(tmp_path, "c.json", {
            "system": {"name": "linear-shear"},
            "sampling": {"n_samples": 32, "seed": 3}})
        out = tmp_path / "out"
        assert cli.main(["certify", "--config", cfgp, "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["eps0"] == cert["lambda0"] ** 2 / 2.0
        assert cert["r0"] == cert["lambda0"]
        assert cert["mu"] == 0.75

    def test_sweep_eps(self, tmp_path):
        cfgp = write_config(tmp_path, "c.json", {
            "system": {"name": "linear-shear"},
            "omega": 0.25,
            "eps_list": [1e-3, 1e-2],
            "solver": {"n_nodes": 128, "tol": 1e-12},
            "sampling": {"n_samples": 32, "seed": 4}})
        out = tmp_path / "out"
        assert cli.main(["sweep-eps", "--config", cfgp, "--out", str(out)]) == 0
        rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
        assert rows.shape == (2, 3)
        assert abs(rows[0, 2] / rows[1, 2] - 1.0) <= 1e-9

    def test_hybrid_analyze(self, tmp_path):
        cfgp = write_config(tmp_path, "c.json", {
            "system": {"name": "polar-hybrid", "params": {"kappa": 0.5}},
            "sampling": {"n_samples": 16, "seed": 5}})
        out = tmp_path / "out"
        assert cli.main(["hybrid-analyze", "--config", cfgp,
                         "--out", str(out)]) == 0
        rep = json.loads((out / "cycle_report.json").read_text())
        assert abs(rep["jacobian"][0][0] - 0.5 / np.e) <= 1e-6
        assert max(abs(v) for v in rep["u_star"]) <= 1e-10

    def test_hybrid_found_by_registry(self, tmp_path, monkeypatch):
        """A second hybrid registry name goes through the wrapped map."""
        from perimap import hybrid_ode, poincare

        monkeypatch.setitem(hybrid_ode._BUILTIN_HYBRID, "polar-hybrid-copy",
                            hybrid_ode._BUILTIN_HYBRID["polar-hybrid"])
        wrapped = []
        extract = poincare.extract_alpha_beta

        def counted(handle, *args, **kwargs):
            wrapped.append(handle.sys.label)
            return extract(handle, *args, **kwargs)

        monkeypatch.setattr(poincare, "extract_alpha_beta", counted)
        outs = []
        for name in ("polar-hybrid", "polar-hybrid-copy"):
            cfgp = write_config(tmp_path, f"{name}.json", {
                "system": {"name": name, "params": {"kappa": 0.5}},
                "eps": 0.01,
                "solver": {"n_nodes": 16, "tol": 1e-9},
                "sampling": {"n_samples": 16, "seed": 6}})
            out = tmp_path / name
            assert cli.main(["solve-curve", "--config", cfgp,
                             "--out", str(out)]) == 0
            outs.append(out)
        assert wrapped == ["polar-hybrid", "polar-hybrid"]
        for artifact in ("curve.csv", "solver_report.json"):
            assert ((outs[0] / artifact).read_bytes()
                    == (outs[1] / artifact).read_bytes())

    def test_cylinder_data(self, tmp_path):
        cfgp = write_config(tmp_path, "c.json", {
            "system": {"name": "polar-hybrid", "params": {"kappa": 0.5}},
            "eps": 0.01,
            "solver": {"n_nodes": 32, "tol": 1e-9},
            "sampling": {"n_samples": 16, "seed": 6},
            "n_trajectories": 3})
        out = tmp_path / "out"
        assert cli.main(["cylinder-data", "--config", cfgp,
                         "--out", str(out)]) == 0
        rows = np.loadtxt(out / "cylinder.csv", delimiter=",", skiprows=1)
        assert set(np.unique(rows[:, 0])) == {0.0, 1.0, 2.0}
        # states stay near the unit cycle
        radii = np.linalg.norm(rows[:, 2:], axis=1)
        assert np.all(np.abs(radii - 1.0) < 0.2)


class TestSchema:
    def test_defaults_filled_in(self):
        cfg = cli.parse_config({"system": {"name": "linear-shear"},
                                "sampling": {"seed": 0}}, "check-map")
        assert (cfg.mode, cfg.omega, cfg.eps, cfg.eps_list) == (
            "check-map", 1.0, 0.0, [])
        assert (cfg.n_nodes, cfg.tol, cfg.max_iter) == (256, 1e-12, 100)
        assert (cfg.n_samples, cfg.delta, cfg.n_trajectories) == (128, None, 8)
        assert cfg.tolerances == {"a2": 1e-8, "periodicity": 1e-8}

    def test_null_delta_is_absent(self):
        cfg = cli.parse_config({"system": {"name": "linear-shear"},
                                "delta": None, "sampling": {"seed": 0}},
                               "certify")
        assert cfg.delta is None

    def test_negative_seed_rejected(self, tmp_path, capsys):
        # numpy's default_rng raised ValueError: a traceback with exit 1
        cfgp = write_config(tmp_path, "c.json",
                            {"system": {"name": "linear-shear"}})
        rc = cli.main(["check-map", "--config", cfgp, "--out", str(tmp_path),
                       "--seed", "-1"])
        assert rc == 2
        assert "seed" in capsys.readouterr().err


class TestSystemParameterRange:
    @pytest.mark.parametrize("mode, name, params, key", [
        ("hybrid-analyze", "polar-hybrid", {"T_g": 0}, "T_g"),
        ("hybrid-analyze", "polar-hybrid", {"T_g": -0.8}, "T_g"),
        ("hybrid-analyze", "polar-hybrid", {"r1": 0}, "r1"),
        ("solve-curve", "linear-shear", {"period": 0}, "period"),
        ("solve-curve", "linear-shear", {"r1": -1}, "r1"),
        ("check-map", "linear-shear", {"period": -1}, "period"),
    ], ids=["T_g-zero", "T_g-negative", "hybrid-r1-zero", "period-zero",
            "r1-negative", "check-map-period-negative"])
    def test_out_of_range_parameter_is_config_error(
            self, tmp_path, capsys, mode, name, params, key):
        # each ended in a traceback (ValueError or ZeroDivisionError)
        cfgp = write_config(tmp_path, "c.json", {
            "system": {"name": name, "params": params},
            "sampling": {"seed": 1}})
        rc = cli.main([mode, "--config", cfgp, "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{key} must be positive" in err


class TestOutputDirectory:
    @pytest.mark.parametrize("mode, name", [
        ("solve-curve", "no-such-system"),
        ("hybrid-analyze", "linear-shear"),
    ], ids=["unknown-system", "kind-mismatch"])
    def test_not_made_for_a_rejected_system(self, tmp_path, mode, name):
        cfgp = write_config(tmp_path, "c.json",
                            {"system": {"name": name}, "sampling": {"seed": 1}})
        out = tmp_path / "out"
        assert cli.main([mode, "--config", cfgp, "--out", str(out)]) == 2
        assert not out.exists()
