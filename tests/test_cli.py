"""Scenario runner and audit suite: exit codes, artifacts, determinism."""
import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import subeq
from subeq import jets
from subeq.cli import (
    MAX_TOL,
    _catalog,
    duality_involution_suite,
    garding_identity_suite,
    main,
    parse_aprofile,
    parse_fn,
    parse_profile,
    parse_subequation,
    pn_audit_suite,
    run_audit,
)
from subeq.certificates import Certificate
from subeq.errors import InputError
from subeq import subequations as SU
from subeq.subequations import audit_PNT


def timing_keys(out):
    """The keys of the timing sidecar in ``out``, in file order."""
    return [line.split(": ")[0] for line in (out / "timing.txt").read_text().splitlines()]


def write_scenario(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


DIRICHLET = {
    "task": "dirichlet",
    "seed": 0,
    "manifold": {"kind": "punctured", "m": 3, "r_min": 1.0, "r_max": 2.0,
                 "n": 201, "spacing": "log"},
    "subequation": {"kind": "laplace", "f": {"kind": "linear", "slope": 0.0}},
    "params": {"boundary": {"inner": 1.0, "outer": 0.0},
               "oracle": {"kind": "named", "name": "two_over_r_minus_one"}},
}


SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))
# the exit codes the README documents: a certified property failure exits 2
SCENARIO_EXIT = {"stochastic_exp_r3": 2}
# each solve's init label and most Newton steps, and the most sweeps of
# each Khas'minskii stage
SCENARIO_STEPS = {"dirichlet_annulus": ("presolve", 0), "jetequiv_sinh": ("constant", 8),
                  "obstacle_1d": ("max(constant,obstacle-slack)", 2)}
STAGE_SWEEPS = {"khasminskii_sinh": [9, 5, 3]}


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_committed_scenario_exit_code(path, tmp_path):
    code = main(["run", str(path), "--out", str(tmp_path / "out"), "--no-plots"])
    assert code == SCENARIO_EXIT.get(path.stem, 0)
    # every committed scenario is on a line grid, where every tree (the
    # jet-equivalence of jetequiv_sinh too) takes the policy steps
    certs = json.loads((tmp_path / "out" / "report.json").read_text())["certificates"]
    assert all(c.get("params", {}).get("engine", "numpy") == "numpy" for c in certs)
    if path.stem in SCENARIO_STEPS:
        init, steps = SCENARIO_STEPS[path.stem]
        (cert,) = certs
        assert cert["params"]["init"] == init and cert["counts"]["sweeps"] <= steps
    if path.stem in STAGE_SWEEPS:
        sweeps = [t["sweeps"] for t in certs[0]["trace"]]
        bound = STAGE_SWEEPS[path.stem]
        assert len(sweeps) == len(bound) and all(s <= b for s, b in zip(sweeps, bound))


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_committed_scenario_deterministic(path, tmp_path):
    # two runs: the same report.json apart from timestamp, the same CSVs
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        main(["run", str(path), "--out", str(out), "--no-plots"])
    reports = [json.loads((out / "report.json").read_text()) for out in outs]
    for r in reports:
        r.pop("timestamp")
    assert json.dumps(reports[0]) == json.dumps(reports[1])
    csvs = [sorted(p.name for p in out.glob("*.csv")) for out in outs]
    assert csvs[0] == csvs[1] and csvs[0]
    for name in csvs[0]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_python_m_subeq():
    env = dict(os.environ, PYTHONPATH=str(Path(subeq.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-m", "subeq", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and out.stdout.startswith("usage: subeq")


def test_import_leaves_openssl_unloaded():
    # nothing in subeq hashes; importing hashlib would load OpenSSL
    # (_hashlib), several MB of resident memory in every run
    env = dict(os.environ, PYTHONPATH=str(Path(subeq.__file__).resolve().parents[1]))
    code = "import sys, subeq.cli; sys.exit('_hashlib' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


class TestRun:
    def test_dirichlet_scenario(self, tmp_path):
        sc = write_scenario(tmp_path, "d.json", DIRICHLET)
        out = tmp_path / "out"
        code = main(["run", sc, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"]
        assert report["oracle_Linf_error"] <= 5e-3
        assert "u.csv" in report["sidecars"]
        assert (out / "solution.svg").exists()
        assert timing_keys(out) == ["task"]

    @pytest.mark.parametrize("subeq", [
        {"kind": "dual", "of": {"kind": "eikonal",
                                "xi": {"kind": "table", "r": [-1.0, 0.0], "v": [1.0, 0.0]}}},
        {"kind": "hessian_branch", "k": 2, "f": {"kind": "linear", "slope": 1.0}},
    ], ids=["dual-eikonal", "lambda_max"])
    def test_policy_failure_exit_3(self, tmp_path, capsys, subeq):
        sc = write_scenario(tmp_path, "p.json", {
            "task": "dirichlet", "seed": 0,
            "manifold": {"kind": "radial", "m": 2, "warp": "sinh", "r_lo": 1.0,
                         "r_hi": 3.0, "n": 41},
            "subequation": subeq,
            "params": {"boundary": {"inner": 0.0, "outer": 1.0}},
        })
        code = main(["run", sc, "--out", str(tmp_path / "out"), "--no-plots"])
        assert code == 3
        err = capsys.readouterr().err
        assert "numpy engine" in err and "Traceback" not in err

    def test_stochastic_failure_exit_2(self, tmp_path):
        sc = write_scenario(tmp_path, "s.json", {
            "task": "stochastic", "seed": 0,
            "params": {"warp": "exp_r3", "m": 2, "lam": 1.0, "r_range": [0.1, 8.0]},
        })
        out = tmp_path / "out"
        code = main(["run", sc, "--out", str(out)])
        assert code == 2
        assert (out / "witness.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"]["result"] == "Fails"

    def test_obstacle_scenario(self, tmp_path):
        sc = write_scenario(tmp_path, "o.json", {
            "task": "obstacle", "seed": 0,
            "manifold": {"kind": "flat_box", "m": 1, "bounds": [[0.0, 1.0]],
                         "h": 0.0025},
            "subequation": {"kind": "hessian_branch", "k": 1,
                            "f": {"kind": "linear", "slope": 0.0}},
            "params": {"boundary": {"side": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}},
                       "g": {"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}},
        })
        code = main(["run", sc, "--out", str(tmp_path / "out"), "--no-plots"])
        assert code == 0

    def test_warp_overflow_exit_4(self, tmp_path, capsys):
        # g' of exp(r^3) overflows near r = 8.9: an input error naming the
        # first node where g'/g is not finite, with no RuntimeWarning
        sc = write_scenario(tmp_path, "w.json", {
            "task": "dirichlet", "seed": 0,
            "manifold": {"kind": "radial", "m": 2, "warp": "exp_r3", "r_lo": 1,
                         "r_hi": 10, "n": 41},
            "subequation": {"kind": "laplace", "f": {"kind": "linear", "slope": 0.0}},
            "params": {"boundary": {"inner": 1.0, "outer": 0.0}},
        })
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", sc, "--out", str(tmp_path / "out"), "--no-plots"])
        assert code == 4 and not caught
        err = capsys.readouterr().err
        assert "warp exp_r3: g'/g is not finite at node 36 (r = 9.1)" in err
        assert "Traceback" not in err

    def test_malformed_task_exit_4(self, tmp_path):
        sc = write_scenario(tmp_path, "bad.json", {"task": "bogus"})
        assert main(["run", sc]) == 4

    def test_unparseable_file_exit_4(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{nope")
        assert main(["run", str(p)]) == 4

    def test_missing_file_exit_4(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 4

    @pytest.mark.parametrize("edit", [
        lambda sc: sc["params"].pop("boundary"),
        lambda sc: sc["subequation"].pop("f"),
        lambda sc: sc["subequation"].update(f="x"),
        lambda sc: sc["params"]["boundary"].update(inner="x"),
        lambda sc: sc["params"].update(boundary=[1, 2]),
        lambda sc: sc.update(subequation={"kind": "intersect", "parts": 3}),
        lambda sc: sc["params"].update(boundary={"nosuch": 1.0}),
        lambda sc: sc.update(manifold={"kind": "radial", "m": 3, "warp": "euclidean",
                                       "r_lo": -1.0, "r_hi": 2.0, "n": 201}),
        lambda sc: (sc["manifold"].update(m=9),
                    sc.update(subequation={"kind": "sigma_branch", "j": 1, "k": 2,
                                           "f": {"kind": "linear", "slope": 0.0}})),
    ], ids=["no-boundary", "no-f", "f-not-an-object", "boundary-value-not-a-number",
            "boundary-not-an-object", "parts-not-an-array", "unknown-boundary-tag",
            "warp-not-positive", "dimension-above-max"])
    def test_malformed_scenario_exit_4(self, tmp_path, capsys, edit):
        sc = json.loads(SCENARIO_DIR.joinpath("dirichlet_annulus.json").read_text())
        edit(sc)
        path = write_scenario(tmp_path, "bad.json", sc)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--no-plots"]) == 4
        err = capsys.readouterr().err
        assert "input error" in err and "Traceback" not in err

    @pytest.mark.parametrize("stem,params", [
        ("capacity_sinh", {"radii": "abc"}),
        ("capacity_sinh", {"r_K": "abc"}),
        ("khasminskii_sinh", {"eps": "x"}),
        ("khasminskii_sinh", {"i_max": 2.5}),
    ], ids=["radii-string", "r_K-string", "eps-string", "i_max-float"])
    def test_param_of_wrong_type_exit_4(self, tmp_path, capsys, stem, params):
        sc = json.loads(SCENARIO_DIR.joinpath(f"{stem}.json").read_text())
        sc["params"].update(params)
        path = write_scenario(tmp_path, "bad.json", sc)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--no-plots"]) == 4
        err = capsys.readouterr().err
        assert "input error" in err and "Traceback" not in err
        assert f"scenario.params.{next(iter(params))}" in err

    @pytest.mark.parametrize("task,params", [
        ("garding_audit", {"m_max": 9, "n": 10}),
        ("garding_audit", {"m_max": 1, "n": 10}),
        ("garding_audit", {"n": 0}),
        ("duality_audit", {"n": 0, "ms": [2]}),
        ("duality_audit", {"n": 10, "ms": []}),
    ], ids=["m_max-above-max-dim", "m_max-below-2", "garding-n-0", "duality-n-0",
            "ms-empty"])
    def test_audit_param_out_of_range_exit_4(self, tmp_path, capsys, task, params):
        path = write_scenario(tmp_path, "bad.json", {"task": task, "params": params})
        assert main(["run", path, "--out", str(tmp_path / "out"), "--no-plots"]) == 4
        err = capsys.readouterr().err
        assert "input error" in err and "Traceback" not in err

    @pytest.mark.parametrize("params,named", [
        ({"radii": [500.0]}, "radius 500.0 is beyond the grid's last radius 102.0"),
        ({"r_K": 0.5}, "r_K 0.5 is below the grid's first radius 1.0"),
        ({"radii": [float("nan")]}, "radius nan is not finite"),
        ({"radii": [5.0, 3.0]}, "radii decrease from 5.0 to 3.0"),
    ], ids=["radius-beyond-grid", "r_K-below-grid", "radius-nan", "radii-decrease"])
    def test_capacity_radii_outside_grid_exit_4(self, tmp_path, capsys, params, named):
        # each ran a capacitor on other radii than asked, reported a
        # convention or exited 3 before these were input errors
        sc = json.loads(SCENARIO_DIR.joinpath("capacity_sinh.json").read_text())
        sc["params"].update(params)
        path = write_scenario(tmp_path, "bad.json", sc)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--no-plots"]) == 4
        err = capsys.readouterr().err
        assert "input error" in err and named in err and "Traceback" not in err

    def test_capacity_r_K_between_nodes_exit_4(self, tmp_path, capsys):
        # r_K = 1.02 lies between the sinh grid's nodes 1.0 and 1.05: it
        # was rounded up to 1.05 and reported as the capacity of {r <= 1.02}
        sc = json.loads(SCENARIO_DIR.joinpath("capacity_sinh.json").read_text())
        sc["params"]["r_K"] = 1.02
        path = write_scenario(tmp_path, "bad.json", sc)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--no-plots"]) == 4
        err = capsys.readouterr().err
        assert "input error" in err and "Traceback" not in err
        assert "r_K 1.02 is not a grid node: it lies between the nodes 1.0 and 1.05" in err

    def test_box_dirichlet_with_function_data(self, tmp_path):
        # du = 2 on the unit square with data x^2: the function spec reads
        # the first coordinate on a box too, and the presolve is the
        # quadratic itself, accepted with no step
        sc = write_scenario(tmp_path, "box.json", {
            "task": "dirichlet", "seed": 0,
            "manifold": {"kind": "flat_box", "m": 2, "bounds": [[0.0, 1.0], [0.0, 1.0]],
                         "h": 1 / 16},
            "subequation": {"kind": "laplace", "f": {"kind": "constant", "value": 2.0}},
            "params": {"boundary": {"side": {"kind": "poly", "coeffs": [0, 0, 1]}}},
        })
        out = tmp_path / "out"
        assert main(["run", sc, "--out", str(out), "--no-plots"]) == 0
        [cert] = json.loads((out / "report.json").read_text())["certificates"]
        assert cert["passed"]
        assert cert["params"]["init"] == "presolve"
        assert cert["counts"]["sweeps"] == 0

    def test_box_csv_places_every_node(self, tmp_path):
        # on a 2-D box u.csv has one coordinate column per axis: its 25
        # rows are 25 distinct nodes, where u is the solution x0^2
        sc = write_scenario(tmp_path, "box.json", {
            "task": "dirichlet", "seed": 0,
            "manifold": {"kind": "flat_box", "m": 2, "bounds": [[0.0, 1.0], [0.0, 1.0]],
                         "h": 1 / 4},
            "subequation": {"kind": "laplace", "f": {"kind": "constant", "value": 2.0}},
            "params": {"boundary": {"side": {"kind": "poly", "coeffs": [0, 0, 1]}}},
        })
        out = tmp_path / "out"
        assert main(["run", sc, "--out", str(out), "--no-plots"]) == 0
        lines = (out / "u.csv").read_text().splitlines()
        assert lines[0] == "x0,x1,u"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows.shape == (25, 3)
        assert len({(x0, x1) for x0, x1, _ in rows}) == 25
        assert np.abs(rows[:, 2] - rows[:, 0] ** 2).max() <= 1e-12

    def test_capacity_scenario(self, tmp_path):
        sc = write_scenario(tmp_path, "c.json", {
            "task": "capacity", "seed": 0,
            "manifold": {"kind": "radial", "m": 2, "warp": "sinh",
                         "r_lo": 1.0, "r_hi": 12.0, "n": 221},
            "params": {"r_K": 1.0, "radii": [3.0, 6.0, 9.0, 12.0]},
        })
        out = tmp_path / "out"
        assert main(["run", sc, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["monotone_trace"]

    def test_tol_reaches_capacity_solves(self, tmp_path, monkeypatch):
        import subeq.cli

        seen = []
        real = subeq.cli.inf_capacity

        def spy(*args, policy, **kwargs):
            seen.append(policy)
            return real(*args, policy=policy, **kwargs)

        monkeypatch.setattr(subeq.cli, "inf_capacity", spy)
        sc = write_scenario(tmp_path, "c.json", {
            "task": "capacity", "seed": 0,
            "manifold": {"kind": "radial", "m": 2, "warp": "sinh",
                         "r_lo": 1.0, "r_hi": 6.0, "n": 51},
            "params": {"r_K": 1.0, "radii": [3.0, 6.0]},
        })
        out = tmp_path / "out"
        assert main(["run", sc, "--out", str(out), "--tol", "1e-6", "--no-plots"]) == 0
        assert [p.membership_tol for p in seen] == [1e-6]
        assert json.loads((out / "report.json").read_text())["tol_override"] == 1e-6

    def test_policy_key_never_reaches_solver(self, tmp_path, monkeypatch, capsys):
        # a top-level "_policy" key is scenario data like any other key: the
        # solver gets the default policy, and the run ends without a traceback
        import subeq.cli
        from subeq.policy import DEFAULT_POLICY

        seen = []
        real = subeq.cli.solve_obstacle

        def spy(spec):
            seen.append(spec.policy)
            return real(spec)

        monkeypatch.setattr(subeq.cli, "solve_obstacle", spy)
        payload = json.loads(next(p for p in SCENARIOS if p.stem == "obstacle_1d").read_text())
        payload["_policy"] = {}
        sc = write_scenario(tmp_path, "o.json", payload)
        assert main(["run", sc, "--out", str(tmp_path / "out"), "--no-plots"]) == 0
        assert seen == [DEFAULT_POLICY]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "1e300", "0.5"])
    def test_tol_must_be_finite_positive(self, tmp_path, capsys, tol):
        # a finite but huge tolerance would pass every certificate it bounds
        out = tmp_path / "out"
        path = str(SCENARIO_DIR / "dirichlet_annulus.json")
        assert main(["run", path, "--out", str(out), f"--tol={tol}", "--no-plots"]) == 4
        err = capsys.readouterr().err
        assert "input error" in err and "--tol" in err and str(float(tol)) in err
        assert f"at most {MAX_TOL:g}" in err
        assert not out.exists()

    def test_tol_rejected_where_it_cannot_apply(self, tmp_path):
        for task in ("duality_audit", "garding_audit", "log_transform", "stochastic"):
            sc = write_scenario(tmp_path, f"{task}.json", {"task": task, "seed": 0})
            out = tmp_path / task
            assert main(["run", sc, "--out", str(out), "--tol", "1e-6"]) == 4
            assert not out.exists()
        with pytest.raises(SystemExit):
            main(["audit", "--tol", "1e-6"])

    @pytest.mark.parametrize("how", ["audit", "run_flag", "scenario_key"])
    def test_negative_seed_is_input_error(self, tmp_path, capsys, how):
        out = tmp_path / "out"
        if how == "audit":
            argv, seed = ["audit", "--seed", "-1"], -1
        elif how == "run_flag":
            sc = write_scenario(tmp_path, "g.json", {"task": "garding_audit", "seed": 0})
            argv, seed = ["run", sc, "--seed", "-3"], -3
        else:
            sc = write_scenario(tmp_path, "d.json", {"task": "duality_audit", "seed": -1})
            argv, seed = ["run", sc], -1
        assert main([*argv, "--out", str(out), "--no-plots"]) == 4
        err = capsys.readouterr().err
        assert "input error" in err and f"seed must be a non-negative integer, got {seed}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_punctured_scenario(self, tmp_path):
        sc = write_scenario(tmp_path, "p.json", {
            "task": "punctured_check", "seed": 0,
            "params": {"m": 3, "lam": 1.0},
        })
        assert main(["run", sc, "--out", str(tmp_path / "out")]) == 0


class TestParsers:
    def test_profile_kinds(self):
        assert parse_profile({"kind": "linear", "slope": 2.0})(3.0) == 6.0
        assert parse_profile({"kind": "constant", "value": -1.0})(9.0) == -1.0
        t = parse_profile({"kind": "table", "r": [0.0, 1.0], "v": [0.0, 2.0]})
        assert t(0.5) == 1.0

    def test_subequation_tree(self):
        spec = {"kind": "dual",
                "of": {"kind": "intersect",
                       "parts": [{"kind": "laplace", "f": {"kind": "linear", "slope": 1.0}},
                                 {"kind": "eikonal", "xi": {"kind": "constant", "value": 1.0}}]}}
        F = parse_subequation(spec, 2)
        assert F.meta.tag.startswith("union")

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            parse_subequation({"kind": "nonsense"}, 2)

    @pytest.mark.parametrize("parse", [
        parse_profile, parse_aprofile, parse_fn, lambda spec: parse_subequation(spec, 2),
    ], ids=["profile", "aprofile", "fn", "subequation"])
    def test_non_object_spec_rejected(self, parse):
        with pytest.raises(InputError, match="must be an object"):
            parse("x")


class TestAudit:
    def test_audit_passes(self, tmp_path):
        assert run_audit(out_dir=str(tmp_path / "a"), seed=0) == 0
        # the runner times each suite, in suite order
        assert timing_keys(tmp_path / "a") == ["duality_involution", "garding_identity",
                                               "pn_audits", "solver_oracles"]

    def test_certificate_holds_no_timing(self):
        # a certificate holds what can be checked again; wall times go only
        # to the runner's timing sidecar
        assert [f.name for f in dataclasses.fields(Certificate)] == [
            "name", "passed", "tolerance", "worst", "counts", "params", "residuals",
            "trace", "notes"]

    def test_determinism_modulo_timestamp(self, tmp_path):
        run_audit(out_dir=str(tmp_path / "a1"), seed=0)
        run_audit(out_dir=str(tmp_path / "a2"), seed=0)
        r1 = json.loads((tmp_path / "a1" / "report.json").read_text())
        r2 = json.loads((tmp_path / "a2" / "report.json").read_text())
        r1.pop("timestamp")
        r2.pop("timestamp")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    @pytest.mark.parametrize("member,bad_dual", [
        # forget the hessian branch's k -> m-k+1 remap (reads the spectrum)
        ("_Hessian", lambda self: SU._Hessian(self.m, self.k, self.f.reflect())),
        # make the eikonal self-dual (reads the kept |p|)
        ("_Eikonal", lambda self: self),
    ], ids=["hessian_remap", "eikonal_self_dual"])
    def test_injected_sign_bug_caught(self, monkeypatch, member, bad_dual):
        # the members share one sample per m; a mutated dual must still
        # fail the involution suite, which names itself
        monkeypatch.setattr(getattr(SU, member), "dual", bad_dual)
        cert = duality_involution_suite(seed=0, n=2000, ms=(2,))
        assert not cert.passed
        assert cert.name == "duality_involution"
        assert cert.worst["dual_identity"] > 1e-9

    def test_suites_decompose_each_batch_once(self, monkeypatch):
        # every suite evaluates on views that own their spectra: F, its dual
        # and its double dual, the Garding levels of A, -A and A + P for all
        # k, and the nine P/N members of one sample share the decompositions
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        counts = {}
        for suite in (duality_involution_suite, garding_identity_suite, pn_audit_suite):
            calls.clear()
            assert suite(seed=0).passed
            counts[suite.__name__] = len(calls)
        # LAPACK decomposes only m >= 3 spectra and Garding levels >= 3:
        # 2 x 2 spectra and level 2 are closed forms, so the duality suite
        # decomposes just J and -J at m = 3, 4 (its sigma member is sigma_2)
        assert counts == {"duality_involution_suite": 4, "garding_identity_suite": 30,
                          "pn_audit_suite": 2}

    def test_duality_suite_draws_one_sample_per_m(self, monkeypatch):
        # one draw per m, shared by the nine members and the De Morgan
        # check; the spectrum of -A is decomposed, not derived from A's
        draws, decomposed = [], []
        random_jets, spectrum = SU._random_jets, jets.eigenvalues_sym_batch
        monkeypatch.setattr(SU, "_random_jets",
                            lambda rng, n, m: draws.append(random_jets(rng, n, m)) or draws[-1])
        monkeypatch.setattr(jets, "eigenvalues_sym_batch",
                            lambda a: decomposed.append(np.array(a)) or spectrum(a))
        assert duality_involution_suite(seed=0, ms=(2, 3, 4)).passed
        assert [A.shape[1] for _, _, A in draws] == [2, 3, 4]
        for _, _, A in draws:
            assert sum(np.array_equal(a, -A) for a in decomposed) == 1

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pn_suite_merges_audit_pnt(self, seed):
        # the suite's shared views give each member what audit_PNT alone gives
        suite = pn_audit_suite(seed=seed)
        for m in (2, 3):
            for F in _catalog(m):
                alone = audit_PNT(F, n=20_000, seed=seed)
                prefix = f"{F.meta.tag}[m={m}]."
                assert alone.worst == {k: suite.worst[prefix + k] for k in alone.worst}
                assert alone.counts == {k: suite.counts[prefix + k] for k in alone.counts}

    def test_tightened_tolerance_fails_documented(self):
        # tightening below the measured floating-point floor produces the
        # documented tolerance-bound failure
        base = garding_identity_suite(seed=0, n=200, m_max=4)
        floor = max(base.worst["duality_identity"], 1e-300)
        cert = garding_identity_suite(seed=0, n=200, m_max=4, tol=floor / 10)
        assert not cert.passed
