"""Scenario runner and audit suite: exit codes, artifacts, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import subeq
from subeq.cli import (
    duality_involution_suite,
    garding_identity_suite,
    main,
    parse_aprofile,
    parse_fn,
    parse_profile,
    parse_subequation,
    run_audit,
)
from subeq.errors import InputError


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


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_committed_scenario_exit_code(path, tmp_path):
    code = main(["run", str(path), "--out", str(tmp_path / "out"), "--no-plots"])
    assert code == SCENARIO_EXIT.get(path.stem, 0)
    # every committed scenario is on a line grid, where every tree (the
    # jet-equivalence of jetequiv_sinh too) takes the policy steps
    certs = json.loads((tmp_path / "out" / "report.json").read_text())["certificates"]
    assert all(c.get("params", {}).get("engine", "numpy") == "numpy" for c in certs)


def test_import_leaves_openssl_unloaded():
    # the spectral memo hashes with _blake2; hashlib would load OpenSSL
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
        assert (out / "timing.txt").exists()

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
    ], ids=["no-boundary", "no-f", "f-not-an-object", "boundary-value-not-a-number",
            "boundary-not-an-object", "parts-not-an-array", "unknown-boundary-tag"])
    def test_malformed_scenario_exit_4(self, tmp_path, capsys, edit):
        sc = json.loads(SCENARIO_DIR.joinpath("dirichlet_annulus.json").read_text())
        edit(sc)
        path = write_scenario(tmp_path, "bad.json", sc)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--no-plots"]) == 4
        err = capsys.readouterr().err
        assert "input error" in err and "Traceback" not in err

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

    def test_tol_rejected_where_it_cannot_apply(self, tmp_path):
        for task in ("duality_audit", "garding_audit", "log_transform", "stochastic"):
            sc = write_scenario(tmp_path, f"{task}.json", {"task": task, "seed": 0})
            out = tmp_path / task
            assert main(["run", sc, "--out", str(out), "--tol", "1e-6"]) == 4
            assert not out.exists()
        with pytest.raises(SystemExit):
            main(["audit", "--tol", "1e-6"])

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

    def test_determinism_modulo_timestamp(self, tmp_path):
        run_audit(out_dir=str(tmp_path / "a1"), seed=0)
        run_audit(out_dir=str(tmp_path / "a2"), seed=0)
        r1 = json.loads((tmp_path / "a1" / "report.json").read_text())
        r2 = json.loads((tmp_path / "a2" / "report.json").read_text())
        r1.pop("timestamp")
        r2.pop("timestamp")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_injected_sign_bug_caught(self, monkeypatch):
        # mutate the dual of the hessian-branch member (forget the
        # k -> m-k+1 remap): the involution suite must fail and name itself
        from subeq import subequations as SU

        def bad_dual(self):
            return SU._Hessian(self.m, self.k, self.f.reflect())

        monkeypatch.setattr(SU._Hessian, "dual", bad_dual)
        cert = duality_involution_suite(seed=0, n=2000, ms=(2,))
        assert not cert.passed
        assert cert.name == "duality_involution"
        assert cert.worst["dual_identity"] > 1e-9

    def test_tightened_tolerance_fails_documented(self):
        # tightening below the measured floating-point floor produces the
        # documented tolerance-bound failure
        base = garding_identity_suite(seed=0, n=200, m_max=4)
        floor = max(base.worst["duality_identity"], 1e-300)
        cert = garding_identity_suite(seed=0, n=200, m_max=4, tol=floor / 10)
        assert not cert.passed
