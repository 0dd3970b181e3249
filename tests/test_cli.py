"""CLI behavior: outputs, exit codes, configs, determinism."""

import json
from fractions import Fraction

import pytest

from hypaction.cli import RunConfig, main

from line2 import line2_ball_json


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text()


def test_ball_command(tmp_path):
    code, text = run_cli(["ball", "--group", "free:2", "--radius", "3"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    assert payload["vertices"] == 53
    assert payload["layer_sizes"] == [1, 4, 12, 36]
    assert payload["upsilon"] == 5.0


def test_ball_command_prints_upsilon_at_radius_one(tmp_path):
    code, text = run_cli(["ball", "--group", "free:2", "--radius", "1"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    assert payload["layer_sizes"] == [1, 4]
    assert payload["upsilon"] == 5.0


def test_select_p_and_verify_at_radius_one(tmp_path):
    code, text = run_cli(["select-p", "--group", "free:2", "--radius", "1"], tmp_path, "sel")
    assert code == 0
    assert json.loads(text)["upsilon"] == 5.0
    code, text = run_cli(["verify", "--group", "free:2", "--radius", "1"], tmp_path, "ver")
    assert code == 0
    assert json.loads(text)["passed"]


def test_chain_command_base_case(tmp_path):
    code, text = run_cli(["chain", "--group", "free:2", "e", "a^5"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    assert payload["entries"] == [["aaaaa", 1, 1]]


def test_chain_command_h(tmp_path):
    code, text = run_cli(
        ["chain", "--group", "free:2", "e", "a^12", "--which", "h", "--p", "4"], tmp_path
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["p"] == 4.0
    assert payload["coefficients"] == [["aaaaaaaaaa", 1.0]]


def test_chain_command_h_spread(tmp_path):
    # f(e, q^20) on the line2 ball is 1/2 on each of two points, so
    # ||f||_3 = 2^(-2/3) and both coefficients of h are 2^(-1/3)
    ball_path = tmp_path / "line2r40.json"
    ball_path.write_text(json.dumps(line2_ball_json(40)))
    code, text = run_cli(
        ["chain", "--group", f"ball:{ball_path}", "e", "q^20", "--which", "h", "--p", "3"],
        tmp_path,
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["p"] == 3.0
    assert payload["norm"] == 0.6299605249474366
    assert payload["coefficients"] == [["pqqqqqqqqq", 0.7937005259840997],
                                       ["qqqqqqqqqq", 0.7937005259840997]]
    assert payload["entries"] == [["pqqqqqqqqq", 1, 2], ["qqqqqqqqqq", 1, 2]]


def test_cocycle_far_from_the_window(capsys):
    # d(g, e) = 260 on zm:2,3 with a radius-4 window: the f descent stays
    # linear in |g| and the tail bound overflows to inf, not to a traceback
    g = " ".join(["s t"] * 130)
    code = main(["cocycle", "--group", "zm:2,3", "--radius", "4", "--samples", "200",
                 "--g", g])
    out, err = capsys.readouterr()
    assert err == ""
    payload = json.loads(out)
    assert payload["d_g_e"] == 260
    assert payload["p"] == 6.5
    assert payload["tail_bound"] == float("inf")
    assert code == 1  # a radius-4 window cannot show the paper's bound at d = 260


def test_certify_delta_command(tmp_path):
    code, text = run_cli(
        ["certify-delta", "--group", "zm:2,3", "--radius", "5",
         "--samples", "100", "--seed", "2"],
        tmp_path,
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["pass"] is True
    assert payload["max_deviation"] <= 1
    assert set(payload) >= {"delta", "samples", "skipped", "max_deviation", "witness", "pass"}


def test_certify_delta_that_compares_nothing_is_inconclusive(tmp_path):
    code, text = run_cli(
        ["certify-delta", "--group", "free:2", "--radius", "3",
         "--samples", "0", "--exhaustive-radius", "0"],
        tmp_path,
    )
    assert code == 3
    payload = json.loads(text)
    assert payload["evaluated"] == 0 and payload["pass"] is False


def test_select_p_command(tmp_path):
    code, text = run_cli(
        ["select-p", "--group", "free:2", "--radius", "5", "--samples", "200", "--seed", "1"],
        tmp_path,
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["chosen_p"] >= 2.0
    assert payload["margin"] > 0.25
    assert payload["candidates"][-1]["p"] == payload["chosen_p"]


def test_cocycle_command(tmp_path):
    code, text = run_cli(
        ["cocycle", "--group", "free:2", "--g", "a^25", "--samples", "150", "--seed", "4"],
        tmp_path,
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["exact"] is True
    assert payload["d_g_e"] == 25
    assert payload["properness_count"] == 6
    assert payload["paper_bound_ok"] is True
    assert payload["lower"] >= 2 * (25 - 21)


def test_verify_deterministic(tmp_path):
    args = ["verify", "--group", "free:2", "--radius", "4", "--samples", "120", "--seed", "9"]
    code1, text1 = run_cli(args, tmp_path, "r1")
    code2, text2 = run_cli(args, tmp_path, "r2")
    assert code1 == code2 == 0
    assert text1 == text2
    assert json.loads(text1)["passed"] is True


def test_report_command(tmp_path):
    code, text = run_cli(
        ["report", "--group", "free:2", "--powers", "a:3", "--samples", "120", "--seed", "5"],
        tmp_path,
        "table.csv",
    )
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == (
        "g_word,d_g_e,p,lower,tail_bound,properness_count,"
        "bound_20delta_ok,bound_100delta_ok"
    )
    assert len(lines) == 4
    assert lines[1].startswith("a,1,")


def test_report_deterministic(tmp_path):
    args = ["report", "--group", "zm:2,3", "--g-words", "st,ts", "--radius", "6",
            "--samples", "150", "--seed", "6"]
    _, text1 = run_cli(args, tmp_path, "t1.csv")
    _, text2 = run_cli(args, tmp_path, "t2.csv")
    assert text1 == text2


def test_verify_explicit_ball(tmp_path):
    import hypaction as H

    ball_path = tmp_path / "z23r8.json"
    ball_path.write_text(json.dumps(H.ball_to_json(H.FreeProductSpec((2, 3)), 8)))
    code, text = run_cli(
        ["verify", "--group", f"ball:{ball_path}", "--radius", "3",
         "--samples", "100", "--seed", "2"],
        tmp_path,
    )
    # no deep word fits in the radius-8 ball, so properness evaluates
    # nothing, and no identity pair leaves its audits the margin they need:
    # both are inconclusive (exit 3), neither passed nor failed
    assert code == 3
    report = json.loads(text)
    assert report["passed"] is False
    inconclusive = ["cocycle-identity", "properness"]
    assert report["inconclusive"] == inconclusive
    # the other window-limited checks are skipped case by case, not failed
    assert all(c["passed"] for c in report["checks"] if c["name"] not in inconclusive)
    names = {c["name"] for c in report["checks"]}
    assert "chain-convexity-support" in names
    # where products leave the ball decides what each check evaluates
    assert _counts(report) == {
        "group-laws": (199, {"OutOfWindowError": 1}),
        "delta-certificate": (311, 0),
        "bicombing": (100, {}),
        "chain-convexity-support": (78, {"ExactnessError": 22}),
        "chain-equivariance": (7, {"ExactnessError": 3}),
        "h-normalization": (9, {"ExactnessError": 1}),
        "decay-and-p-selection": (None, None),
        "cocycle-identity": (0, {"ExactnessError": 5}),
        "properness": (0, {"OutOfWindowError": 10}),
    }
    assert _check(report, "cocycle-identity")["audited"] == 0


def test_verify_line2_ball(tmp_path):
    ball_path = tmp_path / "line2r22.json"
    ball_path.write_text(json.dumps(line2_ball_json(22)))
    code, text = run_cli(
        ["verify", "--group", f"ball:{ball_path}", "--radius", "6", "--seed", "2"], tmp_path
    )
    assert code == 3
    report = json.loads(text)
    assert report["inconclusive"] == ["properness"]
    assert _counts(report) == {
        "group-laws": (800, {}),
        "delta-certificate": (566, 0),
        "bicombing": (400, {}),
        "chain-convexity-support": (400, {}),
        "chain-equivariance": (40, {}),
        "h-normalization": (40, {}),
        "decay-and-p-selection": (None, None),
        "cocycle-identity": (5, {}),
        "properness": (0, {"ExactnessError": 3, "OutOfWindowError": 7}),
    }
    assert _check(report, "cocycle-identity")["audited"] == 0


def _check(report, name):
    return next(c["details"] for c in report["checks"] if c["name"] == name)


def _counts(report):
    """(evaluated, skipped) of each check of a verify report."""
    return {c["name"]: (c["details"].get("evaluated"), c["details"].get("skipped"))
            for c in report["checks"]}


def test_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"group": "free:2", "radius": 3, "seed": 7}))
    code, text = run_cli(["ball", "--config", str(cfg_path)], tmp_path)
    assert code == 0
    assert json.loads(text)["vertices"] == 53
    # CLI flags override file values
    code, text = run_cli(["ball", "--config", str(cfg_path), "--radius", "2"], tmp_path)
    assert json.loads(text)["vertices"] == 17


def test_config_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"group": "free:2", "radius": -3}))
    assert main(["ball", "--config", str(bad)]) == 2
    ugly = tmp_path / "ugly.json"
    ugly.write_text(json.dumps({"group": "free:2", "no_such_knob": 1}))
    assert main(["ball", "--config", str(ugly)]) == 2


def test_config_file_must_hold_an_object(tmp_path, capsys):
    for i, text in enumerate(("3", "null", '["radius"]')):
        path = tmp_path / f"top{i}.json"
        path.write_text(text)
        assert main(["ball", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err


def test_verify_without_samples_lists_the_fit_as_inconclusive(tmp_path):
    code, text = run_cli(["verify", "--group", "free:2", "--radius", "2", "--samples", "0"],
                         tmp_path)
    assert code == 3
    report = json.loads(text)
    checks = {c["name"]: c for c in report["checks"]}
    assert len(report["checks"]) == 9
    fit = checks["decay-and-p-selection"]
    assert fit["inconclusive"] and not fit["passed"]
    assert fit["details"] == {"evaluated": 0}
    assert "decay-and-p-selection" in report["inconclusive"]
    assert report["p"] is None  # not the probe p = 2 the other checks run at


def test_verify_lists_a_fit_nothing_determines_as_inconclusive(tmp_path):
    # on B(e, 0) every triple has b = a = e and Gromov product 0; on a radius-1
    # line2 ball file the margins leave 4 supported triples, all with one product
    ball_path = tmp_path / "line2r1.json"
    ball_path.write_text(json.dumps(line2_ball_json(1)))
    # on a radius-0 ball file upsilon is undetermined too; the fit is reported
    ball0_path = tmp_path / "line2r0.json"
    ball0_path.write_text(json.dumps(line2_ball_json(0)))
    for group, radius, samples, supported in (("free:2", "0", "50", 200),
                                              (f"ball:{ball_path}", "1", "300", 4),
                                              (f"ball:{ball0_path}", "0", "50", 0)):
        code, text = run_cli(["verify", "--group", group, "--radius", radius,
                              "--samples", samples], tmp_path)
        assert code == 3
        report = json.loads(text)
        assert "decay-and-p-selection" in report["inconclusive"]
        fit = _check(report, "decay-and-p-selection")
        assert fit["evaluated"] == supported
        assert f"{supported} supported triples" in fit["error"]
        assert report["p"] is None


def test_config_fields_must_be_integers(tmp_path, capsys):
    for i, field in enumerate(({"radius": "5"}, {"samples": 2.5}, {"seed": True})):
        path = tmp_path / f"typed{i}.json"
        path.write_text(json.dumps({"group": "free:2", **field}))
        assert main(["ball", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err


def test_config_strings_and_nulls_are_typed_before_any_work(tmp_path, capsys, monkeypatch):
    # group and output take strings, and only delta and output may be null;
    # each is rejected as the config loads, before a ball is built
    from hypaction import cli

    def no_ball(*args):
        raise AssertionError("a ball was built")

    monkeypatch.setattr(cli, "build_ball", no_ball)
    for i, field in enumerate(({"group": 5}, {"output": 7}, {"group": None},
                               {"radius": None}, {"output": ["x"]})):
        path = tmp_path / f"typed{i}.json"
        path.write_text(json.dumps(field))
        assert main(["ball", "--config", str(path)]) == 2
        assert "config error: config field" in capsys.readouterr().err
    # the nullable fields still load as null
    path = tmp_path / "nulls.json"
    path.write_text(json.dumps({"delta": None, "output": None, "radius": 2}))
    monkeypatch.undo()
    code, text = run_cli(["ball", "--config", str(path)], tmp_path)
    assert code == 0 and json.loads(text)["vertices"] == 17


def test_negative_exhaustive_radius_is_a_config_error(tmp_path, capsys):
    # with no samples and no sweep the certificate would check nothing
    for command in ("certify-delta", "verify"):
        out = tmp_path / command
        code = main([command, "--group", "free:2", "--radius", "3", "--samples", "0",
                     "--exhaustive-radius", "-1", "--out", str(out)])
        assert code == 2 and not out.exists()
        assert "config error" in capsys.readouterr().err


def test_bad_group_descriptor():
    assert main(["ball", "--group", "braid:5"]) == 2


def test_bad_ball_files_exit_cleanly(tmp_path, capsys):
    # a bad inverse index is a ball-file error, an empty label a config
    # error as a duplicate label is
    for i, (index, key, value, code) in enumerate(((0, "inverse", 5, 1), (0, "label", "", 2),
                                                   (1, "label", "p", 2))):
        data = line2_ball_json(2)
        data["generators"][index][key] = value
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(data))
        assert main(["ball", "--group", f"ball:{path}", "--radius", "1"]) == code
        assert ("error: " if code == 1 else "config error: ") in capsys.readouterr().err


def test_ball_file_label_must_be_a_string(tmp_path, capsys):
    for i, label in enumerate((None, 5)):
        data = line2_ball_json(2)
        data["generators"][0]["label"] = label
        path = tmp_path / f"label{i}.json"
        path.write_text(json.dumps(data))
        assert main(["ball", "--group", f"ball:{path}", "--radius", "1"]) == 1
        assert "error: a generator label must be a string" in capsys.readouterr().err


def test_runconfig_defaults():
    cfg = RunConfig.load(None, {})
    assert cfg.group == "free:2"
    assert cfg.p == "auto"
    assert cfg.max_vertices() > 1000


def test_memory_charge_covers_a_windowed_norm():
    # the budget charges each vertex for the ball, eta over it and a windowed
    # norm's walk from g; zm:2,3 costs the most per vertex of the families
    # the charge was fitted on, so a ball as large as the budget admits fits
    import tracemalloc

    import hypaction as H

    cfg = RunConfig.load(None, {"group": "zm:2,3", "radius": 20})
    spec = cfg.make_spec()
    coc = H.Cocycle(H.ChainEngine(spec), 4.0)
    fit = H.DecayFit(constant=1.0, base=0.01, n_samples=0, n_positive=0)
    tracemalloc.start()
    try:
        ball = H.build_ball(spec, cfg.radius)
        coc.norm(spec.parse("s"), window_ball=ball, fit=fit, upsilon=4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ball) == 7162
    assert peak * cfg.max_vertices() <= cfg.memory_budget_mb * (1 << 20) * len(ball)


def test_memory_charge_covers_the_walk_from_a_long_g():
    # the walk from g holds words of up to R + |g| letters, 8 bytes each; at
    # |g| = 40 a windowed norm peaks above the charge for |g| = 1, and within
    # the charge for its own g
    import tracemalloc

    import hypaction as H

    cfg = RunConfig.load(None, {"group": "free:2", "delta": 2, "radius": 8})
    spec = cfg.make_spec()
    g = spec.parse("ab" * 20)
    coc = H.Cocycle(H.ChainEngine(spec), 4.0)
    fit = H.DecayFit(constant=1.0, base=0.01, n_samples=0, n_positive=0)
    tracemalloc.start()
    try:
        ball = H.build_ball(spec, cfg.radius)
        coc.norm(g, window_ball=ball, fit=fit, upsilon=4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ball) == 13121 and len(g) == 40
    budget = cfg.memory_budget_mb * (1 << 20)
    assert peak * cfg.max_vertices() > budget * len(ball)
    assert peak * cfg.max_vertices(len(g)) <= budget * len(ball)


_FRESH_PEAK = """
import tracemalloc
import hypaction as H

def peak():
    spec = H.FreeProductSpec((2, 3))
    g = spec.parse("st" * 5)
    coc = H.Cocycle(H.ChainEngine(spec), 4.0)
    fit = H.DecayFit(constant=1.0, base=0.01, n_samples=0, n_positive=0)
    tracemalloc.start()
    ball = H.build_ball(spec, 16)
    coc.norm(g, window_ball=ball, fit=fit, upsilon=4.0)
    got = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return len(ball), got

n, fresh = peak()
print(n, fresh, peak()[1])
"""


def test_memory_charge_covers_the_fixed_part_of_a_fresh_interpreter():
    # a fresh interpreter allocates a fixed amount on a first norm that a
    # warm one (the same interpreter, the same norm again) has already
    # allocated; it exceeds the fixed term, and the fixed term with the
    # per-vertex charge covers the fresh peak
    import os
    import subprocess
    import sys

    import hypaction
    from hypaction import cli

    src = os.path.dirname(os.path.dirname(hypaction.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _FRESH_PEAK], env=env, check=True,
                         capture_output=True, text=True).stdout
    n, fresh, warm = map(int, out.split())
    per_vertex = cli._BYTES_PER_VERTEX + cli._BYTES_PER_LETTER * (3 * 16 + 10)
    assert n == 1786
    assert fresh - warm > cli._FIXED_BYTES
    assert fresh <= cli._FIXED_BYTES + n * per_vertex


def test_report_selects_p_once(tmp_path, monkeypatch):
    from hypaction import analysis

    calls = []
    select_p = analysis.select_p

    def counting_select_p(*args, **kwargs):
        calls.append(args)
        return select_p(*args, **kwargs)

    monkeypatch.setattr(analysis, "select_p", counting_select_p)
    code, text = run_cli(
        ["report", "--group", "free:2", "--powers", "a:3", "--samples", "120", "--seed", "5"],
        tmp_path,
        "table.csv",
    )
    assert code == 0
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    assert len(rows) == 3
    assert len(calls) == 1
    assert len({row[2] for row in rows}) == 1


def test_report_off_trees_pins_its_csv(tmp_path):
    # the windowed rows on zm:2,3, g = e included: b(e) = 0 with tail 0
    code, text = run_cli(["report", "--group", "zm:2,3", "--radius", "12", "--samples", "200",
                          "--g-words", "st,stst^2st,t,e"], tmp_path, "table.csv")
    assert code == 0
    assert text == (
        "g_word,d_g_e,p,lower,tail_bound,properness_count,bound_20delta_ok,bound_100delta_ok\n"
        "s t,2,7.7,436.0,2651880.9129801397,0,True,True\n"
        "s t s t^2 s t,6,7.7,500.0,195174032905.06345,0,True,True\n"
        "t,1,7.7,372.0,161004.1286389998,0,True,True\n"
        "e,0,7.7,0.0,0.0,0,True,True\n"
    )


def test_report_walks_the_window_from_e_once(tmp_path, monkeypatch):
    # the rows of one report share one cocycle, so eta is evaluated once:
    # one walk from e, then one from each g
    from hypaction.cayley import CayleyBall

    starts = []
    walk = CayleyBall.walk

    def recording(self, start, right=False):
        starts.append(start)
        return walk(self, start, right)

    monkeypatch.setattr(CayleyBall, "walk", recording)
    code, text = run_cli(["report", "--group", "zm:2,3", "--radius", "6", "--samples", "100",
                          "--g-words", "st,sts,tst,s"], tmp_path, "table.csv")
    assert code == 0 and len(text.splitlines()) == 5
    assert starts.count(()) == 1 and len(starts) == 5


def test_verify_draws_the_decay_triples_once(tmp_path, monkeypatch):
    # lambda is the p = 1 fit of the one fitter that selects p, and both
    # fits equal the envelope refitted from their full sample lists
    from hypaction import analysis

    calls = []
    rho_fitter = analysis.rho_fitter

    def counting_rho_fitter(*args):
        calls.append(args)
        return rho_fitter(*args)

    monkeypatch.setattr(analysis, "rho_fitter", counting_rho_fitter)
    for group in ("free:2", "zm:2,3"):
        calls.clear()
        code, text = run_cli(["verify", "--group", group, "--radius", "4", "--samples", "100"],
                             tmp_path, group)
        assert code == 0
        assert len(calls) == 1
        assert _check(json.loads(text), "decay-and-p-selection")["refit_equal"] is True


def test_verify_fails_a_fit_that_its_refit_does_not_reproduce(tmp_path, monkeypatch):
    from dataclasses import replace

    from hypaction import analysis

    fit_envelope = analysis.fit_envelope
    monkeypatch.setattr(analysis, "fit_envelope",
                        lambda samples: replace(fit_envelope(samples), n_positive=-1))
    code, text = run_cli(["verify", "--group", "free:2", "--radius", "4", "--samples", "100"],
                         tmp_path)
    report = json.loads(text)
    check = next(c for c in report["checks"] if c["name"] == "decay-and-p-selection")
    assert code == 1 and not check["passed"] and not check["inconclusive"]
    assert check["details"]["refit_equal"] is False


def test_exact_trees_at_a_given_p_fit_nothing(tmp_path, monkeypatch):
    from hypaction import analysis

    fitted = []
    monkeypatch.setattr(analysis, "rho_fitter", lambda *args: fitted.append(args))
    for args in (["cocycle", "--g", "a^25"], ["report", "--powers", "a:3"],
                 ["chain", "e", "a^12", "--which", "h"]):
        code, _ = run_cli(args + ["--group", "free:2", "--radius", "9", "--p", "3"], tmp_path)
        assert code == 0
    assert fitted == []


def test_non_finite_p_is_a_config_error(tmp_path, capsys, monkeypatch):
    from hypaction import analysis

    # a bad p is rejected as the config loads, before any decay is fitted
    fitted = []
    monkeypatch.setattr(analysis, "rho_fitter", lambda *args: fitted.append(args))
    commands = (
        ["verify", "--group", "zm:2,3", "--radius", "4", "--samples", "50"],
        ["report", "--group", "zm:2,3", "--radius", "5", "--g-words", "st"],
        ["cocycle", "--group", "free:2", "--radius", "3", "--g", "ab"],
        ["chain", "--group", "free:2", "e", "a^12", "--which", "h"],
        ["chain", "--group", "free:2", "e", "a^12", "--which", "f"],
        ["select-p", "--group", "zm:2,3", "--radius", "4"],
    )
    for i, args in enumerate(commands):
        for p in ("nan", "inf", "1.5"):
            out = tmp_path / f"out{i}{p}"
            assert main(args + ["--p", p, "--out", str(out)]) == 2
            assert not out.exists()
            assert "config error" in capsys.readouterr().err
    for i, p in enumerate(("inf", None, "two")):
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps({"group": "zm:2,3", "radius": 5, "p": p}))
        out = tmp_path / f"cfg_out{i}"
        assert main(commands[1] + ["--config", str(cfg_path), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err
    assert fitted == []


def test_finite_p_from_two_up_is_accepted(tmp_path):
    assert RunConfig.load(None, {"p": "2"}).p == 2.0
    assert RunConfig.load(None, {"p": "3.5"}).p == 3.5
    assert RunConfig.load(None, {"p": "auto"}).p == "auto"
    for p in ("2", "3.5", "auto"):
        code, text = run_cli(["chain", "--group", "free:2", "e", "a^12", "--which", "h",
                              "--p", p], tmp_path)
        assert code == 0
        assert json.loads(text)["p"] == (8.0 if p == "auto" else float(p))


# the (p, rho) candidates select_p scans and the p it chooses on two command
# lines: a change to the decay fit that moves a selection fails here. rho is a
# grid value i / 200, so the pins do not depend on the platform's libm
PINNED_SELECTIONS = {
    "free2-report": (
        ["report", "--group", "free:2", "--p", "auto", "--samples", "200",
         "--powers", "a:1:2", "--g-words", "BABABa,AAAbbbAb"],
        [(k / 10, 0.685) for k in range(20, 81)], 8.0),
    "zm23-select-p": (
        ["select-p", "--group", "zm:2,3", "--radius", "8", "--samples", "2000", "--seed", "1"],
        [(k / 10, 0.695) for k in range(20, 78)], 7.7),
}


@pytest.mark.parametrize("name", sorted(PINNED_SELECTIONS))
def test_pinned_selections(name, tmp_path, monkeypatch):
    from hypaction import analysis

    argv, candidates, chosen = PINNED_SELECTIONS[name]
    selections = []
    select_p = analysis.select_p

    def recording_select_p(*args):
        selections.append(select_p(*args))
        return selections[-1]

    monkeypatch.setattr(analysis, "select_p", recording_select_p)
    code, _ = run_cli(argv, tmp_path)
    assert code == 0
    (sel,) = selections
    assert [(c["p"], c["rho"]) for c in sel.candidates] == candidates
    assert sel.p == chosen


# one configuration, one p: every command that uses p fits the decay on
# B(e, --radius) with --seed and at least 200 triples. Radius 9 is above the
# cap that an earlier fit ball had, and verify once drew its own triples
SAME_P = {
    "free2-delta2-radius9": (["--group", "free:2", "--delta", "2", "--radius", "9",
                              "--samples", "200"], "a", 15.6),
    "zm23-radius5": (["--group", "zm:2,3", "--radius", "5", "--seed", "0",
                      "--samples", "200"], "st", 7.7),
}


@pytest.mark.parametrize("name", sorted(SAME_P))
def test_every_command_uses_the_same_p(name, tmp_path):
    flags, g, p = SAME_P[name]
    printed = {}
    for command in (["select-p"], ["chain", "e", g, "--which", "h"], ["cocycle", "--g", g],
                    ["report", "--g-words", g], ["verify"]):
        _, text = run_cli(command + flags, tmp_path, command[0])
        if command[0] == "report":
            printed["report"] = float(text.splitlines()[1].split(",")[2])
        else:
            payload = json.loads(text)
            printed[command[0]] = payload["chosen_p" if command[0] == "select-p" else "p"]
    assert printed == dict.fromkeys(printed, p)


def test_verify_prints_no_p_where_none_was_selected(tmp_path, monkeypatch):
    from hypaction import analysis
    from hypaction.errors import PSelectionError

    def no_selection(*args):
        raise PSelectionError("no exponent reaches the target")

    monkeypatch.setattr(analysis, "select_p", no_selection)
    code, text = run_cli(["verify", "--group", "free:2", "--radius", "3", "--samples", "30"],
                         tmp_path, "failed")
    report = json.loads(text)
    assert code == 1 and report["p"] is None
    assert _check(report, "decay-and-p-selection") == {"error": "no exponent reaches the target"}
    # a given p is printed as given
    _, text = run_cli(["verify", "--group", "free:2", "--radius", "3", "--samples", "0",
                       "--p", "3"], tmp_path, "given")
    assert json.loads(text)["p"] == 3.0


def _stall_first_step(q_path):
    # the path repeats a before its second point: endpoints and length hold,
    # and the first step has length 0
    def stalled(spec, a, b):
        path = q_path(spec, a, b)
        return path[:1] + path[:1] + path[2:] if len(path) > 2 else path
    return stalled


def _letters_reversed_from_e(q_path):
    # from e, the geodesic that spells b's normal form last letter first: a
    # geodesic on line2, which is abelian, but not the translate of the
    # path from any other base
    def reversed_from_e(spec, a, b):
        if a:
            return q_path(spec, a, b)
        points = [()]
        for x in reversed(b):
            points.append(spec._mul(points[-1], (x,)))
        return tuple(points)
    return reversed_from_e


def _point_at_base(f_chain, near):
    # f(a, b) as the point mass at a, where d(a, b) is at most 10 delta
    # (near, and positive) or beyond it
    def at_base(self, a, b):
        d = len(self.spec.offset(a, b))
        if (0 < d <= self.ten_delta) if near else d > self.ten_delta:
            return {a: Fraction(1)}
        return f_chain(self, a, b)
    return at_base


def _short_point_masses(f_point):
    # a 10-letter point mass f(e, x) loses its last letter: the identity
    # sweep, which tests the group law, still holds, and the literal audits
    # of check 8 disagree
    def shortened(self, x):
        got = f_point(self, x)
        return got[:-1] if isinstance(got, tuple) and len(got) == 10 else got
    return shortened


def _plant(monkeypatch, fault):
    from dataclasses import replace

    from hypaction import chains, suite
    from hypaction.cocycle import Cocycle
    from hypaction.flowers import ChainEngine

    if fault == "geodesy":
        monkeypatch.setattr(suite, "q_path", _stall_first_step(suite.q_path))
    elif fault == "equivariance":
        monkeypatch.setattr(suite, "q_path", _letters_reversed_from_e(suite.q_path))
    elif fault == "convexity":
        monkeypatch.setattr(chains, "coefficient_sum", lambda chain: 2)
    elif fault in ("base-case", "support"):
        monkeypatch.setattr(ChainEngine, "f_chain",
                            _point_at_base(ChainEngine.f_chain, fault == "base-case"))
    elif fault == "chain-equivariance":
        monkeypatch.setattr(chains, "translate", lambda spec, g, chain: chain)
    elif fault == "h-normalization":
        monkeypatch.setattr(chains, "norm_p", lambda h, p: 2.0)
    elif fault == "cocycle-identity":
        verify_identity = Cocycle.verify_identity
        monkeypatch.setattr(Cocycle, "verify_identity", lambda self, *args, **kw: replace(
            verify_identity(self, *args, **kw), residual_zero=False, witnesses=[()]))
    elif fault == "literal-audit":
        monkeypatch.setattr(ChainEngine, "_f_point_basepoint",
                            _short_point_masses(ChainEngine._f_point_basepoint))
    elif fault == "exact-window-audit":
        # the generic evaluation that check 9's exact-window audit compares with
        monkeypatch.setattr(Cocycle, "_diff_norm_pow", lambda self, g, gamma: 1.0)
    elif fault == "properness-count":
        monkeypatch.setattr(Cocycle, "properness_count", lambda self, g: 0)
    else:
        norm = Cocycle.norm
        monkeypatch.setattr(Cocycle, "norm",
                            lambda self, g, **kw: replace(norm(self, g, **kw), lower=0.0))


# fault -> the check that must find it, the group, the witness's keys and its
# kind where the check has several; line2 is the radius-30 ball file, where
# geodesics are not unique
PLANTED = {
    "geodesy": ("bicombing", "free:2", {"kind", "a", "b"}, "geodesy"),
    "equivariance": ("bicombing", "line2", {"kind", "g"}, "equivariance"),
    "convexity": ("chain-convexity-support", "free:2", {"kind", "b", "a"}, "convexity"),
    "base-case": ("chain-convexity-support", "free:2", {"kind", "b", "a"}, "base-case"),
    "support": ("chain-convexity-support", "free:2", {"kind", "witness"}, "support"),
    "chain-equivariance": ("chain-equivariance", "free:2", {"g", "b", "a"}, None),
    "h-normalization": ("h-normalization", "free:2", {"b", "a"}, None),
    "cocycle-identity": ("cocycle-identity", "free:2", {"g", "k", "gamma"}, None),
    "literal-audit": ("cocycle-identity", "free:2", {"g", "k", "error"}, None),
    "exact-window-audit": ("properness", "free:2", {"length", "error"}, None),
    "properness-count": ("properness", "free:2", {"g", "count"}, None),
    "properness-lower": ("properness", "free:2", {"g", "lower"}, None),
}


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_verify_serializes_the_witness_of_a_planted_fault(fault, tmp_path, monkeypatch):
    # each fault breaks what one check tests; that check fails, rather than
    # being inconclusive, verify exits 1 and the report holds the witness
    name, group, keys, kind = PLANTED[fault]
    if group == "line2":
        group = f"ball:{tmp_path / 'line2r30.json'}"
        (tmp_path / "line2r30.json").write_text(json.dumps(line2_ball_json(30)))
    _plant(monkeypatch, fault)
    code, text = run_cli(["verify", "--group", group, "--radius", "6", "--samples", "400"],
                         tmp_path)
    check = next(c for c in json.loads(text)["checks"] if c["name"] == name)
    assert code == 1 and not check["passed"] and not check["inconclusive"]
    witness = check["details"]["witness"]
    assert set(witness) == keys
    assert witness.get("kind") == kind



def test_verify_serializes_a_word_whose_length_is_not_its_distance(tmp_path, monkeypatch):
    # the ball's search records its last layer one step too far: group-laws
    # compares word lengths with the layers' distances before it samples
    # anything, and fails on the first vertex of that layer
    from hypaction import suite

    build_ball = suite.build_ball

    def last_layer_too_far(spec, radius, **kw):
        ball = build_ball(spec, radius, **kw)
        sizes = ball.layer_sizes()
        ball.layer_sizes = lambda: sizes[:-1] + [0, sizes[-1]]
        return ball

    monkeypatch.setattr(suite, "build_ball", last_layer_too_far)
    code, text = run_cli(["verify", "--group", "free:2", "--radius", "3", "--samples", "40"],
                         tmp_path)
    check = next(c for c in json.loads(text)["checks"] if c["name"] == "group-laws")
    assert code == 1 and not check["passed"] and not check["inconclusive"]
    assert check["details"] == {"vertices": 53, "witness": "aaa"}
