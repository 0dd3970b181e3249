"""CLI behavior: outputs, exit codes, configs, determinism."""

import json

from hypaction.cli import RunConfig, main


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
    # nothing: inconclusive (exit 3), neither passed nor failed
    assert code == 3
    report = json.loads(text)
    assert report["passed"] is False
    assert report["inconclusive"] == ["properness"]
    # the other window-limited checks are skipped case by case, not failed
    assert all(c["passed"] for c in report["checks"] if c["name"] != "properness")
    names = {c["name"] for c in report["checks"]}
    assert "chain-convexity-support" in names


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


def test_bad_group_descriptor():
    assert main(["ball", "--group", "braid:5"]) == 2


def test_runconfig_defaults():
    cfg = RunConfig.load(None, {})
    assert cfg.group == "free:2"
    assert cfg.p == "auto"
    assert cfg.max_vertices(6) > 1000


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
