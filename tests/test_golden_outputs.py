"""Golden CLI outputs: the exit code and the SHA-256 of what each of a fixed
set of commands prints, on four groups.

A change that is meant to leave reports byte-identical keeps every digest; a
deliberate report change updates the digests it names. The radius-30 line2
ball file is written under a fixed relative name, so that its ``spec.name``
(printed by several commands) does not depend on where the test runs.
"""

import hashlib
import json

import pytest

from hypaction.cli import main

from line2 import line2_ball_json

LINE2_FILE = "line2_r30.json"

# per group: the common flags, report rows, the cocycle's g and a chain's endpoint
GROUPS = {
    "free2": (["--group", "free:2", "--radius", "4"],
              ["--powers", "a:1:2", "--g-words", "abAbaB"], "abAbaBab", "a^7 b^6"),
    "zm23": (["--group", "zm:2,3", "--radius", "6"],
             ["--g-words", "s t,s t s t^2 s t"], "s t s t^2 s t",
             "s t s t s t s t s t s t s t"),
    "free2-delta2": (["--group", "free:2", "--delta", "2", "--radius", "4"],
                     ["--powers", "a:1:2", "--g-words", "abAb"], "abAb", "a^12 b^10"),
    "line2-r30": (["--group", f"ball:{LINE2_FILE}", "--radius", "6"],
                  ["--g-words", "q^3,q^6 p"], "q^6 p", "q^19 p"),
}
SAMPLES_AND_SEED = ["--samples", "60", "--seed", "3"]


def _args(group: str, command: str) -> list[str]:
    flags, rows, g, b = GROUPS[group]
    extra = {
        "report": rows,
        "cocycle": ["--g", g],
        "select-p": [],
        "certify-delta": [],
        "chain": ["e", b, "--which", "h"],
        "verify": [],
    }[command]
    return [command, *flags, *SAMPLES_AND_SEED, *extra]


# (group, command) -> (exit code, SHA-256 of stdout)
DIGESTS = {
    ("free2", "certify-delta"): (0, "d6fa2f8535688b65120918e33512a019c8703ba1c74534ab918772304609b041"),
    ("free2", "chain"): (0, "7cda81c6ce52a52cd175187bb17b47879ea4ec2e7887eebb500adc0dddef2717"),
    ("free2", "cocycle"): (0, "ca4ef2fc1f283137a81bd156d3a677a92611bcb501d58982d7ec9f9bb8b7987c"),
    ("free2", "report"): (0, "b4e2ab3a47413dd8db4dc87b06af9141db4a7f6f93ce744218b3a906dc169d77"),
    ("free2", "select-p"): (0, "f910460596ae066a446e8a362104367163cccc587dc7c0ad07bd6ffbf844899a"),
    ("free2", "verify"): (0, "137c3d6cbdc9ebe3cf1b56ef3b35229243d1f183dae05187c673301ca1e9bd86"),
    ("free2-delta2", "certify-delta"): (0, "d06d66dfcca09c93da032d689a87582eaebb2352a6e500cf1276bc49076c9b49"),
    ("free2-delta2", "chain"): (0, "903fe99330c87bd2b6e54247e26004a12609fc29262c59117e9728487863174b"),
    ("free2-delta2", "cocycle"): (0, "9acd59ed0d13a606a2238b122c49ea28b7a073c1849bba9078289453bc856ab9"),
    ("free2-delta2", "report"): (0, "25c3eabf46c6e36e03030300760a60efd3188e417379caf9732d56aeebeae21a"),
    ("free2-delta2", "select-p"): (0, "f910460596ae066a446e8a362104367163cccc587dc7c0ad07bd6ffbf844899a"),
    ("free2-delta2", "verify"): (0, "db36430892454be9033a6b7fbd7ade7a4eb608c8d37e67122ab6ea228c7b81e7"),
    ("line2-r30", "certify-delta"): (0, "23fa80d1d704b994fe7c64543edbc262942a61b2de898762f6b94e951600f7e1"),
    ("line2-r30", "chain"): (0, "1d66cc50f7d177a617a81e253e20503d21955f44c4bc3f8898f1dff1e67c9247"),
    ("line2-r30", "cocycle"): (0, "49e13cad8300531ec2ad132a3097e12c36a1b9af9d60637e9b907b01a14741fb"),
    ("line2-r30", "report"): (0, "8ff9152bd25f61dcee104b8d2d30e27649129eaf41ffaae3f130ba3d34e87a47"),
    ("line2-r30", "select-p"): (0, "9515192e51a07ad78be33e4ac58705abcb8300a9b0be6b2f9b099321a7ab0fb1"),
    ("line2-r30", "verify"): (0, "f3d1d6e48f9d8663a4b2498a2063f976efd112fb6326535e664efa36896605bd"),
    ("zm23", "certify-delta"): (0, "bd51ffbffd9330be63c5854248c8ba22a20003e4e14577488f9d54f24ddc0f61"),
    ("zm23", "chain"): (0, "2f12702c17530b40db7cf440971db007ef565a2f662583fecf1ad2609d54caf0"),
    ("zm23", "cocycle"): (0, "d0f7d4718ee5293549f7f279a87b204da831eda5e6dcc2968f2f6efd9cff8bbc"),
    ("zm23", "report"): (0, "cbbce4b568734b611e242f25765935488d3fee9b64f6b6106f6ebb3eca11f104"),
    ("zm23", "select-p"): (0, "011572f9fd87195f87a3873cc84570f6f380e2c4760cb896f1b305726b3dbb99"),
    ("zm23", "verify"): (0, "ad3bcaeedce48f7cca4d83c3684edc5873354762ce5a6ca0ec140b2a17cea885"),
}


@pytest.fixture(scope="module")
def ball_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    (path / LINE2_FILE).write_text(json.dumps(line2_ball_json(30)))
    return path


@pytest.mark.parametrize("group, command", sorted(DIGESTS))
def test_cli_output_digest(group, command, ball_dir, monkeypatch, capsys):
    monkeypatch.chdir(ball_dir)
    code = main(_args(group, command))
    out, err = capsys.readouterr()
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[group, command]
