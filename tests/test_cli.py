import json
import re

import numpy as np
import pytest

from fk_saddle import ConfigError, RunConfig, format_config, parse_config
from fk_saddle.cli import main, run
from fk_saddle.config import config_to_dict


def test_parse_minimal_defaults():
    cfg = parse_config("model = classical-fk\np = 1,1\n")
    assert cfg.model == "classical-fk"
    assert cfg.p == (1, 1)
    assert cfg.command == "minimize"
    assert cfg.tol == 1e-10
    assert cfg.kind == "chi"


def test_parse_rejects_bad_periods():
    with pytest.raises(ConfigError, match="periods must be >= 1"):
        parse_config("p = 0,1\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="dx"):
        parse_config("dx = 0.1\n")
    with pytest.raises(ConfigError, match="flow.dx"):
        parse_config("[flow]\ndx = 0.1\n")
    # the stencil radius belongs to the model, not to the job file
    with pytest.raises(ConfigError, match="model-params.r"):
        parse_config("[model-params]\nr = 2\n")


@pytest.mark.parametrize("text, path", [
    ("[path]\nnodes = 0\n", "path.nodes"),
    ("[path]\nk = 0\n", "path.k"),
    ("[path]\nrestarts = -1\n", "path.restarts"),
    ("[window]\nsize = 0\n", "window.size"),
    ("[gap]\nprobes = 0\n", "gap.probes"),
    ("[scan]\nkmax = 1\n", "scan.kmax"),
    ("[verify]\nresolutions = 2001,100\n", "verify.resolutions"),
    ("[flow]\nmax-steps = 0\n", "flow.max-steps"),
    ("[flow]\nt-max = 0\n", "flow.t-max"),
    ("[flow]\nt-max = -1\n", "flow.t-max"),
    ("[flow]\ndt = -0.5\n", "flow.dt"),
    ("[flow]\ntol = nan\n", "flow.tol"),
])
def test_parse_rejects_bad_values(text, path):
    with pytest.raises(ConfigError, match=path):
        parse_config(text)


@pytest.mark.parametrize("flags", [
    ["mpp", "--nodes", "0"], ["mpp", "--k", "0"], ["mpp", "--restarts", "-1"],
    ["mph", "--window", "0"], ["gap", "--probes", "0"],
    ["multiplicity", "--kmax", "1"], ["verify", "--resolutions", "51"],
    ["mph", "--window", "foo"], ["gap", "--p", "a,1"],
    ["mpp", "--dt", "-1"], ["mpp", "--dt", "nan"], ["mpp", "--tol", "nan"],
])
def test_bad_values_exit_before_any_stage(flags, tmp_path, capsys):
    out = tmp_path / "never.json"
    assert main(flags + ["--seed", "1", "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_parse_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("model = classical-fk\n\nnot a key value line\n")


def test_roundtrip():
    cfg = RunConfig(command="mpp", model="pinned-fk", p=(3, 1), seed=9,
                    nodes=65, kind="chi", k=4, dt=None, tol=1e-9,
                    resolutions=(401, 2001), amplitude=1.5)
    again = parse_config(format_config(cfg))
    assert config_to_dict(again) == config_to_dict(cfg)


def test_validation_catches_bad_mode():
    cfg = RunConfig(mode="warp")
    with pytest.raises(ConfigError, match="mode"):
        cfg.validate()


def test_minimize_manifest(tmp_path):
    out = tmp_path / "run.json"
    rc = main(["minimize", "--model", "classical-fk", "--p", "2,1",
               "--tol", "1e-10", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["ok"]
    assert data["scalars"]["c0p"] == pytest.approx(-2.0, abs=1e-9)
    assert data["version"]
    assert all(r <= 1e-10 for r in data["scalars"]["residuals"])


def test_landscape_csv(tmp_path):
    out = tmp_path / "l.json"
    csv = tmp_path / "landscape.csv"
    rc = main(["landscape", "--model", "classical-fk", "--p", "2,1",
               "--grid", "3", "--out", str(out), "--fields-out", str(csv)])
    assert rc == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "a,b,I"
    assert len(lines) == 1 + 9
    rows = {}
    for line in lines[1:]:
        a, b, v = (float(x) for x in line.split(","))
        rows[(a, b)] = v
        assert len(line.split(",")) == 3
    assert rows[(0.0, 0.0)] == pytest.approx(-2.0, abs=1e-12)
    assert rows[(0.5, 0.5)] == pytest.approx(2.0, abs=1e-12)
    # scientific notation with 17 significant digits
    assert re.match(r"^-?\d\.\d{16}e[+-]\d{2},", lines[1])


def test_gap_and_mpp_manifests(tmp_path):
    out = tmp_path / "gap.json"
    assert main(["gap", "--model", "classical-fk", "--p", "1,1",
                 "--seed", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["scalars"]["v0"] == pytest.approx(-0.25, abs=1e-9)
    assert data["scalars"]["w0"] == pytest.approx(0.75, abs=1e-9)

    out2 = tmp_path / "mpp.json"
    csv = tmp_path / "crit.csv"
    assert main(["mpp", "--model", "classical-fk", "--p", "2,1",
                 "--nodes", "65", "--path", "chi", "--k", "2",
                 "--mode", "node-flow", "--seed", "1",
                 "--out", str(out2), "--fields-out", str(csv)]) == 0
    data = json.loads(out2.read_text())
    assert data["scalars"]["d0p"] == pytest.approx(0.0625, abs=1e-9)
    assert data["scalars"]["success"]
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "i1,i2,value"
    assert len(lines) == 3
    assert data["files"][0]["sha256"]


def test_strip_csv_starts_at_minus_w(tmp_path):
    out = tmp_path / "het.json"
    csv = tmp_path / "v1.csv"
    assert main(["hetero", "--model", "pinned-fk", "--q", "1", "--window", "20",
                 "--seed", "5", "--out", str(out), "--fields-out", str(csv)]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "i1,i2,value"
    assert lines[1].startswith("-20,0,")
    assert lines[-1].startswith("20,0,")
    assert len(lines) == 1 + 41


def test_heat_flow_mpp_honours_restarts(tmp_path, monkeypatch):
    from fk_saddle import mpp

    modes = []
    real = mpp.mountain_pass

    def counted(*args, **kwargs):
        modes.append(kwargs.get("mode"))
        return real(*args, **kwargs)

    monkeypatch.setattr(mpp, "mountain_pass", counted)
    out = tmp_path / "heat.json"
    assert main(["mpp", "--model", "classical-fk", "--p", "1,1",
                 "--nodes", "9", "--mode", "heat-flow", "--restarts", "1",
                 "--seed", "3", "--out", str(out)]) == 0
    # the base run plus one perturbed restart, both in heat-flow mode
    assert modes == ["heat-flow", "heat-flow"]
    assert json.loads(out.read_text())["scalars"]["barrier"] == pytest.approx(
        2.0, abs=1e-8)


def test_verify_exit_codes(tmp_path):
    ok = tmp_path / "v.json"
    rc = main(["verify", "--model", "classical-fk", "--p", "2,1",
               "--trials", "10", "--seed", "7", "--out", str(ok)])
    assert rc == 0
    bad = tmp_path / "vbad.json"
    rc = main(["verify", "--model", "helper_models:flipped", "--p", "2,1",
               "--trials", "10", "--seed", "7", "--out", str(bad)])
    assert rc == 1
    data = json.loads(bad.read_text())
    assert not data["ok"]
    assert any("flow-comparison" in e for e in data["errors"])


def test_gap_requires_seed(capsys):
    with pytest.raises(SystemExit):
        main(["gap", "--model", "classical-fk", "--p", "1,1"])


def test_unknown_model_is_reported(tmp_path):
    rc = main(["minimize", "--model", "not-a-model", "--p", "1,1",
               "--out", str(tmp_path / "x.json")])
    assert rc == 1


def test_run_from_config_file(tmp_path):
    cfgfile = tmp_path / "job.cfg"
    cfgfile.write_text("command = minimize\nmodel = classical-fk\np = 1,1\n"
                       "out = %s\n" % (tmp_path / "m.json"))
    assert main(["run", str(cfgfile)]) == 0
    data = json.loads((tmp_path / "m.json").read_text())
    assert data["scalars"]["c0p"] == pytest.approx(-1.0, abs=1e-10)


def test_run_config_error_exit_code(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("p = 0,1\n")
    assert main(["run", str(cfgfile)]) == 2
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_manifest_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / ("det-%s.json" % tag)
        assert main(["mpp", "--model", "classical-fk", "--p", "2,1",
                     "--nodes", "33", "--path", "chi", "--k", "2",
                     "--seed", "5", "--out", str(out)]) == 0
        outs.append(json.loads(out.read_text())["scalars"])
    assert outs[0] == outs[1]


def test_validate_command(tmp_path):
    out = tmp_path / "val.json"
    assert main(["validate", "--model", "classical-fk", "--seed", "0",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    names = {c["name"] for c in data["tables"]["assumptions"]}
    assert {"S1", "S2", "S3", "S4", "derivatives"} <= names
