import hashlib
import json
import re

import numpy as np
import pytest

from fk_saddle import ConfigError, RunConfig, cli, format_config, parse_config
from fk_saddle.cli import (FLAG_KEYS, _config_from_args, build_parser, main,
                           schema_entry)
from fk_saddle.config import COMMAND_FLAGS, COMMON_FLAGS, SCHEMA, config_to_dict
from fk_saddle.defaults import TAIL_BOUND_TOL, WINDOW_CAP
from fk_saddle.semiflow import FlowError


def test_parse_minimal_defaults():
    cfg = parse_config("model = classical-fk\np = 1,1\n")
    assert cfg.model == "classical-fk"
    assert cfg.p == (1, 1)
    assert cfg.command == "minimize"
    assert cfg.tol == 1e-10


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
    # the window always starts at WINDOW_START
    with pytest.raises(ConfigError, match="window.start"):
        parse_config("[window]\nstart = 20\n")
    # every mountain pass starts from the column ramp, once
    for key in ("kind = chi", "k = 4", "restarts = 1"):
        with pytest.raises(ConfigError, match="unknown key 'path.%s'" % key.split()[0]):
            parse_config("[path]\n%s\n" % key)
    # every flow steps at the model's 1 / L and stops only at t_max, which
    # each solver sets itself
    for key in ("dt = auto", "max-steps = 10", "t-max = 0", "t-max = -1"):
        with pytest.raises(ConfigError, match="unknown key 'flow.%s'" % key.split()[0]):
            parse_config("[flow]\n%s\n" % key)


@pytest.mark.parametrize("command, flag", [
    ("mpp", "--path"), ("mpp", "--k"), ("mpp", "--restarts"),
    ("multiplicity", "--restarts"), ("mph", "--restarts"), ("mpp", "--dt"),
    ("verify", "--dt")])
def test_start_chain_flags_are_gone(command, flag, capsys):
    with pytest.raises(SystemExit):
        main([command, flag, "1", "--seed", "1"])
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["mpp", "--mode", "heat-flow"], ["gap", "--fields-out", "x.csv"],
    ["hetero", "--p", "2,1"], ["multiplicity", "--q", "2"],
    ["validate", "--tol", "1e-9"], ["minimize", "--probes", "3"],
    ["validate", "--probes", "3"]])
def test_a_command_takes_no_flag_it_does_not_read(argv, tmp_path, capsys):
    # mpp and mph always run node-flow; p, q, tol, probes and fields-out are
    # flags only of the commands that read them
    out = tmp_path / "never.json"
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--seed", "1", "--out", str(out)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: %s" % " ".join(argv[1:]) in capsys.readouterr().err
    assert not out.exists()


def test_job_file_mode_is_an_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "mode.cfg"
    cfgfile.write_text("command = mpp\nseed = 1\nout = %s\n[path]\nmode = heat-flow\n"
                       % (tmp_path / "m.json"))
    assert main(["run", str(cfgfile)]) == 2
    assert "unknown key 'path.mode'" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command, flag", [("multiplicity", "--k"), ("mpp", "--no")])
def test_abbreviated_flags_are_rejected(command, flag, tmp_path, capsys):
    # with abbreviations, --k would set --kmax and --no would set --nodes
    out = tmp_path / "never.json"
    with pytest.raises(SystemExit):
        main([command, flag, "9", "--seed", "1", "--out", str(out)])
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, path", [
    ("[path]\nnodes = 0\n", "path.nodes"),
    ("[path]\nk = 0\n", "path.k"),
    ("[path]\nrestarts = -1\n", "path.restarts"),
    ("[window]\nsize = 0\n", "window.size"),
    ("[window]\nsize = 641\n", "window.size: .*cap 640"),
    ("[window]\nsize = 100000\n", "window.size: .*cap 640"),
    ("[gap]\nprobes = 0\n", "gap.probes"),
    ("[scan]\nkmax = 1\n", "scan.kmax"),
    ("[verify]\nresolutions = 2001,100\n", "verify.resolutions"),
    ("[flow]\nmax-steps = 0\n", "flow.max-steps"),
    ("[flow]\nt-max = 0\n", "flow.t-max"),
    ("[flow]\nt-max = -1\n", "flow.t-max"),
    ("[flow]\ndt = -0.5\n", "flow.dt"),
    ("[flow]\ntol = nan\n", "flow.tol"),
    ("[model-params]\namplitude = nan\n", "model-params.amplitude"),
    ("[model-params]\nn = 0\n", "model-params.n"),
    ("p =\n", "p: minimize needs 2 periods .* got 0"),
    ("[verify]\nresolutions =\n", "verify.resolutions"),
    ("command = anneal\n", "command: unknown command 'anneal'"),
    ("[verify]\ngrid = 1\n", "verify.grid: must be >= 2"),
    ("[verify]\ncross-check = maybe\n", "line 2: verify.cross-check: expected a boolean"),
    ("[flow\ntol = 1e-9\n", "line 1: unterminated section header"),
])
def test_parse_rejects_bad_values(text, path):
    with pytest.raises(ConfigError, match=path):
        parse_config(text)


def test_chain_job_runs_the_kink_mountain_pass(tmp_path):
    # the 1-D chain's strip has no transverse periods: an empty q is ()
    out = tmp_path / "chain.json"
    text = "command = mph\nseed = 5\nq =\nout = %s\n\n[model-params]\nn = 1\n" % out
    cfg = parse_config(text)
    assert cfg.q == () and cfg.n == 1
    assert parse_config(format_config(cfg)) == cfg
    cfgfile = tmp_path / "chain.cfg"
    cfgfile.write_text(text)
    assert main(["run", str(cfgfile)]) == 0
    data = json.loads(out.read_text())
    assert data["ok"] and data["scalars"]["success"]
    assert data["config"]["q"] == []


def test_window_cap_is_the_largest_fixed_window():
    # the auto policy stops at WINDOW_CAP, and a fixed window may reach it
    assert parse_config("[window]\nsize = %d\n" % WINDOW_CAP).window == WINDOW_CAP


@pytest.mark.parametrize("flags", [
    ["mpp", "--nodes", "0"], ["mph", "--nodes", "2"], ["mph", "--q", "0"],
    ["mph", "--window", "0"], ["gap", "--probes", "0"], ["mpp", "--probes", "0"],
    ["landscape", "--probes", "-1"], ["multiplicity", "--probes", "0"],
    ["hetero", "--probes", "0"], ["mph", "--probes", "x"], ["verify", "--probes", "0"],
    ["multiplicity", "--kmax", "1"], ["verify", "--resolutions", "51"],
    ["mph", "--window", "foo"], ["gap", "--p", "a,1"],
    ["mpp", "--tol", "0"], ["verify", "--trials", "-1"], ["mpp", "--tol", "nan"],
    ["minimize", "--amplitude", "nan"], ["minimize", "--coupling", "inf"],
    ["hetero", "--window", "100000"], ["mph", "--window", "641"],
    ["gap", "--p", "2"], ["hetero", "--q", "1,1"], ["minimize", "--p", "300,300"],
])
def test_bad_values_exit_before_any_stage(flags, tmp_path, capsys):
    out = tmp_path / "never.json"
    assert main(flags + ["--seed", "1", "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


# the same job, once as flags and once as a job file: (flags, job-file text)
SAME_JOB = {
    "minimize": ([], ""),
    "gap": (["--probes", "3"], "[gap]\nprobes = 3\n"),
    "mpp": (["--nodes", "33", "--probes", "5"], "[path]\nnodes = 33\n[gap]\nprobes = 5\n"),
    "landscape": (["--grid", "5", "--probes", "2"], "[verify]\ngrid = 5\n[gap]\nprobes = 2\n"),
    "multiplicity": (["--kmax", "3", "--probes", "4"], "[scan]\nkmax = 3\n[gap]\nprobes = 4\n"),
    "hetero": (["--window", "40", "--q", "2", "--probes", "6"],
               "q = 2\n[window]\nsize = 40\n[gap]\nprobes = 6\n"),
    "mph": (["--nodes", "auto", "--window", "auto", "--probes", "9"],
            "[path]\nnodes = auto\n[window]\nsize = auto\n[gap]\nprobes = 9\n"),
    "verify": (["--trials", "7", "--cross-check", "--resolutions", "401,2001",
                "--probes", "1"],
               "[verify]\ntrials = 7\ncross-check = true\n"
               "resolutions = 401,2001\n[gap]\nprobes = 1\n"),
    "validate": ([], ""),
}


@pytest.mark.parametrize("command", sorted(SAME_JOB))
def test_cli_and_job_file_agree(command):
    flags, text = SAME_JOB[command]
    common = ["--model", "pinned-fk", "--seed", "4", "--amplitude", "1.5",
              "--out", "x.json"]
    head = "command = %s\nmodel = pinned-fk\nseed = 4\nout = x.json\n" % command
    tail = "[model-params]\namplitude = 1.5\n"
    # --p and --tol only where the command takes them
    if "p" in COMMAND_FLAGS[command]:
        common += ["--p", "2,1"]
        head += "p = 2,1\n"
    if "tol" in COMMAND_FLAGS[command]:
        common += ["--tol", "1e-9"]
        tail += "[flow]\ntol = 1e-9\n"
    from_flags = _config_from_args(build_parser().parse_args(
        [command] + common + flags))
    from_file = parse_config(head + text + tail)
    assert config_to_dict(from_flags) == config_to_dict(from_file)


def test_job_file_requires_seed(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        parse_config("command = gap\n")
    cfgfile = tmp_path / "noseed.cfg"
    cfgfile.write_text("command = verify\nout = %s\n" % (tmp_path / "v.json"))
    assert main(["run", str(cfgfile)]) == 2
    assert not (tmp_path / "v.json").exists()


def test_every_flag_names_one_schema_key():
    for command, flags in COMMAND_FLAGS.items():
        for flag in COMMON_FLAGS + flags:
            name = FLAG_KEYS.get(flag, flag)
            assert [e for e in SCHEMA if e[1] == name] == [schema_entry(flag)], (
                command, flag)


def test_parse_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("model = classical-fk\n\nnot a key value line\n")


def test_roundtrip():
    cfg = RunConfig(command="mpp", model="pinned-fk", p=(3, 1), seed=9,
                    nodes=65, tol=1e-9,
                    resolutions=(401, 2001), amplitude=1.5)
    again = parse_config(format_config(cfg))
    assert config_to_dict(again) == config_to_dict(cfg)


def test_minimize_manifest(tmp_path):
    out = tmp_path / "run.json"
    rc = main(["minimize", "--model", "classical-fk", "--p", "2,1",
               "--tol", "1e-10", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["ok"]
    assert data["scalars"]["c0p"] == pytest.approx(-2.0, abs=1e-9)
    assert data["version"]
    assert "threads" not in data
    assert all(r <= 1e-10 for r in data["scalars"]["residuals"])


def test_minimize_manifest_holds_each_whole_limit(tmp_path):
    # on (3,2) some stationary limits are not constant fields: the manifest
    # keeps every site of every limit, not its first value
    out = tmp_path / "run.json"
    assert main(["minimize", "--model", "classical-fk", "--p", "3,2",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert "limits" not in data["scalars"]
    limits = [np.array(v) for v in data["tables"]["limits"]]
    assert len(limits) == len(data["tables"]["limit_energies"])
    assert all(v.shape == (3, 2) for v in limits)
    assert max(np.ptp(v) for v in limits) > 0.9


def test_landscape_csv(tmp_path):
    out = tmp_path / "l.json"
    csv = tmp_path / "landscape.csv"
    rc = main(["landscape", "--model", "classical-fk",
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


def test_landscape_out_csv_parks_the_manifest_beside_it(tmp_path):
    # the README's example: --out x.csv is the grid, and x.json the manifest
    csv = tmp_path / "x.csv"
    assert main(["landscape", "--grid", "11", "--out", str(csv)]) == 0
    cols = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert cols.shape == (11 * 11, 3)
    data = json.loads((tmp_path / "x.json").read_text())
    assert [f["path"] for f in data["files"]] == [str(csv)]
    assert data["scalars"]["grid_max"] == cols[:, 2].max()


def test_landscape_spans_the_order_box(tmp_path):
    # two-well-fk's adjacent minimizers are 1/2 apart: the columns and the
    # grid maximum are offsets in [0, 1/2]^2, not in the unit square
    out = tmp_path / "l.json"
    csv = tmp_path / "landscape.csv"
    assert main(["landscape", "--model", "two-well-fk",
                 "--grid", "3", "--out", str(out), "--fields-out", str(csv)]) == 0
    cols = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert np.unique(cols[:, 0]) == pytest.approx([0.0, 0.25, 0.5])
    assert np.unique(cols[:, 1]) == pytest.approx([0.0, 0.25, 0.5])
    data = json.loads(out.read_text())
    assert data["scalars"]["grid_max_at"] == pytest.approx([0.25, 0.25], abs=0.01)


def test_landscape_grid_is_even_and_holds_its_max(tmp_path):
    # --grid G samples G x G evenly spaced cells, and the reported maximum
    # is one of them
    out = tmp_path / "l.json"
    csv = tmp_path / "landscape.csv"
    assert main(["landscape", "--model", "classical-fk",
                 "--grid", "50", "--out", str(out), "--fields-out", str(csv)]) == 0
    cols = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert len(cols) == 50 * 50
    for axis in (0, 1):
        spacing = np.diff(np.unique(cols[:, axis]))
        assert len(spacing) == 49 and np.ptp(spacing) < 1e-12
    top = cols[np.argmax(cols[:, 2])]
    data = json.loads(out.read_text())
    assert data["scalars"]["grid_max"] == top[2]
    assert data["scalars"]["grid_max_at"] == [top[0], top[1]]


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
                 "--nodes", "65", "--seed", "1",
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


def _spy(monkeypatch, name):
    """The (args, result) of every call the CLI makes to ``cli.<name>``."""
    calls, real = [], getattr(cli, name)

    def spy(*args, **kwargs):
        calls.append((args, real(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(cli, name, spy)
    return calls


def _fields_csv(man, csv):
    """The CSV's coordinate columns and values, after checking that the
    manifest's inventory entry matches the file's bytes."""
    blob = csv.read_bytes()
    assert man["files"] == [{"path": str(csv), "bytes": len(blob),
                             "sha256": hashlib.sha256(blob).hexdigest()}]
    assert blob.splitlines()[0].decode().endswith(",value")
    table = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
    return table[:, :-1].astype(int), table[:, -1]


def test_mph_fields_out_is_the_saddle_on_the_window(tmp_path, monkeypatch):
    # the CSV holds v1 + critical, the saddle itself, at layers -W..W
    calls = _spy(monkeypatch, "mountain_pass_hetero")
    out, csv = tmp_path / "mph.json", tmp_path / "saddle.csv"
    assert main(["mph", "--model", "pinned-fk", "--q", "2", "--window", "20",
                 "--seed", "5", "--out", str(out), "--fields-out", str(csv)]) == 0
    man = json.loads(out.read_text())
    coords, values = _fields_csv(man, csv)
    W = man["scalars"]["window"]
    assert W == 20 and len(values) == (2 * W + 1) * 2
    assert coords[0].tolist() == [-W, 0] and coords[-1].tolist() == [W, 1]
    assert sorted(set(coords[:, 0])) == list(range(-W, W + 1))
    (args, res), = calls
    assert np.array_equal(values, (args[1].lo + res.critical).ravel())


def test_mpp_fields_out_is_the_saddle_on_the_torus(tmp_path, monkeypatch):
    # the CSV holds lo + critical on the periods, the saddle itself, as mph
    # writes v1 + critical
    calls = _spy(monkeypatch, "best_mountain_pass")
    out, csv = tmp_path / "mpp.json", tmp_path / "saddle.csv"
    assert main(["mpp", "--model", "classical-fk", "--p", "2,1", "--seed", "1",
                 "--out", str(out), "--fields-out", str(csv)]) == 0
    coords, values = _fields_csv(json.loads(out.read_text()), csv)
    assert coords.tolist() == [list(i) for i in np.ndindex(2, 1)]
    (args, res), = calls
    assert np.array_equal(values, (np.tile(args[1].lo, (2, 1)) + res.critical).ravel())
    # v0 = -1/4 under both sites, one of them flipped over the barrier
    assert values == pytest.approx([0.2563, -0.2437], abs=1e-4)


def test_minimize_fields_out_is_the_best_limit(tmp_path, monkeypatch):
    calls = _spy(monkeypatch, "minimize_periodic")
    out, csv = tmp_path / "min.json", tmp_path / "best.csv"
    assert main(["minimize", "--model", "classical-fk", "--p", "3,2",
                 "--out", str(out), "--fields-out", str(csv)]) == 0
    coords, values = _fields_csv(json.loads(out.read_text()), csv)
    assert coords.tolist() == [list(i) for i in np.ndindex(3, 2)]
    (_, res), = calls
    assert np.array_equal(values, res.best.ravel())


@pytest.mark.parametrize("command", ["hetero", "mph"])
def test_fixed_window_must_meet_the_tail_bound(command, tmp_path):
    # at W = 1 the kink's tails still carry mass (bound 6.25), so its c1q is
    # not the kink's; the run reports that and exits 1
    out = tmp_path / "w1.json"
    assert main([command, "--model", "pinned-fk", "--q", "1", "--window", "1",
                 "--seed", "5", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert not data["ok"]
    tail = [e for e in data["errors"] if "tail bound" in e]
    assert len(tail) == 1
    assert "W=1" in tail[0] and "TAIL_BOUND_TOL=%g" % TAIL_BOUND_TOL in tail[0]


def test_fixed_window_meeting_the_tail_bound_passes(tmp_path):
    out = tmp_path / "w20.json"
    assert main(["hetero", "--model", "pinned-fk", "--q", "1", "--window", "20",
                 "--seed", "5", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["ok"] and data["errors"] == []
    assert data["scalars"]["tail_bound"] < TAIL_BOUND_TOL


def test_heat_flow_mpp_runs_once_in_heat_flow(classical, gap, tol, monkeypatch):
    from fk_saddle import mpp

    modes = []
    real = mpp.mountain_pass

    def counted(*args, **kwargs):
        modes.append(kwargs.get("mode"))
        return real(*args, **kwargs)

    monkeypatch.setattr(mpp, "mountain_pass", counted)
    res = mpp.best_mountain_pass(classical, gap, (1, 1), tol, mode="heat-flow", N=9)
    # one run from the ramp, in heat-flow mode
    assert modes == ["heat-flow"]
    assert res.success and res.barrier == pytest.approx(2.0, abs=1e-8)


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


def test_cross_check_fails_when_an_engine_fails(tmp_path, monkeypatch):
    # a failed heat-flow run is no agreement, however close its value
    from fk_saddle import mpp

    real = mpp._minimax_heat_flow

    def failing(*args):
        res = real(*args)
        res.success, res.message = False, "1 unresolved tears"
        return res

    monkeypatch.setattr(mpp, "_minimax_heat_flow", failing)
    out = tmp_path / "cc.json"
    assert main(["verify", "--model", "classical-fk", "--p", "2,1", "--trials", "2",
                 "--cross-check", "--resolutions", "401", "--seed", "7",
                 "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["scalars"]["cross_check_agree"] is False
    assert data["scalars"]["heat_flow"] == pytest.approx(0.0625, abs=1e-8)
    assert data["errors"] == ["cross check: heat-flow failed: 1 unresolved tears"]


def test_cross_check_reports_a_disagreement(tmp_path, monkeypatch):
    # both engines succeed, but heat-flow's level moved by 0.01 is more than
    # CROSS_CHECK_TOL from node-flow's and the oracle's
    from fk_saddle import mpp

    real = mpp._minimax_heat_flow

    def moved(*args):
        res = real(*args)
        res.value += 0.01
        return res

    monkeypatch.setattr(mpp, "_minimax_heat_flow", moved)
    out = tmp_path / "cc.json"
    assert main(["verify", "--model", "classical-fk", "--p", "2,1", "--trials", "2",
                 "--cross-check", "--resolutions", "401", "--seed", "7",
                 "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    s = data["scalars"]
    assert s["cross_check_agree"] is False and list(s["oracle"]) == ["401"]
    assert s["heat_flow"] - s["node_flow"] == pytest.approx(0.01, abs=1e-8)
    [error] = data["errors"]
    assert re.fullmatch(r"cross check disagreement \{'node-heat': .*, "
                        r"'node-oracle': .*, 'heat-oracle': .*\}", error)


def test_verify_searches_the_gap_with_its_probes(tmp_path, monkeypatch):
    # without --cross-check the property suite searches the gap pair itself,
    # with it the command searches once and hands the pair to the suite;
    # either way the one search takes the command's --probes
    from fk_saddle import verify
    from fk_saddle.defaults import GAP_PROBES

    seen = []

    def spying(real):
        def spy(*args, probes=GAP_PROBES, **kwargs):
            seen.append(probes)
            return real(*args, probes=probes, **kwargs)
        return spy

    for module in (cli, verify):
        monkeypatch.setattr(module, "find_gap_pair", spying(module.find_gap_pair))
    for flags in ([], ["--cross-check", "--resolutions", "401"]):
        seen.clear()
        assert main(["verify", "--model", "classical-fk", "--p", "2,1", "--trials", "2",
                     "--probes", "3", "--seed", "7", "--out", str(tmp_path / "v.json")]
                    + flags) == 0
        assert seen == [3], flags


def test_cross_check_names_every_failed_oracle_resolution(tmp_path, monkeypatch):
    # the oracle's Lipschitz bound understated a hundredfold fails its block
    # bounds at both resolutions, and the manifest names both failures
    from fk_saddle import verify

    build = verify.OracleGrid2D.build

    def understated(potential, *args):
        L = potential.lipschitz_bound()
        with monkeypatch.context() as m:
            m.setattr(potential, "lipschitz_bound", lambda: L / 100)
            return build(potential, *args)

    monkeypatch.setattr(verify.OracleGrid2D, "build", staticmethod(understated))
    out = tmp_path / "cc.json"
    assert main(["verify", "--model", "classical-fk", "--p", "2,1", "--trials", "2",
                 "--cross-check", "--resolutions", "401,2001", "--seed", "7",
                 "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["scalars"]["oracle"] == {} and data["scalars"]["cross_check_agree"] is False
    [error] = data["errors"]
    assert re.fullmatch(r"cross check: oracle failed: resolution 401: oracle block bound "
                        r"violated: .*; resolution 2001: oracle block bound violated: "
                        r".*the Lipschitz bound L = .* is likely too small", error)


def test_gap_exits_1_when_there_is_no_gap(tmp_path):
    # the free chain's minimizers form a continuum: no adjacent pair
    out = tmp_path / "gap.json"
    assert main(["gap", "--model", "free-chain", "--p", "1,1", "--seed", "3",
                 "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert not data["ok"]
    [error] = data["errors"]
    assert re.fullmatch(r"NoGapError: no gap pair on the torus \(1, 1\): \d+ minimizer "
                        r"orbits, and every strictly ordered candidate pair has "
                        r"interior minimizers", error)


def test_a_stage_error_lands_in_the_manifest(tmp_path, monkeypatch):
    # the property suite has run when the cross check raises: the manifest
    # keeps its rows and names the error, and the run exits 1
    def raising(*args, **kwargs):
        raise FlowError("flow did not reach residual 1e-10 within t_max=200")

    monkeypatch.setattr(cli, "cross_check_mountain_pass", raising)
    out = tmp_path / "cc.json"
    assert main(["verify", "--model", "classical-fk", "--p", "2,1", "--trials", "2",
                 "--cross-check", "--seed", "7", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert len(data["tables"]["properties"]) == 9
    assert all(p["passed"] for p in data["tables"]["properties"])
    assert data["errors"] == [
        "FlowError: flow did not reach residual 1e-10 within t_max=200"]


def test_mpp_exits_1_when_the_mountain_pass_fails(tmp_path, monkeypatch):
    real = cli.best_mountain_pass

    def failing(*args, **kwargs):
        res = real(*args, **kwargs)
        res.success, res.message = False, "chain top not certified"
        return res

    monkeypatch.setattr(cli, "best_mountain_pass", failing)
    out = tmp_path / "mpp.json"
    assert main(["mpp", "--model", "classical-fk", "--p", "2,1", "--seed", "1",
                 "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["scalars"]["success"] is False
    assert data["errors"] == ["chain top not certified"]


def test_mph_exits_1_when_the_mountain_pass_fails(tmp_path, monkeypatch):
    real = cli.mountain_pass_hetero

    def failing(*args, **kwargs):
        res = real(*args, **kwargs)
        res.success, res.message = False, "chain top not certified"
        return res

    monkeypatch.setattr(cli, "mountain_pass_hetero", failing)
    out = tmp_path / "mph.json"
    assert main(["mph", "--model", "pinned-fk", "--q", "1", "--window", "20",
                 "--seed", "5", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["scalars"]["success"] is False
    assert data["errors"] == ["chain top not certified"]


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
    # a torus and a strip mountain pass each rerun bit for bit
    for job in (["mpp", "--model", "classical-fk", "--p", "2,1"],
                ["mph", "--model", "pinned-fk", "--q", "1"]):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / ("det-%s-%s.json" % (job[0], tag))
            assert main(job + ["--nodes", "33", "--seed", "5", "--out", str(out)]) == 0
            outs.append(json.loads(out.read_text())["scalars"])
        assert outs[0] == outs[1]


def test_validate_command(tmp_path):
    out = tmp_path / "val.json"
    assert main(["validate", "--model", "classical-fk", "--seed", "0",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    names = {c["name"] for c in data["tables"]["assumptions"]}
    assert {"S1", "S2", "S3", "S4", "derivatives"} <= names


def test_coupling_reaches_the_model(tmp_path):
    # the (S4) bound 4 pi^2 + 4 n |coupling| moves with --coupling (default 1/16)
    notes = []
    for flags in ([], ["--coupling", "0.125"]):
        out = tmp_path / "val.json"
        assert main(["validate", "--seed", "0", "--out", str(out)] + flags) == 0
        checks = json.loads(out.read_text())["tables"]["assumptions"]
        notes += [c["note"] for c in checks if c["name"] == "S4"]
    assert notes == ["bound C = 39.9784", "bound C = 40.4784"]


def test_validate_exits_1_when_an_assumption_fails(tmp_path):
    # an on-site term with no coupling breaks (S3) strictness
    out = tmp_path / "val.json"
    assert main(["validate", "--model", "helper_models:onsite_only", "--seed", "0",
                 "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["errors"] == ["assumption checks failed"]
    assert "S3" in {c["name"] for c in data["tables"]["assumptions"] if not c["passed"]}


def test_tol_reaches_the_flow(tmp_path):
    # a looser stationarity tolerance stops the minimize flow sooner, at the
    # same ground level
    scalars = []
    for flags in ([], ["--tol", "1e-3"]):
        out = tmp_path / "min.json"
        assert main(["minimize", "--p", "1,1", "--out", str(out)] + flags) == 0
        scalars.append(json.loads(out.read_text())["scalars"])
    assert [s["iterations"] for s in scalars] == [14, 8]
    assert [s["c0p"] for s in scalars] == pytest.approx([-1.0, -1.0], abs=1e-12)
