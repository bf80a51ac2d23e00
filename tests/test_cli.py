"""Command-line interface: exit codes, reports, and determinism."""

import ast
import hashlib
import json
import os
import subprocess
import sys

import pytest

from cubigraph import cli
from cubigraph import graphs as gr
from cubigraph import presheaf as ps


@pytest.fixture
def files(tmp_path):
    paths = {}

    def put(name, data):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        paths[name] = str(p)
        return paths[name]

    put("c5.json", gr.cycle(5).to_json())
    put("c4.json", gr.cycle(4).to_json())
    C5 = gr.cycle(5)
    put("c5-to-pt.json",
        gr.constant_map(C5, gr.interval(0), 0).to_json())
    put("pt-to-i1.json",
        gr.GraphMap(gr.interval(0), gr.interval(1), {0: 0}).to_json())
    put("id-i1.json", gr.graph_identity(gr.interval(1)).to_json())
    I = ps.representable("cubical", 1, 2)
    put("interval.json", I.to_json())
    put("terminal.json", ps.map_to_json(
        __import__("cubigraph.lifting", fromlist=["terminal_map"])
        .terminal_map(I)))
    return paths


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    return code, out


def test_verify_identities(capsys):
    code, out = run(["verify-identities", "--n", "0"], capsys)
    assert code == 0
    assert "pass" in out or "ok" in out


def test_selftest(capsys):
    code, out = run(["selftest"], capsys)
    assert code == 0
    assert "selftest passed" in out


def test_selftest_fails_when_the_square_check_fails(monkeypatch, capsys):
    monkeypatch.setattr(ps, "is_isomorphic", lambda X, Y: (False, None))
    code, out = run(["selftest"], capsys)
    assert code == 1
    assert "interval x interval = square: FAIL" in out


def test_pi0_command(files, capsys):
    code, out = run(["pi0", "--graph", files["c5.json"], "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1


def test_a1_command(files, capsys):
    code, out = run(["a1", "--graph", files["c5.json"], "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert "abelianization" in json.dumps(data)


def test_paths_homotopic_exit_codes(files, capsys):
    code, _ = run(
        ["paths-homotopic", "--graph", files["c4.json"],
         "--p1", "0,1,2", "--p2", "0,3,2"], capsys)
    assert code == 0
    code, _ = run(
        ["paths-homotopic", "--graph", files["c5.json"],
         "--p1", "0,1,2,3,4,0", "--p2", "0", "--support", "6"], capsys)
    assert code == 1


def test_path_word_outside_the_graph_is_input_error(files, capsys):
    # a one-vertex word has no adjacency check to catch it, and a longer
    # one used to die with a KeyError on its first pair
    for word in ("99", "99,0"):
        code, out = run(
            ["paths-homotopic", "--graph", files["c4.json"],
             "--p1", word, "--p2", word], capsys)
        assert code == 2 and out == ""


def test_repeated_vertex_is_input_error(tmp_path, capsys):
    bad = tmp_path / "rep.json"
    bad.write_text(json.dumps(
        {"vertices": [0, 0, 1, 2], "edges": [[0, 1], [1, 2], [2, 0]]}))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["nerve-stats", "--graph", str(bad), "--dim", "1"])
    assert exit_info.value.code == 2
    assert "repeated vertex: 0" in capsys.readouterr().err


def test_check_graph_fibration(files, capsys):
    code, out = run(
        ["check-graph-fibration", "--map", files["c5-to-pt.json"],
         "--n", "1", "--support", "1", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "yes_on_tested_range"
    code, out = run(
        ["check-graph-fibration", "--map", files["pt-to-i1.json"],
         "--n", "1", "--support", "1", "--json"], capsys)
    assert code == 1
    assert json.loads(out)["verdict"] == "counterexample"


def test_check_rlp(files, capsys):
    code, out = run(
        ["check-rlp", "--map", files["terminal.json"], "--set", "I",
         "--n", "0", "--json"], capsys)
    assert code == 1
    assert json.loads(out)["holds"] is False


def test_check_rlp_rejects_a_map_onto_no_cell(files, tmp_path, capsys):
    data = json.loads(open(files["terminal.json"]).read())
    data["components"] = {d: [-1] * len(v)
                          for d, v in data["components"].items()}
    path = tmp_path / "wrapped.json"
    path.write_text(json.dumps(data))
    code, _ = run(["check-rlp", "--map", str(path), "--n", "0"], capsys)
    assert code == 2


@pytest.mark.parametrize("fault, message", [
    ("dimension", "component '7' names no dimension of the source (0..2)"),
    ("truncation", "differ in site or truncation"),
])
def test_check_rlp_names_a_map_of_the_wrong_shape(files, tmp_path, capsys,
                                                  fault, message):
    # both used to print only the missing key: "...: 7" and "...: 2"
    data = json.loads(open(files["terminal.json"]).read())
    if fault == "dimension":
        data["components"]["7"] = [0]
    else:
        data["target"] = ps.representable("cubical", 0, 1).to_json()
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["check-rlp", "--map", str(path), "--n", "0"])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_triangulate_and_product(files, tmp_path, capsys):
    out_path = str(tmp_path / "tri.json")
    code, out = run(
        ["triangulate", "--input", files["interval.json"],
         "--output", out_path, "--json"], capsys)
    assert code == 0
    code, out = run(
        ["geometric-product", "--x", files["interval.json"],
         "--y", files["interval.json"], "--json"], capsys)
    assert code == 0


def test_sk_cosk_round(files, tmp_path, capsys):
    out_path = str(tmp_path / "sk.json")
    code, _ = run(
        ["sk", "--input", files["interval.json"], "--n", "1",
         "--output", out_path], capsys)
    assert code == 0
    code, _ = run(
        ["cosk", "--input", files["interval.json"], "--n", "1",
         "--json"], capsys)
    assert code == 0


def test_missing_file_is_input_error(capsys):
    code, _ = run(["pi0", "--graph", "/nonexistent/g.json"], capsys)
    assert code == 2


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(["pi0", "--graph", str(bad)], capsys)
    assert code == 2


_CELL = ps.representable("cubical", 0, 0).to_json()
_PT_TO_I1 = gr.GraphMap(gr.interval(0), gr.interval(1), {0: 0}).to_json()
_ID_I1 = gr.graph_identity(gr.interval(1)).to_json()
_TWICE = dict(_ID_I1, assignment=[[0, 0], [1, 1], [0, 1]])
_EXTRA = dict(_ID_I1, assignment=[[0, 0], [1, 1], [7, 0], ["x", 5]])


@pytest.mark.parametrize("command, flags, doc", [
    # a presheaf whose cells are a list, not a dimension -> ids object
    ("cosk", ("--input",), dict(_CELL, cells=[[0]])),
    # a graph edge with one end
    ("pi0", ("--graph",), {"vertices": [0, 1], "edges": [[0]]}),
    # a graph map with a value outside the target's vertices
    ("check-graph-fibration", ("--map",), dict(_PT_TO_I1, assignment=[[0, 5]])),
    ("psi-check", ("--f", "--g"), dict(_PT_TO_I1, assignment=[[0, 5]])),
    # a graph map that assigns a source vertex twice
    ("check-graph-fibration", ("--map",), _TWICE),
    ("psi-check", ("--f", "--g"), _TWICE),
    # a graph map with values at vertices the source lacks
    ("check-graph-fibration", ("--map",), _EXTRA),
    ("psi-check", ("--f", "--g"), _EXTRA),
])
def test_malformed_document_is_input_error(tmp_path, capsys, command, flags,
                                           doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = [command]
    for flag in flags:
        argv += [flag, str(bad)]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert err.startswith("error: bad ") and err.count("\n") == 1


def test_budget_exit_code(files, capsys):
    cfgfile = files["c5.json"].replace("c5.json", "cfg.json")
    with open(cfgfile, "w") as fh:
        json.dump({"cell_budget": 3}, fh)
    code, _ = run(
        ["--config", cfgfile, "check-graph-fibration",
         "--map", files["c5-to-pt.json"], "--n", "1", "--support", "1"],
        capsys)
    assert code == 3


def test_unknown_config_key_is_input_error(tmp_path, files, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _ = run(
        ["--config", str(cfg), "pi0", "--graph", files["c5.json"]], capsys)
    assert code == 2


def test_malformed_config_value_is_input_error(tmp_path, files, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cell_budget": "lots"}))
    code, out = run(
        ["--config", str(cfg), "nerve-stats", "--graph", files["c4.json"],
         "--dim", "1"], capsys)
    assert code == 2
    assert out == ""


def test_negative_count_flag_is_input_error(files, capsys):
    code, out = run(
        ["nerve-stats", "--graph", files["c4.json"], "--dim", "-1"], capsys)
    assert code == 2
    assert out == ""


def test_nerve_stats_budget_exhausted(files, capsys):
    code = cli.main(["nerve-stats", "--graph", files["c4.json"], "--dim", "2",
                     "--budget", "1", "--json"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("budget exhausted:")


# Runs cli.main on its arguments in a fresh interpreter, then prints the
# cubigraph modules loaded and exits with the command's exit code.
_PROBE = """\
import sys
from cubigraph import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(" ".join(sorted(m for m in sys.modules if m.startswith("cubigraph."))))
sys.exit(code)
"""

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def test_each_command_imports_only_its_modules(files, tmp_path):
    bad_cfg = tmp_path / "bad-cfg.json"
    bad_cfg.write_text(json.dumps({"cell_budget": "lots"}))
    f = files
    cases = [
        (["pi0", "--graph", f["c5.json"]], 0, "graphs"),
        (["pi0", "--graph", str(tmp_path / "missing.json")], 2, "graphs"),
        (["a1", "--graph", f["c5.json"]], 0, "graphs grid pi1"),
        (["paths-homotopic", "--graph", f["c4.json"], "--p1", "0,1,2",
          "--p2", "0,3,2"], 0, "graphs grid pi1"),
        (["sk", "--input", f["interval.json"], "--n", "1"], 0,
         "presheaf site skeleta"),
        (["cosk", "--input", f["interval.json"], "--n", "1"], 0,
         "presheaf site skeleta"),
        (["verify-identities", "--n", "0"], 0, "presheaf site skeleta"),
        (["check-rlp", "--map", f["terminal.json"], "--set", "I", "--n", "0"],
         1, "lifting presheaf site"),
        (["triangulate", "--input", f["interval.json"]], 0,
         "presheaf product site"),
        (["geometric-product", "--x", f["interval.json"],
          "--y", f["interval.json"]], 0, "presheaf product site"),
        (["nerve-stats", "--graph", f["c4.json"], "--dim", "1"], 0,
         "graphs grid nerve presheaf site"),
        (["check-graph-fibration", "--map", f["pt-to-i1.json"]], 1,
         "graphs grid lifting nerve presheaf site"),
        (["psi-check", "--f", f["id-i1.json"], "--g", f["id-i1.json"],
          "--samples", "2"], 0, "graphs grid nerve pi1"),
        (["--config", str(bad_cfg), "nerve-stats", "--graph", f["c4.json"],
          "--dim", "1"], 2, ""),
        (["nerve-stats", "--graph", f["c4.json"], "--dim", "-1"], 2, ""),
        (["selftest"], 0,
         "graphs grid lifting pi1 presheaf product site skeleta"),
    ]
    env = dict(os.environ, PYTHONPATH=_SRC)
    for argv, code, layers in cases:
        proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, (argv, proc.stderr)
        expected = sorted(["cli", *layers.split()])
        loaded = proc.stdout.splitlines()[-1].split()
        assert loaded == [f"cubigraph.{m}" for m in expected], argv

    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cubigraph.pi1; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    loaded = proc.stdout.split()
    assert "cubigraph.nerve" not in loaded
    assert "cubigraph.presheaf" not in loaded

    # nerve loads site and presheaf only where it builds a fragment, a
    # fragment map or an operator gather
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cubigraph.nerve; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    loaded = [m for m in proc.stdout.split() if m.startswith("cubigraph.")]
    assert loaded == ["cubigraph.grid", "cubigraph.nerve"]

    # the labeling search needs no other layer
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cubigraph.grid; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    loaded = [m for m in proc.stdout.split() if m.startswith("cubigraph.")]
    assert loaded == ["cubigraph.grid"]

    # no module reaches into nerve's private names
    private = []
    for name in sorted(os.listdir(os.path.join(_SRC, "cubigraph"))):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(_SRC, "cubigraph", name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                    "nerve", "cubigraph.nerve"):
                private += [(name, a.name) for a in node.names
                            if a.name.startswith("_")]
    assert private == []


def test_cli_import_leaves_out_dataclasses():
    # the run settings are a dict of defaults, so a cold CLI process does
    # not pay for importing dataclasses before it knows its command
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cubigraph.cli; print('dataclasses' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=_SRC), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_json_reports_are_deterministic(files, capsys):
    _, out1 = run(["pi0", "--graph", files["c5.json"], "--json"], capsys)
    _, out2 = run(["pi0", "--graph", files["c5.json"], "--json"], capsys)
    assert out1 == out2
    _, out3 = run(["verify-identities", "--n", "0", "--json"], capsys)
    _, out4 = run(["verify-identities", "--n", "0", "--json"], capsys)
    assert out3 == out4


def test_verify_identities_json_is_pinned(capsys):
    # the digest of the earlier check, which walked every morphism j -> k,
    # j <= k <= 6, instead of one signature per class
    code, out = run(["verify-identities", "--n", "3", "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest().startswith("fbaa364da5e8")


def test_verify_identities_reaches_k_7(capsys):
    code, out = run(["verify-identities", "--n", "4", "--json"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results) == 105
    assert all(row["ok"] for row in results)


def test_nerve_stats(files, capsys):
    code, out = run(
        ["nerve-stats", "--graph", files["c4.json"], "--dim", "1",
         "--support", "1", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert "cells" in data


@pytest.mark.parametrize("argv", [
    ["sk", "--input", "interval.json", "--n", "3"],
    ["cosk", "--input", "interval.json", "--n", "3"],
    ["check-rlp", "--map", "terminal.json", "--n", "1"],
    ["check-rlp", "--map", "terminal.json", "--set", "I", "--n", "2"],
])
def test_level_above_truncation_is_input_error(files, capsys, argv):
    # interval.json is truncated at 2; J_1' and I_2' have 3-dimensional
    # members
    argv = [files.get(a, a) for a in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_k_max_below_one_is_input_error(capsys):
    # k runs from 1 to --k-max, so --k-max 0 used to check nothing and
    # still print "all identities hold"
    code = cli.main(["verify-identities", "--k-max", "0", "--json"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: --k-max 0")


@pytest.mark.parametrize("argv, message", [
    (["geometric-product", "--x", "simplex.json", "--y", "simplex.json"],
     "error: geometric product requires cubical presheaves"),
    (["a1", "--graph", "empty.json"], "has no vertices"),
])
def test_input_the_library_rejects_is_input_error(tmp_path, capsys, argv,
                                                  message):
    # both used to exit 1 with a traceback: a ValueError from the product
    # and an IndexError at the default base vertex
    (tmp_path / "simplex.json").write_text(
        json.dumps(ps.representable("simplicial", 1, 1).to_json()))
    (tmp_path / "empty.json").write_text(json.dumps(gr.Graph([], []).to_json()))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert message in err


def test_psi_check_out_of_the_empty_graph_draws_no_samples(tmp_path, capsys):
    # the pullback has no vertices to sample paths from
    path = tmp_path / "empty-to-i1.json"
    path.write_text(json.dumps(
        gr.GraphMap(gr.Graph([], []), gr.interval(1), {}).to_json()))
    code, out = run(["psi-check", "--f", str(path), "--g", str(path),
                     "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pi0"] == {"verdict": "bijection", "upstairs": 0,
                             "downstairs": 0}
    assert report["fullness"] == report["faithfulness"] == []
    assert report["passed"] is True


def test_psi_check_json_is_pinned(files, capsys):
    code, out = run(["psi-check", "--f", files["id-i1.json"], "--g",
                     files["id-i1.json"], "--samples", "2", "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest().startswith("4c53aa4dfce2")


def test_psi_check_at_a_support_below_the_path_lengths(files):
    # each search compares the sampled paths at their own length where
    # that is above --support, so a small support is no error
    env = dict(os.environ, PYTHONPATH=_SRC)
    for support in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "cubigraph.cli", "psi-check",
             "--f", files["id-i1.json"], "--g", files["id-i1.json"],
             "--support", support],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr


def test_explicit_zero_max_steps_is_honoured(files, capsys):
    code, out = run(
        ["paths-homotopic", "--graph", files["c5.json"], "--p1", "0,1,2",
         "--p2", "0,4,3,2", "--max-steps", "0", "--json"], capsys)
    assert code == 3
    assert json.loads(out)["verdict"] == "inconclusive"


def _configured(tmp_path, setting, argv):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(setting))
    return ["--config", str(path), *argv]


# One command line per config key whose report that key changes.  The
# config value takes effect (the exit code, and a fragment of stdout),
# and the flag, set to the built-in default, beats the config: the report
# is then the one without a config.
@pytest.mark.parametrize("setting, argv, flag, code, fragment", [
    ({"n": 3}, ["sk", "--input", "interval.json"], ["--n", "1"], 2, ""),
    ({"n": 0}, ["verify-identities", "--site", "cubical"], ["--n", "1"], 0,
     "cubical n=0 k=3"),
    ({"n": 0}, ["check-rlp", "--map", "terminal.json", "--set", "I"],
     ["--n", "1"], 1, "(n=0)"),
    ({"support_bound": 2}, ["nerve-stats", "--graph", "c4.json", "--dim", "1"],
     ["--support", "1"], 0, "dim 1: 324 cubes"),
    ({"slack": 0}, ["check-graph-fibration", "--map", "id-i1.json", "--json"],
     ["--slack", "2"], 0, '"slack": 0'),
    ({"cell_budget": 1}, ["nerve-stats", "--graph", "c4.json", "--dim", "2"],
     ["--budget", "10000000"], 3, ""),
    ({"max_steps": 0}, ["paths-homotopic", "--graph", "c4.json",
                        "--p1", "0,1,2", "--p2", "0,3,2"],
     ["--max-steps", "20000"], 3, "verdict: inconclusive"),
    # without the config, the report test_psi_check_json_is_pinned pins
    ({"seed": 1}, ["psi-check", "--f", "id-i1.json", "--g", "id-i1.json",
                   "--samples", "2", "--json"], ["--seed", "0"], 0, '"pass"'),
])
def test_config_sets_defaults_and_flags_win(files, tmp_path, capsys, setting,
                                            argv, flag, code, fragment):
    argv = [files.get(a, a) for a in argv]
    plain = run(argv, capsys)
    configured = run(_configured(tmp_path, setting, argv), capsys)
    assert configured != plain
    assert configured[0] == code and fragment in configured[1]
    assert run(_configured(tmp_path, setting, argv + flag), capsys) == plain


@pytest.mark.parametrize("setting, argv, flag", [
    # selftest --n defaults to 0 whatever the config says
    ({"n": 1}, ["selftest"], ["--n", "1"]),
    # psi-check --support defaults to 8, not to support_bound; at 8 the
    # first fullness sample on id I2 finds no homotopy square lift
    ({"support_bound": 1}, ["psi-check", "--f", "id-i2.json",
                            "--g", "id-i2.json", "--samples", "2"],
     ["--support", "1"]),
])
def test_config_does_not_reach_flags_without_a_key(tmp_path, capsys, setting,
                                                   argv, flag):
    (tmp_path / "id-i2.json").write_text(
        json.dumps(gr.graph_identity(gr.interval(2)).to_json()))
    argv = [str(tmp_path / a) if a == "id-i2.json" else a for a in argv]
    plain = run(argv, capsys)
    assert run(_configured(tmp_path, setting, argv), capsys) == plain
    # the flag at the config's value does change the report
    assert run(argv + flag, capsys) != plain
