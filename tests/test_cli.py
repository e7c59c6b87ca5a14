"""Command-line interface: flag parsing, config-file merge, report formats,
exit codes, and byte determinism of written reports."""

import json
import re

import pytest

from durrmeyer import cli, harness
from durrmeyer.cli import (
    COMMANDS,
    CSV_COLUMNS,
    ConfigError,
    main,
    parse_config,
)
from durrmeyer.spectrum import DegeneracyError


def run_main(argv):
    return main(argv)


def test_exit_zero_and_csv_schema(tmp_path):
    out = tmp_path / "direct.csv"
    rc = run_main(["--command", "verify-direct", "--suite", "eig",
                   "--n-start", "4", "--n-stop", "8", "--p", "2",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) > 1
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == len(CSV_COLUMNS), line
        assert fields[0] == "DIRECT"
        assert fields[-1] == "True"


def test_inf_and_alpha_encoding(tmp_path):
    out = tmp_path / "direct.csv"
    rc = run_main(["--command", "verify-direct", "--suite", "eig",
                   "--alpha", "0.5,0.5", "--n-start", "4", "--n-stop", "4",
                   "--p", "2,inf", "--out", str(out)])
    assert rc == 0
    body = out.read_text()
    lines = body.splitlines()
    p_col = CSV_COLUMNS.index("p")
    alphas_col = CSV_COLUMNS.index("alphas")
    ps = {line.split(",")[p_col] for line in lines[1:]}
    assert ps == {"2", "inf"}
    assert {line.split(",")[alphas_col] for line in lines[1:]} == {"0.5;0.5"}


def test_json_structure(tmp_path):
    out = tmp_path / "kf.json"
    rc = run_main(["--command", "kfunc", "--suite", "eig",
                   "--n-start", "4", "--n-stop", "8", "--p", "2,inf",
                   "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"reports"}
    assert payload["reports"]
    report = payload["reports"][0]
    assert set(report) == {"check_id", "grid", "worst_margin",
                           "empirical_constant", "passed", "rows"}
    assert "runtime_ms" not in report
    assert report["passed"] is True
    row = report["rows"][0]
    assert set(row) == set(CSV_COLUMNS)
    assert {r["p"] for r in report["rows"]} == {2.0, "inf"}


def test_summary_carries_runtimes_and_reports_do_not(tmp_path, capsys):
    for fmt in ("csv", "json"):
        out = tmp_path / ("lemmas." + fmt)
        rc = run_main(["--command", "verify-lemmas", "--n-stop", "64",
                       "--format", fmt, "--out", str(out)])
        assert rc == 0
        lines = capsys.readouterr().err.splitlines()
        checks = [line for line in lines if line.startswith(("ok  ", "FAIL"))]
        assert len(checks) == 9
        for line in checks:
            # the prefix stays parseable as "<flag> <ID> rows=<N>"
            assert re.match(r"^ok   \S+\s+rows=\d+ .*runtime_ms=\d+$", line), line
        assert re.fullmatch(r"wall time \d+\.\d{3} s", lines[-1]), lines[-1]
        assert "runtime_ms" not in out.read_text()


def test_byte_determinism_small_grid(tmp_path):
    argv_tail = ["--command", "verify-direct", "--suite", "smoke",
                 "--n-start", "4", "--n-stop", "8", "--p", "1,2,inf",
                 "--seed", "777"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_main(argv_tail + ["--out", str(a)]) == 0
    assert run_main(argv_tail + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    assert run_main(argv_tail + ["--format", "json", "--out", str(ja)]) == 0
    assert run_main(argv_tail + ["--format", "json", "--out", str(jb)]) == 0
    assert ja.read_bytes() == jb.read_bytes()


def test_norms_command(tmp_path):
    out = tmp_path / "norms.csv"
    rc = run_main(["--command", "norms", "--n-start", "4", "--n-stop", "8",
                   "--p", "1,2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    ids = {line.split(",")[0] for line in lines[1:]}
    assert ids == {"NORM-partial_sum", "NORM-cesaro"}
    emp_col = CSV_COLUMNS.index("empirical_constant")
    assert all(line.split(",")[emp_col] for line in lines[1:])


def test_norms_on_the_triangle_measure_the_cesaro_mean_only(tmp_path):
    # partial-sum norms are computed on the interval only
    out = tmp_path / "norms.csv"
    rc = run_main(["--command", "norms", "--d", "2", "--alpha", "0,0,0",
                   "--n-start", "2", "--n-stop", "4", "--p", "1,2",
                   "--out", str(out)])
    assert rc == 0
    ids = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert ids and set(ids) == {"NORM-cesaro"}


def test_exit_two_on_bad_weight(capsys):
    # the = form keeps argparse from reading the leading "-" as a flag
    rc = run_main(["--command", "verify-direct", "--alpha=-1,0"])
    assert rc == 2
    assert "> -1" in capsys.readouterr().err


def test_exit_two_on_bad_p(capsys):
    rc = run_main(["--command", "verify-direct", "--p", "0.5"])
    assert rc == 2


def test_exit_two_on_missing_command(capsys):
    rc = run_main([])
    assert rc == 2
    assert "--command is required" in capsys.readouterr().err


def test_exit_two_on_unknown_command():
    with pytest.raises(SystemExit) as excinfo:
        run_main(["--command", "frobnicate"])
    assert excinfo.value.code == 2


def test_exit_two_on_interval_suite_with_triangle():
    rc = run_main(["--command", "verify-direct", "--d", "2",
                   "--alpha", "0,0,0", "--suite", "full"])
    assert rc == 2
    # the eigenfunction suite is the supported d = 2 path
    cfg = parse_config(["--command", "verify-direct", "--d", "2",
                        "--alpha", "0,0,0", "--suite", "eig"])
    assert cfg.suite == "eig"


def test_exit_two_on_lemma_ladder_below_eight(capsys):
    # L3 and L4 start their dyadic ladder at n = 8
    rc = run_main(["--command", "verify-lemmas", "--n-stop", "7"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "8 <= n <= 7" in err


@pytest.mark.parametrize("n_stop, rungs", [(8, 1), (16, 2), (32, 3)])
def test_exit_two_on_lemma_ladder_too_short_to_decide(n_stop, rungs, tmp_path, capsys):
    # 8 once read as a pass (one rung against itself), 16 and 32 as L4 and
    # L6 failures while the top rung was still growing
    rc = run_main(["--command", "verify-lemmas", "--n-stop", str(n_stop),
                   "--out", str(tmp_path / "lemmas.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "needs 4 dyadic degrees" in err
    assert "8 <= n <= %d" % n_stop in err and err.rstrip().endswith("got %d" % rungs)
    assert not (tmp_path / "lemmas.csv").exists()


def test_lemma_ladder_of_four_rungs_passes(tmp_path):
    rc = run_main(["--command", "verify-lemmas", "--n-stop", "64",
                   "--out", str(tmp_path / "lemmas.csv")])
    assert rc == 0


def test_exit_two_on_an_unwritable_out(tmp_path, capsys, monkeypatch):
    # a missing directory is found before any check runs: a bad --out, not
    # a failed check and not a traceback
    def run(cfg):
        raise AssertionError("the command ran before --out was checked")

    monkeypatch.setattr(cli, "run", run)
    out = tmp_path / "missing" / "x.csv"
    rc = run_main(["--command", "verify-lemmas", "--n-stop", "2048", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "config error: cannot write --out %s: No such file or directory\n" % out
    # a path that only opening shows to be unwritable exits 2 after the run
    monkeypatch.undo()
    rc = run_main(["--command", "norms", "--n-start", "4", "--n-stop", "8",
                   "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error: cannot write --out %s: "
                                              % tmp_path)


def test_exit_three_on_degeneracy(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise DegeneracyError("tau pinned to the band edge")

    monkeypatch.setattr(cli.harness, "check_lemma", explode)
    rc = run_main(["--command", "verify-lemmas", "--out",
                   str(tmp_path / "x.csv")])
    assert rc == 3


def test_config_file_merge(tmp_path):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({
        "command": "verify-direct",
        "suite": "eig",
        "n-stop": 8,
        "p": "2",
        "seed": 7,
    }))
    cfg = parse_config(["--config", str(conf)])
    assert cfg.command == "verify-direct"
    assert cfg.suite == "eig"
    assert cfg.n_stop == 8
    assert cfg.seed == 7
    # explicit flags beat file values
    cfg2 = parse_config(["--config", str(conf), "--n-stop", "16",
                         "--seed", "9"])
    assert cfg2.n_stop == 16
    assert cfg2.seed == 9
    assert cfg2.suite == "eig"
    # an integral float is an integer, and a JSON boolean a boolean
    conf.write_text(json.dumps({"command": "norms", "n-start": 4.0, "dyadic": False}))
    cfg3 = parse_config(["--config", str(conf)])
    assert type(cfg3.n_start) is int and cfg3.n_start == 4 and cfg3.dyadic is False
    # a float setting takes a JSON number, an integral one too
    conf.write_text(json.dumps({"command": "norms", "tol_identity": 1e-10, "delta": 1}))
    cfg4 = parse_config(["--config", str(conf)])
    assert cfg4.tol_identity == 1e-10 and type(cfg4.delta) is float and cfg4.delta == 1.0


def test_config_file_rejects_unknown_keys(tmp_path):
    conf = tmp_path / "bad.json"
    conf.write_text(json.dumps({"command": "norms", "bogus": 1}))
    with pytest.raises(ConfigError):
        parse_config(["--config", str(conf)])


@pytest.mark.parametrize("key, value, match", [
    ("dyadic", "false", "dyadic must be true or false"),
    ("dyadic", 0, "dyadic must be true or false"),
    ("n_start", 4.7, "n_start must be an integer"),
    ("n_stop", "10", "n_stop must be an integer"),
    ("seed", True, "seed must be an integer"),
    ("tol_identity", True, "tol_identity must be a finite number"),
    ("tol_quadrature", True, "tol_quadrature must be a finite number"),
    ("delta", True, "delta must be a finite number"),
    ("delta", "x", "delta must be a finite number"),
    ("b", "4", "b must be a finite number"),
    ("tol_identity", "1e-10", "tol_identity must be a finite number"),
    ("tol_quadrature", float("nan"), "tol_quadrature must be a finite number"),
    pytest.param("delta", 10 ** 400, "delta must be a finite number", id="delta-10**400"),
])
def test_config_file_values_must_have_their_field_type(tmp_path, capsys, key, value, match):
    conf = tmp_path / "typed.json"
    conf.write_text(json.dumps({"command": "norms", "n_start": 4, "n_stop": 10,
                                key: value}))
    rc = run_main(["--config", str(conf)])
    assert rc == 2
    assert match in capsys.readouterr().err


def test_n_range_construction():
    cfg = parse_config(["--command", "norms", "--n-start", "4",
                        "--n-stop", "64"])
    assert cfg.ns() == (4, 8, 16, 32, 64)
    cfg2 = parse_config(["--command", "norms", "--n-start", "4",
                         "--n-stop", "34", "--n-step", "10", "--no-dyadic"])
    assert cfg2.ns() == (4, 14, 24, 34)


def test_command_list_is_complete():
    assert COMMANDS == ("verify-lemmas", "verify-direct", "verify-converse",
                        "verify-proposition", "kfunc", "norms", "report-all")


def test_verify_direct_at_band_512(tmp_path):
    # kink functions are projected at the band max(64, n-stop)
    rc = run_main(["--command", "verify-direct", "--suite", "kink",
                   "--n-start", "512", "--n-stop", "512",
                   "--out", str(tmp_path / "direct.csv")])
    assert rc == 0


def test_verify_proposition_command_writes_the_harness_rows(tmp_path):
    out = tmp_path / "prop.csv"
    rc = run_main(["--command", "verify-proposition", "--suite", "smoke",
                   "--p", "1.5,2", "--n-start", "8", "--n-stop", "16",
                   "--seed", "7", "--out", str(out)])
    assert rc == 0
    rep = harness.run_proposition((1.5, 2.0), (8, 16), "smoke", seed=7)
    assert out.read_text() == cli.rows_to_csv(rep.rows)
    assert {row.p for row in rep.rows} == {1.5, 2.0}


@pytest.mark.parametrize("argv, alphas", [
    (["--command", "verify-converse", "--alpha", "-0.5,0.5"], (-0.5, 0.5)),
    (["--command", "norms", "--d", "2", "--alpha", "-0.5,0,0"], (-0.5, 0.0, 0.0)),
    (["--command", "verify-converse", "--alpha", "-.5,-0.5"], (-0.5, -0.5))])
def test_negative_first_exponent_in_the_space_form(argv, alphas):
    cfg = parse_config(argv)
    assert cfg.alphas == alphas
    joined = argv[:-2] + ["--alpha=" + argv[-1]]
    assert parse_config(joined) == cfg


def test_negative_first_exponent_runs_and_bad_ones_exit_two(tmp_path, capsys):
    tail = ["--command", "verify-converse", "--suite", "smoke", "--p", "1,2",
            "--n-start", "4", "--n-stop", "8"]
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert run_main(tail + ["--alpha", "-0.5,0.5", "--out", str(spaced)]) == 0
    assert run_main(tail + ["--alpha=-0.5,0.5", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert run_main(["--command", "verify-direct", "--alpha", "-1,0"]) == 2
    assert "> -1" in capsys.readouterr().err
