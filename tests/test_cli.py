import json
import subprocess
import sys

import pytest

from gtseq import cli
from gtseq.verify import SUITES


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_product(capsys):
    code, out, _ = run(capsys, "count", "product", "--k", "0,2")
    assert code == 0
    assert out.strip() == "3"


def test_count_alpha(capsys):
    code, out, _ = run(capsys, "count", "alpha", "--n", "3", "--k", "1,2,3")
    assert code == 0
    assert out.strip() == "7"


def test_python_dash_m_gtseq(cli_env, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gtseq", "count", "alpha", "--n", "3",
         "--k", "1,2,3"],
        capture_output=True, text=True, timeout=60, env=cli_env, cwd=tmp_path)
    assert (proc.returncode, proc.stdout.strip()) == (0, "7"), proc.stderr


def test_count_alpha_length_mismatch(capsys):
    code, _, err = run(capsys, "count", "alpha", "--n", "2", "--k", "1,2,3")
    assert code == 2
    assert "disagrees" in err


@pytest.mark.parametrize("what", ("gtseq", "patterns"))
def test_count_rejects_n_that_disagrees_with_k(capsys, what):
    # every count, not only alpha's, checks --n against --k
    code, out, err = run(capsys, "count", what, "--n", "5", "--k", "0,1,2")
    assert (code, out) == (2, "")
    assert "disagrees" in err


def test_count_negative_k_equals_form(capsys):
    code, out, _ = run(capsys, "count", "det", "--k=-1,0,2")
    assert (code, out.strip()) == (0, "15")
    code, out, _ = run(capsys, "count", "product", "--k= -2,0,1")
    assert (code, out.strip()) == (0, "15")


def test_count_gtseq_variants(capsys):
    code, out, _ = run(capsys, "count", "gtseq", "--k", "0,1,2")
    assert (code, out.strip()) == (0, "8")
    code, out, _ = run(capsys, "count", "gtseq", "--k", "0,1,2",
                       "--sequence", "random", "--seed", "11")
    assert (code, out.strip()) == (0, "8")
    code, out, _ = run(capsys, "count", "gtseq", "--k", "0,1,2",
                       "--sequence", "leafchain:2")
    assert (code, out.strip()) == (0, "8")
    code, _, err = run(capsys, "count", "gtseq", "--k", "0,1",
                       "--sequence", "random")
    assert code == 2 and "--seed" in err


def test_count_paths_variants(capsys):
    for variant, want in (("classic", "3"), ("general", "3"),
                          ("nonintersecting", "3")):
        code, out, _ = run(capsys, "count", "paths", "--k", "0,2",
                           "--variant", variant)
        assert (code, out.strip()) == (0, want)


def test_bad_k_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "product", "--k", "zebra"])
    assert exc.value.code == 2


def test_verify_report_shape(capsys):
    code, out, _ = run(capsys, "verify", "decomposition")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "decomposition"
    assert report["violations"] == []
    assert report["pointsChecked"] > 0
    assert "wallTime" in report


def test_verify_flag_mapping(capsys):
    code, out, _ = run(capsys, "verify", "theorem-main", "--n", "2",
                       "--grid=-1..1", "--trees", "2", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["parameters"]["nMax"] == 2
    assert report["parameters"]["bound"] == 1
    assert report["parameters"]["trees"] == 2
    assert report["parameters"]["seed"] == 3


@pytest.mark.parametrize("argv", (("decomposition", "--n", "1"),
                                  ("prop-second", "--n", "2"),
                                  ("shift-antisym", "--n", "1"),
                                  ("prop-first", "--n", "1"),
                                  ("rho-zero", "--n", "1")),
                         ids=" ".join)
def test_verify_without_points_fails(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert "suite %s checks no point" % argv[0] in err


@pytest.mark.parametrize("argv, flag", ((("refined", "--grid=-1..1"), "--grid"),
                                        (("extensions-agree", "--n", "3"),
                                         "--n")))
def test_verify_names_the_refused_flag(capsys, argv, flag):
    code, _, err = run(capsys, "verify", *argv)
    assert code == 2
    assert "suite %s does not take %s" % (argv[0], flag) in err


def test_verify_asymmetric_grid_rejected(capsys):
    code, _, err = run(capsys, "verify", "theorem-main", "--grid=0..2")
    assert code == 2
    assert "symmetric" in err


def test_verify_workers_apply_to_every_suite(capsys):
    reports = []
    for workers in ("2", "1"):
        code, out, _ = run(capsys, "verify", "intervals", "--workers", workers)
        assert code == 0
        reports.append(json.loads(out))
        reports[-1].pop("wallTime")
    assert reports[0] == reports[1]


def test_verify_determinism(capsys):
    code1, out1, _ = run(capsys, "verify", "intervals")
    code2, out2, _ = run(capsys, "verify", "intervals")
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wallTime")
    r2.pop("wallTime")
    assert r1 == r2


def test_verify_exit_one_on_violation(capsys, monkeypatch):
    def broken(workers=1):
        return {"suite": "broken", "parameters": {}, "pointsChecked": 1,
                "violations": [{"k": [0], "lhs": 1, "rhs": 2}],
                "wallTime": 0.0}

    monkeypatch.setitem(SUITES, "broken", broken)
    code, out, _ = run(capsys, "verify", "broken")
    assert code == 1
    assert json.loads(out)["violations"]


def test_emit_tree_formats(capsys):
    code, out, _ = run(capsys, "emit", "tree", "--n", "4", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    code, out, _ = run(capsys, "emit", "tree", "--n", "4")
    doc = json.loads(out)
    assert doc["n"] == 4
    assert len(doc["edges"]) == 3


@pytest.mark.parametrize("n", ("0", "-3"))
def test_emit_random_tree_needs_a_vertex(capsys, n):
    code, out, err = run(capsys, "emit", "tree", "--kind", "random", "--n",
                         n, "--seed", "1")
    assert (code, out) == (2, "")
    assert "need at least one vertex" in err


def test_emit_pattern_and_ssyt(capsys):
    code, out, _ = run(capsys, "emit", "pattern", "--k", "0,2")
    doc = json.loads(out)
    assert doc["signedCount"] == 3
    assert len(doc["patterns"]) == 3
    code, out, _ = run(capsys, "emit", "ssyt", "--k", "0,2")
    assert len(json.loads(out)["tableaux"]) == 3


def test_emit_paths_json_and_svg(capsys):
    code, out, _ = run(capsys, "emit", "paths", "--k", "0,2")
    doc = json.loads(out)
    assert doc["variant"] == "classic"
    assert len(doc["families"]) == 3
    code, out, _ = run(capsys, "emit", "paths", "--k", "0,2", "--format",
                       "svg", "--index", "1")
    assert out.startswith("<svg")
    code, _, err = run(capsys, "emit", "paths", "--k", "0,2", "--format",
                       "svg", "--index", "9")
    assert code == 2 and "index" in err


@pytest.mark.parametrize("argv, message", (
    (("emit", "pattern", "--k", "0,2", "--limit", "-1"), "--limit"),
    (("verify", "all", "--workers", "0"), "--workers"),
    (("verify", "all", "--workers", "-3"), "--workers"),
    (("verify", "theorem-main", "--n", "2", "--trees", "0"), "--trees"),
    (("verify", "theorem-main", "--n", "-1"), "--n"),
    (("verify", "independence", "--n", "2", "--trees", "0"), "--trees"),
), ids=("limit", "workersZero", "workersNegative", "treesZero", "nNegative",
        "independenceTreesZero"))
def test_negative_counts_rejected(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "must be at least" in err


def test_negative_vinv_truncation_names_the_truncation(capsys):
    code, out, err = run(capsys, "apply", "--operator",
                         "Vinv(k1,k2;trunc=-1)", "--at", "0,1")
    assert code == 2
    assert out == ""
    assert "truncation" in err and "trunc=-1" in err
    assert "empty operator expression" not in err


@pytest.mark.parametrize("operator, message", (
    ("D^100000 k1", "over the cap of 250000 term pairs"),
    ("Vinv(k1,k2; trunc=100000)", "truncation must be in 0..64"),
), ids=("power", "truncation"))
def test_oversized_operator_exits_two_at_once(cli_env, tmp_path, operator,
                                              message):
    # both ran until killed before the operator caps; the timeout catches a
    # return of that
    proc = subprocess.run(
        [sys.executable, "-m", "gtseq", "apply", "--operator", operator,
         "--function", "product", "--at", "0,1"],
        capture_output=True, text=True, timeout=10, env=cli_env, cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("gtseq: ") and message in proc.stderr


def test_emit_limit_zero_is_empty(capsys):
    code, out, _ = run(capsys, "emit", "pattern", "--k", "0,2", "--limit",
                       "0")
    assert code == 0
    assert json.loads(out)["patterns"] == []


@pytest.mark.parametrize("artifact, fmt", (("tree", "svg"), ("paths", "dot"),
                                           ("pattern", "dot"),
                                           ("ssyt", "svg")))
def test_emit_format_must_fit_the_artifact(capsys, artifact, fmt):
    code, out, err = run(capsys, "emit", artifact, "--k", "0,2", "--format",
                         fmt)
    assert code == 2
    assert out == ""
    assert "emit %s writes only" % artifact in err


@pytest.mark.parametrize("argv", (("emit", "tree", "--kind", "star"),
                                  ("apply", "--operator", "D k1", "--function",
                                   "zeta", "--at", "0")),
                         ids=" ".join)
def test_unknown_names_rejected_by_the_parser(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_suite_lists_the_suites(capsys):
    code, out, err = run(capsys, "verify", "nosuch")
    assert code == 2
    assert out == ""
    assert "unknown suite 'nosuch'" in err
    assert all(name in err for name in ("all", *SUITES))


# The gtseq modules a fresh process holds after one command: each command
# imports only the modules it runs, and verify imports every one.  A pool
# module shows among them when loaded, which no serial command does.
EVERY_MODULE = {"cli", "intervals", "labelings", "monotone", "operators",
                "paths", "patterns", "trees", "verify"}
PATTERN_MODULES = {"cli", "patterns", "intervals"}
ALPHA_MODULES = {"cli", "monotone", "operators", "patterns", "intervals"}
LOADED_BY = (
    ((), {"cli"}),
    (("count", "det", "--k", "0,2"), {"cli", "operators"}),
    (("count", "gtseq", "--k", "0,1,2", "--sequence", "random", "--seed",
      "3"), {"cli", "labelings", "intervals", "trees"}),
    (("count", "patterns", "--k", "0,2"), PATTERN_MODULES),
    (("emit", "pattern", "--k", "0,2", "--limit", "1"), PATTERN_MODULES),
    (("count", "paths", "--variant", "general", "--k", "0,2"),
     {"cli", "paths", "trees"}),
    (("count", "alpha", "--k", "1,2,3"), ALPHA_MODULES),
    (("apply", "--operator", "D k1", "--function", "alpha", "--at", "1,2"),
     ALPHA_MODULES),
    (("verify", "paths", "--n", "2"), EVERY_MODULE),
    (("verify", "intervals", "--workers", "1"), EVERY_MODULE),
    # its n = 3 unit outweighs the rest, so two workers open no pool
    (("verify", "independence", "--n", "3", "--workers", "2"), EVERY_MODULE),
)

PROBE = ("import sys\n"
         "from gtseq.cli import main\n"
         "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
         "pool = {'concurrent.futures', 'multiprocessing'}\n"
         "print(code, *sorted(name[len('gtseq.'):] for name in sys.modules\n"
         "                    if name.startswith('gtseq.')),\n"
         "      *pool & set(sys.modules))\n")


@pytest.mark.parametrize("argv, modules", LOADED_BY,
                         ids=[" ".join(argv) or "import gtseq.cli"
                              for argv, _ in LOADED_BY])
def test_a_command_loads_only_the_modules_it_runs(cli_env, tmp_path, argv,
                                                  modules):
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=cli_env, cwd=tmp_path)
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    assert set(loaded) == modules


def test_environment_does_not_change_a_report(capsys, monkeypatch, tmp_path):
    cfg = tmp_path / "gtseq.conf"
    cfg.write_text("nMax = 2\ngrid = -1..1\n")
    monkeypatch.setenv("GTSEQ_CONFIG", str(cfg))
    code, out, _ = run(capsys, "verify", "delta-n")
    assert code == 0
    assert json.loads(out)["parameters"] == {"bound": 2, "nMax": 4}


def test_convert_round_trip(capsys, tmp_path):
    pattern_doc = tmp_path / "pattern.json"
    pattern_doc.write_text('{"rows": [[1], [0, 2]]}')
    code, out, _ = run(capsys, "convert", "pattern-to-ssyt",
                       "--input", str(pattern_doc))
    assert code == 0
    ssyt_doc = tmp_path / "ssyt.json"
    ssyt_doc.write_text(out)
    code, out, _ = run(capsys, "convert", "ssyt-to-pattern",
                       "--input", str(ssyt_doc))
    assert json.loads(out)["rows"] == [[1], [0, 2]]


def test_convert_treeseq_round_trip(capsys, tmp_path):
    pattern_doc = tmp_path / "pattern.json"
    pattern_doc.write_text('{"rows": [[1], [2, 0]]}')
    code, out, _ = run(capsys, "convert", "pattern-to-treeseq",
                       "--input", str(pattern_doc))
    assert code == 0
    chain = json.dumps(json.loads(out)["chain"])
    chain_doc = tmp_path / "chain.json"
    chain_doc.write_text(chain)
    code, out, _ = run(capsys, "convert", "treeseq-to-pattern",
                       "--input", str(chain_doc))
    doc = json.loads(out)
    assert doc["rows"] == [[1], [2, 0]]
    assert doc["sign"] == -1


def test_convert_rejects_garbage(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": "nope"}')
    code, _, err = run(capsys, "convert", "pattern-to-ssyt", "--input",
                       str(bad))
    assert code == 2


def test_apply_operator(capsys):
    code, out, _ = run(capsys, "apply", "--operator", "D^2 k1",
                       "--function", "patterns", "--at", "0,0")
    assert (code, out.strip()) == (0, "0")
    code, out, _ = run(capsys, "apply", "--operator", "E^-1 k1 E k2",
                       "--function", "product", "--at", "0,2")
    assert (code, out.strip()) == (0, "5")
    code, _, err = run(capsys, "apply", "--operator", "Q k1",
                       "--function", "product", "--at", "0,2")
    assert code == 2
