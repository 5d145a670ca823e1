"""CLI surface: exit codes, deterministic byte-identical output, JSON schema,
config-file precedence, atomic --out writes, and backend equivalence."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

from binram import cli
from binram.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# -- exit codes ---------------------------------------------------------------


def test_usage_error_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_usage_error_missing_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


def test_usage_error_bad_digits(capsys):
    # PrecisionPolicy requires digits >= 30
    code, _ = run_cli(["poisson", "--b-max", "2", "--digits", "5"], capsys)
    assert code == 64


def test_usage_error_threshold_n_too_small(capsys):
    code, _ = run_cli(["threshold", "--n", "100"], capsys)
    assert code == 64


def test_resource_guard_scan_z(capsys):
    code, _ = run_cli(["scan-z", "--n-max", "5000"], capsys)
    assert code == 70


@pytest.mark.parametrize("target", ["exp-bounds", "z-lowerbound"])
def test_resource_guard_certify(target, capsys):
    code = main(["certify", target, "--n-max", "5000"])
    captured = capsys.readouterr()
    assert code == 70
    assert captured.out == ""
    assert captured.err.startswith("binram: resource guard: ")


def test_clean_run_exit_zero(capsys):
    code, out = run_cli(["scan-p", "--n-max", "40"], capsys)
    assert code == 0
    assert out.startswith("claim_id,b,n,sign,boundary_ok\n")


def test_violation_exit_one(capsys):
    # the medium-band sufficient inequality has three known corner violations
    code, out = run_cli(["certify", "appendix-c"], capsys)
    assert code == 1
    assert "eq-medium_b_ineq" in out


@pytest.mark.parametrize("argv", [
    ["scan-p", "--n-max", "1"],
    ["scan-p", "--n-max", "-5"],
    ["scan-z", "--n-max", "1"],
    ["poisson", "--b-max", "0"],
    ["scan-p", "--n-max", "10", "--workers", "0"],
    ["scan-z", "--n-max", "10", "--workers", "-2"],
    ["verify", "--claims", ","],
    ["verify", "--claims", "1", "--n-max", "1"],
    ["verify", "--claims", "2", "--n-max", "2"],
    ["verify", "--claims", "3", "--n-max", "9"],
    ["certify", "exp-bounds", "--n-max", "3"],
    ["smalldev", "conjecture", "--n-max", "1"],
    ["smalldev", "samuels", "--n-max", "0"],
    ["smalldev", "monotonicity", "--n-max", "0"],
])
def test_vacuous_runs_and_bad_workers_are_usage_errors(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err.startswith("binram: ")


def test_verify_n_max_one_still_covers_lemma1_at_b_one(monkeypatch, capsys):
    monkeypatch.setattr(cli, "moments_suite", lambda *a: pytest.fail("a suite ran"))
    assert main(["verify", "--claims", "moments", "--n-max", "0"]) == 64  # before any suite
    capsys.readouterr()
    code, out = run_cli(["verify", "--claims", "lemma1", "--n-max", "1"], capsys)
    assert code == 0
    assert out.splitlines()[1:] == ["lemma1,1,1,ok,,,,"]


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"results": [], "violations": [{"claim_id": "x", "bogus": 1}]},
    {"results": [["thm3", 1, 2]]},
    {"results": [], "violations": [], "inconclusive": "some"},
    # rows must be flat, under a header of names
    {"results": [{"claim_id": "x", "b": [1, 2], "n": 3}]},
    {"results": [{"claim_id": {"a": 1}}]},
    {"meta": {"header": ["claim_id", "b"]}, "results": [{"b": {}}]},
    {"results": [{}]},
    {"meta": {"header": ["b", 1]}, "results": [{"b": 1}]},
])
def test_report_merge_rejects_malformed_input(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["report-merge", str(path)])
    err = capsys.readouterr().err
    assert code == 64
    assert err.startswith(f"binram: {path}: not a binram JSON report")
    assert err.count("\n") == 1


def test_bad_grid_step_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["smalldev", "conjecture", "--grid-step", "nonsense"])
    assert exc.value.code == 64


@pytest.mark.parametrize("step", ["0", "-1/10"])
def test_non_positive_grid_step_is_a_usage_error(step, capsys):
    code = main(["smalldev", "conjecture", "--n-max", "5", f"--grid-step={step}"])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err == "binram: grid_step must be > 0\n"


@pytest.mark.parametrize("command,target,flag,check", [
    ("certify", "appendix-b", ["--n-max", "3"], "check_boundary_cases"),
    ("certify", "appendix-c", ["--n-max", "3"], "check_small_b"),
    ("certify", "root-bounds", ["--n-max", "3"], "check_root_bounds"),
    ("smalldev", "samuels", ["--c", "0"], "verify_samuels"),
    ("smalldev", "samuels", ["--grid-step", "1/3"], "verify_samuels"),
    ("smalldev", "conjecture", ["--c", "0"], "conjecture_scan"),
    ("smalldev", "monotonicity", ["--grid-step", "1/3"], "tilde_p_monotonicity_scan"),
])
def test_flags_a_target_does_not_read_are_usage_errors(command, target, flag, check,
                                                       monkeypatch, capsys):
    called = []
    monkeypatch.setattr(cli, check, lambda *a, **k: called.append(a))
    with pytest.raises(SystemExit) as exc:
        main([command, target, *flag])
    captured = capsys.readouterr()
    assert exc.value.code == 64
    assert captured.out == ""
    usage, error = captured.err.split("\n", 1)
    # the target's own usage line and prog name, not the top-level parser's
    assert usage.startswith(f"usage: binram {command} {target} [-h]"), usage
    assert error.endswith(f"binram {command} {target}: error: unrecognized arguments: "
                          f"{' '.join(flag)}\n")
    assert "Traceback" not in captured.err
    assert called == []


@pytest.mark.parametrize("argv,prog,flag,level", [
    (["certify", "--n-max", "3", "root-bounds"], "binram certify", "--n-max", "target"),
    (["certify", "--n-max=3", "root-bounds"], "binram certify", "--n-max", "target"),
    (["smalldev", "--c", "1", "monotonicity"], "binram smalldev", "--c", "target"),
    (["--n-max", "3", "scan-p"], "binram", "--n-max", "command"),
])
def test_a_flag_before_its_target_is_named(argv, prog, flag, level, capsys):
    """A leaf flag placed before the target (or subcommand) is named, with
    where it belongs, instead of being read as the target's name."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 64
    assert captured.out == ""
    assert captured.err.endswith(f"{prog}: error: {flag} comes before the {level}; "
                                 f"flags go after the {level}\n"), captured.err


def test_a_flag_prefix_at_its_own_level_still_parses(tmp_path, capsys):
    """argparse takes a unique prefix of a flag; the misplaced-flag check
    leaves the top level's own --config, so abbreviated, alone."""
    cfg = tmp_path / "defaults.conf"
    cfg.write_text("n-max = 12\n")
    code, out = run_cli(["--conf", str(cfg), "scan-p"], capsys)
    assert code == 0
    assert out == run_cli(["scan-p", "--n-max", "12"], capsys)[1]


def test_conjecture_guard_trips_before_the_first_row(monkeypatch, capsys):
    scanned = []
    monkeypatch.setattr(cli, "conjecture_scan", lambda n, step: scanned.append(n))
    code = main(["smalldev", "conjecture", "--n-max", "61"])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.err == "binram: scan guarded at n <= 60\n"
    assert scanned == []


@pytest.mark.parametrize("argv,message", [
    (["smalldev", "monotonicity", "--c", "1/0"],
     "binram smalldev monotonicity: error: argument --c: "),
    (["verify", "--claims", "1,1"], "binram: claim '1' listed more than once"),
    (["verify", "--claims", ","], "binram: --claims ',' is an empty claim list"),
    (["verify", "--claims", "moments", "--n-max", "-7"], "binram: --n-max must be >= 1, got -7"),
])
def test_zero_denominator_and_repeated_claim_are_usage_errors(argv, message):
    """Run as a process, so that a traceback would show on stderr."""
    proc = subprocess.run([sys.executable, "-m", "binram.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 64
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


# -- determinism and formats --------------------------------------------------


def test_byte_identical_reruns(capsys):
    _, first = run_cli(["scan-p", "--n-max", "60"], capsys)
    _, second = run_cli(["scan-p", "--n-max", "60"], capsys)
    assert first == second
    _, j1 = run_cli(["verify", "--claims", "1", "--n-max", "20",
                     "--format", "json"], capsys)
    _, j2 = run_cli(["verify", "--claims", "1", "--n-max", "20",
                     "--format", "json"], capsys)
    assert j1 == j2


@pytest.mark.parametrize("argv,code,digest", [
    (["verify"], 1, "27d780d9150f32e9c4fe8d99a1ef36d46f6e205c035f4a2c0a79cb36f3f9f662"),
    (["poisson", "--b-max", "40"], 0,
     "7227b109884f6844c285b1c3f1d0afd591389b2e5836cb61f3b3efb78a4b4157"),
    (["certify", "appendix-b"], 0,
     "38d6bf0b0244be325ab956ae3f05f974e15fcb9abb79525c85b9f963fcd92843"),
    (["scan-p", "--n-max", "60"], 0,
     "2c7c6f545aedb6657b107409e3f4ec9708019f866af909fdf95ec23ad6247937"),
    (["certify", "z-lowerbound", "--n-max", "120"], 0,
     "02d8c929a90701f17a88a1eaf7ae5ee5ceafeae4176d4a58372c97c29862bbf3"),
    (["verify", "--claims", "3", "--n-max", "200"], 1,
     "622339ebf48e9b927ca732c1c82c85a4fb881b948a1fdcd1da03650f33c29db7"),
    (["certify", "appendix-c"], 1,
     "6e53b309f7c32545ebc2c9f7df558f88f860231d91e54755933fabcbc628ff67"),
    (["smalldev", "samuels", "--n-max", "80"], 0,
     "bc807f2ef1b46b45ca8cc779f8adeb35a94b10dcdc73a918b086e58f676469e5"),
    (["smalldev", "conjecture", "--n-max", "6"], 0,
     "adc6ee8b1dfe44d407cb38fde4c9ccd0ffb561374f50cfbb1a83e4e8fd477c58"),
    (["smalldev", "conjecture", "--n-max", "8", "--grid-step", "3/40"], 0,
     "f8978b38e16a415070772e16a7d78f28dbadf635bbd90d467c02439409387ded"),
    (["smalldev", "monotonicity", "--n-max", "50"], 0,
     "5ecf4ab1adebdb367c68680d06bdbd74717409bc30a3748bb11c198449794305"),
    (["smalldev", "monotonicity", "--c", "1/7", "--n-max", "40", "--format", "json"], 0,
     "51889a2730f1535cc970601c16c5a4edabe3ef6090551536fb9486ff2914c2da"),
    (["poisson", "--b-max", "150", "--digits", "30"], 0,
     "2c5cbcbf856e3fea025cbd8aeda3ced3d0336a408092a16d00ee6ccea42921b7"),
    (["poisson", "--b-max", "150", "--digits", "60"], 0,
     "3d2dc475d2efdbdaba6cc95c60c4443d2a2e19ca44164acec3a8b66990f967f1"),
    (["poisson"], 0, "9ad080fd4a00861a538ed9cb8d9fb2f650d316dd1cfead4b98a7ca97db2681a8"),
    (["poisson", "--b-max", "200", "--digits", "31", "--format", "json"], 0,
     "e05e41aee6e3a6f5c9bfd84f0e6c5f3dc7929d73d6d7d49307c2af6768354419"),
    (["certify", "root-bounds"], 0,
     "6550be600e3f941f1548784eff032d3151035515a3b62db7183076d96a3a0b83"),
    (["certify", "exp-bounds", "--n-max", "600"], 0,
     "8c781e44724d9e11e99e88c831cf71e35e2c6ed24db35e72a8b32cc592c031a7"),
    # the smalldev targets at their own defaults
    (["smalldev", "samuels"], 0,
     "75e65f730368df9bf042074ec5a6042d962191d35cb2acf723fb7c85450f2604"),
    (["smalldev", "conjecture"], 0,
     "a475aedc8bea56480d78cbd1507adc3381886d20d07fbd6913459b27fc85b745"),
    (["smalldev", "monotonicity"], 0,
     "76416c6a19d9837fde9365080fc969782e668a88cdc58f1ae84b1375d4d78c19"),
])
def test_pinned_report_digests(argv, code, digest, capsys):
    """CSV reports carry no backend name, so these digests hold on both
    backends; a change to any row, witness or exit code shows here.  A JSON
    report names its backend in its meta, so it is hashed as the fractions
    backend writes it."""
    got_code, out = run_cli(argv, capsys)
    assert got_code == code
    out = out.replace(f'"backend": "{cli.BACKEND}"', '"backend": "fractions"')
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_workers_do_not_change_output(capsys):
    _, serial = run_cli(["scan-p", "--n-max", "50"], capsys)
    _, parallel = run_cli(["scan-p", "--n-max", "50", "--workers", "3"], capsys)
    assert serial == parallel


def test_pool_is_built_through_the_module_attribute(monkeypatch, capsys):
    # perfbench's tracer rebinds cli.ProcessPoolExecutor to time the pool
    built = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    _, serial = run_cli(["scan-p", "--n-max", "40"], capsys)
    assert built == []
    _, parallel = run_cli(["scan-p", "--n-max", "40", "--workers", "2"], capsys)
    assert built == [{"max_workers": 2}]
    assert parallel == serial


def test_json_schema(capsys):
    code, out = run_cli(["smalldev", "samuels", "--n-max", "30",
                         "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"meta", "results", "violations", "inconclusive"}
    assert doc["meta"]["command"] == "smalldev"
    assert doc["violations"] == [] and doc["inconclusive"] == 0
    assert all(set(row) == set(doc["meta"]["header"]) for row in doc["results"])


def test_no_timestamps_in_output(capsys):
    _, out = run_cli(["poisson", "--b-max", "3", "--format", "json"], capsys)
    doc = json.loads(out)
    assert not any("time" in k.lower() or "date" in k.lower() for k in doc["meta"])


# -- README flag table ----------------------------------------------------------

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _readme_flag_table() -> dict:
    """{(command,) or (command, target): {flag: default}} from the README rows
    under "| subcommand or target | flags (default) |"; a flag's default is
    the text in its parentheses, without backticks."""
    with open(README, encoding="utf-8") as fh:
        rows = fh.read().split("| subcommand or target | flags (default) |\n", 1)[1]
    table = {}
    for row in rows.splitlines()[1:]:
        if not row.startswith("|"):
            break
        names, flags = (cell.strip() for cell in row.strip("|").split("|"))
        names = re.findall(r"`([^`]+)`", names)
        prefix = names[0].split()[:-1]  # "certify" in "`certify exp-bounds`, `z-lowerbound`"
        documented = dict(re.findall(r"`(--[a-z-]+)[^`]*` \(`?([^`)]*)`?\)", flags))
        assert documented or flags == "none", row
        for name in names:
            table[tuple(prefix + name.split()[-1:])] = documented
    return table


def _leaf_flags(parser, path=()) -> dict:
    """The same map read from the leaf parsers, without --format and --out."""
    subs = parser._subs()
    if subs is not None:
        return {key: flags for name, sub in subs.choices.items()
                for key, flags in _leaf_flags(sub, path + (name,)).items()}
    options = {a.option_strings[0]: a for a in parser._actions
               if a.option_strings and a.dest != "help"}
    fmt, out = options.pop("--format"), options.pop("--out")
    assert (fmt.default, fmt.choices, out.default) == ("csv", ("csv", "json"), None), path
    return {path: {flag: "required" if a.required else str(a.default)
                   for flag, a in options.items()}}


def test_readme_flag_table_matches_the_parsers():
    """Every leaf parser has a README row, and each row lists exactly the
    leaf's flags (beyond --format and --out) with their defaults."""
    assert _readme_flag_table() == _leaf_flags(cli.build_parser())


# -- config file --------------------------------------------------------------


def test_config_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "binram.cfg"
    cfg.write_text("# defaults\nn-max = 25\nformat = json\n")
    # config sets both
    code, out = run_cli(["--config", str(cfg), "scan-p"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["n_max"] == 25
    # explicit flag wins over config, in every form argparse accepts
    for flag in (["--n-max", "10"], ["--n-max=10"], ["--n-m", "10"]):
        code, out = run_cli(["--config", str(cfg), "scan-p", *flag], capsys)
        doc = json.loads(out)
        assert doc["meta"]["n_max"] == 10, flag


def test_config_values_take_the_option_type(tmp_path, capsys):
    # a config value lands on the target's own parser and is converted with the
    # option's declared type; samuels takes no --grid-step, so that key is ignored
    cfg = tmp_path / "binram.cfg"
    cfg.write_text("n-max = 30\ngrid-step = 1/10\n")
    via_config = run_cli(["--config", str(cfg), "smalldev", "samuels"], capsys)
    assert via_config == run_cli(["smalldev", "samuels", "--n-max", "30"], capsys)
    assert via_config[0] == 0 and "samuels,2,30,scanned" in via_config[1]
    for bad, target in (("n-max = thirty", "samuels"), ("grid-step = a/b", "conjecture"),
                        ("format = xml", "samuels")):
        cfg.write_text(bad + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "smalldev", target])
        assert exc.value.code == 64, bad


def test_config_bad_line_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a pair\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "scan-p"])
    assert exc.value.code == 64


def test_config_missing_file(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(tmp_path / "absent.cfg"), "scan-p"])
    assert exc.value.code == 64


# -- --out --------------------------------------------------------------------


def test_out_writes_file_without_stdout(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out = run_cli(["scan-p", "--n-max", "30", "--out", str(target)], capsys)
    assert code == 0 and out == ""
    assert target.exists()
    assert not (tmp_path / "report.csv.tmp").exists()  # atomic rename cleaned up
    _, stdout_version = run_cli(["scan-p", "--n-max", "30"], capsys)
    assert target.read_text() == stdout_version


def test_report_merge_round_trip(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["scan-p", "--n-max", "12", "--format", "json", "--out", str(a)], capsys)
    run_cli(["scan-p", "--n-max", "16", "--format", "json", "--out", str(b)], capsys)
    code, out = run_cli(["report-merge", str(a), str(b), "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    na = len(json.loads(a.read_text())["results"])
    nb = len(json.loads(b.read_text())["results"])
    assert len(doc["results"]) == na + nb
    assert doc["meta"]["merged"] == 2
    keys = [(r["claim_id"], r["n"], r["b"]) for r in doc["results"]]
    assert keys == sorted(keys)


# -- backend selection and equivalence ----------------------------------------


def run_with_backend(backend):
    return subprocess.run(
        [sys.executable, "-m", "binram.cli", "scan-p", "--n-max", "5"],
        capture_output=True, text=True, env=dict(os.environ, BINRAM_BACKEND=backend),
    )


def assert_usage_error(proc, message):
    assert proc.returncode == 64
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"binram: {message}"]


def test_unknown_backend_is_a_usage_error():
    assert_usage_error(run_with_backend("bogus"),
                       "unknown BINRAM_BACKEND='bogus'; expected auto, gmpy2 or fractions")


@pytest.mark.skipif(importlib.util.find_spec("gmpy2") is not None, reason="gmpy2 is installed")
def test_missing_gmpy2_is_a_usage_error():
    assert_usage_error(run_with_backend("gmpy2"),
                       "BINRAM_BACKEND='gmpy2' but gmpy2 is not installed")


@pytest.mark.slow
def test_fractions_backend_produces_identical_report(tmp_path):
    outs = {}
    for backend in ("gmpy2", "fractions"):
        env = dict(os.environ, BINRAM_BACKEND=backend)
        proc = subprocess.run(
            [sys.executable, "-m", "binram.cli", "scan-p", "--n-max", "40"],
            capture_output=True, text=True, env=env, check=True,
        )
        outs[backend] = proc.stdout
    assert outs["gmpy2"] == outs["fractions"]
