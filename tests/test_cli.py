"""Command-line surface: exit codes, JSON documents, artifacts, manifests,
and byte-level determinism."""

import hashlib
import json
import math
import random
import re
import shlex
import sys
import time
from pathlib import Path

import pytest

from quaddyn import acceptance, cli
from quaddyn.acceptance import CriterionResult
from quaddyn.cantor import cover
from quaddyn.cardioid import MAX_PERIOD, landing_pair
from quaddyn.cli import _HANDLERS, main
from quaddyn.errors import InvariantError, PrecisionError


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_landing_pair_document(tmp_path, capsys):
    code, out, _ = _run(
        capsys, ["landing-pair", "--pq", "3/5", "--out", str(tmp_path), "--json"]
    )
    assert code == 0
    assert json.loads(out) == {"alpha_minus": "21/31", "alpha_plus": "22/31"}
    manifest = json.loads((tmp_path / "landing-pair-manifest.json").read_text())
    assert manifest["command"] == "landing-pair"
    assert manifest["parameters"]["pq"] == "3/5"


def test_default_output_is_a_summary_line(tmp_path, capsys):
    code, out, _ = _run(capsys, ["landing-pair", "--pq", "1/2", "--out", str(tmp_path)])
    assert code == 0
    assert out.startswith("landing-pair: wrote")


def test_invariant_violation_exits_4(tmp_path, capsys):
    code, _, err = _run(capsys, ["landing-pair", "--pq", "4/2", "--out", str(tmp_path)])
    assert code == 4
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "InvariantError"


def test_usage_errors_exit_2(tmp_path, capsys):
    assert _run(capsys, ["no-such-verb"])[0] == 2
    assert _run(capsys, [])[0] == 2
    assert _run(capsys, ["orbit", "--pq", "seven"])[0] == 2
    # a zero denominator, a missing --distance, or not exactly one of --cf
    # and --value is a usage error with one JSON object on stderr, not a
    # traceback or argparse's usage text
    one_of = []
    for command in ("angle", "cantor", "brjuno", "cf"):
        one_of.append([command])
        one_of.append([command, "--cf", "1:rep=1", "--value", "1/3"])
    for argv in [
        ["ray", "--c", "0", "--angle", "1/0"],
        ["cf", "--value", "1/0"],
        ["brjuno", "--value", "1/0"],
        ["cantor", "--value", "1/0"],
        ["angle", "--value", "abc"],
        ["lavrentiev", "--endpoints", "1.0,1.001"],
        ["cantor", "--cf", "1:rep=1", "--depth", "eight"],
        *one_of,
    ]:
        code, _, err = _run(capsys, argv + ["--out", str(tmp_path)])
        assert code == 2
        assert json.loads(err)["error"] == "UsageError"


def test_precision_failure_exits_3(tmp_path, capsys):
    code, _, err = _run(
        capsys,
        ["radius", "--cf", "1:rep=1", "--order", "200", "--prec", "8", "--out", str(tmp_path)],
    )
    assert code == 3
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "PrecisionError"


def test_angle_external_form(tmp_path, capsys):
    code, out, _ = _run(
        capsys,
        ["angle", "--cf", "1,1,1:rep=1", "--prec", "16", "--out", str(tmp_path), "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == "2^-15"
    assert doc["iterates"][:3] == ["1/3", "5/7", "21/31"]
    assert doc["approx"] == doc["iterates"][-1]


def test_angle_rational_expansion_is_exact(tmp_path, capsys):
    code, out, _ = _run(
        capsys, ["angle", "--cf", "1,2", "--out", str(tmp_path), "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exact_pair"] == ["5/7", "6/7"]
    assert doc["bound"] == "0"


def _unlimited_str(values):
    """str of each value, past the interpreter's int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)


def test_large_periods_print_exact_angles(tmp_path, capsys):
    # numerators over 2^15000 - 1 have more than 4300 decimal digits
    limit = sys.get_int_max_str_digits()
    code, out, _ = _run(
        capsys, ["landing-pair", "--pq", "1/15000", "--out", str(tmp_path), "--json"]
    )
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    den = _unlimited_str([2**15000 - 1])[0]
    assert json.loads(out) == {"alpha_minus": f"1/{den}", "alpha_plus": f"2/{den}"}
    # [0; 15000, 2] = 2/30001
    code, out, _ = _run(
        capsys, ["angle", "--cf", "15000,2", "--out", str(tmp_path), "--json"]
    )
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    doc = json.loads(out)
    assert doc["bound"] == "0"
    assert doc["exact_pair"] == _unlimited_str(landing_pair(2, 30001))


def _fake_results():
    return [
        CriterionResult("X01", "first", True, "fine", 0.1, 1.0),
        CriterionResult("X02", "second", False, "broken", 0.2, 1.0),
    ]


def test_accept_json_prints_one_document(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "run_all", _fake_results)
    code, out, err = _run(capsys, ["accept", "--out", str(tmp_path), "--json"])
    assert code == 1
    doc = json.loads(out)
    assert [c["id"] for c in doc["criteria"]] == ["X01", "X02"]
    assert doc["passed"] is False
    assert err.splitlines() == [r.line for r in _fake_results()]
    code, out, _ = _run(capsys, ["accept", "--out", str(tmp_path)])
    assert out.splitlines()[:2] == [r.line for r in _fake_results()]


def test_angle_doubling_form(tmp_path, capsys):
    code, out, _ = _run(
        capsys, ["angle", "--value", "3/7", "--steps", "3", "--out", str(tmp_path), "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["purely_periodic"] is True
    assert doc["doubling_orbit"] == ["3/7", "6/7", "5/7", "3/7"]


@pytest.mark.parametrize(
    "value, angle", [("3/7", "3/7"), ("0.375", "3/8"), (" 5/3 ", "2/3")]
)
def test_angle_value_literals(tmp_path, capsys, value, angle):
    argv = ["angle", "--value", value, "--steps", "0", "--out", str(tmp_path), "--json"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["doubling_orbit"] == [angle]


def test_angle_value_rejects_garbage(tmp_path, capsys):
    for value in ("one third", "1/0"):
        argv = ["angle", "--value", value, "--out", str(tmp_path)]
        code, _, err = _run(capsys, argv)
        assert code == 2
        assert json.loads(err)["error"] == "UsageError"


def test_angle_requires_one_input_mode(tmp_path, capsys):
    assert _run(capsys, ["angle", "--out", str(tmp_path)])[0] == 2


def test_orbit_document(tmp_path, capsys):
    code, out, _ = _run(capsys, ["orbit", "--pq", "1/3", "--out", str(tmp_path), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"angles": ["1/7", "2/7", "4/7"], "period": 3, "rotation": "1/3"}


def test_brjuno_value_frozen(tmp_path, capsys):
    code, out, _ = _run(
        capsys, ["brjuno", "--cf", "1:rep=1", "--terms", "50", "--out", str(tmp_path), "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["nondecreasing"] is True
    assert doc["value"] == pytest.approx(1.2598289137496461, abs=1e-12)


def test_radius_estimate_frozen(tmp_path, capsys):
    code, out, _ = _run(
        capsys,
        ["radius", "--cf", "1:rep=1", "--order", "256", "--out", str(tmp_path), "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reliable"] is True
    assert doc["koebe_ok"] is True
    assert doc["r_hat"] == pytest.approx(0.33661267179925614, abs=1e-12)


def test_manifest_digests_match_artifacts(tmp_path, capsys):
    code, _, _ = _run(
        capsys, ["cantor", "--cf", "1:rep=1", "--depth", "6", "--out", str(tmp_path)]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "cantor-manifest.json").read_text())
    assert manifest["artifacts"]
    for record in manifest["artifacts"]:
        blob = (tmp_path / record["name"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == record["sha256"]
        assert len(blob) == record["bytes"]


def test_env_precision_feeds_handlers_and_manifest(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QUADDYN_PREC", "32")
    code, out, _ = _run(
        capsys, ["cf", "--value", "113/355", "--out", str(tmp_path), "--json"]
    )
    assert code == 0
    assert json.loads(out)["bracket_prec_bits"] == 32
    manifest = json.loads((tmp_path / "cf-manifest.json").read_text())
    assert manifest["precision_bits"] == 32


@pytest.mark.parametrize(
    "argv,env,expected",
    [
        (["radius", "--cf", "1:rep=1", "--order", "64"], None, 256),
        (["radius", "--cf", "1:rep=1", "--order", "64"], "100", 100),
        (["cantor", "--cf", "1:rep=1", "--depth", "4"], None, 32),
        (["orbit", "--pq", "2/5"], None, None),
    ],
)
def test_manifest_records_effective_precision(tmp_path, capsys, monkeypatch, argv, env, expected):
    if env is None:
        monkeypatch.delenv("QUADDYN_PREC", raising=False)
    else:
        monkeypatch.setenv("QUADDYN_PREC", env)
    code, _, _ = _run(capsys, argv + ["--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / f"{argv[0]}-manifest.json").read_text())
    assert manifest["precision_bits"] == expected
    # parameters keep the command line as given
    assert "prec" not in manifest["parameters"]


@pytest.mark.parametrize("command", [["radius", "--cf", "1:rep=1", "--order", "16"], ["orbit", "--pq", "2/5"]])
def test_invalid_env_precision_exits_4(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("QUADDYN_PREC", "lots")
    code, _, err = _run(capsys, command + ["--out", str(tmp_path)])
    assert code == 4
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvariantError"


@pytest.mark.parametrize(
    "argv",
    [
        ["cf", "--cf", "1:rep=1", "--prec", "-5"],
        ["brjuno", "--cf", "1:rep=1", "--prec", "-5"],
        ["radius", "--cf", "1:rep=1", "--prec", "-100"],
        ["radius", "--cf", "1:rep=1", "--prec", "0"],
    ],
)
def test_non_positive_precision_exits_4(tmp_path, capsys, argv):
    code, _, err = _run(capsys, argv + ["--out", str(tmp_path)])
    assert code == 4
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvariantError"


@pytest.mark.parametrize("env", ["0", "-3"])
def test_non_positive_env_precision_exits_4(tmp_path, capsys, monkeypatch, env):
    monkeypatch.setenv("QUADDYN_PREC", env)
    code, _, err = _run(capsys, ["cf", "--cf", "1:rep=1", "--out", str(tmp_path)])
    assert code == 4
    assert json.loads(err.strip())["error"] == "InvariantError"


@pytest.mark.parametrize(
    "argv",
    [
        ["lavrentiev", "--endpoints", "1.0,1.1", "--distance", "nan"],
        ["lavrentiev", "--endpoints", "1.0,inf", "--distance", "0.01"],
        ["julia", "--c", "nan", "--res", "3"],
        ["julia", "--c", "inf,0", "--res", "3"],
        ["ray", "--c", "0", "--angle", "1/3", "--tmin", "nan"],
        ["ray", "--c", "nan", "--angle", "1/3"],
        ["ray", "--c", "0,inf", "--angle", "1/3"],
        ["ray", "--c", "0", "--angle", "1e400"],
        ["ray", "--c", "0", "--angle", "-1e400"],
    ],
)
def test_non_finite_inputs_exit_4(tmp_path, capsys, argv):
    code, out, err = _run(capsys, argv + ["--out", str(tmp_path), "--json"])
    assert code == 4
    assert out == ""
    assert json.loads(err.strip())["error"] == "InvariantError"


@pytest.mark.parametrize(
    "argv",
    [
        ["julia", "--c", "0", "--res", "4", "--max-iter", "0"],
        ["julia", "--c", "0", "--res", "4", "--max-iter", "-5"],
        ["angle", "--value", "1/3", "--steps", "-1"],
    ],
)
def test_counts_below_minimum_exit_4(tmp_path, capsys, argv):
    code, out, err = _run(capsys, argv + ["--out", str(tmp_path), "--json"])
    assert code == 4
    assert out == ""
    assert json.loads(err.strip())["error"] == "InvariantError"


@pytest.mark.parametrize("res", ["4097", "200000"])
def test_omega_resolution_ceiling_exits_4(tmp_path, capsys, res):
    code, out, err = _run(capsys, ["omega", "--res", res, "--out", str(tmp_path), "--json"])
    assert code == 4
    assert out == ""
    assert json.loads(err.strip())["error"] == "InvariantError"


# the required arguments of each command that has a row in cli.CEILINGS
_CEILING_BASE_ARGV = {
    "angle": ["--cf", "1:rep=1"],
    "brjuno": ["--cf", "1:rep=1"],
    "cantor": ["--cf", "1:rep=1"],
    "cf": ["--cf", "1:rep=1"],
    "julia": ["--c", "0"],
    "lavrentiev": [],
    "omega": [],
    "radius": ["--cf", "1:rep=1"],
    "ratio-experiment": ["--prefix", "1,1", "--n", "3..4"],
}
# values far above a ceiling, tried besides ceiling + 1
_FAR_ABOVE = {
    ("angle", "steps"): 10**8,
    ("angle", "prec"): 10**7,
    ("brjuno", "terms"): 10**8,
    ("cf", "count"): 10**8,
    ("cf", "prec"): 10**8,
    ("lavrentiev", "count"): 10**8,
    ("radius", "order"): 10**5,
}


def _ceiling_cases():
    """ceiling + 1 for every row of cli.CEILINGS, far above it for some, and
    the two budgets that the handlers check on parsed strings."""
    for command, row in cli.CEILINGS.items():
        for dest, ceiling in row.items():
            flag = "--" + dest.replace("_", "-")
            message = f"{flag} must be at most {ceiling}"
            ident = f"{command}-{dest.replace('_', '-')}"
            values = [(ident, ceiling + 1)]
            if (command, dest) in _FAR_ABOVE:
                far = _FAR_ABOVE[command, dest]
                values.append((f"{ident}-1e{len(str(far)) - 1}", far))
            for case_id, value in values:
                argv = [command, *_CEILING_BASE_ARGV[command], flag, str(value)]
                yield pytest.param(argv, message, id=case_id)
    q_message = f"the period q of --pq must be at most {cli.MAX_ORBIT_PERIOD}"
    yield pytest.param(
        ["orbit", "--pq", f"1/{cli.MAX_ORBIT_PERIOD + 1}"], q_message, id="orbit-q"
    )
    yield pytest.param(["orbit", "--pq", "1/100000"], q_message, id="orbit-q-1e5")
    # a 1024-bit denominator: the first step count above the budget
    yield pytest.param(
        ["angle", "--value", f"1/{2**1023 + 1}", "--steps", str(cli.MAX_ANGLE_VALUE_COST // 1024)],
        f"--steps with a 1024-bit denominator costs {cli.MAX_ANGLE_VALUE_COST + 1024}, "
        f"above the budget {cli.MAX_ANGLE_VALUE_COST}",
        id="angle-value-cost",
    )
    yield pytest.param(
        ["angle", "--value", f"1/{10**300 + 1}", "--steps", "100000"],
        f"--steps with a 997-bit denominator costs 99700997, "
        f"above the budget {cli.MAX_ANGLE_VALUE_COST}",
        id="angle-value-1e300",
    )


def _refuse_computation(monkeypatch):
    from quaddyn import angles, cantor, cardioid, cfrac, combdomain, dynamics, linearize

    def refuse(*args, **kwargs):
        raise AssertionError("computation started above the ceiling")

    monkeypatch.setattr(cantor, "_cover_arcs", refuse)
    monkeypatch.setattr(cfrac, "convergents", refuse)
    monkeypatch.setattr(cfrac, "convergent_pairs", refuse)
    monkeypatch.setattr(cfrac, "brjuno_partial_sums", refuse)
    monkeypatch.setattr(cfrac.CFExpansion, "bracket", refuse)
    monkeypatch.setattr(angles, "double", refuse)
    monkeypatch.setattr(cardioid, "external_angle", refuse)
    monkeypatch.setattr(cardioid, "find_orbit", refuse)
    monkeypatch.setattr(linearize, "linearization_coeffs", refuse)
    monkeypatch.setattr(linearize, "radius_ratio_experiment", refuse)
    monkeypatch.setattr(dynamics, "lavrentiev_monte_carlo", refuse)
    monkeypatch.setattr(dynamics, "render_julia", refuse)
    monkeypatch.setattr(combdomain, "build_gamma_n", refuse)


@pytest.mark.parametrize("argv, message", list(_ceiling_cases()))
def test_size_ceilings_exit_4_before_computing(tmp_path, capsys, monkeypatch, argv, message):
    _refuse_computation(monkeypatch)
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, argv + ["--out", str(out_dir), "--json"])
    assert (code, out) == (4, "")
    assert json.loads(err) == {"error": "InvariantError", "message": message}
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["radius", "--cf", "1:rep=1", "--order", "31"],
        ["radius", "--cf", "1,2:rep=1", "--order", "2"],
        ["ratio-experiment", "--prefix", "1,1", "--n", "3..4", "--order", "8"],
    ],
)
def test_radius_order_floor_exits_4_before_any_series(tmp_path, capsys, monkeypatch, argv):
    from quaddyn import linearize

    def refuse(*args, **kwargs):
        raise AssertionError("series built below the order floor")

    monkeypatch.setattr(linearize, "linearization_coeffs", refuse)
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, argv + ["--out", str(out_dir), "--json"])
    assert (code, out) == (4, "")
    message = f"radius estimation needs order >= {linearize.MIN_RADIUS_ORDER}"
    assert json.loads(err) == {"error": "InvariantError", "message": message}
    assert not out_dir.exists()


def test_ratio_experiment_prefix_reads_as_a_quotient_list(tmp_path, capsys):
    # the same message and exit code as a bad --cf quotient list
    for argv, text in (
        (["ratio-experiment", "--prefix", "x", "--n", "3"], "x"),
        (["ratio-experiment", "--prefix", "1,2.5,1", "--n", "3"], "1,2.5,1"),
        (["radius", "--cf", "bogus"], "bogus"),
    ):
        code, out, err = _run(capsys, argv + ["--out", str(tmp_path / "out")])
        assert (code, out) == (4, "")
        message = f"bad quotient list in {text!r}"
        assert json.loads(err) == {"error": "InvariantError", "message": message}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cf_text", ["1:rep=1", "3,1,4:rep=2,7", "1,1,1,2"])
def test_cf_convergents_print_as_fractions(tmp_path, capsys, cf_text):
    # formatted from the coprime pairs, in Fraction.__str__'s form
    from quaddyn.cfrac import convergents, parse_cf_text

    code, out, _ = _run(capsys, ["cf", "--cf", cf_text, "--count", "300", "--out",
                                 str(tmp_path), "--json"])
    assert code == 0
    doc = json.loads(out)
    want = [str(v) for v in convergents(parse_cf_text(cf_text), len(doc["convergents"]))]
    assert doc["convergents"] == want
    assert doc["convergents_from_second"] == want[1:]


@pytest.mark.parametrize(
    "command", [c for c, row in cli.CEILINGS.items() if "prec" in row]
)
def test_prec_from_environment_above_ceiling_exits_4(tmp_path, capsys, monkeypatch, command):
    # the table bounds the effective precision, not only --prec
    _refuse_computation(monkeypatch)
    ceiling = cli.CEILINGS[command]["prec"]
    monkeypatch.setenv(cli.PREC_ENV, str(ceiling + 1))
    out_dir = tmp_path / "out"
    argv = [command, *_CEILING_BASE_ARGV[command], "--out", str(out_dir), "--json"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (4, "")
    assert json.loads(err) == {
        "error": "InvariantError",
        "message": f"--prec must be at most {ceiling}",
    }
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "depths, message",
    [
        ("3..1000000000", f"--n must be at most {cli.CEILINGS['ratio-experiment']['n']}"),
        ("3,1000000000", f"--n must be at most {cli.CEILINGS['ratio-experiment']['n']}"),
        ("-1000000000..3", "--n needs 1 <= lo <= hi, got '-1000000000..3'"),
        ("5..3", "--n needs 1 <= lo <= hi, got '5..3'"),
    ],
)
def test_ratio_depths_exit_4_before_any_list(tmp_path, capsys, depths, message):
    # lo..hi is checked before any list is built: a list this long would
    # not fit in memory
    out_dir = tmp_path / "out"
    argv = ["ratio-experiment", "--prefix", "1,1", f"--n={depths}", "--order", "48"]
    start = time.perf_counter()
    code, out, err = _run(capsys, argv + ["--out", str(out_dir), "--json"])
    assert time.perf_counter() - start < 5
    assert (code, out) == (4, "")
    assert json.loads(err) == {"error": "InvariantError", "message": message}
    assert not out_dir.exists()


def _readme_ceilings() -> list[list[str]]:
    """The rows of the README's ceiling table, as lists of cell texts."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| command | knob | default | ceiling | measured cost at the ceiling |"
    lines = text[text.index(header):].splitlines()[2:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split(" | ")])
    return rows


def test_readme_ceiling_table_agrees_with_the_code():
    import importlib

    table, pointers = {}, set()
    for command, knob, _, ceiling, _ in _readme_ceilings():
        command = command.strip("`")
        number = re.match(r"2\^(\d+)|[\d,]+", ceiling)
        value = 2 ** int(number[1]) if number[1] else int(number[0].replace(",", ""))
        pointer = re.search(r"`(\w+)\.(MAX_\w+)`", ceiling)
        if pointer:
            module = importlib.import_module(f"quaddyn.{pointer[1]}")
            assert getattr(module, pointer[2]) == value, ceiling
            pointers.add(pointer[0].strip("`"))
        else:
            dest = re.search(r"`--([\w-]+)`", knob)[1].replace("-", "_")
            table[command, dest] = value
    assert table == {(c, d): v for c, row in cli.CEILINGS.items() for d, v in row.items()}
    assert pointers >= {
        "dynamics.MAX_JULIA_RES",
        "imaging.MAX_DOMAIN_RES",
        "cardioid.MAX_PERIOD",
        "cli.MAX_ORBIT_PERIOD",
        "cli.MAX_ANGLE_VALUE_COST",
        "cfrac.MAX_PERTURBED_BITS",
        "combdomain.MAX_TERM_BITS",
    }


@pytest.mark.parametrize(
    "argv, q",
    [
        (["cantor", "--cf", "100000000:rep=1", "--depth", "4"], 100_000_000),
        (["angle", "--cf", f"{MAX_PERIOD + 1}:rep=1", "--prec", "16"], MAX_PERIOD + 1),
        (["angle", "--cf", str(MAX_PERIOD + 1), "--prec", "16"], MAX_PERIOD + 1),
        (["landing-pair", "--pq", f"1/{MAX_PERIOD + 1}"], MAX_PERIOD + 1),
    ],
    ids=["cantor-1e8", "angle-cf", "angle-cf-rational", "landing-pair"],
)
def test_period_ceiling_exits_4_before_the_word(tmp_path, capsys, argv, q):
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, argv + ["--out", str(out_dir), "--json"])
    assert (code, out) == (4, "")
    assert json.loads(err) == {
        "error": "InvariantError",
        "message": f"period {q} is above the ceiling {MAX_PERIOD}",
    }
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "seqs, message",
    [
        (["--a-seq", "1/3+4^-k"], "term 1 = 7/12 overshoots the limit bracket"),
        (["--b-seq", "1/4-4^-k"], "term 1 = 0 undershoots the limit bracket"),
        (["--a-seq", "1/2", "--b-seq", "1/3"], "need 0 <= a_1 < b_1 < 1, got a=1/2, b=1/3"),
        (["--a-seq", "1/4", "--b-seq", "2/5"], None),
    ],
    ids=["a-overshoots", "b-undershoots", "crossed", "constants"],
)
def test_omega_sequence_errors(tmp_path, capsys, seqs, message):
    argv = ["omega", *seqs, "--depth", "1", "--res", "16", "--out", str(tmp_path)]
    code, out, err = _run(capsys, argv)
    if message is None:
        assert code == 0, err
        return
    assert (code, out) == (4, "")
    assert json.loads(err) == {"error": "InvariantError", "message": message}
    assert not list(tmp_path.iterdir())


def test_sequence_flags_take_a_leading_minus(tmp_path, capsys):
    digests = []
    for i, b_seq in enumerate((["--b-seq", "-1/4+2^-k"], ["--b-seq=-1/4+2^-k"])):
        out_dir = tmp_path / str(i)
        argv = ["omega", "--a-seq", "0", *b_seq, "--depth", "1", "--res", "16"]
        code, _, err = _run(capsys, argv + ["--out", str(out_dir)])
        assert code == 0, err
        manifest = json.loads((out_dir / "omega-manifest.json").read_text())
        del manifest["parameters"]["out"]
        digests.append(manifest)
    assert digests[0] == digests[1]
    assert digests[0]["parameters"]["b_seq"] == "-1/4+2^-k"


def _interleaved_outcomes(capsys, tmp_path):
    """Exit code, stdout, stderr and written files of an argv sequence that
    alternates errors and valid calls and reuses subcommands with other
    options, all in one process."""
    argvs = [
        ["orbit", "--pq", "2/5", "--no-such-flag"],
        ["orbit", "--pq", "2/5"],
        ["lavrentiev", "--endpoints", "1.09995,1.10005", "--distance", "1.0"],
        ["lavrentiev", "--count", "5"],
        ["cf", "--cf", "1:rep=1"],
        ["cf", "--value", "113/355"],
        ["cf", "--cf", "1:rep=1", "--value", "1/3"],
        ["angle", "--value", "1/7", "--steps", "3"],
        ["angle", "--cf", "1:rep=1", "--prec", "32"],
        ["julia", "--c", "-2,0", "--res", "3"],
        ["julia", "--c", "0", "--res", "10"],
        ["julia", "--c", "0,1", "--res", "2", "--max-iter", "9"],
    ]
    outcomes = []
    for i, argv in enumerate(argvs):
        out_dir = tmp_path / str(i)
        code, out, err = _run(capsys, argv + ["--out", str(out_dir), "--json"])
        files = {}
        for path in sorted(out_dir.iterdir()) if out_dir.exists() else []:
            files[path.name] = path.read_bytes()
            if path.name.endswith("-manifest.json"):
                manifest = json.loads(files[path.name])
                assert manifest["parameters"].pop("out") == str(out_dir)
                files[path.name] = manifest
        outcomes.append((code, out, json.loads(err) if err else None, files))
    return outcomes


def test_parser_reuse_matches_a_fresh_parser(tmp_path, capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    reused = _interleaved_outcomes(capsys, tmp_path / "reused")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    fresh = _interleaved_outcomes(capsys, tmp_path / "fresh")
    assert [outcome[0] for outcome in reused] == [2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 4, 0]
    assert reused == fresh
    # the Monte Carlo call carries no option of the single-crosscut call before it
    assert set(reused[3][3]["lavrentiev-manifest.json"]["parameters"]) == {"count", "seed"}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["orbit", "--pq", "2/5", "--no-such-flag"], 2),
        (["orbit", "--pq", "seven"], 2),
        (["orbit", "--pq", "4/2"], 4),
        (["omega", "--res", "15"], 4),
        (["omega", "--res", "200000"], 4),
        (["julia", "--c", "0", "--res", "0"], 4),
        (["julia", "--c", "0", "--res", "10"], 4),
        (["julia", "--c", "0", "--res", "14"], 4),
        (["radius", "--cf", "1:rep=1", "--order", "200", "--prec", "8"], 3),
        (["ray", "--c", "0", "--angle", "1e400"], 4),
    ],
    ids=[
        "argparse",
        "pq-seven",
        "pq-4/2",
        "omega-res-15",
        "omega-res-200000",
        "julia-res-0",
        "julia-res-10",
        "julia-res-14",
        "radius-prec-8",
        "ray-angle-1e400",
    ],
)
def test_failed_command_writes_nothing(tmp_path, capsys, argv, expected):
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, argv + ["--out", str(out_dir), "--json"])
    assert code == expected
    assert out == ""
    kind = {2: "UsageError", 3: "PrecisionError", 4: "InvariantError"}[expected]
    assert json.loads(err.strip())["error"] == kind
    assert not out_dir.exists()


def test_cf_document_for_rational_value(tmp_path, capsys):
    code, out, _ = _run(capsys, ["cf", "--value", "113/355", "--out", str(tmp_path), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["quotients"] == [3, 7, 16]
    assert doc["convergents"][-1] == "113/355"
    assert doc["convergents_from_second"] == doc["convergents"][1:]


def test_julia_renders_deterministically(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out_dir in (out_a, out_b):
        code, _, _ = _run(
            capsys, ["julia", "--c", "-2,0", "--res", "4", "--out", str(out_dir)]
        )
        assert code == 0
    assert (out_a / "julia.ppm").read_bytes() == (out_b / "julia.ppm").read_bytes()
    sidecar = json.loads((out_a / "julia.json").read_text())
    assert sidecar["resolution_exponent"] == 4
    assert sidecar["counts"]["near"] > 0


def test_ray_artifacts(tmp_path, capsys):
    code, out, _ = _run(
        capsys,
        ["ray", "--c", "0,0", "--angle", "1/8", "--tmin", "1e-3", "--out", str(tmp_path), "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["angle"] == "1/8"
    lines = (tmp_path / "ray.csv").read_text().strip().splitlines()
    assert lines[0] == "t,re,im"
    potentials = [float(line.split(",")[0]) for line in lines[1:]]
    assert all(b < a for a, b in zip(potentials, potentials[1:]))
    assert potentials[-1] <= 1e-3 * (1 + 1e-9)


def test_omega_document_lists_exact_vertices(tmp_path, capsys):
    code, out, _ = _run(
        capsys,
        ["omega", "--a-seq", "builtin:toy", "--depth", "2", "--res", "32", "--out", str(tmp_path), "--json"],
    )
    assert code == 0
    doc = json.loads(out)
    gamma_1 = doc["boundary_curves"]["1"]
    assert gamma_1[0] == ["-1", "1"]
    assert ["-7/12", "8/9"] in gamma_1
    assert (tmp_path / "omega.ppm").exists()


@pytest.mark.parametrize(
    "argv, sha256",
    [
        ([], "5ad3cae97aed9eeba33d40ee4dea0a3e8e0ba915d659b78387411328d8e7ad01"),
        (["--depth", "2", "--res", "32"], "c9da4542272e3eb283597b5b690fb809574c4940aa5195460b8fa55af3314e4f"),
    ],
    ids=["default", "depth-2-res-32"],
)
def test_omega_raster_frozen(tmp_path, capsys, argv, sha256):
    # the default is --depth 6 --res 384 on the toy sequences
    code, _, _ = _run(capsys, ["omega", *argv, "--out", str(tmp_path)])
    assert code == 0
    assert hashlib.sha256((tmp_path / "omega.ppm").read_bytes()).hexdigest() == sha256


# sha256 of artifacts of the float commands, recorded before their fast paths
FLOAT_ARTIFACTS = [
    (["ray", "--c", "-2,0", "--angle", "1/3"], "ray.csv",
     "417e1d61107203ecfa14c441cd1f45156cf87dffddbb14cbfa6dae165b79bf28"),
    (["ray", "--c", "-0.12,0.75", "--angle", "1/7"], "ray.csv",
     "b1f47e9fbef2a83c4c0e5e5becc69ba97cd81c1b766cd17bc6f9b424af0183cf"),
    (["ray", "--c", "-0.12,0.75", "--angle", "0.3"], "ray.csv",
     "9b63fb13fb70fe02515b4135c75492d4498fad60666590eef38038823ae6297e"),
    (["julia", "--c", "-0.1225,0.7449", "--res", "6"], "julia.ppm",
     "243374305763f0d34631217f51c0e059460816d853bd83509343cbe58d132576"),
    (["julia", "--c", "-1,0", "--res", "6"], "julia.ppm",
     "0ea12462f1af9f37000892461703a9dd89e216fab30d18230f27d57c33d10be5"),
    (["lavrentiev", "--count", "30", "--seed", "7"], "lavrentiev.json",
     "b94d75905fea01573ed2f274249c22b1deb1e4cdfb43872493c630225f3fc28a"),
    (["lavrentiev", "--endpoints", "1.09995,1.10005", "--distance", "1.0"], "lavrentiev.json",
     "e12c4016696b927dc3a814441f29223084b9f81748e017ac55923ae83d1dc72f"),
]


@pytest.mark.parametrize(
    "argv, name, sha256",
    [pytest.param(*row, id=" ".join(row[0])) for row in FLOAT_ARTIFACTS],
)
def test_float_artifacts_frozen(tmp_path, capsys, argv, name, sha256):
    # the fast paths of the renderer, ray tracer and crosscut check must
    # leave every artifact byte as it was
    code, _, _ = _run(capsys, [*argv, "--out", str(tmp_path)])
    assert code == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha256


# sha256 of cantor's artifacts, recorded before its integer core
CANTOR_ARTIFACTS = [
    (["--cf", "1:rep=1", "--depth", "8"],
     "43430b56f06fd5dbe921725a45e5621b965c44780a2a42bf40a4694807491c0d",
     "5017e52cdb3988107d67721f172fa1683d6ee51b0f9d15babf722e2e10e3f6a8"),
    (["--cf", "1:rep=1", "--depth", "20"],
     "dbf236292a25f9bc5071904fc4b3d8b66e6d4ced508888065de0681930b7d223",
     "5017e52cdb3988107d67721f172fa1683d6ee51b0f9d15babf722e2e10e3f6a8"),
    (["--cf", "1,2:rep=3", "--depth", "14", "--prec", "40"],
     "c46aa45797650053aae2ad02a24871f2de1129e2c28fcde60aa702d7c3dd449f",
     "89312d5eb9fbb960547a6a75d83bac0cf4a3d7e434d303134e48228d25202f42"),
]


@pytest.mark.parametrize(
    "argv, json_sha256, ppm_sha256",
    [pytest.param(*row, id=" ".join(row[0])) for row in CANTOR_ARTIFACTS],
)
def test_cantor_artifacts_frozen(tmp_path, capsys, argv, json_sha256, ppm_sha256):
    code, _, _ = _run(capsys, ["cantor", *argv, "--out", str(tmp_path)])
    assert code == 0
    for name, sha256 in (("cantor-cover.json", json_sha256), ("cantor-cover.ppm", ppm_sha256)):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha256


def _former_cantor(argv):
    """The cantor handler before the integer core, as written bytes: the
    strings come from cover()'s Fractions and the strip from float(Fraction)."""
    args = cli.build_parser().parse_args(argv)
    args.prec = cli._resolve_prec(args)
    result = cover(cli._cf_from_args(args), args.depth, prec=args.prec)
    doc = {
        "depth": result.depth,
        "arc_count": len(result.arcs),
        "total_length": str(sum(a.width for a in result.arcs)),
        "hausdorff_bound": str(result.hausdorff_bound),
        "arcs": [{"lo": str(a.lo), "hi": str(a.hi)} for a in result.arcs],
    }
    row = bytearray(bytes((245, 245, 245)) * 720)
    for arc in result.arcs:
        lo = float(arc.lo % 1)
        hi = lo + float(arc.width)
        for idx in range(math.floor(lo * 720), math.ceil(hi * 720) + 1):
            row[3 * (idx % 720) : 3 * (idx % 720) + 3] = bytes((24, 32, 96))
    return {
        "cantor-cover.json": (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode(),
        "cantor-cover.ppm": b"P6\n720 36\n255\n" + bytes(row) * 36,
    }


def _cantor_sweep():
    """Seeded cantor argvs: twelve angles, depth 0-14, --prec 4-40 or the default."""
    rng = random.Random(18)
    angles = ["1:rep=1", "2:rep=2", ":rep=1,2", "3:rep=1", "1,8:rep=2", "1:rep=12,1"]
    for _ in range(6):
        pre = ",".join(str(rng.randint(1, 6)) for _ in range(rng.randint(0, 3)))
        per = ",".join(str(rng.randint(1, 6)) for _ in range(rng.randint(1, 3)))
        angles.append(f"{pre}:rep={per}")
    argvs = []
    for _ in range(300):
        argv = ["cantor", "--cf", rng.choice(angles), "--depth", str(rng.randint(0, 14))]
        prec = rng.choice([None, *range(4, 41)])
        argvs.append(argv if prec is None else argv + ["--prec", str(prec)])
    return argvs


@pytest.mark.parametrize("cf, certified", [("100:rep=1", 160), ("1:rep=40", 80)])
def test_cantor_doubles_a_scheduled_precision(tmp_path, capsys, monkeypatch, cf, certified):
    # the depth schedule's 40 bits cannot place alpha inside the arc; the
    # doubled precision can, and the artifacts are those of that --prec
    monkeypatch.delenv("QUADDYN_PREC", raising=False)
    argv = ["cantor", "--cf", cf, "--depth", "8", "--out"]
    assert _run(capsys, argv + [str(tmp_path / "auto")])[0] == 0
    manifest = json.loads((tmp_path / "auto" / "cantor-manifest.json").read_text())
    assert manifest["precision_bits"] == certified
    assert "prec" not in manifest["parameters"]
    given = argv + [str(tmp_path / "given"), "--prec", str(certified)]
    assert _run(capsys, given)[0] == 0
    for name in ("cantor-cover.json", "cantor-cover.ppm"):
        assert (tmp_path / "auto" / name).read_bytes() == (tmp_path / "given" / name).read_bytes()
    # a precision given outright is kept
    code, _, err = _run(capsys, argv + [str(tmp_path / "kept"), "--prec", "40"])
    assert code == 3
    assert json.loads(err)["message"] == "cannot certify the alpha bracket inside the arc"
    assert not (tmp_path / "kept").exists()


def test_cantor_precision_stops_at_its_ceiling(tmp_path, capsys, monkeypatch):
    from quaddyn import cantor

    tried, cover_arcs = [], cantor._cover_arcs

    def recording(cf, depth, prec):
        tried.append(prec)
        return cover_arcs(cf, depth, prec)

    monkeypatch.setattr(cantor, "_cover_arcs", recording)
    monkeypatch.delenv("QUADDYN_PREC", raising=False)
    out_dir = tmp_path / "out"
    argv = ["cantor", "--cf", "5000:rep=1", "--depth", "8", "--out", str(out_dir)]
    code, _, err = _run(capsys, argv)
    assert code == 3
    assert json.loads(err)["error"] == "PrecisionError"
    assert tried == [40, 80, 160, 320, 640, 1280, 2560, 4096]
    assert not out_dir.exists()


def test_omega_base_past_the_term_bits_ceiling_exits_4(tmp_path, capsys):
    # a 1001-digit base: n^2 * 3322 bits passes 2^19 at term 13
    out_dir = tmp_path / "out"
    argv = ["omega", "--depth", "40", "--a-seq", f"1/4-{10**1000}^-k", "--b-seq", "1/3",
            "--res", "16", "--out", str(out_dir)]
    started = time.perf_counter()
    code, out, err = _run(capsys, argv)
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (4, "")
    assert json.loads(err) == {
        "error": "InvariantError",
        "message": "term 13 has a 43186-bit denominator; 13 times it is above the ceiling 524288",
    }
    assert not out_dir.exists()


def test_omega_checks_every_term_before_any_curve(tmp_path, capsys, monkeypatch):
    # only term 128 breaks the term-bits ceiling: the error comes before the
    # first curve, with the message the curve loop would have raised
    def no_curves(dom, n):
        raise AssertionError("build_gamma_n called")

    monkeypatch.setattr("quaddyn.combdomain.build_gamma_n", no_curves)
    out_dir = tmp_path / "out"
    argv = ["omega", "--depth", "128", "--a-seq", "1/4-4294967295^-k",
            "--b-seq", "1/3+4294967295^-k", "--res", "16", "--out", str(out_dir)]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (4, "")
    assert json.loads(err) == {
        "error": "InvariantError",
        "message": "term 128 has a 4098-bit denominator; 128 times it is above the ceiling 524288",
    }
    assert not out_dir.exists()


def test_cantor_matches_former_handler(tmp_path, capsys):
    codes = []
    for i, argv in enumerate(_cantor_sweep()):
        out_dir = tmp_path / str(i)
        code, _, err = _run(capsys, argv + ["--out", str(out_dir)])
        codes.append(code)
        try:
            want = _former_cantor(argv)
        except (InvariantError, PrecisionError) as exc:
            kind = type(exc).__name__
            assert code == {"InvariantError": 4, "PrecisionError": 3}[kind], argv
            assert json.loads(err) == {"error": kind, "message": str(exc)}, argv
            assert not out_dir.exists()
            continue
        assert code == 0, argv
        assert {name: (out_dir / name).read_bytes() for name in want} == want, argv
    assert codes.count(0) > 200 and codes.count(3) > 5


# one cheap call of each subcommand
JSON_ARGVS = [
    ["angle", "--cf", "1:rep=1", "--prec", "16"],
    ["angle", "--value", "3/7", "--steps", "4"],
    ["orbit", "--pq", "2/5"],
    ["landing-pair", "--pq", "3/5"],
    ["cantor", "--cf", "1:rep=1", "--depth", "4"],
    ["brjuno", "--cf", "1:rep=1", "--terms", "10"],
    ["cf", "--value", "113/355"],
    ["radius", "--cf", "1:rep=1", "--order", "32"],
    ["ratio-experiment", "--prefix", "1,1", "--n", "3..4", "--order", "32"],
    ["julia", "--c", "-1,0", "--res", "3"],
    ["ray", "--c", "0", "--angle", "1/3", "--tmin", "0.01"],
    ["omega", "--depth", "2", "--res", "16"],
    ["lavrentiev", "--count", "3"],
    ["accept"],
]


def test_json_argvs_cover_every_command():
    assert {argv[0] for argv in JSON_ARGVS} == set(_HANDLERS)


@pytest.mark.parametrize("argv", JSON_ARGVS, ids=[" ".join(a) for a in JSON_ARGVS])
def test_json_stdout_is_the_artifact_text(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(acceptance, "run_all", _fake_results)
    code, out, err = _run(capsys, argv + ["--out", str(tmp_path), "--json"])
    assert code == (1 if argv[0] == "accept" else 0), err
    manifest = json.loads((tmp_path / f"{argv[0]}-manifest.json").read_text())
    [name] = [rec["name"] for rec in manifest["artifacts"] if rec["name"].endswith(".json")]
    assert out == (tmp_path / name).read_text()


def test_huge_float_angle_reduces_mod_1(tmp_path, capsys):
    # 1e308 is an integer, so its ray is the ray of angle 0
    rays = []
    for angle in ("1e308", "0.0"):
        out_dir = tmp_path / angle
        argv = ["ray", "--c", "0", "--angle", angle, "--tmin", "1", "--out", str(out_dir)]
        assert _run(capsys, argv)[0] == 0
        rays.append((out_dir / "ray.csv").read_bytes())
    assert rays[0] == rays[1]


def test_lavrentiev_single_mode(tmp_path, capsys):
    code, out, _ = _run(
        capsys,
        [
            "lavrentiev",
            "--endpoints", "1.09995,1.10005",
            "--distance", "1.0",
            "--out", str(tmp_path),
            "--json",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["bound"] == pytest.approx(0.3, rel=1e-9)


def _readme_examples():
    """Each command of README's command table and Examples block but accept,
    with the JSON document the Examples block shows for it, if any."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    examples = []
    for command, what in re.findall(r"^\| `([\w-]+)` \|(.*)\|$", text, re.M):
        for flags in re.findall(r"\(`(--[^`]*)`\)", what):
            examples.append(([command, *shlex.split(flags)], None))
    block = text.split("## Examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    for line, after in zip(lines, lines[1:] + [""]):
        if line.startswith("quaddyn "):
            shown = json.loads(after[2:]) if after.startswith("# {") else None
            examples.append((shlex.split(line)[1:], shown))
    return [
        pytest.param(argv, shown, id=" ".join(argv))
        for argv, shown in examples
        if argv[0] != "accept"
    ]


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv, shown", README_EXAMPLES)
def test_readme_examples_run(tmp_path, capsys, argv, shown):
    if "--out" in argv:
        at = argv.index("--out")
        argv = argv[:at] + argv[at + 2 :]
    code, out, err = _run(capsys, argv + ["--out", str(tmp_path)])
    assert code == 0, err
    if shown is not None:
        assert json.loads(out) == shown


def test_readme_examples_cover_every_command():
    commands = {example.values[0][0] for example in README_EXAMPLES}
    assert commands == set(_HANDLERS) - {"accept"}
    assert any(example.values[1] for example in README_EXAMPLES)
