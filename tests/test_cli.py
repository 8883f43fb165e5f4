import decimal
import json
import math
import os
import subprocess
import sys

import pytest

import cubebound
from cubebound import (
    DomainError, build_root_table, load_root_table, mertens_check, prime_sums, reproduction_checks,
)
from cubebound.aggregate import REFERENCE_LIMITS
from cubebound.cli import main
from cubebound import empirical

from oracles import cubic_roots_enumerate, trial_factor, write_root_cache


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _not_json(constant: str):
    raise ValueError(f"document holds {constant}, which is not JSON")


def doc_of(out: str) -> dict:
    return json.loads(out, parse_constant=_not_json)


def test_bound_first_basic(capsys):
    code, out, err = run_cli(
        capsys, "bound", "first", "--h", "3", "--delta", "1/321", "--timestamp", "T"
    )
    assert code == 0
    doc = doc_of(out)
    assert doc["manifest"]["command"] == "bound first"
    assert doc["manifest"]["parameters"] == {"subcommand": "first", "h": "3", "delta": "1/321"}
    assert doc["manifest"]["tool_version"]
    coeff = doc["result"]["coefficient"]
    assert coeff["sign"] == 1
    assert math.exp(coeff["log_mag"]) == pytest.approx(math.log(321.0), rel=1e-10)
    assert "coefficient" in err


_REPRODUCE = {"delta": "1/321", "H": "132", "split": "190", "h_max": "963", "K_offset": "20",
              "s_lower": "9.2e-08"}
_BOUND = {"h": "133", "delta": "1/321"}
_COUNT = {"x_min": "1000", "x_max": "3000", "threshold": "17", "h": "2"}


@pytest.mark.parametrize("argv, command, parameters", [
    ("reproduce", "reproduce", _REPRODUCE),
    ("reproduce --h-max 189", "reproduce", {**_REPRODUCE, "h_max": "189"}),
    ("reproduce --s-lower 0", "reproduce", {**_REPRODUCE, "s_lower": "0.0"}),
    ("reproduce --H 120", "reproduce", {**_REPRODUCE, "H": "120"}),
    ("reproduce --jobs 2 --split 180 --K-offset 19 --delta 1/300", "reproduce",
     {**_REPRODUCE, "split": "180", "K_offset": "19", "delta": "1/300"}),
    ("bound first --h 300 --delta 1/321", "bound first",
     {"subcommand": "first", "h": "300", "delta": "1/321"}),
    ("bound first --h 3 --delta 1/321 --out doc.json", "bound first",
     {"subcommand": "first", "h": "3", "delta": "1/321"}),
    ("bound second --h 133 --delta 1/321", "bound second",
     {"subcommand": "second", **_BOUND, "K_offset": "20", "alpha": "None"}),
    ("bound second --h 150 --delta 1/321 --alpha 3.5 --K-offset 7", "bound second",
     {"subcommand": "second", "h": "150", "delta": "1/321", "K_offset": "7", "alpha": "3.5"}),
    ("empirical count --x-min 1000 --x-max 3000 --threshold 17 --h 2", "empirical count",
     {**_COUNT, "cache": "None"}),
    ("empirical count --x-min 1000 --x-max 3000 --threshold 17 --h 2 --cache roots.bin",
     "empirical count", {**_COUNT, "cache": "roots.bin"}),
    ("empirical mertens --limit 100000", "empirical mertens", {"limit": "100000"}),
    ("empirical nu --d 31", "empirical nu", {"d": "31"}),
    ("empirical nu --d 1000000000", "empirical nu", {"d": "1000000000"}),
])
def test_manifest_records_every_parsed_option(
    capsys, tmp_path, monkeypatch, argv, command, parameters
):
    # every option but --out, --timestamp and the ignored --jobs, defaults
    # included, stringified as the command saw it
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *argv.split(), "--timestamp", "T")
    assert code in (0, 3)
    assert doc_of(out)["manifest"] == {
        "command": command, "parameters": parameters,
        "tool_version": cubebound.__version__, "timestamp": "T", "seed": None,
    }


_REPRODUCE_ROWS = """\
  tail_first = 9.13799715e-10  (display 9.2e-10)
 tail_second = 3.57285130e-08  (display 3.6e-08)
  tail_total = 3.66423127e-08  (display 3.7e-08)
"""
_TAIL_CHECKS = """\
PASS: tail_first <= 9.2e-10  [9.13799715e-10]
PASS: tail_second <= 3.6e-08  [3.57285130e-08]
PASS: tail_total <= 3.7e-08  [3.66423127e-08]
"""
_NO_PROPORTION = """\
       alpha = 0  (display 0)
       varpi = 0  (display 0)
"""
_NO_PROPORTION_CHECKS = """\
FAIL: alpha >= 7.7e-50  [0]
FAIL: varpi >= 1e-52  [0]
"""
_IDENTITY = "2^H*min(H,[1/delta])*alpha + tail_total == S_lower (1e-9 rel)"


@pytest.mark.parametrize("argv, code, stderr", [
    ("bound first --h 3 --delta 1/321", 0, """\
# bound first (T)
coefficient = 5.77144112e+00  (sign 1, log_mag 1.752922)
"""),
    ("bound second --h 12 --delta 1/321", 0, """\
# bound second (T)
coefficient = 9.76215171e+01  (sign 1, log_mag 4.581098)
  k=  4  alpha=10.245  term=1.76085630e+00
  k=  5  alpha=4.84665  term=1.00309754e+01
  k=  6  alpha=1.15211  term=1.87211492e+01
  k=  7  alpha=0  term=1.71336742e+01
  k=  8  alpha=0  term=1.43863402e+01
  k=  9  alpha=0  term=1.21896645e+01
  k= 10  alpha=0  term=1.11175281e+01
"""),
    ("bound second --h 12 --delta 1/321 --alpha 2.5", 0, """\
# bound second (T)
coefficient = 1.08184166e+05  (sign 1, log_mag 11.591590)
  k=  4  alpha=2.5  term=7.38914203e+00
  k=  5  alpha=2.5  term=1.20832185e+01
  k=  6  alpha=2.5  term=2.02104341e+01
  k=  7  alpha=2.5  term=3.93913827e+01
  k=  8  alpha=2.5  term=1.12468414e+02
  k=  9  alpha=2.5  term=8.05317661e+02
  k= 10  alpha=2.5  term=1.07175024e+05
"""),
    ("reproduce", 0, "# reproduce (T)\n" + _REPRODUCE_ROWS + """\
       alpha = 7.70272830e-50  (display 7.7e-50)
       varpi = 1.19980192e-52  (display 1.1e-52)
""" + _TAIL_CHECKS + f"""\
PASS: alpha >= 7.7e-50  [7.70272830e-50]
PASS: varpi >= 1e-52  [1.19980192e-52]
PASS: {_IDENTITY}  [relative error 8.882e-16]
overall: PASS
"""),
    ("reproduce --h-max 189", 3, """\
# reproduce (T)
  tail_first = 0  (display 0)
 tail_second = 3.57285130e-08  (display 3.6e-08)
  tail_total = 3.57285130e-08  (display 3.6e-08)
""" + _NO_PROPORTION + """\
FAIL: tail_first <= 9.2e-10  [0]
PASS: tail_second <= 3.6e-08  [3.57285130e-08]
FAIL: tail_total <= 3.7e-08  [3.57285130e-08]
""" + _NO_PROPORTION_CHECKS + f"""\
FAIL: {_IDENTITY}  [tail truncated at h_max]
overall: FAIL
failure: h_max=189 truncates the tail: the closed-form terms are nonzero up to h=962
"""),
    ("reproduce --s-lower 0", 3, "# reproduce (T)\n" + _REPRODUCE_ROWS + _NO_PROPORTION
     + _TAIL_CHECKS + _NO_PROPORTION_CHECKS + f"""\
FAIL: {_IDENTITY}  [margin not positive]
overall: FAIL
failure: margin S_lower - tail_total is zero or negative; no positive proportion follows
"""),
    # the window spans two sieve segments; roots.bin holds no cache
    ("empirical count --x-min 10 --x-max 65560 --threshold 2 --h 3 --cache roots.bin", 0, """\
warning: rebuilding root-table cache: roots.bin: not a root-table cache
segment 11..65546 done
segment 65547..65560 done
# empirical count (T)
count = 51301 of 65550 values
"""),
    ("empirical mertens --limit 1000", 0, """\
# empirical mertens (T)
  x=        10  deviation=-1.267920
  x=       100  deviation=-1.858459
  x=      1000  deviation=-1.890916
max |deviation| = 1.890916
mean nu(p) = 0.952381
"""),
    ("empirical nu --d 31", 0, "# empirical nu (T)\nnu(31) = 3\n"),
])
def test_summary_on_stderr(capsys, tmp_path, monkeypatch, argv, code, stderr):
    # the whole stderr of each command shape: progress and warnings, the
    # header line and the command's summary lines
    monkeypatch.chdir(tmp_path)
    (tmp_path / "roots.bin").write_bytes(b"garbage")
    assert run_cli(capsys, *argv.split(), "--timestamp", "T")[::2] == (code, stderr)


def test_bound_first_empty_region(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "first", "--h", "964", "--delta", "1/321", "--timestamp", "T"
    )
    assert code == 0
    assert doc_of(out)["result"]["coefficient"]["sign"] == 0


def test_bound_second_beats_first(capsys):
    code, out1, _ = run_cli(
        capsys, "bound", "second", "--h", "40", "--delta", "1/321", "--timestamp", "T"
    )
    assert code == 0
    second = doc_of(out1)["result"]
    code, out2, _ = run_cli(
        capsys, "bound", "first", "--h", "40", "--delta", "1/321", "--timestamp", "T"
    )
    assert code == 0
    first = doc_of(out2)["result"]
    assert second["coefficient"]["log_mag"] < first["coefficient"]["log_mag"]
    assert second["K"] == 33
    assert len(second["per_k"]) == 33 - 13


def test_bound_second_fixed_alpha(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "second", "--h", "40", "--delta", "1/321",
        "--alpha", "5.0", "--timestamp", "T",
    )
    assert code == 0
    result = doc_of(out)["result"]
    assert all(row["alpha"] == 5.0 for row in result["per_k"])


def test_usage_errors_exit_1(capsys):
    assert main(["bound", "first", "--h", "3"]) == 1  # missing --delta
    capsys.readouterr()
    assert main(["nonsense"]) == 1
    capsys.readouterr()
    assert main(["bound", "first", "--h", "3", "--delta", "abc"]) == 1
    capsys.readouterr()
    assert main(["bound", "first", "--h", "3", "--delta", "1/0"]) == 1
    capsys.readouterr()
    # --max-depth is gone with the quadrature depth it set
    assert main(["reproduce", "--max-depth", "60"]) == 1
    capsys.readouterr()
    assert main(["bound", "first", "--h", "3", "--delta", "1/321", "--max-depth", "60"]) == 1
    capsys.readouterr()
    # the closed form is for the cubic only and runs no quadrature
    assert main(["bound", "first", "--h", "3", "--delta", "1/321", "--degree", "3"]) == 1
    capsys.readouterr()
    assert main(["bound", "first", "--h", "3", "--delta", "1/321", "--rel-tol", "1e-12"]) == 1
    capsys.readouterr()
    # every tilted integral is certified to one fixed tolerance
    assert main(["reproduce", "--rel-tol", "1e-12"]) == 1
    capsys.readouterr()
    assert main(["bound", "second", "--h", "40", "--delta", "1/321", "--rel-tol", "1e-12"]) == 1
    capsys.readouterr()
    # the sieve's segment width is a constant
    assert main(["empirical", "count", "--x-min", "10", "--x-max", "20", "--threshold", "2",
                 "--h", "3", "--segment-size", "512"]) == 1
    capsys.readouterr()


def test_domain_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "bound", "first", "--h", "2", "--delta", "1/321")
    assert code == 2
    assert "h must be at least 3" in err
    code, _, err = run_cli(capsys, "bound", "first", "--h", "5", "--delta", "5/3")
    assert code == 2
    assert "delta" in err
    # no root table reaches a threshold past the range cap plus one
    code, _, err = run_cli(
        capsys, "empirical", "count", "--x-min", "10", "--x-max", "20",
        "--threshold", "10000002", "--h", "1",
    )
    assert code == 2
    assert "threshold <= 10000001" in err
    # non-finite tilts and sieve constants: every region of h = 964 is empty,
    # so only the tilt check stands between a non-finite tilt and the document
    for alpha in ("nan", "inf"):
        code, out, err = run_cli(
            capsys, "bound", "second", "--h", "964", "--delta", "1/321", "--alpha", alpha
        )
        assert (code, out) == (2, "")
        assert "alpha must be finite and non-negative" in err
    # the least K_offset leaves one k-term, and with it the check of the tilt
    code, out, err = run_cli(
        capsys, "bound", "second", "--h", "133", "--delta", "1/321", "--K-offset", "1",
        "--alpha", "-3",
    )
    assert (code, out) == (2, "")
    assert "alpha must be finite and non-negative, got -3.0" in err
    for s_lower in ("nan", "inf"):
        code, out, err = run_cli(capsys, "reproduce", "--s-lower", s_lower)
        assert (code, out) == (2, "")
        assert "S_lower must be finite and non-negative" in err


@pytest.mark.parametrize("argv", [
    "bound second --h 133 --delta 1/321 --K-offset 0 --alpha nan",
    "bound second --h 133 --delta 1/321 --K-offset 0 --alpha -3",
    "reproduce --K-offset 0",
])
def test_K_offset_below_1_exits_2(capsys, argv):
    # K_offset = 0 would leave the tilted sum [h/3, K) empty, and with it the
    # check of a fixed --alpha
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert "K_offset must be at least 1, got 0" in err


def test_documents_byte_identical_with_pinned_timestamp(capsys):
    _, out1, _ = run_cli(
        capsys, "bound", "first", "--h", "6", "--delta", "1/10", "--timestamp", "T0"
    )
    _, out2, _ = run_cli(
        capsys, "bound", "first", "--h", "6", "--delta", "1/10", "--timestamp", "T0"
    )
    assert out1 == out2


def test_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "doc.json"
    _, out, _ = run_cli(
        capsys, "empirical", "nu", "--d", "31", "--timestamp", "T0", "--out", str(path)
    )
    assert path.read_text() == out
    assert doc_of(out)["result"]["nu"] == 3


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_exits_2(capsys, tmp_path, where):
    out_path = tmp_path if where == "directory" else tmp_path / "missing" / "doc.json"
    code, out, err = run_cli(
        capsys, "empirical", "nu", "--d", "31", "--timestamp", "T0", "--out", str(out_path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("cubebound: error:") and str(out_path) in err


def test_empirical_count_cli(capsys, tmp_path):
    cache = tmp_path / "roots.bin"
    args = [
        "empirical", "count", "--x-min", "10", "--x-max", "20",
        "--threshold", "2", "--h", "3", "--cache", str(cache), "--timestamp", "T",
    ]
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert doc_of(out)["result"]["count"] == 2
    assert cache.exists()
    assert "segment" in err
    # second run loads the cache and must agree
    code, out2, _ = run_cli(capsys, *args)
    assert code == 0
    assert out2 == out


def test_empirical_count_rebuilds_unreadable_cache(capsys, tmp_path):
    cache = tmp_path / "roots.bin"
    args = [
        "empirical", "count", "--x-min", "10", "--x-max", "20",
        "--threshold", "2", "--h", "3", "--cache", str(cache), "--timestamp", "T",
    ]
    _, out, _ = run_cli(capsys, *args)
    cache.write_bytes(cache.read_bytes()[:-5])
    with pytest.raises(DomainError):
        load_root_table(str(cache))
    code, out2, err = run_cli(capsys, *args)
    assert code == 0
    assert out2 == out
    assert len([line for line in err.splitlines() if "warning" in line]) == 1
    assert load_root_table(str(cache)) == build_root_table(20)


def test_empirical_count_rebuilds_a_version_1_cache(capsys, tmp_path):
    # a file in the earlier format is refused, rebuilt and replaced once
    cache = tmp_path / "roots.bin"
    args = [
        "empirical", "count", "--x-min", "10", "--x-max", "20",
        "--threshold", "2", "--h", "3", "--cache", str(cache), "--timestamp", "T",
    ]
    _, out, _ = run_cli(capsys, *args)
    roots = {p: cubic_roots_enumerate(p) for p in empirical._prime_array(20).tolist()}
    write_root_cache(cache, 20, roots, 1)
    code, out2, err = run_cli(capsys, *args)
    assert code == 0
    assert out2 == out
    warnings = [line for line in err.splitlines() if "warning" in line]
    assert len(warnings) == 1 and "version 1" in warnings[0]
    assert load_root_table(str(cache)) == build_root_table(20)
    _, out3, err = run_cli(capsys, *args)
    assert out3 == out and "warning" not in err


def test_empirical_count_cache_covers_the_threshold(capsys, tmp_path, monkeypatch):
    # above x_max + 1 the count needs the primes to threshold - 1: the cache
    # is built to that limit, and the second run takes it as it is
    cache = tmp_path / "roots.bin"
    args = [
        "empirical", "count", "--x-min", "10", "--x-max", "20",
        "--threshold", "50", "--h", "1", "--cache", str(cache), "--timestamp", "T",
    ]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    want = sum(1 for n in range(11, 21) if max(trial_factor(n**3 + 2)) >= 50)
    assert doc_of(out)["result"]["count"] == want
    assert load_root_table(str(cache)) == build_root_table(49)
    saved = cache.read_bytes()
    monkeypatch.setattr(empirical, "build_root_table", lambda limit: pytest.fail("rebuilt"))
    code, out2, err = run_cli(capsys, *args)
    assert code == 0
    assert out2 == out
    assert "warning" not in err and cache.read_bytes() == saved


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_empirical_count_cache_io_error_exits_2(capsys, tmp_path, where):
    # a directory cannot be read as a cache, nor a file written where its
    # parent is missing: both are computation failures, not tracebacks
    cache = tmp_path if where == "directory" else tmp_path / "missing" / "roots.bin"
    code, out, err = run_cli(
        capsys, "empirical", "count", "--x-min", "10", "--x-max", "20",
        "--threshold", "2", "--h", "3", "--cache", str(cache), "--timestamp", "T",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("cubebound: error:") and str(cache) in err


def test_empirical_mertens_cli(capsys):
    code, out, _ = run_cli(capsys, "empirical", "mertens", "--limit", "1000", "--timestamp", "T")
    assert code == 0
    result = doc_of(out)["result"]
    assert result["max_abs_deviation"] <= 3.0
    assert [x for x, _ in result["deviations"]] == [10, 100, 1000]
    # one pass gives what the two library calls give
    assert result["deviations"] == [list(row) for row in mertens_check(1000)]
    # each deviation's error bound sits next to it
    assert [x for x, _ in result["deviation_bounds"]] == [10, 100, 1000]
    assert all(0 < b < 1e-10 for _, b in result["deviation_bounds"])
    assert result["mean_nu"] == prime_sums(1000).mean_nu


def test_reproduce_defaults_pass(capsys, default_report):
    code, out, err = run_cli(capsys, "reproduce", "--timestamp", "T")
    assert code == 0
    doc = doc_of(out)
    assert doc["result"]["overall_pass"] is True
    checks = doc["result"]["checks"]
    assert len(checks) == 6
    assert all(c["passed"] for c in checks)
    assert err.count("PASS") >= 6
    # the CLI run reproduces the library report bit for bit
    rep = doc["result"]["report"]
    assert rep["tail_total"]["log_mag"] == default_report.tail_total.log_mag
    assert rep["alpha"]["log_mag"] == default_report.alpha_proportion.log_mag
    # conservative two-significant-figure quoting
    assert rep["display"]["tail_first"] == "9.2e-10"
    assert rep["display"]["tail_second"] == "3.6e-08"
    assert rep["display"]["tail_total"] == "3.7e-08"
    assert rep["display"]["alpha"] == "7.7e-50"
    # the verdict is the library's, unchanged
    checks_lib, overall = reproduction_checks(default_report)
    assert checks == checks_lib and overall is True


def test_reproduce_zero_sieve_constant_fails(capsys):
    code, out, err = run_cli(
        capsys, "reproduce", "--s-lower", "0", "--split", "133", "--timestamp", "T"
    )
    assert code == 3
    doc = doc_of(out)
    assert doc["result"]["overall_pass"] is False
    assert "margin" in doc["result"]["report"]["failure"]
    assert "FAIL" in err


@pytest.mark.parametrize("h_max", ["961", "189"])
def test_reproduce_with_a_truncated_tail_fails(capsys, h_max):
    # the closed-form terms are nonzero up to h = 962 at delta = 1/321, so
    # a tail that stops short of it proves nothing, whatever its margin
    code, out, err = run_cli(capsys, "reproduce", "--h-max", h_max, "--timestamp", "T")
    assert code == 3
    result = doc_of(out)["result"]
    assert result["overall_pass"] is False
    failure = result["report"]["failure"]
    assert failure == (
        f"h_max={h_max} truncates the tail: the closed-form terms are nonzero up to h=962"
    )
    assert f"failure: {failure}" in err
    # the tails that reach past h_max fail; tail_second ends at split_h - 1
    # and is complete
    verdicts = {line.split(" ", 2)[1]: line.split(":")[0]
                for line in err.splitlines() if line.startswith(("PASS:", "FAIL:"))}
    assert verdicts["tail_first"] == verdicts["tail_total"] == "FAIL"
    assert verdicts["tail_second"] == "PASS"


def test_reproduce_display_is_on_the_adverse_side_of_each_row(capsys, default_report):
    # every row of REFERENCE_LIMITS: the document's entry is the report field
    # the row names, and its display lies between the exact value (exp of
    # log_mag at 40 digits) and the decimal limit, so it rounds away from
    # the limit's side and still clears the limit
    _, out, _ = run_cli(capsys, "reproduce", "--timestamp", "T")
    rep = doc_of(out)["result"]["report"]
    assert set(rep["display"]) == {name for name, *_ in REFERENCE_LIMITS}
    for name, field, op, limit in REFERENCE_LIMITS:
        value = getattr(default_report, field)
        assert rep[name]["log_mag"] == value.log_mag, name
        exact = decimal.Context(prec=40).exp(decimal.Decimal(value.log_mag))
        shown, bound = decimal.Decimal(rep["display"][name]), decimal.Decimal(str(limit))
        assert op in ("<=", ">="), name
        if op == "<=":
            assert exact <= shown <= bound, name
        else:
            assert bound <= shown <= exact, name


def test_reproduce_first_bound_everywhere_is_worse(capsys, default_report):
    # split at 133 uses the closed form for every h > H: the tail blows up
    code, out, _ = run_cli(
        capsys, "reproduce", "--split", "133", "--timestamp", "T"
    )
    assert code == 3
    doc = doc_of(out)
    tail = doc["result"]["report"]["tail_total"]["log_mag"]
    assert tail > default_report.tail_total.log_mag


def test_reproduce_jobs_is_accepted_and_ignored(capsys):
    runs = [
        run_cli(capsys, "reproduce", *jobs, "--timestamp", "T")
        for jobs in ((), ("--jobs", "1"), ("--jobs", "2"))
    ]
    assert runs[0][0] == 0
    assert runs[0] == runs[1] == runs[2]
    assert "jobs" not in doc_of(runs[0][1])["manifest"]["parameters"]


def run_child(*argv):
    # the child imports the same cubebound as the suite, installed or not
    src = os.path.dirname(os.path.dirname(cubebound.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def test_console_script_runs():
    proc = run_child("-m", "cubebound", "empirical", "nu", "--d", "7")
    assert proc.returncode == 0
    assert doc_of(proc.stdout)["result"]["nu"] == 0


def test_pipeline_never_loads_numpy_or_a_process_pool():
    script = """
import contextlib, io, sys, types
import cubebound, cubebound.aggregate, cubebound.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cubebound.cli.main(["reproduce", "--timestamp", "T"]) == 0
heavy = {"numpy", "concurrent.futures.process"}
assert not heavy & set(sys.modules), heavy & set(sys.modules)
assert cubebound.factor_range is cubebound.empirical.factor_range
assert "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    argv = ["empirical", "count", "--x-min", "1000", "--x-max", "3000", "--threshold", "17",
            "--h", "2", "--timestamp", "T"]
    assert cubebound.cli.main(argv) == 0
assert "concurrent.futures.process" not in sys.modules
names = {}
exec("from cubebound import *", names)
assert set(cubebound.__all__) <= set(names)
bound = {name for name, value in vars(cubebound).items()
         if not name.startswith("_") and not isinstance(value, types.ModuleType)}
assert bound <= set(cubebound.__all__), bound - set(cubebound.__all__)
"""
    proc = run_child("-c", script)
    assert proc.returncode == 0, proc.stderr
