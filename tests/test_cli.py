import argparse
import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
import time

import pytest

from bergman import cli, errors
from bergman import zeros as zeros_module
from bergman.cli import _build_parser, main
from bergman.zeros import FAMILIES, odd_quotient_zero_locus

SQ3 = 1.0 / math.sqrt(3.0)
D22 = '{"blocks":[{"dim":1,"p":2},{"dim":1,"p":2}]}'
D222 = '{"blocks":[{"dim":1,"p":2},{"dim":1,"p":2},{"dim":1,"p":2}]}'


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_csv(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, list(csv.DictReader(io.StringIO(out)))


# -------------------------------------------------------------------- eval


def test_eval_k2_origin(capsys):
    code, rec = run_json(capsys, [
        "eval", "--domain", D22, "--z", "0,0", "--w", "0,0"])
    assert code == 0
    assert rec["value"]["re"] == pytest.approx(6.0 / math.pi ** 2, rel=1e-12)
    assert rec["value"]["im"] == 0.0
    assert not rec["zero_flag"]


def test_eval_ball_origin(capsys):
    code, rec = run_json(capsys, [
        "eval", "--domain", '{"blocks":[{"dim":2,"p":1}]}', "--z", "0,0"])
    assert code == 0
    assert rec["value"]["re"] == pytest.approx(2.0 / math.pi ** 2, rel=1e-12)
    assert rec["formula"] == "ball"


def test_eval_simplex_zero_flag(capsys):
    code, rec = run_json(capsys, [
        "eval", "--domain", D222,
        "--z", "0.57735,0,0", "--w", "-0.57735,0,0"])
    assert code == 0
    assert rec["abs"] < 1e-6
    assert rec["zero_flag"]


def test_eval_w_defaults_to_z(capsys):
    code, rec = run_json(capsys, [
        "eval", "--domain", D22, "--z", "0.2,0.1"])
    assert code == 0
    assert rec["w"] == rec["z"]
    assert rec["value"]["re"] > 0.0
    assert rec["value"]["im"] == pytest.approx(0.0, abs=1e-15)


def test_eval_check_oracle(capsys):
    code, rec = run_json(capsys, [
        "eval", "--domain", '{"blocks":[{"dim":1,"p":2},{"dim":1,"p":4}]}',
        "--z", "0.2,0.1", "--w", "0.15,0.05", "--check-oracle"])
    assert code == 0
    assert rec["formula"] == "slice_kp"
    assert "oracle" in rec
    assert rec["rel_diff"] < 1e-8


def test_eval_formula_dispatch(capsys):
    cases = [
        ('{"blocks":[{"dim":1,"p":1},{"dim":1,"p":3.5}]}', "pflate"),
        ('{"blocks":[{"dim":2,"p":1},{"dim":1,"p":2}]}', "mixed_family"),
        ('{"blocks":[{"dim":1,"p":2},{"dim":3,"p":1}]}', "mixed_family"),
        ('{"blocks":[{"dim":1,"p":2.5},{"dim":1,"p":3.5}]}', "series_oracle"),
    ]
    for dom, tag in cases:
        dim = sum(b["dim"] for b in json.loads(dom)["blocks"])
        zeros = ",".join(["0"] * dim)
        code, rec = run_json(capsys, ["eval", "--domain", dom, "--z", zeros])
        assert code == 0, dom
        assert rec["formula"] == tag
        assert rec["value"]["re"] > 0.0


def test_eval_slice_large_p_near_the_boundary(capsys):
    # ((1-s)^p - y)^3 would underflow here; K = (p+1) ((1-xi)^-(p+2) - (1+xi)^-(p+2))
    # / (4 pi^2 xi) on the axis y = 0
    code, rec = run_json(capsys, [
        "eval", "--domain", '{"blocks":[{"dim":1,"p":2},{"dim":1,"p":40}]}',
        "--z", "0.999,0"])
    xi = 0.999
    want = 41.0 * ((1.0 - xi) ** -42.0 - (1.0 + xi) ** -42.0) / (4.0 * math.pi ** 2 * xi)
    assert code == 0
    assert rec["formula"] == "slice_kp"
    assert rec["value"]["re"] == pytest.approx(want, rel=1e-12)


def test_eval_near_an_interior_pole_k2(capsys):
    # phi = 0.999999: the closed-form denominators are tiny there, not zero
    mp = pytest.importorskip("mpmath")
    code, rec = run_json(capsys, ["eval", "--domain", D22, "--z", "0.5,0.499999"])
    assert code == 0
    with mp.workdps(40):
        x, y = mp.mpf(0.5) ** 2, mp.mpf(0.499999) ** 2
        s = 1 - x - y
        want = float(2 / mp.pi ** 2 * (3 * s * (1 - (x - y) ** 2) + 8 * x * y)
                     / (s ** 2 - 4 * x * y) ** 3)
    assert want == pytest.approx(5.0660693e16, rel=1e-7)
    assert abs(complex(rec["value"]["re"], rec["value"]["im"]) - want) <= 1e-9 * want


def test_eval_near_an_interior_pole_folded(capsys):
    # the point of the k2 test with a p = 2.5 block added, at its origin;
    # the root sum of general_folded_kernel over the two p = 2 coordinates:
    # K = (p+1)(p+2)/(16 pi^3 s1 s2) sum e1 e2 (1 - e1 s1 - e2 s2)^-(p+3) at y = 0
    mp = pytest.importorskip("mpmath")
    code, rec = run_json(capsys, [
        "eval", "--domain", '{"blocks":[{"dim":1,"p":2},{"dim":1,"p":2},{"dim":1,"p":2.5}]}',
        "--z", "0.5,0.499999,0"])
    assert code == 0
    with mp.workdps(50):
        p, s1, s2 = mp.mpf(2.5), mp.mpf(0.5), mp.mpf(0.499999)
        total = sum(e1 * e2 * (1 - e1 * s1 - e2 * s2) ** -(p + 3)
                    for e1 in (1, -1) for e2 in (1, -1))
        want = float((p + 1) * (p + 2) / (16 * mp.pi ** 3 * s1 * s2) * total)
    assert want == pytest.approx(1.2699e32, rel=1e-4)
    assert abs(complex(rec["value"]["re"], rec["value"]["im"]) - want) <= 1e-7 * want


def test_eval_outside_domain_exit_3(capsys):
    assert main(["eval", "--domain", '{"blocks":[{"dim":1,"p":2}]}',
                 "--z", "1.5"]) == 3
    capsys.readouterr()


def test_eval_parse_errors_exit_2(capsys):
    assert main(["eval", "--domain", '{"blocks":', "--z", "0"]) == 2
    assert main(["eval", "--domain", D22, "--z", "0"]) == 2  # wrong arity
    assert main(["eval", "--domain", D22, "--z", "0,banana"]) == 2
    capsys.readouterr()


def test_eval_domain_from_file(capsys, tmp_path):
    path = tmp_path / "dom.json"
    path.write_text(D22)
    code, rec = run_json(capsys, [
        "eval", "--domain", f"@{path}", "--z", "0,0"])
    assert code == 0
    assert rec["value"]["re"] == pytest.approx(6.0 / math.pi ** 2, rel=1e-12)


# ------------------------------------------------------------------- zeros


def test_zeros_axis1_p4(capsys):
    code, rec = run_json(capsys, ["zeros", "--family", "axis1", "--p", "4"])
    assert code == 0
    assert rec["winding_count"] == 2
    assert rec["method"] == "closed_form"
    ims = sorted(z["im"] for z in rec["zeros"])
    assert ims == pytest.approx([-SQ3, SQ3], abs=1e-9)
    assert all(z["residual"] < 1e-9 for z in rec["zeros"])
    assert rec["zeroed"] and rec["predicate_zeroed"]


def test_zeros_axis1_p2_zero_free(capsys):
    code, rec = run_json(capsys, ["zeros", "--family", "axis1", "--p", "2"])
    assert code == 0
    assert rec["zeros"] == []
    assert not rec["zeroed"] and not rec["predicate_zeroed"]


def test_zeros_k2_clean(capsys):
    code, rec = run_json(capsys, ["zeros", "--family", "k2", "--res", "32"])
    assert code == 0
    assert rec["zeros"] == []
    assert rec["winding_count"] == 0
    assert rec["min_modulus"] > 0.01


def test_zeros_mixed_n4(capsys):
    code, rec = run_json(capsys, ["zeros", "--family", "mixed", "--n", "4"])
    assert code == 0
    ims = sorted(z["im"] for z in rec["zeros"])
    want = math.tan(math.pi / 5.0)
    assert ims == pytest.approx([-want, want], abs=1e-9)


def test_zeros_bad_family_exit_2(capsys):
    assert main(["zeros", "--family", "nonsense"]) == 2
    assert main(["zeros", "--family", "axis1"]) == 2  # missing --p
    capsys.readouterr()


def test_zeros_axis1_p30_02_counts_on_its_zeros_circle(capsys):
    # two of the 16 zeros lie beyond |t| = 0.999; the count runs halfway
    # between the outermost zero and the boundary, and prints that radius
    code, rec = run_json(capsys, ["zeros", "--family", "axis1", "--p", "30.02"])
    assert code == 0
    assert (len(rec["zeros"]), rec["winding_count"]) == (16, 16)
    assert max(abs(z["im"]) for z in rec["zeros"]) == 0.99901934650263313
    assert rec["radius"] == (1.0 + 0.99901934650263313) / 2.0


def test_zeros_count_mismatch_exit_4(monkeypatch, capsys):
    # a report whose winding count disagrees with its zeros is printed, exit 4
    def miscounted(m, scale):
        return dataclasses.replace(odd_quotient_zero_locus(m, scale), count_by_winding=0)

    monkeypatch.setattr(zeros_module, "odd_quotient_zero_locus", miscounted)
    code, rec = run_json(capsys, ["zeros", "--family", "axis1", "--p", "4"])
    assert code == 4
    assert (len(rec["zeros"]), rec["winding_count"]) == (2, 0)


@pytest.mark.parametrize("family,n,m", [
    ("simplex", 9, 18), ("simplex", 13, 26), ("simplex", 40, 80), ("mixed", 20, 21),
    ("mixed", 40, 41)])
def test_zeros_odd_quotient_formula(capsys, family, n, m):
    # the slice's constant grows like n!/pi^n, so no absolute |f| threshold
    # finds these zeros; they are +-i tan(pi k/m) for 1 <= k < m/4
    code, rec = run_json(capsys, ["zeros", "--family", family, "--n", str(n)])
    assert code == 0
    tans = [math.tan(math.pi * k / m) for k in range(1, m) if k < m / 4]
    assert [z["im"] for z in rec["zeros"]] == sorted(tans + [-s for s in tans])
    assert all(z["re"] == 0.0 for z in rec["zeros"])
    assert rec["winding_count"] == len(rec["zeros"])


@pytest.mark.parametrize("argv, count", [
    (["--family", "axis1", "--p", "160"], 80), (["--family", "simplex", "--n", "60"], 58),
], ids=["axis1-160", "simplex-60"])
def test_zeros_past_the_jet_overflow_exits_0(capsys, argv, count):
    # (1 -+ t)^-m overflows on these counts' circles; t f'/f does not
    code, rec = run_json(capsys, ["zeros"] + argv)
    assert code == 0
    assert len(rec["zeros"]) == rec["winding_count"] == count


def test_odd_quotient_predicate_is_paper_threshold():
    # m > 4 with m = p + 2, 2n and n + 1: p > 2, n >= 3 and n >= 4
    zeroed = {fam: FAMILIES[fam].zeroed for fam in ("axis1", "simplex", "mixed")}
    for p in (k / 8.0 for k in range(1, 321)):
        assert zeroed["axis1"](p) == (p > 2.0), p
    for n in range(2, 101):
        assert zeroed["simplex"](n) == (n >= 3), n
        assert zeroed["mixed"](n) == (n >= 4), n


# ------------------------------------------------------------------- locus


def test_locus_axis1_min_cell(capsys):
    code, rows = run_csv(capsys, [
        "locus", "--family", "axis1", "--p", "4", "--res", "64"])
    assert code == 0
    assert len(rows) == 64 * 64
    best = min(rows, key=lambda r: float(r["abs_K"]))
    cell = 1.9 / 63
    assert abs(float(best["re_x"])) <= cell
    assert abs(abs(float(best["im_x"])) - SQ3) <= cell


def test_locus_axis2_sign_change(capsys):
    code, rows = run_csv(capsys, [
        "locus", "--family", "axis2", "--p", "4", "--res", "64"])
    assert code == 0
    assert len(rows) == 64
    target = -5.0 + 2.0 * math.sqrt(5.0)
    brackets = []
    for a, b in zip(rows, rows[1:]):
        if (float(a["re_K"]) < 0.0) != (float(b["re_K"]) < 0.0):
            brackets.append((float(a["re_y"]), float(b["re_y"])))
    assert any(lo <= target <= hi for lo, hi in brackets)


def test_locus_k2_floor(capsys):
    code, rows = run_csv(capsys, ["locus", "--family", "k2", "--res", "32"])
    assert code == 0
    assert rows
    assert min(float(r["abs_K"]) for r in rows) > 0.01


def test_locus_header_and_format(capsys):
    code = main(["locus", "--family", "axis2", "--p", "3", "--res", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "re_x,im_x,re_y,im_y,re_K,im_K,abs_K"
    assert main(["locus", "--family", "axis2", "--p", "3",
                 "--format", "json"]) == 2
    capsys.readouterr()


# ------------------------------------------------------------------- sweep


def test_sweep_axis1_threshold(capsys):
    code = main(["sweep", "--family", "axis1", "--p1", "2..6"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p1,status"
    statuses = [ln.split(",")[1] for ln in lines[1:]]
    assert statuses == ["zero-free", "zeroed", "zeroed", "zeroed", "zeroed"]


def test_sweep_simplex_and_mixed(capsys):
    code = main(["sweep", "--family", "simplex", "--n", "2..5"])
    out = capsys.readouterr().out
    assert code == 0
    statuses = [ln.split(",")[1] for ln in out.strip().splitlines()[1:]]
    assert statuses == ["zero-free", "zeroed", "zeroed", "zeroed"]

    code = main(["sweep", "--family", "mixed", "--n", "2..5"])
    out = capsys.readouterr().out
    assert code == 0
    statuses = [ln.split(",")[1] for ln in out.strip().splitlines()[1:]]
    assert statuses == ["zero-free", "zero-free", "zeroed", "zeroed"]


def test_sweep_axis2_over_p1(capsys):
    code = main(["sweep", "--family", "axis2", "--p1", "1..3"])
    assert code == 0
    assert capsys.readouterr().out == "p1,status\n1,zero-free\n2,zero-free\n3,zeroed\n"


@pytest.mark.parametrize("grid", [["fixed", "3"], ["fixed:3"], ["fixed 3"]])
def test_sweep_refuses_the_fixed_grid_spelling(capsys, grid):
    # a grid is N, A..B or A..B:STEP, one token
    assert main(["sweep", "--family", "axis1", "--p1", *grid]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: " in err


def test_sweep_bad_grid_exit_2(capsys):
    assert main(["sweep", "--family", "axis1", "--p1", "nonsense"]) == 2
    assert main(["sweep", "--family", "k2"]) == 2  # no parameter to sweep
    assert capsys.readouterr().err.endswith(
        "error: sweep supports axis1, axis2, simplex, mixed; got 'k2'\n")


# ------------------------------------------------------------------ verify


def test_verify_fast_suites(capsys):
    code = main(["verify", "--suite", "fold-disc"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[verify] fold-disc/identity: PASS" in out

    code = main(["verify", "--suite", "origin-values"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 6
    assert "6/6 checks passed" in out

    assert main(["verify", "--suite", "bogus"]) == 2
    capsys.readouterr()


def test_verify_fold_disc_folds_by_more_than_one(monkeypatch, capsys):
    # fold(L, 1) is L itself, so the suite must fold the disc by p > 1
    from bergman.kernels import fold

    seen = []

    def spy(L, p):
        seen.append(p)
        return fold(L, p)

    monkeypatch.setattr(cli, "fold", spy)
    assert main(["verify", "--suite", "fold-disc"]) == 0
    assert "fold-disc/identity: PASS (max rel diff 0)" not in capsys.readouterr().out
    assert seen == [2, 3, 5]


def test_verify_all_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "bergman", "verify"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "15/15 checks passed" in proc.stdout


# ------------------------------------------------- determinism and plumbing


def test_output_files_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["zeros", "--family", "axis1", "--p", "4",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    for path in (c, d):
        assert main(["locus", "--family", "k2", "--res", "16",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    assert c.read_bytes() == d.read_bytes()
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".bergman-")]
    assert leftovers == []


def test_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "rec.json"
    assert main(["zeros", "--family", "axis2", "--p", "3",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    code, rec = run_json(capsys, ["zeros", "--family", "axis2", "--p", "3"])
    assert code == 0
    assert json.loads(path.read_text()) == rec


@pytest.mark.parametrize("suite,code", [("origin-values", 0), ("deflation", 5)])
def test_verify_out_writes_the_stdout_bytes(tmp_path, capsys, monkeypatch, suite, code):
    # a forced failure shows that --out keeps the exit code
    monkeypatch.setitem(cli._SUITES, "deflation",
                        lambda seed: [("forced", False, "-")])
    argv = ["verify", "--suite", suite]
    assert main(argv) == code
    out = capsys.readouterr().out
    path = tmp_path / "verify.txt"
    assert main(argv + ["--out", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()


def test_seed_default_ignores_the_environment(monkeypatch, capsys):
    monkeypatch.delenv("BERGMAN_SEED", raising=False)
    assert _build_parser().parse_args(["verify"]).seed == 42
    # no environment variable is read, so a malformed one cannot break a run
    for bad in ("abc", "1e400"):
        monkeypatch.setenv("BERGMAN_SEED", bad)
        assert _build_parser().parse_args(["verify"]).seed == 42
        code, rec = run_json(capsys, [
            "eval", "--domain", '{"blocks":[{"dim":1,"p":2}]}', "--z", "0.1"])
        assert code == 0
        assert rec["formula"] == "ball"


@pytest.mark.parametrize("argv", [
    ["zeros", "--family", "mixed", "--n", "1000000"],
    ["locus", "--family", "mixed", "--n", "1000000", "--res", "4"],
])
def test_huge_mixed_n_is_refused_at_once(capsys, argv):
    # pi^n overflows for n >= 621 before n! (seconds at n = 10^6) is built
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err.startswith("error: floating-point overflow")


def test_console_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "bergman", "zeros", "--family", "axis1",
         "--p", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["winding_count"] == 2


# A child loads only what its subcommand runs: numpy (about 100 ms of a
# 230 ms child) for arrays alone, oracle and zeros on first use of a name.
# Each row: id, argv (None: import bergman and evaluate), what it loads.
FOLD = '{"blocks":[{"dim":1,"p":2},{"dim":1,"p":2},{"dim":1,"p":3.5}]}'
LOADS = [
    ("evaluate", None, set()),
    ("eval-k2", ["eval", "--domain", D22, "--z", "0.2,0.1"], set()),
    ("eval-slice-kp", ["eval", "--domain", '{"blocks":[{"dim":1,"p":2},{"dim":1,"p":4}]}',
                       "--z", "0.2,0.1"], set()),
    ("eval-fold", ["eval", "--domain", FOLD, "--z", "0.2,0.1,0.05"], set()),
    ("verify-origin-values", ["verify", "--suite", "origin-values"], set()),
    ("zeros-help", ["zeros", "--help"], set()),
    ("eval-check-oracle", ["eval", "--domain", D22, "--z", "0.2,0.1", "--check-oracle"],
     {"oracle"}),
    ("locus-axis1", ["locus", "--family", "axis1", "--p", "4", "--res", "5"], {"zeros"}),
    ("locus-axis2", ["locus", "--family", "axis2", "--p", "3", "--res", "5"], {"zeros"}),
    ("locus-simplex", ["locus", "--family", "simplex", "--n", "3", "--res", "5"], {"zeros"}),
    ("locus-mixed", ["locus", "--family", "mixed", "--n", "3", "--res", "5"], {"zeros"}),
    ("sweep", ["sweep", "--family", "axis1", "--p1", "1..3"], {"zeros"}),
    ("locus-k2", ["locus", "--family", "k2", "--res", "5"], {"zeros", "numpy"}),
    ("zeros-axis1", ["zeros", "--family", "axis1", "--p", "4"], {"zeros", "numpy"}),
]


def _loaded(argv) -> set:
    """Which of numpy, bergman.oracle and bergman.zeros a child running argv loads."""
    if argv is None:
        run = ("import bergman\n"
               "bergman.evaluate(bergman.diagonal_domain(2.0, 2.0), "
               "(0.2, 0.1), (0.2, 0.1))\n")
    else:
        run = f"import bergman.cli\nassert bergman.cli.main({argv!r}) == 0\n"
    names = {"numpy": "numpy", "oracle": "bergman.oracle", "zeros": "bergman.zeros"}
    proc = subprocess.run(
        [sys.executable, "-c", run + "import sys\n"
         f"print('loaded', *(k for k, v in {names!r}.items() if v in sys.modules))\n"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split()[1:])


def _rows(numpy: bool):
    rows = [row for row in LOADS if ("numpy" in row[2]) == numpy]
    return pytest.mark.parametrize("argv, loaded", [row[1:] for row in rows],
                                   ids=[row[0] for row in rows])


@_rows(numpy=False)
def test_closed_form_runs_leave_numpy_unloaded(argv, loaded):
    assert _loaded(argv) == loaded


@_rows(numpy=True)
def test_array_runs_load_numpy_and_nothing_unused(argv, loaded):
    assert _loaded(argv) == loaded


# ------------------------------------------------------------- bad inputs

# Each row exits with its code and an "error:" line, never a traceback.  The
# rows run in a child process capped at 1 GiB of address space, so a sweep
# grid that were built before its size is checked fails the row with a
# MemoryError instead of exhausting the machine.
BAD_INPUTS = [
    ("nan-coordinate", ["eval", "--domain", D22, "--z", "nan,0"], 3),
    ("nan-imaginary-w",
     ["eval", "--domain", D22, "--z", "0.1,0.2", "--w", "0.1,nanj"], 3),
    ("nan-p", ["eval", "--domain", '{"blocks":[{"dim":1,"p":NaN}]}', "--z", "0"], 2),
    ("inf-p", ["eval", "--domain", '{"blocks":[{"dim":1,"p":Infinity}]}', "--z", "0"], 2),
    ("out-missing-dir",
     ["eval", "--domain", D22, "--z", "0.1,0.2", "--out", "{missing}/out.json"], 2),
    ("no-evaluator", ["eval", "--domain", '{"blocks":[{"dim":2,"p":2},{"dim":1,"p":3}]}',
                      "--z", "0.1,0.1,0.1"], 2),
    ("locus-negative-p", ["locus", "--family", "axis1", "--p", "-1"], 2),
    # a value with a leading minus sign reaches the family's refusal, not argparse's
    ("zeros-negative-p", ["zeros", "--family", "axis1", "--p", "-1e-3"], 2,
     "error: exponent p must be positive"),
    ("sweep-negative-p1", ["sweep", "--family", "axis1", "--p1", "-1..3"], 2,
     "error: exponent p must be positive"),
    ("locus-nan-p", ["locus", "--family", "axis2", "--p", "nan"], 2),
    ("zeros-inf-p", ["zeros", "--family", "axis1", "--p", "inf"], 2),
    ("simplex-n1", ["zeros", "--family", "simplex", "--n", "1"], 2),
    ("mixed-n0", ["zeros", "--family", "mixed", "--n", "0"], 2),
    ("locus-res0", ["locus", "--family", "axis2", "--p", "3", "--res", "0"], 2),
    ("locus-k2-res0", ["locus", "--family", "k2", "--res", "0"], 2),
    ("sweep-p-zero", ["sweep", "--family", "axis1", "--p1", "0..2"], 2),
    ("sweep-n-zero", ["sweep", "--family", "simplex", "--n", "0..3"], 2),
    ("sweep-cap", ["sweep", "--family", "axis1", "--p1", "1..1e9"], 2),
    ("sweep-inf-bound", ["sweep", "--family", "axis1", "--p1", "1..inf"], 2),
    ("sweep-n-fraction", ["sweep", "--family", "simplex", "--n", "1.6"], 2),
    ("sweep-n-half", ["sweep", "--family", "mixed", "--n", "3.5"], 2),
    ("sweep-n-fraction-step", ["sweep", "--family", "simplex", "--n", "2..3:0.4"], 2),
    # (1-s)^p underflows to 0 and the denominator reads 0: K overflows there
    ("interior-underflow-slice-huge-p",
     ["eval", "--domain", '{"blocks":[{"dim":1,"p":2},{"dim":1,"p":1e300}]}',
      "--z", "0.3,0"], 2, "error: floating-point overflow"),
    # (1 - tau)^p overflows at an interior point of the fold before K underflows
    ("interior-overflow-folded-huge-p",
     ["eval", "--domain",
      '{"blocks":[{"dim":1,"p":2},{"dim":1,"p":2},{"dim":1,"p":1e5}]}',
      "--z", "0.3,0.05,0", "--w", "-0.3,0.05j,0"], 2,
     "error: floating-point overflow (complex exponentiation)"),
    # the same (1 - t)^p overflow on the hartogs2 and pflate routes
    ("interior-overflow-hartogs2-huge-p",
     ["eval", "--domain", '{"blocks":[{"dim":1,"p":1},{"dim":1,"p":1e5}]}',
      "--z", "0.2,0", "--w", "-0.2,0"], 2,
     "error: floating-point overflow (complex exponentiation)"),
    ("interior-overflow-pflate-huge-p",
     ["eval", "--domain", '{"blocks":[{"dim":2,"p":1},{"dim":1,"p":1e5}]}',
      "--z", "0.2,0,0", "--w", "-0.2,0,0"], 2,
     "error: floating-point overflow (complex exponentiation)"),
    # (1 - tau)^p underflows to 0 on the hartogs2, pflate and folded jet routes
    ("interior-underflow-hartogs2-huge-p",
     ["eval", "--domain", '{"blocks":[{"dim":1,"p":1},{"dim":1,"p":1000}]}',
      "--z", "0.8,0"], 2, "error: floating-point overflow ((1 - tau)^p underflows"),
    ("interior-underflow-pflate-huge-p",
     ["eval", "--domain", '{"blocks":[{"dim":2,"p":1},{"dim":1,"p":1000}]}',
      "--z", "0.8,0,0"], 2, "error: floating-point overflow ((1 - tau)^p underflows"),
    ("interior-underflow-folded-huge-p",
     ["eval", "--domain",
      '{"blocks":[{"dim":1,"p":2},{"dim":1,"p":2},{"dim":1,"p":1000}]}',
      "--z", "0.8,0.01,0"], 2, "error: floating-point overflow ((1 - tau)^p underflows"),
    # pflate's (n+m)! read-off overflows at the origin, and so does the ball's m!
    ("pflate-100-100-origin",
     ["eval", "--domain", '{"blocks":[{"dim":100,"p":1},{"dim":100,"p":1.5}]}',
      "--z", ",".join(["0"] * 200)], 2, "error: floating-point overflow"),
    ("ball-171-origin",
     ["eval", "--domain", '{"blocks":[{"dim":171,"p":1}]}', "--z", ",".join(["0"] * 171)],
     2, "error: floating-point overflow"),
    ("huge-int-p", ["eval", "--domain", '{"blocks":[{"dim":1,"p":1%s}]}' % ("0" * 400),
                    "--z", "0"], 2),
    ("zeros-overflow-p", ["zeros", "--family", "axis1", "--p", "1e6"], 2),
    # m = p + 2 above 4,000 is refused before any zero is listed
    ("zeros-huge-p", ["zeros", "--family", "axis1", "--p", "1e300"], 2,
     "error: exponent m = 1e+300 exceeds 4000"),
    ("zeros-k2-res4", ["zeros", "--family", "k2", "--res", "4"], 2),
    ("zeros-k2-res-cap", ["zeros", "--family", "k2", "--res", "100000"], 2),
    # below res 4 no signed-radius pair of the k2 grid is admissible
    ("locus-k2-res1", ["locus", "--family", "k2", "--res", "1"], 2,
     "error: --res 1 leaves the k2 locus grid empty"),
    ("locus-k2-res2", ["locus", "--family", "k2", "--res", "2"], 2),
    ("locus-k2-res3", ["locus", "--family", "k2", "--res", "3"], 2),
    ("locus-k2-res-cap", ["locus", "--family", "k2", "--res", "100000000"], 2),
    ("eval-nan-tol", ["eval", "--domain", D22, "--z", "0.1,0.2", "--tol", "nan"], 2),
    # zeros reads no --tol, so argparse refuses it (its usage line comes first)
    ("zeros-nan-tol", ["zeros", "--family", "k2", "--tol", "nan"], 2, "usage: bergman "),
    ("zeros-negative-tol", ["zeros", "--family", "k2", "--tol", "-1"], 2, "usage: bergman "),
    # argparse refuses an option the command does not read before any handler
    # runs, so its usage line comes ahead of its error line
    ("zeros-format-csv", ["zeros", "--family", "mixed", "--n", "4", "--format", "csv"], 2,
     "usage: bergman "),
    ("sweep-format-json", ["sweep", "--family", "mixed", "--n", "4", "--format", "json"], 2,
     "usage: bergman "),
    ("eval-format-csv", ["eval", "--domain", D22, "--z", "0.1,0.2", "--format", "csv"], 2,
     "usage: bergman "),
]


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv,code,start",
                         [(row[1], row[2], row[3] if len(row) > 3 else "error:")
                          for row in BAD_INPUTS],
                         ids=[row[0] for row in BAD_INPUTS])
def test_bad_input_exit_codes(argv, code, start, tmp_path):
    argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "bergman"] + argv,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(start), proc.stderr
    assert proc.stdout == ""


ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, errors.BergmanError)]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=[c.__name__ for c in ERROR_CLASSES])
def test_every_library_error_exits_with_an_error_line(monkeypatch, capsys, cls):
    # OutsideDomain exits 3 and every other library error 2, never a traceback
    def fail(*args):
        raise cls("$", "forced") if cls is errors.SchemaError else cls("forced")

    monkeypatch.setattr(cli, "evaluate", fail)
    code = main(["eval", "--domain", D22, "--z", "0.1,0.2"])
    err = capsys.readouterr().err
    assert code == (3 if cls is errors.OutsideDomain else 2)
    assert err.startswith("error:") and "Traceback" not in err


# Each subcommand parses exactly the options its handler reads.
OPTIONS = {
    "eval": {"--domain", "--z", "--w", "--check-oracle", "--tol", "--out"},
    "zeros": {"--family", "--p", "--n", "--res", "--out"},
    "locus": {"--family", "--p", "--n", "--res", "--out"},
    "verify": {"--suite", "--seed", "--out"},
    "sweep": {"--family", "--p1", "--n", "--out"},
}


def test_each_subcommand_parses_only_what_it_reads():
    (sub,) = [a for a in _build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    got = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
           for name, p in sub.choices.items()}
    assert got == OPTIONS


# An option a command does not read is a usage error from argparse: exit 2,
# nothing on stdout, the option named on stderr.
UNREAD = [
    ("zeros-format-csv", ["zeros", "--family", "mixed", "--n", "4", "--format", "csv"]),
    ("sweep-format-json", ["sweep", "--family", "mixed", "--n", "4", "--format", "json"]),
    ("locus-format-json", ["locus", "--family", "axis2", "--p", "3", "--format", "json"]),
    ("eval-format-csv", ["eval", "--domain", D22, "--z", "0.1,0.2", "--format", "csv"]),
    ("eval-seed", ["eval", "--domain", D22, "--z", "0.1,0.2", "--seed", "1"]),
    ("locus-tol", ["locus", "--family", "axis2", "--p", "3", "--tol", "1"]),
    ("verify-tol", ["verify", "--suite", "origin-values", "--tol", "1"]),
]


@pytest.mark.parametrize("argv", [row[1] for row in UNREAD], ids=[row[0] for row in UNREAD])
def test_unread_options_are_unrecognized(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "error: unrecognized arguments: " + " ".join(argv[-2:]) + "\n")
