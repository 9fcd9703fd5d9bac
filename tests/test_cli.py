import csv
import io
import json
import math
import subprocess
import sys

import pytest

from bergman.cli import _build_parser, main

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
        ('{"blocks":[{"dim":1,"p":1},{"dim":1,"p":3.5}]}', "hartogs2"),
        ('{"blocks":[{"dim":2,"p":1},{"dim":1,"p":2}]}', "pflate"),
        ('{"blocks":[{"dim":1,"p":2},{"dim":3,"p":1}]}', "mixed_family"),
        ('{"blocks":[{"dim":1,"p":2.5},{"dim":1,"p":2},{"dim":1,"p":2}]}',
         "series_oracle"),
    ]
    for dom, tag in cases:
        dim = sum(b["dim"] for b in json.loads(dom)["blocks"])
        zeros = ",".join(["0"] * dim)
        code, rec = run_json(capsys, ["eval", "--domain", dom, "--z", zeros])
        assert code == 0, dom
        assert rec["formula"] == tag
        assert rec["value"]["re"] > 0.0


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


def test_zeros_uncertifiable_tolerance_exit_4(capsys):
    # a tolerance below float precision defeats certification, so the scan
    # reports no zeros and the simplex predicate (n >= 3) is contradicted
    code = main(["zeros", "--family", "simplex", "--n", "3", "--tol", "1e-30"])
    capsys.readouterr()
    assert code == 4


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
    code = main(["sweep", "--family", "axis1",
                 "--p1", "2..6", "--p2", "fixed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p1,p2,status"
    statuses = [ln.split(",")[2] for ln in lines[1:]]
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


def test_sweep_bad_grid_exit_2(capsys):
    assert main(["sweep", "--family", "axis1", "--p1", "nonsense"]) == 2
    assert main(["sweep", "--family", "axis2"]) == 2  # unsupported family
    capsys.readouterr()


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


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("BERGMAN_SEED", "7")
    args = _build_parser().parse_args(["verify"])
    assert args.seed == 7
    monkeypatch.delenv("BERGMAN_SEED")
    args = _build_parser().parse_args(["verify"])
    assert args.seed == 42


def test_console_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "bergman", "zeros", "--family", "axis1",
         "--p", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["winding_count"] == 2


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
]


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv,code", [row[1:] for row in BAD_INPUTS],
                         ids=[row[0] for row in BAD_INPUTS])
def test_bad_input_exit_codes(argv, code, tmp_path):
    argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "bergman"] + argv,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error:"), proc.stderr
    assert proc.stdout == ""
