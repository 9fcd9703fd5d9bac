"""Command-line front end: evaluate kernels, locate zeros, emit grids, verify.

Commands and exit codes follow a fixed table: 0 success, 2 argument or
parse problems, 3 point outside the domain, 4 a zero report that fails a
check (its winding count differs from its number of zeros, or its zeros
contradict the family's predicate), 5 verification failure.  All numeric
output is printed with 17 significant digits so values round-trip through
text exactly; files are written to a temporary name and renamed, so a
failed run never leaves partial output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .domains import (
    Block,
    DomainSpec,
    diagonal_domain,
    parse_domain_spec,
    volume,
)
from .errors import BergmanError, OutsideDomain
from .jets import jet1_variable
from .kernels import (
    ball_kernel_values,
    deflation_constant,
    deflation_pair,
    disc_profile,
    evaluate,
    fold,
    k2_values,
)
from .oracle import SeriesConfig, reproducing_check, series_kernel
from .zeros import FAMILIES, MAX_RESOLUTION

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OUTSIDE = 3
EXIT_MISMATCH = 4
EXIT_VERIFY = 5

# most values one sweep grid may hold; each is one closed-form threshold test
_MAX_GRID = 1000


class _Usage(Exception):
    pass


# -------------------------------------------------------------- formatting


def _fmt(v: float) -> str:
    return "%.17g" % v


def _to_json(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats, insertion order."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_to_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _complex_record(v: complex) -> dict:
    return {"re": float(v.real), "im": float(v.imag)}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    import tempfile

    directory = os.path.dirname(os.path.abspath(out))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bergman-")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException as e:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError):
            raise _Usage(f"--out: cannot write {out!r} ({e})") from e
        raise


# ----------------------------------------------------------------- parsing


def _parse_point(text: str, expect: int, label: str) -> tuple[complex, ...]:
    toks = [t.strip() for t in text.split(",")]
    try:
        pt = tuple(complex(t) for t in toks)
    except ValueError as e:
        raise _Usage(f"--{label}: cannot parse coordinate ({e})") from e
    if len(pt) != expect:
        raise _Usage(
            f"--{label}: expected {expect} coordinates, got {len(pt)}")
    return pt


def _parse_range(text: str, label: str) -> list[float]:
    """Grid values: '3', 'fixed 3', 'fixed:3', 'A..B', or 'A..B:STEP'."""
    s = text.strip()
    if s.startswith("fixed"):
        s = s[len("fixed"):].lstrip(" :=")
    try:
        if ".." in s:
            left, right = s.split("..", 1)
            step = 1.0
            if ":" in right:
                right, st = right.split(":", 1)
                step = float(st)
            if step <= 0:
                raise ValueError("step must be positive")
            a, b = float(left), float(right)
            if not all(map(math.isfinite, (a, b, step))):
                raise ValueError("bounds and step must be finite")
            if (b - a) / step >= _MAX_GRID:
                raise ValueError(f"more than {_MAX_GRID} values")
            vals = []
            k = 0
            while a + k * step <= b + 1e-9:
                vals.append(a + k * step)
                k += 1
            if not vals:
                raise ValueError("empty range")
            return vals
        return [float(s)]
    except ValueError as e:
        raise _Usage(f"--{label}: bad grid value {text!r} ({e})") from e


# --------------------------------------------------------------- families

def _family(name: str, args):
    """The record of --family name and its --p or --n value (None for k2),
    that value and --res checked."""
    if name not in FAMILIES:
        raise _Usage(f"unknown family {name!r}; pick {', '.join(FAMILIES)}")
    if not 1 <= args.res <= MAX_RESOLUTION:
        raise _Usage(f"--res must lie in 1..{MAX_RESOLUTION}, got {args.res}")
    fam = FAMILIES[name]
    if fam.param is None:
        return fam, None
    value = getattr(args, fam.param)
    (value,) = _family_values(name, fam.param, None if value is None else [value])
    return fam, value


def _family_values(name: str, flag: str, values: list | None) -> list:
    """The values given for the parameter of family name by --flag, each checked."""
    if values is None:
        raise _Usage(f"--family {name} needs --{flag}")
    param = FAMILIES[name].param
    for v in values:
        if param == "p":
            _check_positive(flag, v)
        if param == "n" and not (float(v).is_integer() and v >= 2):
            raise _Usage(f"--{flag} must be an integer >= 2, got {v:g}")
    return values


def _check_positive(flag: str, v: float) -> None:
    if not (v > 0.0 and math.isfinite(v)):
        raise _Usage(f"--{flag} must be finite and > 0, got {_fmt(v)}")


# ------------------------------------------------------------------- eval


def _cmd_eval(args) -> int:
    _check_positive("tol", args.tol)
    d = parse_domain_spec(_read_domain_arg(args.domain))
    z = _parse_point(args.z, d.total_dim, "z")
    w = _parse_point(args.w, d.total_dim, "w") if args.w else z
    kv = evaluate(d, z, w)
    record = {
        "command": "eval",
        "domain": {"blocks": [{"dim": b.dim, "p": b.p} for b in d.blocks]},
        "z": [_complex_record(c) for c in z],
        "w": [_complex_record(c) for c in w],
        "value": _complex_record(kv.value),
        "abs": abs(kv.value),
        "formula": kv.formula,
        "zero_flag": bool(abs(kv.value) < args.tol),
    }
    if args.check_oracle:
        if not d.is_diagonal:
            raise _Usage("--check-oracle needs a diagonal domain")
        ov = series_kernel(d, z, w, SeriesConfig())
        diff = abs(kv.value - ov.value)
        denom = abs(ov.value)
        record["oracle"] = _complex_record(ov.value)
        record["rel_diff"] = diff / denom if denom > 1e-9 else diff
    _emit(_to_json(record) + "\n", args.out)
    return EXIT_OK


def _read_domain_arg(text: str) -> str:
    if text.startswith("@"):
        try:
            with open(text[1:], "r") as handle:
                return handle.read()
        except OSError as e:
            raise _Usage(f"--domain: cannot read {text[1:]!r} ({e})") from e
    return text


# ------------------------------------------------------------------- zeros


def _cmd_zeros(args) -> int:
    fam, value = _family(args.family, args)
    rep = fam.report(value, args.res)
    zeroed = len(rep.zeros) > 0
    record = {"command": "zeros", "family": args.family}
    if fam.param is not None:
        record[fam.param] = value
    record.update(rep.to_json_dict())
    record["zeroed"] = zeroed
    record["predicate_zeroed"] = fam.zeroed(value)
    _emit(_to_json(record) + "\n", args.out)
    certified = (rep.count_by_winding == len(rep.zeros)
                 and zeroed == record["predicate_zeroed"])
    return EXIT_OK if certified else EXIT_MISMATCH


# ------------------------------------------------------------------- locus


def _cmd_locus(args) -> int:
    fam, value = _family(args.family, args)
    lines = ["re_x,im_x,re_y,im_y,re_K,im_K,abs_K"]
    for x, y, k in fam.rows(value, args.res):
        lines.append(",".join(_fmt(v) for v in (
            x.real, x.imag, y.real, y.imag, k.real, k.imag, abs(k))))
    if len(lines) == 1:
        raise _Usage(f"--res {args.res} leaves the {args.family} locus grid empty")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ------------------------------------------------------------------- sweep


def _cmd_sweep(args) -> int:
    swept = [name for name, fam in FAMILIES.items() if fam.param is not None]
    if args.family not in swept:
        raise _Usage(f"sweep supports {', '.join(swept)}; got {args.family!r}")
    fam = FAMILIES[args.family]
    flag = "p1" if fam.param == "p" else "n"
    grid = getattr(args, flag)
    lines = [f"{flag},status"]
    for v in _family_values(args.family, flag, grid and _parse_range(" ".join(grid), flag)):
        label = _fmt(v) if fam.param == "p" else int(v)
        lines.append(f"{label},{'zeroed' if fam.zeroed(v) else 'zero-free'}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ------------------------------------------------------------------ verify


def _suite_deflation(seed: int):
    want = {(2.0, 2.0): math.pi ** 2 / 6.0, (1.0, 3.0): math.pi ** 2 / 4.0}
    for (p, q), expect in want.items():
        got = deflation_constant(p, q)
        yield (f"deflation/constant-{p:g}-{q:g}", got == expect,
               f"got {_fmt(got)}, want {_fmt(expect)}")
    base = diagonal_domain(2.0)
    for p, q in ((2.0, 2.0), (1.0, 3.0)):
        lhs, rhs, _ = deflation_pair(base, p, q)
        worst = 0.0
        for z0, w0 in ((0.3, 0.25), (0.1 + 0.2j, 0.3 - 0.1j)):
            a = lhs((z0,), (w0,))
            b = rhs((z0,), (w0,))
            worst = max(worst, abs(a - b) / abs(b))
        yield f"deflation/identity-{p:g}-{q:g}", worst < 1e-6, f"max rel diff {_fmt(worst)}"


def _suite_origin_values(seed: int):
    for label, dom in (
            ("disc", diagonal_domain(2.0)),
            ("ball-2", DomainSpec((Block(2, 1.0),))),
            ("k2", diagonal_domain(2.0, 2.0)),
            ("slice-2-4", diagonal_domain(2.0, 4.0)),
            ("simplex-3", diagonal_domain(2.0, 2.0, 2.0)),
            ("mixed-4", DomainSpec((Block(1, 2.0), Block(3, 1.0))))):
        origin = (0j,) * dom.total_dim
        err = abs(evaluate(dom, origin, origin).value * volume(dom) - 1.0)
        yield f"origin-values/{label}", err < 1e-12, f"|K(0,0) vol - 1| = {_fmt(err)}"


def _suite_fold_disc(seed: int):
    import numpy as np

    # {|zeta|^(2/p) < 1} is the disc again, so fold(L, p) must be L; radii on
    # both branches of fold (root sum at |t| >= 1e-2, Taylor filter below)
    rng = np.random.default_rng(seed)
    L = disc_profile()
    worst = 0.0
    for p in (2, 3, 5):
        F = fold(L, p)
        for lo, hi in ((1e-2, 0.8), (1e-5, 1e-2)):
            for _ in range(4):
                r = lo + (hi - lo) * rng.random()
                t = r * complex(np.exp(2j * np.pi * rng.random()))
                a = F.eval((), (), jet1_variable(t, 0)).coeffs[0]
                b = L.eval((), (), jet1_variable(t, 0)).coeffs[0]
                worst = max(worst, abs(a - b) / abs(b))
    yield "fold-disc/identity", worst < 1e-12, f"max rel diff {_fmt(worst)}"


def _suite_oracle(seed: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    cfg = SeriesConfig()

    def draw(budget: float, p: float) -> tuple[complex, complex]:
        while True:
            a = rng.random() * complex(np.exp(2j * np.pi * rng.random()))
            b = rng.random() * complex(np.exp(2j * np.pi * rng.random()))
            if math.sqrt(abs(a)) + abs(b) ** (1.0 / p) <= budget:
                return a, b

    for label, p, count in (("k2", 2.0, 4), ("slice-2-4", 4.0, 2)):
        worst = 0.0
        d = diagonal_domain(2.0, p)
        for _ in range(count):
            x, y = draw(0.6, p)
            xr, yr = math.sqrt(abs(x)), math.sqrt(abs(y))
            z = (complex(xr), complex(yr))
            w = ((x / xr).conjugate() if xr else 0j,
                 (y / yr).conjugate() if yr else 0j)
            got = series_kernel(d, z, w, cfg).value
            ref = evaluate(d, z, w).value
            worst = max(worst, abs(got - ref) / abs(ref))
        yield f"oracle/{label}-agreement", worst < 1e-6, f"max rel diff {_fmt(worst)}"


def _suite_reproducing(seed: int):
    import numpy as np

    samples = 200_000
    disc = diagonal_domain(2.0)

    def disc_K(z, pts):
        return ball_kernel_values(1, z[0] * np.conj(pts[:, 0]))

    res = reproducing_check(disc, disc_K, {(0,): 1.0}, (0j,), samples, seed)
    yield ("reproducing/disc-constant",
           res.residual <= max(3.0 * res.stderr, 1e-3) and res.stderr > 0.0,
           f"residual {_fmt(res.residual)}, 3 stderr {_fmt(3.0 * res.stderr)}")

    d22 = diagonal_domain(2.0, 2.0)

    def k2_K(z, pts):
        return k2_values(z[0] * np.conj(pts[:, 0]), z[1] * np.conj(pts[:, 1]))

    res = reproducing_check(d22, k2_K, {(1, 0): 1.0}, (0.2, 0.1), samples, seed)
    yield ("reproducing/k2-linear", res.residual <= max(3.0 * res.stderr, 5e-3),
           f"residual {_fmt(res.residual)}, 3 stderr {_fmt(3.0 * res.stderr)}")


_SUITES = {
    "deflation": _suite_deflation,
    "origin-values": _suite_origin_values,
    "fold-disc": _suite_fold_disc,
    "oracle": _suite_oracle,
    "reproducing": _suite_reproducing,
}


def _cmd_verify(args) -> int:
    if args.suite and args.suite != "all" and args.suite not in _SUITES:
        raise _Usage(
            f"unknown suite {args.suite!r}; pick one of "
            + ", ".join(sorted(_SUITES)) + ", all")
    names = list(_SUITES) if not args.suite or args.suite == "all" \
        else [args.suite]
    results = [check for name in names for check in _SUITES[name](args.seed)]
    lines = [f"[verify] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
             for label, ok, detail in results]
    passed = sum(ok for _, ok, _ in results)
    lines.append(f"[verify] {passed}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if passed == len(results) else EXIT_VERIFY


# -------------------------------------------------------------- dispatcher


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergman",
        description="Bergman kernels of generalized complex ellipsoids: "
                    "evaluation, zero location, grids, verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a kernel at a point pair")
    p.add_argument("--domain", required=True,
                   help="inline JSON {\"blocks\":[{\"dim\":...,\"p\":...}]} or @file")
    p.add_argument("--z", required=True, help="comma-separated coordinates")
    p.add_argument("--w", default=None,
                   help="second point (defaults to --z)")
    p.add_argument("--check-oracle", action="store_true",
                   help="also run the series oracle and report the difference")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="zero_flag marks |K| below this, finite and > 0")
    p.add_argument("--out", default=None, help="output path (atomic write)")

    p = sub.add_parser("zeros", help="locate and certify slice zeros")
    p.add_argument("--family", required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--res", type=int, default=48, help=f"k2 scan grid, 8..{MAX_RESOLUTION}")
    p.add_argument("--out", default=None, help="output path (atomic write)")

    p = sub.add_parser("locus", help="emit |K| over a slice grid as CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--res", type=int, default=64, help=f"points per axis, 1..{MAX_RESOLUTION}")
    p.add_argument("--out", default=None, help="output path (atomic write)")

    p = sub.add_parser("verify", help="run the built-in identity suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--seed", type=int, default=42, help="RNG seed")
    p.add_argument("--out", default=None, help="output path (atomic write)")

    p = sub.add_parser("sweep", help="map zero-free vs zeroed over a grid")
    p.add_argument("--family", required=True)
    p.add_argument("--p1", nargs="+", default=None,
                   help="grid: A..B, A..B:STEP, N, or fixed N")
    p.add_argument("--n", nargs="+", default=None)
    p.add_argument("--out", default=None, help="output path (atomic write)")

    return parser


_HANDLERS = {
    "eval": _cmd_eval,
    "zeros": _cmd_zeros,
    "locus": _cmd_locus,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join --z/--w with values that begin with a minus sign."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in ("--z", "--w") and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and len(argv[i + 1]) > 1
                and argv[i + 1][1] in "0123456789."):
            out.append(tok + "=" + argv[i + 1])
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_merge_negative_values(list(argv)))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except OutsideDomain as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_OUTSIDE
    except (BergmanError, _Usage, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OverflowError, ZeroDivisionError) as e:
        kind = "overflow" if isinstance(e, OverflowError) else "division by zero"
        print(f"error: floating-point {kind} ({e})", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
