"""Command-line front end: evaluate kernels, locate zeros, emit grids, verify.

Commands and exit codes follow a fixed table: 0 success, 2 argument or
parse problems, 3 point outside the domain, 4 zero-predicate mismatch,
5 verification failure.  All numeric output is printed with 17 significant
digits so values round-trip through text exactly; files are written to a
temporary name and renamed, so a failed run never leaves partial output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from .domains import (
    Block,
    DomainSpec,
    contains,
    diagonal_domain,
    parse_domain_spec,
    volume,
)
from .errors import (
    ContourThroughZero,
    NoConvergence,
    OutsideDomain,
    PreconditionViolated,
    SchemaError,
    UnsupportedDomain,
)
from .jets import jet1_variable
from .kernels import (
    KernelPoint,
    ball_kernel,
    deflation_constant,
    deflation_pair,
    disc_kernel_values,
    disc_profile,
    evaluate,
    fold,
    general_folded_kernel,
    k2_closed_form,
    k2_values,
    mixed_family_kernel,
    slice_kernel_kp,
)
from .oracle import SeriesConfig, reproducing_check, series_kernel
from .zeros import (
    axis1_slice,
    axis1_zero_locus,
    axis2_slice,
    axis2_zero_locus,
    grid_zero_scan,
    k2_pair_slice,
    mixed_slice,
    simplex_slice,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OUTSIDE = 3
EXIT_MISMATCH = 4
EXIT_VERIFY = 5

_LOCUS_SPAN = 0.95
_K2_GRID_MARGIN = 0.12
# most values one sweep grid may hold; each one costs a full zero scan
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

# family -> (parameter, slice at a parameter value, does the family have
# zeros at that value); k2 takes no parameter.  The lambdas look the
# constructors up at call time, so a rebound module attribute is seen.
_FAMILIES = {
    "axis1": ("p", lambda p: axis1_slice(p), lambda p: p > 2.0),
    "axis2": ("p", lambda p: axis2_slice(p), lambda p: p > 2.0),
    "simplex": ("n", lambda n: simplex_slice(n), lambda n: n >= 3),
    "mixed": ("n", lambda n: mixed_slice(n), lambda n: n >= 4),
    "k2": (None, lambda _: k2_pair_slice(), lambda _: False),
}


def _family(fam: str, args):
    """Table entry of fam and its parameter value from --p or --n, checked."""
    if fam not in _FAMILIES:
        raise _Usage(f"unknown family {fam!r}; pick axis1, axis2, simplex, mixed, k2")
    param, make, zeroed = _FAMILIES[fam]
    if param is None:
        return param, make, zeroed, None
    value = getattr(args, param)
    (value,) = _family_values(fam, param, None if value is None else [value])
    return param, make, zeroed, value


def _family_values(fam: str, flag: str, values: list | None) -> list:
    """The values given for fam's parameter by --flag, each checked."""
    if values is None:
        raise _Usage(f"--family {fam} needs --{flag}")
    param = _FAMILIES[fam][0]
    for v in values:
        if param == "p" and not (v > 0.0 and math.isfinite(v)):
            raise _Usage(f"--{flag} must be finite and > 0, got {_fmt(v)}")
        if param == "n" and v < 2:
            raise _Usage(f"--{flag} must be >= 2, got {v}")
    return values


# ------------------------------------------------------------------- eval


def _cmd_eval(args) -> int:
    d = parse_domain_spec(_read_domain_arg(args.domain))
    z = _parse_point(args.z, d.total_dim, "z")
    w = _parse_point(args.w, d.total_dim, "w") if args.w else z
    for label, pt in (("z", z), ("w", w)):
        if not contains(d, pt):
            raise OutsideDomain(f"--{label} point lies outside the domain")
    kv = evaluate(d, z, w)
    tol = args.tol if args.tol is not None else 1e-6
    record = {
        "command": "eval",
        "domain": {"blocks": [{"dim": b.dim, "p": b.p} for b in d.blocks]},
        "z": [_complex_record(c) for c in z],
        "w": [_complex_record(c) for c in w],
        "value": _complex_record(kv.value),
        "abs": abs(kv.value),
        "formula": kv.formula,
        "zero_flag": bool(abs(kv.value) < tol),
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


def _zeros_report(args):
    fam = args.family
    param, make, zeroed, value = _family(fam, args)
    if fam == "axis1":
        rep = axis1_zero_locus(value)
    elif fam == "axis2":
        rep = axis2_zero_locus(value)
    else:
        rep = grid_zero_scan(make(value), args.res, tol=args.tol)
    return rep, zeroed(value), {} if param is None else {param: value}


def _cmd_zeros(args) -> int:
    rep, predicate, params = _zeros_report(args)
    zeroed = len(rep.zeros) > 0
    record = {"command": "zeros", "family": args.family}
    record.update(params)
    record.update(rep.to_json_dict())
    record["zeroed"] = zeroed
    record["predicate_zeroed"] = predicate
    _emit(_to_json(record) + "\n", args.out)
    return EXIT_OK if zeroed == predicate else EXIT_MISMATCH


# ------------------------------------------------------------------- locus


def _locus_rows(args):
    """Rows (x, y, K) over the family's slice grid, row-major, deterministic."""
    fam = args.family
    res = args.res
    _, make, _, value = _family(fam, args)
    if res < 1:
        raise _Usage(f"--res must be >= 1, got {res}")
    if fam in ("axis1", "simplex", "mixed"):
        slc = make(value)
        side = np.linspace(-_LOCUS_SPAN, _LOCUS_SPAN, res)
        for re_t in side:
            for im_t in side:
                t = complex(re_t, im_t)
                yield t, 0j, complex(slc.eval(t))
        return
    if fam == "axis2":
        slc = make(value)
        for y in np.linspace(-_LOCUS_SPAN, _LOCUS_SPAN, res):
            yield 0j, complex(y), complex(slc.eval(complex(y)))
        return
    if fam == "k2":
        # signed radius grid; the admissibility filter keeps K2 off its poles
        rmax = 1.0 - _K2_GRID_MARGIN
        side = np.linspace(rmax / res, rmax, res)
        vals = np.concatenate([-side[::-1], side])
        for x in vals:
            ys = vals[np.sqrt(abs(x)) + np.sqrt(np.abs(vals)) < 1.0 - 1e-9]
            if ys.size == 0:
                continue
            kvals = k2_values(np.full(ys.shape, x, dtype=complex),
                              ys.astype(complex))
            for y, k in zip(ys, kvals):
                yield complex(x), complex(y), complex(k)


def _cmd_locus(args) -> int:
    if args.format == "json":
        raise _Usage("locus emits CSV; drop --format json")
    lines = ["re_x,im_x,re_y,im_y,re_K,im_K,abs_K"]
    for x, y, k in _locus_rows(args):
        lines.append(",".join(_fmt(v) for v in (
            x.real, x.imag, y.real, y.imag, k.real, k.imag, abs(k))))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ------------------------------------------------------------------- sweep


def _sweep_status(slc, res: int, tol: float) -> str:
    try:
        rep = grid_zero_scan(slc, res, tol=tol)
    except (NoConvergence, ContourThroughZero):
        return "unknown"
    return "zeroed" if rep.zeros else "zero-free"


def _cmd_sweep(args) -> int:
    fam = args.family
    res = args.res
    tol = args.tol if args.tol is not None else 1e-9
    if fam not in ("axis1", "simplex", "mixed"):
        raise _Usage(f"sweep supports axis1, simplex, mixed; got {fam!r}")
    make = _FAMILIES[fam][1]
    lines = []
    if fam == "axis1":
        p1s = _family_values(fam, "p1", args.p1 and _parse_range(" ".join(args.p1), "p1"))
        p2s = _parse_range(" ".join(args.p2), "p2") if args.p2 else [1.0]
        lines.append("p1,p2,status")
        for p1 in p1s:
            for p2 in p2s:
                status = _sweep_status(make(p1), res, tol)
                lines.append(f"{_fmt(p1)},{_fmt(p2)},{status}")
    else:
        ns = _family_values(fam, "n", args.n and [
            int(round(v)) for v in _parse_range(" ".join(args.n), "n")])
        lines.append("n,status")
        for n in ns:
            lines.append(f"{n},{_sweep_status(make(n), res, tol)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ------------------------------------------------------------------ verify


def _check(label: str, ok: bool, detail: str, results: list) -> None:
    results.append((label, ok, detail))


def _suite_deflation(seed: int, results: list) -> None:
    want = {(2.0, 2.0): math.pi ** 2 / 6.0, (1.0, 3.0): math.pi ** 2 / 4.0}
    for (p, q), expect in want.items():
        got = deflation_constant(p, q)
        _check(f"deflation/constant-{p:g}-{q:g}", got == expect,
               f"got {_fmt(got)}, want {_fmt(expect)}", results)
    base = diagonal_domain(2.0)
    for p, q in ((2.0, 2.0), (1.0, 3.0)):
        lhs, rhs, _ = deflation_pair(base, p, q)
        worst = 0.0
        for z0, w0 in ((0.3, 0.25), (0.1 + 0.2j, 0.3 - 0.1j)):
            a = lhs((z0,), (w0,))
            b = rhs((z0,), (w0,))
            worst = max(worst, abs(a - b) / abs(b))
        _check(f"deflation/identity-{p:g}-{q:g}", worst < 1e-6,
               f"max rel diff {_fmt(worst)}", results)


def _suite_origin_values(seed: int, results: list) -> None:
    cases = [
        ("disc", ball_kernel(1, (0j,), (0j,)).value, diagonal_domain(2.0)),
        ("ball-2", ball_kernel(2, (0j, 0j), (0j, 0j)).value,
         DomainSpec((Block(2, 1.0),))),
        ("k2", k2_closed_form(0j, 0j).value, diagonal_domain(2.0, 2.0)),
        ("slice-2-4", slice_kernel_kp(4.0, 0j, 0j).value,
         diagonal_domain(2.0, 4.0)),
        ("simplex-3", general_folded_kernel(
            [2, 2], 2.0, KernelPoint((0j, 0j, 0j), (0j, 0j, 0j))).value,
         diagonal_domain(2.0, 2.0, 2.0)),
        ("mixed-4", mixed_family_kernel(
            4, (0j,) * 4, (0j,) * 4).value,
         DomainSpec((Block(1, 2.0), Block(3, 1.0)))),
    ]
    for label, value, dom in cases:
        err = abs(value * volume(dom) - 1.0)
        _check(f"origin-values/{label}", err < 1e-12,
               f"|K(0,0) vol - 1| = {_fmt(err)}", results)


def _suite_fold_disc(seed: int, results: list) -> None:
    rng = np.random.default_rng(seed)
    L = disc_profile()
    F = fold(L, 1)
    worst = 0.0
    for _ in range(8):
        t = 0.8 * math.sqrt(rng.random()) * complex(np.exp(2j * np.pi * rng.random()))
        a = F.eval((), (), jet1_variable(t, 0)).coeffs[0]
        b = L.eval((), (), jet1_variable(t, 0)).coeffs[0]
        worst = max(worst, abs(a - b) / abs(b))
    _check("fold-disc/identity", worst < 1e-12,
           f"max rel diff {_fmt(worst)}", results)


def _suite_oracle(seed: int, results: list) -> None:
    rng = np.random.default_rng(seed)
    cfg = SeriesConfig()

    def draw(budget: float, p: float) -> tuple[complex, complex]:
        while True:
            a = rng.random() * complex(np.exp(2j * np.pi * rng.random()))
            b = rng.random() * complex(np.exp(2j * np.pi * rng.random()))
            if math.sqrt(abs(a)) + abs(b) ** (1.0 / p) <= budget:
                return a, b

    for label, p, count, closed in (
            ("k2", 2.0, 4, k2_closed_form),
            ("slice-2-4", 4.0, 2, lambda x, y: slice_kernel_kp(4.0, x, y))):
        worst = 0.0
        d = diagonal_domain(2.0, p)
        for _ in range(count):
            x, y = draw(0.6, p)
            xr, yr = math.sqrt(abs(x)), math.sqrt(abs(y))
            z = (complex(xr), complex(yr))
            w = ((x / xr).conjugate() if xr else 0j,
                 (y / yr).conjugate() if yr else 0j)
            got = series_kernel(d, z, w, cfg).value
            ref = closed(z[0] * w[0].conjugate(), z[1] * w[1].conjugate()).value
            worst = max(worst, abs(got - ref) / abs(ref))
        _check(f"oracle/{label}-agreement", worst < 1e-6,
               f"max rel diff {_fmt(worst)}", results)


def _suite_reproducing(seed: int, results: list) -> None:
    samples = 200_000
    disc = diagonal_domain(2.0)

    def disc_K(z, pts):
        return disc_kernel_values(z[0] * np.conj(pts[:, 0]))

    res = reproducing_check(disc, disc_K, {(0,): 1.0}, (0j,), samples, seed)
    ok = float(res) <= max(3.0 * res.stderr, 1e-3) and res.stderr > 0.0
    _check("reproducing/disc-constant", ok,
           f"residual {_fmt(float(res))}, 3 stderr {_fmt(3.0 * res.stderr)}",
           results)

    d22 = diagonal_domain(2.0, 2.0)

    def k2_K(z, pts):
        return k2_values(z[0] * np.conj(pts[:, 0]), z[1] * np.conj(pts[:, 1]))

    res = reproducing_check(d22, k2_K, {(1, 0): 1.0}, (0.2, 0.1), samples, seed)
    ok = float(res) <= max(3.0 * res.stderr, 5e-3)
    _check("reproducing/k2-linear", ok,
           f"residual {_fmt(float(res))}, 3 stderr {_fmt(3.0 * res.stderr)}",
           results)


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
    results: list[tuple[str, bool, str]] = []
    for name in names:
        _SUITES[name](args.seed, results)
    failures = 0
    for label, ok, detail in results:
        mark = "PASS" if ok else "FAIL"
        print(f"[verify] {label}: {mark} ({detail})")
        failures += 0 if ok else 1
    print(f"[verify] {len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# -------------------------------------------------------------- dispatcher


def _build_parser() -> argparse.ArgumentParser:
    seed_default = int(os.environ.get("BERGMAN_SEED", "42"))
    parser = argparse.ArgumentParser(
        prog="bergman",
        description="Bergman kernels of generalized complex ellipsoids: "
                    "evaluation, zero location, grids, verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default):
        p.add_argument("--seed", type=int, default=seed_default,
                       help="RNG seed (env BERGMAN_SEED overrides the default)")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance override")
        p.add_argument("--out", default=None, help="output path (atomic write)")
        p.add_argument("--format", choices=("json", "csv"), default=fmt_default)

    p = sub.add_parser("eval", help="evaluate a kernel at a point pair")
    p.add_argument("--domain", required=True,
                   help="inline JSON {\"blocks\":[{\"dim\":...,\"p\":...}]} or @file")
    p.add_argument("--z", required=True, help="comma-separated coordinates")
    p.add_argument("--w", default=None,
                   help="second point (defaults to --z)")
    p.add_argument("--check-oracle", action="store_true",
                   help="also run the series oracle and report the difference")
    common(p, "json")

    p = sub.add_parser("zeros", help="locate and certify slice zeros")
    p.add_argument("--family", required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--res", type=int, default=48)
    common(p, "json")
    p.set_defaults(tol=1e-9)

    p = sub.add_parser("locus", help="emit |K| over a slice grid as CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--res", type=int, default=64)
    common(p, "csv")

    p = sub.add_parser("verify", help="run the built-in identity suites")
    p.add_argument("--suite", default="all")
    common(p, "json")

    p = sub.add_parser("sweep", help="map zero-free vs zeroed over a grid")
    p.add_argument("--family", required=True)
    p.add_argument("--p1", nargs="+", default=None,
                   help="grid: A..B, A..B:STEP, N, or fixed N")
    p.add_argument("--p2", nargs="+", default=None)
    p.add_argument("--n", nargs="+", default=None)
    p.add_argument("--res", type=int, default=32)
    common(p, "csv")

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
    except _Usage as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemaError, UnsupportedDomain, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OutsideDomain as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_OUTSIDE
    except (NoConvergence, PreconditionViolated, ContourThroughZero) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
