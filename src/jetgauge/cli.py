"""Command-line front end: verification suites, tables, and simulations."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextvars import ContextVar
from fractions import Fraction

from . import dynamics, electroweak, jetspace, octonion, pheno, proca, verify
from .octonion import ImOctonion
from .refdata import MODE_CENSUS_REFERENCE
from .report import VerificationReport, dump_json, fmt_float, shown


def _emit(args, payload, lines, code: int = 0) -> int:
    """Print payload as JSON under --format json, else the text lines, to
    --out or stdout; return the exit code."""
    if args.format == "json":
        text = dump_json(payload, getattr(args, "full_precision", False))
    else:
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            print(text, file=fh)
    else:
        print(text)
    return code


def _constants(args) -> pheno.Constants:
    if getattr(args, "constants", None):
        return pheno.Constants.from_json(args.constants)
    return pheno.Constants.defaults()


def cmd_signature(args) -> int:
    p, q = jetspace.signature(args.axes, args.order)
    payload, lines = {"axes": args.axes, "order": args.order, "p": p, "q": q}, [f"({p}, {q})"]
    if args.list:  # the listing is rendered only in the format printed
        entries = ((m.label(args.axes), jetspace.is_timelike(m))
                   for m in jetspace.enumerate_basis(args.axes, args.order))
        if args.format == "json":
            payload["entries"] = [{"monomial": label, "timelike": t} for label, t in entries]
        else:
            lines += [f"  d^{label}  {'-' if t else '+'}" for label, t in entries]
    return _emit(args, payload, lines)


_INDEX_ORDER_NOTE = (
    "1-based indices: 1-4 first-order block (h=0); 5 second-order scalar "
    "class (h=+1); 6-8 second-order t-mixed classes (h=-1); 9-15 third-order "
    "timelike monomials (h=-1); 16-28 third-order spacelike monomials (h=+1)"
)


def cmd_proca_table(args) -> int:
    table = proca.proca_table()
    if args.format == "csv":
        # the csv module's default dialect: CRLF row ends, no quoting for integers
        lines = [",".join(map(str, row)) + "\r" for row in table]
    else:
        width = max(len(str(v)) for row in table for v in row)
        lines = [" ".join(f"{v:>{width}}" for v in row) for row in table]
    return _emit(args, {"dim": 28, "index_order": _INDEX_ORDER_NOTE, "table": table}, lines)


def _parse_sector(text: str) -> tuple[int, int]:
    try:
        a, b = (int(t) for t in text.replace("(", "").replace(")", "").split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sector {text!r}; expected e.g. 2,3") from exc
    return min(a, b), max(a, b)  # (3,2) is the (2,3) block


def cmd_census(args) -> int:
    sectors = [args.sector] if args.sector else sorted(MODE_CENSUS_REFERENCE)
    rows, lines = [], []
    for sector in sectors:
        pos, neg, zero = proca.mode_census(sector)
        ref = MODE_CENSUS_REFERENCE.get(sector)
        rows.append(
            {
                "sector": list(sector),
                "positive": pos,
                "negative": neg,
                "zero": zero,
                "reference": list(ref) if ref else None,
            }
        )
        lines.append(f"sector {tuple(sector)}: positive={pos} negative={neg} zero={zero}"
                     + (f"  reference={ref}" if ref else ""))
    flags = proca.flagged_inconsistencies() if (2, 3) in sectors else []  # its one flag is on (2,3)
    lines += [f"flagged: {f}" for f in flags]
    return _emit(args, {"censuses": rows, "flags": flags}, lines)


def cmd_isotropic(args) -> int:
    builders = {
        "33": proca.isotropic_33_basis,
        "23": proca.isotropic_23_basis,
        "13": proca.isotropic_13_basis,
    }
    basis = builders[args.sector]()
    gram_zero = proca.is_totally_isotropic(basis)
    payload = {
        "sector": list(basis.sector),
        "size": len(basis),
        "gram_identically_zero": gram_zero,
        "vectors": [
            {f"{i},{j}": str(c) for (i, j), c in sorted(v.coeffs.items())}
            for v in basis.vectors
        ],
    }
    if args.sector == "23":
        first = proca.u1y_first_order_variation(basis)
        payload["hypercharge_first_order_invariant"] = not any(
            x for row in first for x in row
        )
        payload["hypercharge_finite_rotation_residual_theta_0.7"] = (
            proca.u1y_finite_rotation_residual(basis, 0.7)
        )
    lines = [f"sector {tuple(basis.sector)}: {len(basis)} vectors, gram zero: {gram_zero}"]
    lines += ["  " + "  ".join(f"X[{k}]*({c})" for k, c in v.items()) for v in payload["vectors"]]
    return _emit(args, payload, lines, 0 if gram_zero else 1)


def cmd_electroweak(args) -> int:
    payload = electroweak.breaking_report()
    return _emit(args, payload, [f"{k}: {v}" for k, v in payload.items()])


def cmd_octonion(args) -> int:
    rep = VerificationReport()
    verify.suite_octonions(rep.suite("octonion algebra and su(3) reduction"), args.seed)
    if args.format == "json":  # a report is rendered only in the format printed
        return _emit(args, rep.to_dict(), (), rep.exit_code)
    return _emit(args, None, [rep.to_text(args.full_precision)], rep.exit_code)


_FIX_CHARS = 100  # per --fix literal, whose exponent has at most two digits


def _parse_im(text: str) -> ImOctonion:
    text = text.strip()
    if text.startswith("e") and text[1:].isdecimal() and len(text) <= _FIX_CHARS:
        return ImOctonion.unit(int(text[1:]))
    shown = repr(text[:20]) + ("..." if len(text) > 20 else "")  # keeps the error line short
    parts = text.split(",")
    # capped before Fraction builds 10**exponent or parses a long integer
    for k, t in enumerate(parts, 1):
        exponent = t.upper().partition("E")[2].strip().lstrip("+-").replace("_", "")
        if len(t) > _FIX_CHARS or len(exponent.lstrip("0")) > 2:
            raise ValueError(f"--fix {shown}: literal {k} is longer than {_FIX_CHARS} "
                             "characters or has an exponent of more than two digits")
    if len(parts) != 7:
        raise ValueError(f"--fix {shown}: expected a unit like e4 or 7 comma-separated rationals")

    def rational(t: str) -> Fraction:
        try:
            return Fraction(t)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--fix {shown}: {t!r} is not a rational number") from None

    return ImOctonion(tuple(map(rational, parts)))


def cmd_su3(args) -> int:
    z = _parse_im(args.fix)
    stab = octonion.stabilizer_su3(z)
    names = [f"A{k}" for k in range(1, 8)] + [f"G{k}" for k in range(1, 8)]
    payload = {
        "fixed_element": [str(c) for c in z.coeffs],
        "dimension": len(stab),
        "basis": [
            {names[i]: str(c) for i, c in enumerate(e.coeffs) if c} for e in stab
        ],
    }
    lines = [f"stabilizer dimension: {len(stab)}"]
    lines += ["  " + "  ".join(f"{k}*({c})" for k, c in row.items()) for row in payload["basis"]]
    return _emit(args, payload, lines)


def cmd_pheno(args) -> int:
    rep = pheno.evaluate(args.what, _constants(args))
    lines = [rep.name]
    for c in rep.checks:
        if c.actual is None:
            continue
        val = fmt_float(c.actual, args.full_precision)
        parts = [f"  {c.name:<34s} {val:<14g} {c.unit}"]
        if c.expected is not None:
            parts.append(
                f" reference={fmt_float(c.expected, args.full_precision):g}"
                f" dev({c.kind})={c.deviation:.2e} [{c.status}]"
            )
        lines.append("".join(parts))
    lines += [f"  flagged: {f}" for f in pheno.flags(rep)]
    return _emit(args, pheno.as_dict(rep), lines, 1 if rep.counts["fail"] else 0)


def _reason(exc: Exception) -> str:
    """str(exc), with an OSError's file name cut by shown: the line stays short."""
    if isinstance(exc, OSError) and exc.filename is not None:
        return f"[Errno {exc.errno}] {exc.strerror}: {shown(exc.filename)}"
    return str(exc)


def _require(cfg: dict, path: str, where: str = ""):
    """The value at dotted `path` in cfg; a ValueError names the key if absent."""
    node = cfg
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            raise ValueError(f"missing key {where}{path}")
        node = node[key]
    return node


# the grids _field_from_config opens during cmd_simulate, which closes them
_run_grids: ContextVar[list] = ContextVar("_run_grids")


def _field_from_config(cfg: dict):
    kind = _require(cfg, "kind", "field.")
    if kind == "uniform_E":
        e = _vector(_require(cfg, "params.E", "field."), "field.params.E", 3)
        return dynamics.ConstantField(dynamics.uniform_electric_f(e))
    if kind == "uniform_B":
        b = _vector(_require(cfg, "params.B", "field."), "field.params.B", 3)
        return dynamics.ConstantField(dynamics.uniform_magnetic_f(b))
    if kind == "grid":
        from . import npz  # here, so that only a request that reads a grid compiles it

        path = _require(cfg, "params.npz", "field.")
        try:
            if not isinstance(path, str):
                raise ValueError(f"expected a path, got {shown(path)}")
            grid = npz.load_grid(path)
        except (OSError, ValueError) as exc:
            raise ValueError(f"field.params.npz: {_reason(exc)}") from exc
        _run_grids.get([]).append(grid)  # outside cmd_simulate the caller owns the grid
        return dynamics.GridFieldStrength(grid)
    raise ValueError(f"unknown field kind {shown(kind)}")


def _number(value, path: str):
    try:
        ok = type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond float range, whose digits are not echoed
        raise ValueError(f"{path} must be a finite number, "
                         "got an integer beyond float range") from None
    if not ok:
        raise ValueError(f"{path} must be a finite number, got {shown(value)}")
    return value


def _vector(value, path: str, n: int) -> list:
    if not isinstance(value, list) or len(value) != n:
        raise ValueError(f"{path} must be a list of {n} finite numbers, got {shown(value)}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _charge_value(cfg: dict) -> float:
    """The value of the Wong charge I = value X_pair in so(dim), from
    particle.I = {dim, pair, value}."""
    dim = _require(cfg, "particle.I.dim")
    pair = _require(cfg, "particle.I.pair")
    value = _number(_require(cfg, "particle.I.value"), "particle.I.value")
    if type(dim) is not int or dim < 2:
        raise ValueError("particle.I.dim must be an integer >= 2")
    if not (
        isinstance(pair, list) and len(pair) == 2 and all(type(k) is int for k in pair)
        and 1 <= pair[0] <= dim and 1 <= pair[1] <= dim and pair[0] != pair[1]
    ):
        raise ValueError(f"particle.I.pair must be two distinct indices in 1..{dim}")
    return float(value)


MAX_STEPS = 5_000_000  # the writer holds the text until the run ends: 0.85 GB of CSV at the cap


def cmd_simulate(args) -> int:
    token = _run_grids.set([])
    try:
        return _simulate(args)
    finally:
        for grid in _run_grids.get():  # the run has ended: no page is read after this
            grid.close()
        _run_grids.reset(token)


def _simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        f_eval = _field_from_config(_require(cfg, "field"))
        x0, u0 = (
            _vector(_require(cfg, f"particle.{k}"), f"particle.{k}", 4) for k in ("x0", "u0")
        )
        m, q = (_number(_require(cfg, f"particle.{k}"), f"particle.{k}") for k in "mq")
        if m <= 0:
            raise ValueError(f"particle.m must be > 0, got {m!r}")
        value = _charge_value(cfg) if "I" in cfg["particle"] else None
        state = dynamics.ParticleState(x0, u0, m, q)
        if not math.isfinite(norm0 := dynamics.eta_norm(state.u)):
            raise ValueError(f"particle.u0 must have a finite eta(u0, u0), got {norm0!r}")
        dlam = _number(_require(cfg, "integrator.dlambda"), "integrator.dlambda")
        if dlam <= 0:
            raise ValueError(f"integrator.dlambda must be > 0, got {dlam!r}")
        steps = _require(cfg, "integrator.steps")
        if type(steps) is not int or steps < 0:
            raise ValueError("integrator.steps must be a non-negative integer")
        if steps > MAX_STEPS:
            raise ValueError(f"integrator.steps is capped at {MAX_STEPS}")
        if dlam * steps > sys.float_info.max:  # else every lambda = k dlam, k <= steps, is finite
            raise ValueError("integrator.dlambda * integrator.steps must be a finite float, "
                             f"got {float(dlam)!r} * {steps}")
        out_cfg = _require(cfg, "output")
        path = _require(cfg, "output.path")
        if not isinstance(path, str):
            raise ValueError("output.path must be a string")
        fmt = out_cfg.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ValueError(f"output.format must be \"csv\" or \"json\", got {shown(fmt)}")
        created = not os.path.lexists(path)
        try:  # a path that cannot be written fails here, not after the run
            open(path, "ab").close()
        except OSError as exc:
            raise ValueError(f"output.path: {_reason(exc)}") from exc
        if created:
            os.remove(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"bad simulate config: {_reason(exc)}", file=sys.stderr)
        return 2

    from . import writer  # here, so that no other request compiles it

    def integrate(emit):
        if value is not None:
            traj = dynamics.integrate_wong(state, f_eval, value, dlam, steps, emit)
        else:
            traj = dynamics.integrate_lorentz(state, f_eval, dlam, steps, emit)
        # before the writer gets the meta: a drift that is not finite (u past
        # about 1e154, whose square overflows) is no JSON number
        if not math.isfinite(drift := traj.meta["eta_drift"]):
            raise FloatingPointError(f"eta(u,u) drift {drift!r} after {steps} steps")
        return traj

    try:
        traj = writer.integrate_and_write(integrate, writer.SampleText(fmt, args.full_precision),
                                          path)
    except FloatingPointError as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return 1
    except dynamics.GridFileError as exc:
        print(f"error: field.params.npz: {exc}", file=sys.stderr)
        return 2
    print(
        f"integrated {len(traj) - 1} steps ({traj.meta['law']}); "
        f"eta(u,u) drift {traj.meta['eta_drift']:.3e}; wrote {path}"
    )
    return 0


def cmd_verify_all(args) -> int:
    rep = verify.build_report(args.seed, _constants(args))
    if args.format == "json":  # as in cmd_octonion
        return _emit(args, rep.to_dict(), (), rep.exit_code)
    return _emit(args, None, [rep.to_text(args.full_precision)], rep.exit_code)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jetgauge",
        description="Exact verification toolkit for jet-space gauge reductions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json"), *, floats=False, seed=False):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", help="write output to this path instead of stdout")
        if floats:
            p.add_argument("--full-precision", action="store_true")
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="seed for randomized property suites")

    p = sub.add_parser("signature", help="jet-space signature (p, q)")
    p.add_argument("--axes", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--list", action="store_true", help="also list the basis")
    common(p)
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("proca-table", help="the 28x28 quadratic-form table")
    common(p, ("text", "csv", "json"))
    p.set_defaults(func=cmd_proca_table)

    p = sub.add_parser("census", help="mode census per sector")
    p.add_argument("--sector", type=_parse_sector, default=None, metavar="A,B")
    common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("isotropic", help="totally isotropic bases and Gram checks")
    p.add_argument("--sector", choices=("33", "23", "13"), default="33")
    common(p, floats=True)
    p.set_defaults(func=cmd_isotropic)

    p = sub.add_parser("electroweak", help="exact symmetry-breaking report")
    common(p, ("json", "text"), floats=True)
    p.set_defaults(func=cmd_electroweak)

    p = sub.add_parser("octonion", help="octonion / g2 / su(3) property battery")
    p.add_argument("action", choices=("verify",))
    common(p, floats=True, seed=True)
    p.set_defaults(func=cmd_octonion)

    p = sub.add_parser("su3", help="stabilizer subalgebra of an imaginary unit")
    p.add_argument("--fix", default="e4", help="e1..e7 or 7 comma-separated rationals")
    common(p, ("json", "text"))
    p.set_defaults(func=cmd_su3)

    p = sub.add_parser("pheno", help="mass scales, consistency numbers, predictions")
    p.add_argument("what", choices=pheno.REPORTS)
    p.add_argument("--constants", help="JSON file with constant overrides")
    common(p, floats=True)
    p.set_defaults(func=cmd_pheno)

    p = sub.add_parser("simulate", help="integrate a trajectory from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--full-precision", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify-all", help="run every exact verification suite")
    p.add_argument("--constants", help="JSON file with constant overrides")
    common(p, floats=True, seed=True)
    p.set_defaults(func=cmd_verify_all)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {_reason(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
