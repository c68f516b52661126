"""Command-line front end: verification suites, tables, and simulations."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import dynamics, electroweak, jetspace, octonion, pheno, proca, verify
from .octonion import ImOctonion
from .refdata import MODE_CENSUS_REFERENCE
from .report import VerificationReport, dump_json, fmt_float


def _emit(text: str, args) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _constants(args) -> pheno.Constants:
    if getattr(args, "constants", None):
        return pheno.Constants.from_json(args.constants)
    return pheno.Constants.defaults()


def cmd_signature(args) -> int:
    p, q = jetspace.signature(args.axes, args.order)
    if args.format == "json":
        payload = {"axes": args.axes, "order": args.order, "p": p, "q": q}
        if args.list:
            basis = jetspace.enumerate_basis(args.axes, args.order)
            payload["entries"] = [
                {"monomial": m.label(args.axes), "timelike": jetspace.is_timelike(m)}
                for m in basis.entries
            ]
        _emit(dump_json(payload), args)
    else:
        lines = [f"({p}, {q})"]
        if args.list:
            basis = jetspace.enumerate_basis(args.axes, args.order)
            for m in basis.entries:
                tag = "-" if jetspace.is_timelike(m) else "+"
                lines.append(f"  d^{m.label(args.axes)}  {tag}")
        _emit("\n".join(lines), args)
    return 0


_INDEX_ORDER_NOTE = (
    "1-based indices: 1-4 first-order block (h=0); 5 second-order scalar "
    "class (h=+1); 6-8 second-order t-mixed classes (h=-1); 9-15 third-order "
    "timelike monomials (h=-1); 16-28 third-order spacelike monomials (h=+1)"
)


def cmd_proca_table(args) -> int:
    table = proca.proca_table()
    if args.format == "json":
        _emit(dump_json({"dim": 28, "index_order": _INDEX_ORDER_NOTE, "table": table}), args)
    elif args.format == "csv":
        # the csv module's default dialect: CRLF row ends, no quoting for integers
        _emit("".join(",".join(map(str, row)) + "\r\n" for row in table).rstrip("\n"), args)
    else:
        width = max(len(str(v)) for row in table for v in row)
        _emit("\n".join(" ".join(f"{v:>{width}}" for v in row) for row in table), args)
    return 0


def _parse_sector(text: str) -> tuple[int, int]:
    try:
        a, b = (int(t) for t in text.replace("(", "").replace(")", "").split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sector {text!r}; expected e.g. 2,3") from exc
    return a, b


def cmd_census(args) -> int:
    sectors = [args.sector] if args.sector else sorted(MODE_CENSUS_REFERENCE)
    rows = []
    for sector in sectors:
        pos, neg, zero = proca.mode_census(sector)
        ref = MODE_CENSUS_REFERENCE.get(tuple(sector))
        rows.append(
            {
                "sector": list(sector),
                "positive": pos,
                "negative": neg,
                "zero": zero,
                "reference": list(ref) if ref else None,
            }
        )
    flags = proca.flagged_inconsistencies()[:1]
    if args.format == "json":
        _emit(dump_json({"censuses": rows, "flags": flags}), args)
    else:
        lines = []
        for r in rows:
            ref = f"  reference={tuple(r['reference'])}" if r["reference"] else ""
            lines.append(
                f"sector {tuple(r['sector'])}: positive={r['positive']} "
                f"negative={r['negative']} zero={r['zero']}{ref}"
            )
        for f in flags:
            lines.append(f"flagged: {f}")
        _emit("\n".join(lines), args)
    return 0


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
    if args.format == "json":
        _emit(dump_json(payload, args.full_precision), args)
    else:
        lines = [
            f"sector {tuple(payload['sector'])}: {payload['size']} vectors, "
            f"gram zero: {gram_zero}"
        ]
        for v in payload["vectors"]:
            lines.append("  " + "  ".join(f"X[{k}]*({c})" for k, c in v.items()))
        _emit("\n".join(lines), args)
    return 0 if gram_zero else 1


def cmd_electroweak(args) -> int:
    payload = electroweak.breaking_report()
    if args.format == "text":
        lines = [f"{k}: {v}" for k, v in payload.items()]
        _emit("\n".join(lines), args)
    else:
        _emit(dump_json(payload, args.full_precision), args)
    return 0


def _emit_report(rep, args) -> int:
    text = rep.to_text(args.full_precision) if args.format == "text" else dump_json(
        rep.to_dict(), args.full_precision
    )
    _emit(text, args)
    return rep.exit_code


def cmd_octonion(args) -> int:
    rep = VerificationReport()
    verify.suite_octonions(rep.suite("octonion algebra and su(3) reduction"), args.seed)
    return _emit_report(rep, args)


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
    if args.format == "text":
        lines = [f"stabilizer dimension: {len(stab)}"]
        for row in payload["basis"]:
            lines.append("  " + "  ".join(f"{k}*({c})" for k, c in row.items()))
        _emit("\n".join(lines), args)
    else:
        _emit(dump_json(payload), args)
    return 0


def cmd_pheno(args) -> int:
    k = _constants(args)
    rep = pheno.evaluate(args.what, k)
    if args.format == "json":
        _emit(dump_json(pheno.as_dict(rep), args.full_precision), args)
    else:
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
        for f in pheno.flags(rep):
            lines.append(f"  flagged: {f}")
        _emit("\n".join(lines), args)
    return 1 if rep.counts["fail"] else 0


def _require(cfg: dict, path: str, where: str = ""):
    """The value at dotted `path` in cfg; a ValueError names the key if absent."""
    node = cfg
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            raise ValueError(f"missing key {where}{path}")
        node = node[key]
    return node


def _field_from_config(cfg: dict):
    kind = _require(cfg, "kind", "field.")
    if kind == "uniform_E":
        e = _vector(_require(cfg, "params.E", "field."), "field.params.E", 3)
        f = dynamics.uniform_electric_f(e)
        return lambda x: f
    if kind == "uniform_B":
        b = _vector(_require(cfg, "params.B", "field."), "field.params.B", 3)
        f = dynamics.uniform_magnetic_f(b)
        return lambda x: f
    if kind == "grid":
        path = _require(cfg, "params.npz", "field.")
        try:
            if not isinstance(path, str):
                raise ValueError(f"expected a path, got {path!r}")
            grid = dynamics.GridMetricField.from_npz(path)
        except (OSError, ValueError) as exc:
            raise ValueError(f"field.params.npz: {exc}") from exc
        return dynamics.grid_field_strength_evaluator(grid)
    raise ValueError(f"unknown field kind {kind!r}")


def _number(value, path: str):
    try:
        ok = type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int beyond float range, whose digits are not echoed
        raise ValueError(f"{path} must be a finite number, "
                         "got an integer beyond float range") from None
    if not ok:
        raise ValueError(f"{path} must be a finite number, got {value!r}")
    return value


def _vector(value, path: str, n: int) -> list:
    if not isinstance(value, list) or len(value) != n:
        raise ValueError(f"{path} must be a list of {n} finite numbers, got {value!r}")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _charge_generator(cfg: dict) -> tuple[dynamics.SoElement, float]:
    """(X_ij in so(dim), charge value) from particle.I = {dim, pair, value}."""
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
    i, j = pair
    return dynamics.SoElement(dim, {(i - 1, j - 1): 1.0, (j - 1, i - 1): -1.0}), float(value)


MAX_STEPS = 5_000_000  # the sample table holds (steps + 1) x 9 doubles: 360 MB at the cap


def cmd_simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        f_eval = _field_from_config(_require(cfg, "field"))
        x0, u0 = (
            _vector(_require(cfg, f"particle.{k}"), f"particle.{k}", 4) for k in ("x0", "u0")
        )
        m, q = (_number(_require(cfg, f"particle.{k}"), f"particle.{k}") for k in "mq")
        gen = charge = None
        if cfg["particle"].get("I"):
            gen, value = _charge_generator(cfg)
            charge = dynamics.SoElement(gen.dim, {k: value * x for k, x in gen.entries.items()})
        state = dynamics.ParticleState(x0, u0, m, q, charge)
        dlam = _number(_require(cfg, "integrator.dlambda"), "integrator.dlambda")
        if dlam <= 0:
            raise ValueError(f"integrator.dlambda must be > 0, got {dlam!r}")
        steps = _require(cfg, "integrator.steps")
        if type(steps) is not int or steps < 0:
            raise ValueError("integrator.steps must be a non-negative integer")
        if steps > MAX_STEPS:
            raise ValueError(f"integrator.steps is capped at {MAX_STEPS}")
        out_cfg = _require(cfg, "output")
        path = _require(cfg, "output.path")
        if not isinstance(path, str):
            raise ValueError("output.path must be a string")
        fmt = out_cfg.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ValueError(f"output.format must be \"csv\" or \"json\", got {fmt!r}")
        created = not os.path.lexists(path)
        try:  # a path that cannot be written fails here, not after the run
            open(path, "ab").close()
        except OSError as exc:
            raise ValueError(f"output.path: {exc}") from exc
        if created:
            os.remove(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"bad simulate config: {exc}", file=sys.stderr)
        return 2

    from . import writer  # here, so that no other request compiles it

    def integrate(emit):
        if gen is not None:
            return dynamics.integrate_wong(state, f_eval, gen, dlam, steps, emit)
        return dynamics.integrate_lorentz(state, f_eval, dlam, steps, emit)

    try:
        traj = writer.integrate_and_write(integrate, writer.SampleText(fmt, args.full_precision),
                                          path)
    except FloatingPointError as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return 1
    print(
        f"integrated {len(traj) - 1} steps ({traj.meta['law']}); "
        f"eta(u,u) drift {traj.meta['eta_drift']:.3e}; wrote {path}"
    )
    return 0


def cmd_verify_all(args) -> int:
    return _emit_report(verify.build_report(args.seed, _constants(args)), args)


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
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
