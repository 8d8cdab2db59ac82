"""Command line interface.

Usage examples:

    sigmaring canon "[z y x]"
    sigmaring power -t 2 -l 3
    sigmaring sigma-tr -t 1 -r 1 --json
    sigmaring amitsur -t 2 "[a] + 2*[b]"
    sigmaring lin -d 1 "s2[x1]"
    sigmaring cycles -t 1 -r 1
    sigmaring dp -n 4 -r 1
    sigmaring bpf -t 1 -r 1 --seed 7 --field fp:5
    sigmaring relations -n 2 -d 2 --limit 50 --verify randomized --out certs.json
    sigmaring verify certs.json
    sigmaring eval "s2[x] - tr[x y]" --assign matrices.json

Exit status: 0 on success, 1 when a verification is falsified, 2 on usage
errors.  Polynomials print in canonical text form, or as JSON with --json.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from .matrices import EvalContext, field_of, matrix_from_json_obj, random_matrix
from .quiver import Quiver
from .relations import (
    _check_exact_size,
    _check_gl_degree,
    certificate,
    gl_relation_generators,
    list_relations,
    o_relation_generators,
    poly_degree,
    read_certificates,
    replay_certificate,
    verify_exact,
    verify_randomized,
    write_certificates,
)
from .ring import lin, normalize, parse_poly, poly_json_obj, poly_text, power_reduce
from .sigmatr import _check_degree, sigma_tr
from .tableau import bpf, build_T
from .words import Naming, canonicalize, parse_lincomb, parse_word, word_text


def _field_arg(text: str):
    if text in ("Q", "q"):
        return "Q"
    if text.lower().startswith("fp:"):
        try:
            return field_of(int(text.split(":", 1)[1]))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an odd prime field")
    raise argparse.ArgumentTypeError(f"field must be Q or fp:<prime>, got {text!r}")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _emit_poly(p, naming: Naming, args) -> None:
    if args.json:
        print(json.dumps(poly_json_obj(p, naming)))
    else:
        print(poly_text(p, naming))


def cmd_canon(args) -> int:
    naming = Naming.scan(args.word)
    root, power = canonicalize(parse_word(args.word, naming))
    if args.json:
        print(json.dumps({"word": word_text(root, naming)[1:-1], "power": power}))
    else:
        tail = "" if power == 1 else f" ^ {power}"
        print(word_text(root, naming) + tail)
    return 0


def cmd_cycles(args) -> int:
    _check_degree(args.t + 2 * args.r)
    q = Quiver(1, 1, 1)
    naming = Naming.xyz(1, 1, 1)
    cycles = q.closed_cycles({1: args.t, 2: args.r, 3: args.r})
    if args.json:
        print(
            json.dumps(
                {
                    "cycles": [
                        {
                            "word": word_text(c.word, naming)[1:-1],
                            "mdeg": list(c.mdeg),
                            "deg_y": c.deg_y,
                            "deg_z": c.deg_z,
                        }
                        for c in cycles
                    ]
                }
            )
        )
    else:
        for c in cycles:
            print(f"{word_text(c.word, naming)}  mdeg={c.mdeg} deg_y={c.deg_y} deg_z={c.deg_z}")
    return 0


def cmd_amitsur(args) -> int:
    naming = Naming.scan(args.expr)
    arg = parse_lincomb(args.expr, naming)
    if arg:  # normalize refuses an empty combination itself
        _check_gl_degree(args.t, tuple(arg.terms))
    _emit_poly(normalize(args.t, arg), naming, args)
    return 0


# power_reduce takes 0.25-0.47 s at t * l = 28 and grows steeply past it.
POWER_GUARD = 28


def cmd_power(args) -> int:
    if args.t > 0 and args.l > 0 and args.t * args.l > POWER_GUARD:
        raise ValueError(f"t * l = {args.t * args.l} exceeds guard {POWER_GUARD}")
    _emit_poly(power_reduce(args.t, args.l), Naming.single("a"), args)
    return 0


def cmd_sigma_tr(args) -> int:
    _emit_poly(sigma_tr(args.t, args.r), Naming.xyz(1, 1, 1), args)
    return 0


def cmd_lin(args) -> int:
    naming = Naming.generic(args.d)
    p = parse_poly(args.poly, naming)
    out = lin(p, args.d)
    top = max((lt.index for m in out.monomials for g in m for lt in g.cycle), default=args.d)
    _emit_poly(out, Naming.generic(top), args)
    return 0


def cmd_dp(args) -> int:
    t = args.n - 2 * args.r
    if t < 0:
        raise ValueError("need 0 <= 2r <= n")
    _emit_poly(sigma_tr(t, args.r), Naming.xyz(1, 1, 1), args)
    return 0


def cmd_bpf(args) -> int:
    T = build_T(args.t, args.r, multilinear=args.multilinear)
    n = T.n
    mats = {
        lab: random_matrix(n, args.seed + lab, field=args.field)
        for lab in sorted(T.labels())
    }
    value = bpf(T, mats, form=args.form)
    if args.json:
        print(json.dumps({"n": n, "seed": args.seed, "value": str(value)}))
    else:
        print(value)
    return 0


def cmd_relations(args) -> int:
    if args.verify == "exact":
        _check_exact_size(args.n, args.d)
    if args.verify is None:
        gen = list_relations(args.kind, args.n, args.d, args.max_deg, args.max_word_len)
    elif args.kind == "o":
        gen = o_relation_generators(args.n, args.d, args.max_deg, args.max_word_len)
    else:
        gen = gl_relation_generators(args.n, args.d, args.max_deg, args.max_word_len)
    if args.limit:
        gen = itertools.islice(gen, args.limit)

    certs = []
    falsified = 0
    skipped = 0
    count = 0
    for rel in gen:
        count += 1
        if args.verify is None:
            print(rel.describe())
            continue
        if args.verify == "randomized":
            ok = verify_randomized(
                rel.poly, args.n, args.d, args.trials, args.seed, args.field
            )
            extra = {
                "trials": args.trials,
                "seed": args.seed,
                "field": "Q" if args.field == "Q" else f"fp:{args.field}",
            }
        else:
            try:
                ok = verify_exact(rel.poly, args.n, args.d)
            except ValueError as e:
                print(f"SKIPPED   {rel.describe()}  ({e})")
                skipped += 1
                continue
            extra = {}
        if args.out:  # only a certificate file reads them
            certs.append(certificate(rel, args.verify, ok, **extra))
        status = "VERIFIED " if ok else "FALSIFIED"
        print(f"{status} {rel.describe()}  degree={poly_degree(rel.poly)}")
        if not ok:
            falsified += 1
    if args.verify is not None:
        note = f", {skipped} skipped" if skipped else ""
        print(f"{count} relations, {falsified} falsified{note}")
    if args.out:
        write_certificates(certs, args.out)
        print(f"wrote {len(certs)} certificates to {args.out}")
    return 1 if falsified else 0


def cmd_verify(args) -> int:
    bad = 0
    for cert in read_certificates(args.certs):
        ok = replay_certificate(cert)
        match = ok == cert["verified"]
        print(("OK       " if match else "MISMATCH ") + json.dumps(cert["words"]))
        if not match:
            bad += 1
    return 1 if bad else 0


def cmd_eval(args) -> int:
    with open(args.assign) as fh:
        data = json.load(fh)
    if not (isinstance(data, dict) and isinstance(data.get("assign"), dict)):
        raise ValueError("an assignment file is an object with an assign map")
    naming = Naming.scan(args.poly)
    p = parse_poly(args.poly, naming)
    mats = {}
    for name, obj in data["assign"].items():
        entries = {"n": data["n"], "field": data.get("field", "Q"), "entries": obj}
        if "p" in data:
            entries["p"] = data["p"]
        mats[naming.index(name)] = matrix_from_json_obj(entries)
    value = EvalContext(mats).eval_poly(p)
    if args.json:
        print(json.dumps({"value": str(value)}))
    else:
        print(value)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  A subcommand records the name
    of its command function, which main looks up at call time."""
    ap = argparse.ArgumentParser(
        prog="sigmaring", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, json_output=True, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn.__name__)
        if json_output:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("canon", cmd_canon, help="canonical form of a word")
    p.add_argument("word")

    p = add("cycles", cmd_cycles, help="closed-path classes within a degree budget")
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-r", type=int, required=True)

    p = add("amitsur", cmd_amitsur, help="expand s_t of a sum of words")
    p.add_argument("-t", type=int, required=True)
    p.add_argument("expr")

    p = add("power", cmd_power, help="s_t of an l-th power of one letter")
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-l", type=int, required=True)

    p = add("sigma-tr", cmd_sigma_tr, help="the polynomial sigma_{t,r}(x, y, z)")
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-r", type=int, required=True)

    p = add("lin", cmd_lin, help="complete linearization of a polynomial")
    p.add_argument("-d", type=int, required=True, help="alphabet size of the input")
    p.add_argument("poly")

    p = add("dp", cmd_dp, help="decomposition of the tableau function for n x n input")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-r", type=int, required=True)

    p = add("bpf", cmd_bpf, help="evaluate the tableau function on seeded matrices")
    p.add_argument("-t", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", type=_field_arg, default="Q")
    p.add_argument("--form", choices=["restricted", "full", "Q"], default="restricted")
    p.add_argument("--multilinear", action="store_true")

    p = add(
        "relations", cmd_relations, json_output=False,
        help="enumerate and verify relation generators",
    )
    p.add_argument("-n", type=_positive_int, required=True)
    p.add_argument("-d", type=_positive_int, required=True)
    p.add_argument("--kind", choices=["o", "gl"], default="o")
    p.add_argument(
        "--max-deg", type=_nonnegative_int, default=None, help="total degree budget (default n+4)"
    )
    p.add_argument("--max-word-len", type=_positive_int, default=2)
    p.add_argument(
        "--limit", type=_nonnegative_int, default=1000, help="stop after this many (0 = all)"
    )
    p.add_argument("--verify", choices=["randomized", "exact"], default=None)
    p.add_argument("--trials", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", type=_field_arg, default="Q")
    p.add_argument("--out", help="write replayable certificates to this file")

    p = add("verify", cmd_verify, json_output=False, help="replay a certificate file")
    p.add_argument("certs")

    p = add("eval", cmd_eval, help="evaluate a polynomial at a matrix assignment")
    p.add_argument("poly")
    p.add_argument("--assign", required=True, help="JSON file with n, field and assign map")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.fn](args)
    except (
        ValueError, ZeroDivisionError, RecursionError, OSError, KeyError, json.JSONDecodeError
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
