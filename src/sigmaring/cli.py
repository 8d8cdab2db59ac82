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
import itertools
import json
import sys

from .matrices import (
    EvalContext,
    Fp,
    matrix_from_json_obj,
    random_matrix,
)
from .quiver import Quiver
from .relations import (
    certificate,
    gl_relation_generators,
    o_relation_generators,
    poly_degree,
    read_certificates,
    replay_certificate,
    verify_exact,
    verify_randomized,
    write_certificates,
)
from .ring import lin, normalize, parse_poly, poly_json_obj, poly_text, power_reduce
from .sigmatr import sigma_tr
from .tableau import bpf, build_T, decompose
from .words import Naming, canonicalize, parse_lincomb, parse_word, word_text


def _field_arg(text: str):
    if text in ("Q", "q"):
        return "Q"
    if text.lower().startswith("fp:"):
        try:
            p = int(text.split(":", 1)[1])
            Fp(0, p)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an odd prime field")
        return p
    raise argparse.ArgumentTypeError(f"field must be Q or fp:<prime>, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


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
    _emit_poly(normalize(args.t, arg), naming, args)
    return 0


def cmd_power(args) -> int:
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
        print("need 2r <= n", file=sys.stderr)
        return 2
    _emit_poly(decompose(build_T(t, args.r)), Naming.xyz(1, 1, 1), args)
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
    if args.kind == "o":
        gen = o_relation_generators(args.n, args.d, args.max_deg, args.max_word_len)
    else:
        gen = gl_relation_generators(args.n, args.d, args.max_deg, args.max_word_len)
    if args.limit:
        gen = itertools.islice(gen, args.limit)

    certs = []
    falsified = 0
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
                continue
            extra = {}
        certs.append(certificate(rel, args.verify, ok, **extra))
        status = "VERIFIED " if ok else "FALSIFIED"
        print(f"{status} {rel.describe()}  degree={poly_degree(rel.poly)}")
        if not ok:
            falsified += 1
    if args.verify is not None:
        print(f"{count} relations, {falsified} falsified")
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
    naming = Naming.scan(args.poly)
    p = parse_poly(args.poly, naming)
    mats = {}
    for name, obj in data["assign"].items():
        entries = {"n": data["n"], "field": data.get("field", "Q"), "entries": obj}
        if data.get("field") == "Fp":
            entries["p"] = data["p"]
        mats[naming.index(name)] = matrix_from_json_obj(entries)
    value = EvalContext(mats).eval_poly(p)
    if args.json:
        print(json.dumps({"value": str(value)}))
    else:
        print(value)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sigmaring", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
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

    p = add("relations", cmd_relations, help="enumerate and verify relation generators")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--kind", choices=["o", "gl"], default="o")
    p.add_argument("--max-deg", type=int, default=None, help="total degree budget (default n+4)")
    p.add_argument("--max-word-len", type=int, default=2)
    p.add_argument("--limit", type=int, default=1000, help="stop after this many (0 = all)")
    p.add_argument("--verify", choices=["randomized", "exact"], default=None)
    p.add_argument("--trials", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", type=_field_arg, default="Q")
    p.add_argument("--out", help="write replayable certificates to this file")

    p = add("verify", cmd_verify, help="replay a certificate file")
    p.add_argument("certs")

    p = add("eval", cmd_eval, help="evaluate a polynomial at a matrix assignment")
    p.add_argument("poly")
    p.add_argument("--assign", required=True, help="JSON file with n, field and assign map")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ZeroDivisionError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
