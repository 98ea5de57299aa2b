"""Deterministic command-line front end.

Subcommands
-----------
construct   build a maximal valid set for a modulus, with provenance
verify      check a user-supplied set, printing a collision witness if any
search      exhaustive maximum-size search (cached, budgeted)
table       reproduce the per-prime pattern tables for moduli 2p
bound       print the packing upper bound floor((q-1)/lambda)
encode      map a message to a codeword of the set's linear code
decode      correct a single limited-magnitude error in a received word
simulate    run the random single-error channel and report statistics

Exit codes: 0 success, 1 domain error (invalid set, budget exhausted,
uncorrectable word) or an output pipe closed early, 2 usage error
(unparseable arguments, modulus whose odd part is divisible by 3, an
unwritable cache path).

All output is deterministic for identical flags; search budgets given on
the command line are node counts only (no wall-clock component), so even
cut-off results are reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .codec import (UnknownSyndromeError, decode, encode, make_code,
                    simulate_channel)
from .constructions import (build_twice_odd, construct, divisor_context,
                            hamming_upper_bound)
from .numtheory import euler_phi
from .residues import Instance
from .search import Budget, SearchCache, default_cache_path, exact_max
from .verifier import format_witness, is_b1_set


def _csv_ints(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated integers ('1,5,8')."""
    try:
        items = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not items and text.strip() not in ("", ","):
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    return items


def _csv(values: Sequence[int]) -> str:
    return ",".join(str(v) for v in values)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


# --------------------------------------------------------------------------
# construct
# --------------------------------------------------------------------------

def _report_json(report) -> str:
    """``json.dumps(report.to_json_dict(), indent=2)``, each element list
    rendered by json's C encoder: its indenting encoder is pure Python."""
    data, texts = report.to_json_dict(), []
    for holder, pad in [(data, "\n  "), *((p, "\n      ") for p in data["pieces"])]:
        items, holder["elements"] = holder["elements"], "\0"
        body = json.dumps(items, separators=(f",{pad}  ", ":"))[1:-1]
        texts.append(f"[{pad}  {body}{pad}]" if items else "[]")
    parts = json.dumps(data, indent=2).split('"\\u0000"')
    return "".join(part + text for part, text in zip(parts, texts + [""]))


def _cmd_construct(args: argparse.Namespace) -> int:
    instance = Instance.from_q(args.q)
    if not instance.coprime_to_six:
        args.parser.error(
            f"--q {args.q}: odd part {instance.r} is divisible by 3; "
            "supported moduli are 2^k * r with gcd(r, 6) = 1")
    report = construct(args.q)
    if args.json:
        print(_report_json(report))
        return 0
    inst = report.instance
    print(f"q = {inst.q} = 2^{inst.k} * {inst.r}   lambda = {inst.lam}")
    status = "tight (maximum possible)" if report.tight else "lower bound"
    print(f"size = {report.size}   upper bound = {report.upper_bound}   "
          f"verified = {'yes' if report.verified else 'NO'}   [{status}]")
    print(f"elements = {_csv(sorted(report.elements))}")
    base = report.base
    if base is not None:
        print(f"base: q = {base.instance.q}, size = {base.size} "
              f"(elements appear scaled by 8)")
    for piece in sorted(report.pieces, key=lambda p: p.d):
        tag = "certified" if piece.certified else "pattern"
        print(f"  divisor {piece.d:>4}  [{piece.case}] ({tag}): "
              f"{_csv(sorted(piece.elements)) or '-'}")
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _cmd_verify(args: argparse.Namespace) -> int:
    verdict = is_b1_set(args.set, args.q, args.lam)
    if verdict.valid:
        print(f"valid: {len(args.set)} elements, all {args.lam}*{len(args.set)} "
              f"products distinct and nonzero mod {args.q}")
        return 0
    print(f"invalid: {format_witness(verdict.witness, args.q)}")
    return 1


# --------------------------------------------------------------------------
# search
# --------------------------------------------------------------------------

def _cmd_search(args: argparse.Namespace) -> int:
    budget = None if args.budget is None else Budget(max_nodes=args.budget)
    path = args.cache if args.cache is not None else default_cache_path()
    try:  # fail before the search, not when its result is stored
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        args.parser.error(f"cache {path}: {exc.strerror}")
    cache = SearchCache(path)
    result = exact_max(args.q, args.lam, budget=budget, cache=cache)
    if args.json:
        print(json.dumps(result.to_record(), indent=2))
        return 0 if result.exact else 1
    rel = "=" if result.exact else ">="
    print(f"max size {rel} {result.max_size}   (q = {args.q}, "
          f"lambda = {args.lam}, {result.nodes_expanded} nodes, "
          f"{result.elapsed * 1000.0:.1f} ms)")
    if result.witness:
        print(f"witness = {_csv(result.witness)}")
    if not result.exact:
        print("budget exhausted: size is only a lower bound", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------
# table
# --------------------------------------------------------------------------

def _table_rows(max_p: int, oracle: bool) -> tuple[list[list[str]], list[list[str]]]:
    """Row data (as strings) for the two pattern families at q = 2p."""
    rows_a: list[list[str]] = []
    rows_b: list[list[str]] = []
    for p in [x for x in range(5, max_p) if euler_phi(x) == x - 1]:  # primes
        ctx = divisor_context(p)
        piece = build_twice_odd(p, refine=False).pieces[-1]  # d = p
        size = f"{piece.size}" if piece.certified else f">={piece.size}"
        witness = " ".join(str(x) for x in sorted(piece.elements))
        extra: list[str] = []
        if oracle:
            exact = exact_max(2 * p, 4)
            gap = "TIGHT" if exact.max_size == piece.size else "GAP"
            extra = [str(exact.max_size), gap]
        if ctx.two_in_three:
            # In the even-order/odd-shift case the pattern uses neither
            # k' nor r'; print dashes there, as the reference tables do.
            dashes = ctx.n % 2 == 0 and ctx.s % 2 == 1
            kp = "-" if dashes else str(ctx.k_prime)
            rp = "-" if dashes else str(ctx.r_prime)
            rows_a.append([str(p), str(ctx.n), str(ctx.m), kp, rp,
                           size, *extra, witness])
        else:
            rows_b.append([str(p), str(ctx.n), str(ctx.t), str(ctx.s),
                           str(len(ctx.reps)), size, *extra, witness])
    return rows_a, rows_b


def _emit_table(title: str, header: list[str], rows: list[list[str]],
                markdown: bool) -> None:
    if markdown:
        print(f"### {title}")
        print("| " + " | ".join(header) + " |")
        print("|" + "|".join("---" for _ in header) + "|")
        for row in rows:
            print("| " + " | ".join(row) + " |")
        print()
        return
    print(f"== {title} ==")
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows
              else len(header[i]) for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    print()


def _cmd_table(args: argparse.Namespace) -> int:
    rows_a, rows_b = _table_rows(args.max_p, args.oracle)
    extra = ["exact", "tight?"] if args.oracle else []
    _emit_table("q = 2p, doubling inside the orbit of 3 (circulant patterns)",
                ["p", "n", "m", "k'", "r'", "size", *extra, "witness"],
                rows_a, args.md)
    _emit_table("q = 2p, doubling outside the orbit of 3 (grid patterns)",
                ["p", "n", "t", "s", "cosets", "size", *extra, "witness"],
                rows_b, args.md)
    return 0


# --------------------------------------------------------------------------
# bound / codec passthroughs
# --------------------------------------------------------------------------

def _cmd_bound(args: argparse.Namespace) -> int:
    print(hamming_upper_bound(args.q, args.lam))
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    code = make_code(args.set, args.q)
    word = encode(code, args.message)
    print(_csv(word))
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    code = make_code(args.set, args.q)
    try:
        word, error = decode(code, args.word)
    except UnknownSyndromeError as exc:
        print(f"detected (uncorrectable): {exc}")
        return 1
    if error is None:
        print("no error")
    else:
        position, magnitude = error
        print(f"corrected (pos {position}, mag {magnitude})")
    print(f"codeword: {_csv(word)}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    code = make_code(args.set, args.q)
    stats = simulate_channel(code, args.trials, error_rate=args.error_rate,
                             seed=args.seed)
    print(json.dumps(stats.to_json_dict()))
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magset",
        description="Maximal sets for single asymmetric limited-magnitude "
                    "error correction: construction, search, verification, "
                    "and the resulting codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler, parser=p)
        return p

    p = add("construct", _cmd_construct,
            "build a maximal valid set for modulus q")
    p.add_argument("--q", type=_positive, required=True,
                   help="modulus, of the form 2^k * r with gcd(r, 6) = 1")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")

    p = add("verify", _cmd_verify, "check a set; exit 0 valid, 1 invalid")
    p.add_argument("--q", type=_positive, required=True, help="modulus")
    p.add_argument("--lambda", dest="lam", type=_positive, default=4,
                   help="magnitude bound (default 4)")
    p.add_argument("--set", type=_csv_ints, required=True,
                   help="comma-separated residues, e.g. --set=1,5,8,9")

    p = add("search", _cmd_search,
            "exhaustive maximum-size search for modulus q")
    p.add_argument("--q", type=_positive, required=True, help="modulus")
    p.add_argument("--lambda", dest="lam", type=_positive, default=4,
                   help="magnitude bound (default 4)")
    p.add_argument("--budget", type=_positive, default=None,
                   help="search-node budget (default 10^8)")
    p.add_argument("--cache", default=None, metavar="FILE",
                   help="JSONL result cache (default ./magset-cache.jsonl, "
                        "or $MAGSET_CACHE)")
    p.add_argument("--json", action="store_true",
                   help="emit the result record as JSON")

    p = add("table", _cmd_table,
            "reproduce the per-prime pattern tables for moduli 2p")
    p.add_argument("--family", choices=["2p"], required=True,
                   help="modulus family (only 2p)")
    p.add_argument("--max-p", dest="max_p", type=_positive, default=100,
                   help="strict upper limit for the primes p (default 100)")
    p.add_argument("--oracle", action="store_true",
                   help="add exhaustive-search columns (exact size, TIGHT/GAP)")
    p.add_argument("--md", action="store_true",
                   help="emit GitHub-flavored markdown")

    p = add("bound", _cmd_bound, "print the packing upper bound")
    p.add_argument("--q", type=_positive, required=True, help="modulus")
    p.add_argument("--lambda", dest="lam", type=_positive, default=4,
                   help="magnitude bound (default 4)")

    p = add("encode", _cmd_encode, "encode a message word")
    p.add_argument("--q", type=_positive, required=True, help="modulus")
    p.add_argument("--set", type=_csv_ints, required=True,
                   help="parity row (a valid set), e.g. --set=1,9,13,17")
    p.add_argument("--message", type=_csv_ints, required=True,
                   help="comma-separated message symbols (length |set| - 1);"
                        " a leading '-' needs the = form: --message=-1,0,0")

    p = add("decode", _cmd_decode, "decode/correct a received word")
    p.add_argument("--q", type=_positive, required=True, help="modulus")
    p.add_argument("--set", type=_csv_ints, required=True,
                   help="parity row (a valid set), e.g. --set=1,9,13,17")
    p.add_argument("--word", type=_csv_ints, required=True,
                   help="received word, length |set|; a leading '-' needs "
                        "the = form: --word=-11,-18,0,0")

    p = add("simulate", _cmd_simulate,
            "random single-error channel simulation (prints JSON stats)")
    p.add_argument("--q", type=_positive, required=True, help="modulus")
    p.add_argument("--set", type=_csv_ints, required=True,
                   help="parity row (a valid set), e.g. --set=1,9,13,17")
    p.add_argument("--trials", type=_count, required=True,
                   help="number of independent trials")
    p.add_argument("--seed", type=int, default=0,
                   help="master RNG seed (default 0)")
    p.add_argument("--error-rate", dest="error_rate", type=_rate, default=1.0,
                   help="per-trial corruption probability (default 1.0)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:  # the reader left: silence the exit-time flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:  # domain errors (invalid set, no pivot, ...)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
