"""Command-line front end.

Subcommands: analyze (per-permutation report), tree (block
decomposition), interval (weak-order interval data), verify
(exhaustive identity suites), survey (full S_n scans), bijection
(pairing tooling).  Human output is aligned text; --json switches
every subcommand to JSON.  Exit codes: 0 success, 1 domain or I/O
error, 2 usage error.

One evaluator, `_gf`, computes the interval polynomials for `analyze`
and for `interval`'s summary and --gf.  Only `interval --dot` and
`interval --json`, which list the elements, enumerate the interval.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache
from math import factorial, prod

from .bijection import build_pair_table, check_bijection, check_letters, invert_phi
from .errors import InternalInversionFailure, NonzeroRemainder, UsageError
from .perm import Permutation, identity, longest_element, parse_permutation
from .poset import inversion_poset, le_gf
from .qpoly import IntPoly, is_cyclotomic_product, q_factorial
from .separable import (
    gf_above_recursive,
    gf_below_recursive,
    interval_sizes,
    is_separable,
    separating_tree,
    tree_dot,
    tree_json,
    tree_text,
)
from .survey import _atomic_write, _check_scan_args, scan
from .verify import run_suite, suite_names
from .weak_order import check_budget, hasse_dot, interval, interval_json


def _parse_perm(text: str) -> Permutation:
    try:
        return parse_permutation(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _aligned(rows: list[tuple[str, str]]) -> str:
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{key.ljust(width)}  {value}" for key, value in rows)


def _render(args, data: dict, rows: list[tuple[str, str]]) -> str:
    return (json.dumps(data, indent=2) if args.json else _aligned(rows)) + "\n"


def _emit(args, data: dict) -> None:
    print(_render(args, data, _rows(data)), end="")


def _output(args, text: str) -> None:
    """Write text to --out (atomically, fsynced) or to stdout."""
    if args.out:
        _atomic_write(args.out, text.encode())
    else:
        print(text, end="")


def _text(value) -> str:
    """Text form of a --json value: true/false, a comma list (- when
    empty), or str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ", ".join(str(v) for v in value) or "-"
    return str(value)


def _rows(data: dict) -> list[tuple[str, str]]:
    return [(key, _text(value)) for key, value in data.items()]


def _memory_note(objects: int, exact: bool = False) -> None:
    # rough peak: one Python object row per enumerated object, exact when objects
    # counts the words enumerated; rounded half to even in integers (2^n overflows a float)
    mb = max(1, round(objects * 150, -6) // 10**6)
    count = f"{objects} words, " if exact else ""
    print(f"guard override active; {count}memory estimate ~{mb} MB", file=sys.stderr)


def _check_words(pi: Permutation, sep: bool, force: bool, *sides: str) -> None:
    # An interval holds its polynomial's value at q = 1 in words, a pair
    # table the product over both sides.  The block recursion sizes a
    # separable word cheaply, so the budget refuses it before any walk; a
    # non-separable one is counted by `_gf` only for the --force note.
    if sep:
        sizes = dict(zip(("below", "above"), interval_sizes(pi)))
        words = prod(sizes[side] for side in sides)
    elif force:
        words = prod(_gf(pi, side, sep, force).evaluate(1) for side in sides)
    else:
        return
    check_budget(words, force, "words" if len(sides) == 1 else "pairs")
    if force:
        _memory_note(words, exact=True)


def _filters(word) -> int:
    # order filters of P(word), one per decreasing subsequence, the empty one too
    ends = []  # ends[j]: those that end at word[j]
    for b in word:
        ends.append(1 + sum(c for a, c in zip(word, ends) if a > b))
    return 1 + sum(ends)


def _gf_note(pi: Permutation, sep: bool, force: bool, *sides: str) -> None:
    # neither route enumerates S_n: the block recursion keeps n exponents, le_gf an entry
    # per order filter of P(pi) below and of P(pi^c) above; -pi orders its letters as pi^c
    if force:
        words = {"below": pi.word, "above": [-a for a in pi.word]}
        _memory_note(pi.size if sep else sum(_filters(words[side]) for side in sides))


def _gf(pi: Permutation, side: str, sep: bool, force: bool) -> IntPoly:
    """Rank generating function of [id, pi] (side "below") or [pi, w0]
    ("above"): the block recursion on separable words, linear
    extensions of the inversion poset on the rest, whose upper side runs
    on the complement: [pi, w0] read backwards is [id, pi^c]."""
    if sep:
        return gf_below_recursive(pi) if side == "below" else gf_above_recursive(pi)
    if side == "below":
        return le_gf(inversion_poset(pi), force=force)
    return le_gf(inversion_poset(pi.complement()), force=force).reverse()


def _cmd_analyze(args) -> int:
    pi = _parse_perm(args.perm)
    sep = is_separable(pi)
    _gf_note(pi, sep, args.force, "below", "above")
    below = _gf(pi, "below", sep, args.force)
    above = _gf(pi, "above", sep, args.force)
    if sep:  # the main theorem; below = prod Phi_d^(e_d), e_d >= 0 as qint_product divided
        product = cyclotomic = True
    else:
        product, cyclotomic = below * above == q_factorial(pi.size), is_cyclotomic_product(below)
    data = {
        "word": str(pi),
        "length": pi.length,
        "descents": sorted(pi.descent_set()),
        "separable": sep,
        "gf_below": str(below),
        "gf_above": str(above),
        "product_is_qfactorial": product,
        "rank_symmetric": below.is_symmetric(),
        "unimodal": below.is_unimodal(),
        "cyclotomic_product": cyclotomic,
    }
    _emit(args, data)
    return 0


def _cmd_tree(args) -> int:
    pi = _parse_perm(args.perm)
    root = separating_tree(pi)
    if args.dot:
        text = tree_dot(root)
    elif args.json:
        text = tree_json(root)
    else:
        text = tree_text(root)
    _output(args, text + "\n")
    return 0


def _cmd_interval(args) -> int:
    # only --dot and --json list the elements, so only they enumerate
    pi = _parse_perm(args.perm)
    if args.side == "below":
        bottom, top = identity(pi.size), pi
    else:
        bottom, top = pi, longest_element(pi.size)
    if args.gf or not (args.dot or args.json):
        sep = is_separable(pi)
        _gf_note(pi, sep, args.force, args.side)
        gf = _gf(pi, args.side, sep, args.force)
        if args.gf:
            text = str(gf)
        else:
            text = _aligned([
                ("bottom", str(bottom)),
                ("top", str(top)),
                ("size", str(sum(gf.coeffs))),
                ("rank sizes", ", ".join(str(c) for c in gf.coeffs)),
                ("rank gf", str(gf)),
            ])
    else:
        _check_words(pi, is_separable(pi), args.force, args.side)
        iv = interval(bottom, top, force=args.force)
        text = hasse_dot(iv) if args.dot else json.dumps(interval_json(iv), indent=2)
    _output(args, text + "\n")
    return 0


def _cmd_verify(args) -> int:
    result = run_suite(args.suite, n=args.n, force=args.force)
    if args.json:
        data = {
            "suite": result.suite,
            "passed": result.passed,
            "checks": [
                {"label": c.label, "passed": c.passed, "detail": c.detail}
                for c in result.checks
            ],
        }
        print(json.dumps(data, indent=2))
    else:
        print(f"suite {result.suite}")
        for c in result.checks:
            tag = "pass" if c.passed else "FAIL"
            detail = f" ({c.detail})" if c.detail else ""
            print(f"{tag}: {c.label}{detail}")
    return 0 if result.passed else 1


def _cmd_survey(args) -> int:
    if args.force:
        _check_scan_args(args.n, args.force, args.workers, args.out, args.resume)
        _memory_note(factorial(args.n))
    report = scan(
        args.n, out=args.out, resume=args.resume, workers=args.workers, force=args.force
    )
    data = asdict(report)
    _emit(args, data)
    return 0


def _cmd_bijection(args) -> int:
    pi = _parse_perm(args.perm)
    if args.invert is not None:
        w = _parse_perm(args.invert)
        if args.force:
            # the inverse is built block by block, with no table
            _memory_note(pi.size)
        u, v = invert_phi(pi, w)
        data = {"word": str(pi), "target": str(w), "u": str(u), "v": str(v)}
        _output(args, _render(args, data, [("u", str(u)), ("v", str(v))]))
        return 0
    check_letters(pi.size)  # before _check_words, which may count a word by le_gf
    sep = is_separable(pi)
    _check_words(pi, sep, args.force, "below", "above")
    if args.table:
        table = build_pair_table(pi, force=args.force)
        _output(args, table.to_csv())
        return 0
    report = check_bijection(pi, force=args.force)
    data = {
        "word": str(pi),
        "separable": sep,
        "is_bijection": report.is_bijection,
        "collisions": [
            {"image": str(w), "pairs": [[str(u), str(v)] for u, v in pairs]}
            for w, pairs in report.collisions
        ],
    }
    rows = _rows({**data, "collisions": len(report.collisions)})
    _output(args, _render(args, data, rows))
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call and reused: each parse fills a fresh
    # namespace.  --json/--force are accepted before or after the
    # subcommand; the SUPPRESS defaults keep the subparser from
    # clobbering a value the top-level parse already set.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="emit JSON instead of text",
    )
    common.add_argument(
        "--force",
        action="store_true",
        default=argparse.SUPPRESS,
        help="override size guards (prints a memory estimate)",
    )
    top = argparse.ArgumentParser(
        prog="weakbruhat",
        description="Weak-order interval generating functions for permutations.",
        parents=[common],
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one permutation", parents=[common])
    p.add_argument("perm")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("tree", help="block decomposition of a separable permutation", parents=[common])
    p.add_argument("perm")
    p.add_argument("--dot", action="store_true", help="emit DOT")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(handler=_cmd_tree)

    p = sub.add_parser("interval", help="weak-order interval below or above a permutation", parents=[common])
    p.add_argument("perm")
    p.add_argument("--side", choices=("below", "above"), default="below")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--gf", action="store_true", help="print the rank generating function, as text also under --json")
    group.add_argument("--dot", action="store_true", help="emit the Hasse diagram as DOT")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(handler=_cmd_interval)

    p = sub.add_parser("verify", help="run an exhaustive verification suite", parents=[common])
    p.add_argument("suite", choices=suite_names())
    p.add_argument("--n", type=int, default=None, help="override the suite's size range")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("survey", help="scan all of S_n and aggregate predicates", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="stream per-permutation records to a CSV")
    p.add_argument("--resume", action="store_true", help="continue from a checkpoint")
    p.add_argument("--workers", type=int, default=None, help="process count (default: cpu count)")
    p.set_defaults(handler=_cmd_survey)

    p = sub.add_parser("bijection", help="pairing of lower and upper interval elements", parents=[common])
    p.add_argument("perm")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--invert", metavar="W", help="recover the pair mapping to W")
    group.add_argument("--table", action="store_true", help="emit the full pair table as CSV")
    p.add_argument("--out", help="write the report, the pair or the table to a file instead of stdout")
    p.set_defaults(handler=_cmd_bijection)

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    args.json = getattr(args, "json", False)
    args.force = getattr(args, "force", False)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, NonzeroRemainder, InternalInversionFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # le_gf under --force recurses per letter
        limit = sys.getrecursionlimit()
        print(f"error: {args.command}: a step recursing once per letter passed the recursion limit ({limit})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
