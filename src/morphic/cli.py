"""Command-line interface: generate, complexity, verify, ivp, witness."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .complexity import build_complexity_table
from .ivp import check_ivp
from .morphisms import FixedPointStream, MorphismParseError, load_morphism_file, preset
from .reports import VerifyReport
from .suite import ALL_CHECK_NAMES, run_all, run_check
from .witnesses import witness, witness_occurrence
from .words import Coding, ResourceLimitError, WordDomainError, code


def parse_coding(text: str, alphabet) -> Coding:
    """Parse 'a=0,b=1,c=3' (by letter name) or '0,1,3' (alphabet order)."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise WordDomainError("empty coding")
    if all("=" in p for p in parts):
        values = list(alphabet.letters)
        seen = set()
        for p in parts:
            name, _, value = p.partition("=")
            idx = alphabet.symbol_of(name.strip())
            if idx in seen:
                raise WordDomainError(f"coding repeats letter {name.strip()!r}")
            seen.add(idx)
            try:
                values[idx] = int(value.strip())
            except ValueError:
                raise WordDomainError(f"bad coding value {value.strip()!r}") from None
        if len(seen) != alphabet.size:
            raise WordDomainError("coding must cover every letter")
        return Coding(alphabet, tuple(values))
    if any("=" in p for p in parts):
        raise WordDomainError("mix of named and positional coding entries")
    if len(parts) != alphabet.size:
        raise WordDomainError(f"expected {alphabet.size} coding values, got {len(parts)}")
    try:
        return Coding(alphabet, tuple(int(p) for p in parts))
    except ValueError:
        raise WordDomainError("coding values must be integers") from None


def resolve_source(args) -> tuple[FixedPointStream, Coding | None]:
    """Stream and optional coding from --preset / --morphism / --seed / --coding."""
    coding = None
    if args.morphism:
        spec = load_morphism_file(args.morphism)
        m, seed, coding = spec.morphism, spec.seed, spec.coding
    else:
        m, seed = preset(args.preset)
    if args.seed is not None:
        seed = m.alphabet.symbol_of(args.seed)
    if args.coding:
        coding = parse_coding(args.coding, m.alphabet)
    return FixedPointStream(m, seed), coding


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _reports_json(reports: list[VerifyReport]) -> str:
    if len(reports) == 1:
        return reports[0].to_json() + "\n"
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


def cmd_generate(args) -> int:
    stream, coding = resolve_source(args)
    word = stream.prefix(args.length)
    if coding is not None:
        word = code(coding, word)
    _emit(str(word) + "\n", args.out)
    return 0


def cmd_complexity(args) -> int:
    stream, coding = resolve_source(args)
    table = build_complexity_table(stream, args.n_from, args.n_to, coding=coding)
    _emit(table.to_csv() if args.format == "csv" else table.to_json(), args.out)
    return 0


def cmd_verify(args) -> int:
    if args.check == "all":
        if args.n_max is not None:
            raise WordDomainError("--n-max applies to a single check, not 'all'")
        reports = run_all()
    else:
        reports = [run_check(args.check, n_max=args.n_max)]
    payload = _reports_json(reports)
    _emit(payload, args.out)
    status = sys.stderr if not args.out else sys.stdout
    for r in reports:
        print(r.summary_line(), file=status)
    return 0 if all(r.passed for r in reports) else 1


def cmd_ivp(args) -> int:
    stream, coding = resolve_source(args)
    rep = check_ivp(stream, coding, args.n_from, args.n_to)
    _emit(_reports_json([rep]), args.out)
    return 0 if rep.passed else 1


def cmd_witness(args) -> int:
    w = witness(args.length)
    if args.format == "json":
        payload = {
            "n": w.n,
            "k": w.k,
            "word": str(w.whole),
            "left": str(w.left),
            "right": str(w.right),
            "digit_sum": w.target_digit_sum,
            "occurrence_index": witness_occurrence(w),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(
            f"n={w.n} k={w.k} digit_sum={w.target_digit_sum} word={w.whole}\n",
            args.out,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphic",
        description="Fixed points of letter morphisms: generation, complexity tables, verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--preset", choices=("tml", "sigma3"), default="tml", help="built-in morphism")
    source.add_argument("--morphism", metavar="FILE", help="morphism spec file")
    source.add_argument("--seed", metavar="LETTER", help="starting letter (default: the morphism's)")
    source.add_argument("--coding", metavar="MAP", help="letter values, 'a=0,b=1,c=3' or '0,1,3'")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    p = sub.add_parser("generate", parents=[source, output], help="print a prefix of the fixed point")
    p.add_argument("--length", type=int, required=True, metavar="L")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("complexity", parents=[source, output], help="per-length complexity table")
    p.add_argument("--n-from", type=int, default=1, metavar="A")
    p.add_argument("--n-to", type=int, default=64, metavar="B")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_complexity)

    p = sub.add_parser("verify", parents=[output], help="run a named check, or all of them")
    p.add_argument("check", choices=(*ALL_CHECK_NAMES, "all"))
    p.add_argument("--n-max", type=int, metavar="N", help="override the check's default range")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("ivp", parents=[source, output], help="gap census of attainable digit sums")
    p.add_argument("--n-from", type=int, default=3, metavar="A")
    p.add_argument("--n-to", type=int, default=300, metavar="B")
    p.set_defaults(fn=cmd_ivp)

    p = sub.add_parser("witness", parents=[output], help="maximal-digit-sum factor of one length")
    p.add_argument("--length", type=int, required=True, metavar="N")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_witness)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except (WordDomainError, MorphismParseError, ResourceLimitError, OSError) as exc:
        print(f"morphic: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
