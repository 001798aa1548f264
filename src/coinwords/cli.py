"""Command-line front end.

Subcommands: counts, table, gf, stats, tail, threshold, simulate, verify.
Exit codes: 0 success, 1 usage error, 2 domain error (and verify exits 2 when
any cross-check fails), 141 when stdout's reader closes it.  Exact values of
any size are printed next to float approximations, and CSV output carries
exact decimal / num-den strings so it round-trips losslessly.
"""

import argparse
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

# Each command loads only the modules it uses: genfun, montecarlo and verify
# are imported inside the one command that calls them, and montecarlo alone
# loads numpy, for a run past its bound of expected work (``_SCALAR_BLOCKS``,
# 8192 toss blocks: 4000 trials of HTH take 4625).  stats stays here, where
# perfbench's self-test reads ``cli.stats``.
from . import stats
from .counting import builtin_spec, counts
from .words import Word, parse_word

__all__ = ["build_parser", "main"]

TABLE_WORDS = ("HHH", "HTT", "HHT", "HTH")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_word_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("word_pos", nargs="?", metavar="WORD", help="pattern over {H,T}")
    sub.add_argument("--word", dest="word_flag", help="pattern over {H,T}")


def _positional_or_flag(pos, flag_value, flag: str, what: str):
    """The one value given either positionally or as ``flag``; giving it both
    ways or neither is a usage error."""
    if pos is not None and flag_value is not None:
        raise _UsageError(f"{what} given twice (positional and {flag})")
    if pos is None and flag_value is None:
        raise _UsageError(f"{what} is required (positional or {flag})")
    return pos if flag_value is None else flag_value


def _resolve_word(args: argparse.Namespace) -> Word:
    return parse_word(_positional_or_flag(args.word_pos, args.word_flag, "--word", "a word"))


def _word_and_value(args: argparse.Namespace, flag: str, what: str, integer: bool = False):
    """The word and the command's one value (N or Q), each given positionally
    or by its flag.  argparse binds the first positional to WORD, so once
    ``--word`` is given, a lone positional is the value when the value's flag
    is absent or when it is not a word."""
    lone = args.word_flag is not None and args.word_pos is not None and args.value_pos is None
    if lone and (args.value_flag is None or not set(args.word_pos) <= set("HTht")):
        args.word_pos, args.value_pos = None, args.word_pos
        if integer:
            try:
                args.value_pos = int(args.value_pos)
            except ValueError:
                raise _UsageError(f"{what} must be an integer, got {args.value_pos!r}") from None
    w = _resolve_word(args)
    return w, _positional_or_flag(args.value_pos, args.value_flag, flag, what)


class _UsageError(Exception):
    pass


def _cmd_counts(args: argparse.Namespace) -> int:
    w, n_max = _word_and_value(args, "--n-max", "a toss count", integer=True)
    seq = counts(w, n_max, engine=args.engine)
    if args.format == "csv":
        print("n,a_W(n)")
        for n, v in enumerate(seq.values, start=1):
            print(f"{n},{v}")
    else:
        print(", ".join(str(v) for v in seq.values))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    header = ["word", "A", "B", "C"] + [f"a_W({n})" for n in range(1, 16)]
    rows = []
    for letters in TABLE_WORDS:
        w = Word(letters)
        coeffs = (-d for d in builtin_spec(w).den[1:])  # a(n) = A a(n-1) + B a(n-2) + C a(n-3)
        seq = counts(w, 15, engine="recurrence")
        rows.append([letters, *map(str, coeffs), *map(str, seq.values)])
    if args.format == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    else:
        for row in rows:
            coeffs = ", ".join(f"{c:>2s}" for c in row[1:4])
            print(f"{row[0]:<4s} {coeffs}   {', '.join(row[4:])}")
    return 0


def _cmd_gf(args: argparse.Namespace) -> int:
    from . import genfun

    w = _resolve_word(args)
    m = args.m
    partial = genfun.finite_gf(w, m)
    print(f"word: {w}")
    print(f"partial m={m}: {partial}")
    print(f"closed: {genfun.closed_gf(w)}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    w = _resolve_word(args)
    st = stats.moments(w)
    if args.format == "csv":
        print("word,mean,variance,stddev")
        print(f"{w},{st.mean},{st.variance},{st.stddev}")
    else:
        print(f"word={w} mean={st.mean} variance={st.variance} stddev={st.stddev}")
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    w, n = _word_and_value(args, "--n-max", "a toss index", integer=True)
    limit = stats._THRESHOLD_LIMIT + 1  # threshold's largest answer
    if n > limit:
        raise ValueError(f"tail of {w} at N = {n} lies past the limit N = {limit}")
    value = stats.tail(w, n)
    frac = value.as_fraction()
    if args.format == "csv":
        print("word,N,tail_exact_num,tail_exact_den,tail_float")
        print(f"{w},{n},{frac.numerator},{frac.denominator},{float(value)}")
    else:
        print(f"{value} ({float(value)})")
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    w, text = _word_and_value(args, "--q", "a quantile")
    stats._refuse_by_exponent(w, text)  # before Fraction builds 10**exponent
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError):  # Fraction("1/0") raises the latter
        raise _UsageError(f"Q must be a fraction or decimal, got {text!r}") from None
    n = stats.threshold(w, q)
    value = stats.tail(w, n)
    if args.format == "csv":
        print("word,q,N,tail_exact_num,tail_exact_den,tail_float")
        frac = value.as_fraction()
        print(f"{w},{q},{n},{frac.numerator},{frac.denominator},{float(value)}")
    else:
        print(f"N={n} tail={value} ({float(value)})")
    return 0


def _float(x: Fraction) -> float:
    """``float(x)``, or inf where x is past float range (the variance from H**511 on)."""
    try:
        return float(x)
    except OverflowError:
        return float("inf")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import montecarlo

    w = _resolve_word(args)
    cfg = montecarlo.TrialConfig(
        word=w, trials=args.trials, seed=args.seed, max_tosses_per_trial=args.cap
    )
    summary = montecarlo.run_trials(cfg, workers=args.workers)
    if args.format == "csv":
        sys.stdout.write(montecarlo.summary_csv(summary))
        print()
        sys.stdout.write(montecarlo.histogram_csv(summary))
    else:
        st = stats.moments(w)
        print(f"word={w} trials={summary.trials} seed={summary.seed} cap={cfg.max_tosses_per_trial}")
        print(f"completed={summary.count} truncated={summary.truncated}")
        print(f"empirical_mean={summary.mean} exact_mean={st.mean} ({_float(st.mean)})")
        print(
            f"empirical_variance={summary.variance} "
            f"exact_variance={st.variance} ({_float(st.variance)})"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    depth = "full" if args.full else "quick"
    results = verify.run_checks(depth=depth)
    failed = sum(not res.passed for res in results)
    if args.format == "json":
        import json

        records = [{name: getattr(res, name) for name in res.__slots__} for res in results]
        print(json.dumps(records, indent=2))
    else:
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            print(f"{status} {res.name}: {res.detail}")
        print(f"{len(results) - failed}/{len(results)} checks passed ({depth})")
    return 2 if failed else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="coinwords", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("counts", help="first-occurrence counts a(n)")
    _add_word_args(p)
    p.add_argument("value_pos", nargs="?", type=int, metavar="N_MAX")
    p.add_argument("--n-max", dest="value_flag", type=int, metavar="N_MAX")
    p.add_argument("--engine", choices=("recurrence", "automaton", "brute"), default="recurrence")
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("table", help="summary table of the length-3 patterns")
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("gf", help="partial-sum and closed generating functions")
    _add_word_args(p)
    p.add_argument("--m", type=int, default=8, help="partial-sum degree")
    p.set_defaults(func=_cmd_gf)

    p = sub.add_parser("stats", help="exact mean, variance, stddev")
    _add_word_args(p)
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("tail", help="P(waiting time >= N), exact")
    _add_word_args(p)
    p.add_argument("value_pos", nargs="?", type=int, metavar="N")
    p.add_argument("--n-max", dest="value_flag", type=int, metavar="N")
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.set_defaults(func=_cmd_tail)

    p = sub.add_parser("threshold", help="smallest N with tail(N) <= q")
    _add_word_args(p)
    p.add_argument("value_pos", nargs="?", metavar="Q")
    p.add_argument("--q", dest="value_flag", metavar="Q")
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("simulate", help="seeded Monte Carlo waiting times")
    _add_word_args(p)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=512)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the cross-validation suite")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--quick", action="store_true", default=True)
    group.add_argument("--full", action="store_true")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_verify)

    return parser


@contextmanager
def _digits_unlimited():
    """Python's int <-> str digit limit lifted inside and restored after.
    ``main`` parses and runs each command inside it; the library keeps it.
    CPython 3.10.7+ converts no int past 4300 digits by default, but a(n) in
    ``counts``, ``gf`` and ``simulate``, ``stats``' variance of about 4**k and
    the tails over 2**(n-1) of ``tail`` and ``threshold`` may have more.  An
    operand is one argv string of at most 128 KiB, which int() reads in 0.08 s.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # CPython before 3.10.7 has no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    with _digits_unlimited():
        try:
            args = parser.parse_args(argv)
            code = args.func(args)
            sys.stdout.flush()  # so that a closed pipe raises here, not at exit
            return code
        except SystemExit as exc:  # argparse exits itself on usage errors / --help
            return int(exc.code or 0)
        except (_UsageError, ValueError, ZeroDivisionError) as exc:
            print(f"{parser.prog}: error: {exc}", file=sys.stderr)
            return 1 if isinstance(exc, _UsageError) else 2
        except BrokenPipeError:  # stdout's reader left, as ``| head`` does
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for exit's flush
            return 141


if __name__ == "__main__":
    sys.exit(main())
