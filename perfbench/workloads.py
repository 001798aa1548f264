"""The four workloads: seeded op streams and the checks on their answers.

Every workload hands out its ops in rounds.  A round has a fixed make-up
(op kinds, word classes, sizes drawn evenly over their range) and the seed
picks the values, so runs with different seeds do nearly the same work.
Ops only name program functions; ``execute`` calls them through the
``coinwords`` module attributes, so the tracer sees every call.  Checks run
outside the timed region and compare against ``oracle``, which shares no
code with the program.
"""

import io
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction

import oracle

SHORT_WORDS = ("HT", "TH", "HH", "TT", "HHH", "TTT", "HHT", "TTH", "HTT", "THH", "HTH", "THT")


@dataclass
class Op:
    kind: str
    word: str
    args: tuple = ()
    # Refused today with ValueError for words of length >= 4 (ROADMAP aim 3).
    refusable: bool = False
    extra: dict = field(default_factory=dict)


def _log_scale(u: float, lo: float, hi: float) -> float:
    """Map u in [0, 1) onto [lo, hi) on a log scale."""
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


class _Even:
    """Uniform draws in [0, 1) from a seeded golden-ratio sequence.

    Any run of consecutive draws covers [0, 1) nearly evenly, so the sizes in
    a run follow their distribution closely whatever the seed, and a rare
    huge op cannot cluster in one run.
    """

    def __init__(self, rng: random.Random) -> None:
        self.u = rng.random()

    def draw(self) -> float:
        self.u = (self.u + 0.6180339887498949) % 1.0
        return self.u


def _long_word(rng: random.Random, length: int) -> str:
    """A seeded word of the given length from a fixed autocorrelation class.

    Words with one autocorrelation share every count a(n), so fixing the
    class per length keeps the work of a run the same across seeds while the
    seed still picks the letters.  Even lengths overlap themselves nowhere
    (mean wait 2**k); odd lengths overlap in their first and last letter
    only (mean 2**k + 2).
    """
    wanted = [0] if length % 2 == 0 else [0, length - 1]
    while True:
        word = "".join(rng.choice("HT") for _ in range(length))
        if oracle.overlaps(word) == wanted:
            return word


def _long_pool(rng: random.Random, lengths) -> list[str]:
    return [_long_word(rng, k) for k in lengths]


class _Bag:
    """Draws items without replacement and refills when empty, so each item
    comes up equally often over a run whatever the seed."""

    def __init__(self, rng: random.Random, items) -> None:
        self.rng, self.items, self.left = rng, list(items), []

    def draw(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


class Workload:
    name = ""
    rounds_traced = 1  # rounds in the traced run's fixed op list
    min_ops = 110  # op_p90_ms needs at least ten ops beyond it
    check_each_round = True  # else all answers are kept and checked after the loop

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}/{seed}")

    def round(self) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op, inprocess: bool = True):
        raise NotImplementedError

    def check(self, ops: list[Op], results: list) -> list[bool]:
        """One verdict per op whose result is not an exception."""
        raise NotImplementedError


# ---------------------------------------------------------------- exact-deep

_TOSS_RANGE = (64, 20000)
_SCAN_LIMIT = 4000  # longest threshold scan a deep-q op may ask for


def _q_floor(word: str) -> float:
    """Deepest quantile drawn for a word: 1e-100 for length <= 3, 1e-6 beyond,
    raised where that would scan past ~4000 tosses (the scan is superlinear:
    a length-10 word at 1e-6 takes seconds to tens of seconds)."""
    if len(word) <= 3:
        return 1e-100
    return max(1e-6, math.exp(-_SCAN_LIMIT / oracle.mean(word)))


class ExactDeep(Workload):
    name = "exact-deep"
    kinds = ("tail", "pmf", "cdf", "threshold")
    per_kind = 4  # ops per kind and word class in a round
    rounds_traced = 4
    # One oracle sweep per word for the whole run instead of one per round;
    # the kept answers are small next to one 20000-term count sequence.
    check_each_round = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.long_words = _long_pool(self.rng, range(4, 11))
        classes = [(kind, short) for kind in self.kinds for short in (True, False)]
        self.bags = {c: _Bag(self.rng, SHORT_WORDS if c[1] else self.long_words) for c in classes}
        self.sizes = {c: _Even(self.rng) for c in classes}

    def _op(self, kind: str, short: bool) -> Op:
        import coinwords

        word = self.bags[kind, short].draw()
        u = self.sizes[kind, short].draw()
        if kind == "threshold":
            q = Fraction(_log_scale(u, _q_floor(word), 0.5))
            return Op(kind, word, (coinwords.Word(word), q))
        n = round(_log_scale(u, *_TOSS_RANGE))
        return Op(kind, word, (coinwords.Word(word), n))

    def round(self) -> list[Op]:
        ops = [self._op(kind, short)
               for kind in self.kinds for short in (True, False) for _ in range(self.per_kind)]
        self.rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        import coinwords

        return [Op(kind, word, (coinwords.Word(word), Fraction(1, 10) if kind == "threshold" else 100))
                for kind in self.kinds for word in ("HTH", self.long_words[0])]

    def execute(self, op: Op, inprocess: bool = True):
        import coinwords

        return getattr(coinwords.stats, op.kind)(*op.args)

    def check(self, ops, results):
        import coinwords

        points: dict[str, set] = {}
        for op, res in zip(ops, results):
            if isinstance(res, BaseException):
                continue
            need = points.setdefault(op.word, set())
            x = op.args[1]
            if op.kind == "pmf" or op.kind == "cdf":
                need.add(x)
            elif op.kind == "tail":
                need.add(x - 1)
            elif isinstance(res, int):
                need.update(n for n in (res - 1, res - 2) if n >= 1)
        sums = {word: oracle.sweep(word, need) for word, need in points.items()}
        verdicts = []
        for op, res in zip(ops, results):
            if isinstance(res, BaseException):
                continue
            word, x = op.word, op.args[1]
            got = sums[word]
            if op.kind == "pmf":
                ok = oracle.dyadic_equals(res, got[x][0], x)
            elif op.kind == "cdf":
                ok = oracle.dyadic_equals(res, got[x][1], x)
            elif op.kind == "tail":
                ok = oracle.dyadic_equals(res, (1 << (x - 1)) - got[x - 1][1], x - 1)
                if ok and len(word) <= 3:
                    ok = coinwords.stats.closed_tail(op.args[0], x) == res
            else:
                ok = isinstance(res, int) and oracle.tail_bracket_holds(got, res, x)
            verdicts.append(ok)
        return verdicts


# --------------------------------------------------------------- cross-check

_REFUSABLE = frozenset({"counts_recurrence", "closed_gf", "moments", "closed_form"})
_CROSS_KINDS = ("counts_recurrence", "counts_automaton", "counts_brute", "brute_force_count",
                "finite_gf", "closed_gf", "moments", "closed_form")
_MIN_HORIZON = 50  # the horizon verify's closed-form-horizons check demands
# Enumeration sizes are fixed: the cost doubles with each toss, so drawn sizes
# put gaps into the latency distribution right where p90 falls.  At these
# sizes the short-word enumerations are the slowest ~17% of successful ops
# and cost about the same, so p90 lands inside one tight band.
_BRUTE_N = {"counts_brute": 14, "brute_force_count": 15}


class CrossCheck(Workload):
    name = "cross-check"
    per_kind = 2  # ops per kind and word class in each sub-round
    sub_rounds = 4  # sub-rounds per run_checks("quick") op
    rounds_traced = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.long_words = _long_pool(self.rng, range(4, 11))
        self.bags = {(kind, short): _Bag(self.rng, SHORT_WORDS if short else self.long_words)
                     for kind in _CROSS_KINDS for short in (True, False)}
        self.sizes = {kind: _Even(self.rng)
                      for kind in ("counts_recurrence", "counts_automaton", "finite_gf")}

    def _op(self, kind: str, word: str) -> Op:
        import coinwords

        if kind in _BRUTE_N:
            args = (_BRUTE_N[kind],)
        elif kind in self.sizes:
            args = (1 + int(self.sizes[kind].draw() * 64),)
        else:
            args = ()
        return Op(kind, word, (coinwords.Word(word), *args),
                  refusable=kind in _REFUSABLE)

    def _sub_round(self) -> list[Op]:
        return [self._op(kind, self.bags[kind, short].draw())
                for kind in _CROSS_KINDS
                for short in (True, False)
                for _ in range(self.per_kind)]

    def round(self) -> list[Op]:
        ops = [op for _ in range(self.sub_rounds) for op in self._sub_round()]
        ops.append(Op("verify_quick", ""))
        self.rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        import coinwords

        out = []
        for word in ("HTH", self.long_words[0]):
            for kind in _CROSS_KINDS:
                n = 12 if kind in ("counts_brute", "brute_force_count") else 20
                extra = (n,) if kind not in ("closed_gf", "moments", "closed_form") else ()
                out.append(Op(kind, word, (coinwords.Word(word), *extra),
                              refusable=kind in _REFUSABLE))
        return out

    def execute(self, op: Op, inprocess: bool = True):
        import coinwords

        cw = coinwords
        args = op.args
        if op.kind == "counts_recurrence":
            return cw.counting.counts(*args, engine="recurrence").values
        if op.kind == "counts_automaton":
            return cw.counting.counts(*args, engine="automaton").values
        if op.kind == "counts_brute":
            return cw.counting.counts(*args, engine="brute").values
        if op.kind == "brute_force_count":
            return cw.words.brute_force_count(*args)
        if op.kind == "finite_gf":
            return cw.genfun.finite_gf(*args)
        if op.kind == "closed_gf":
            return cw.genfun.closed_gf(*args)
        if op.kind == "moments":
            return cw.stats.moments(*args)
        if op.kind == "closed_form":
            model = cw.closedform.solve_denominator(*args)
            horizon = model.reliability_horizon
            return horizon, [cw.closedform.closed_form_count(model, n) for n in range(1, horizon + 1)]
        if op.kind == "verify_quick":
            return cw.verify.run_checks("quick")
        raise ValueError(f"unknown op kind {op.kind}")

    def check(self, ops, results):
        import coinwords

        automaton = {}  # short word -> the automaton engine's counts, n <= 64
        reference = {}  # word -> oracle counts, n <= 70
        verdicts = []
        for op, res in zip(ops, results):
            if isinstance(res, BaseException):
                continue
            word = op.word
            if word and word not in reference:
                reference[word] = oracle.counts(word, 70)
            ref = reference.get(word)
            kind = op.kind
            if kind.startswith("counts_"):
                n = op.args[1]
                ok = tuple(res) == ref[:n]
                if ok and kind == "counts_recurrence" and len(word) <= 3:
                    if word not in automaton:
                        automaton[word] = coinwords.counting.automaton_counts(op.args[0], 64).values
                    ok = tuple(res) == automaton[word][:n]
            elif kind == "brute_force_count":
                ok = res == ref[op.args[1] - 1]
            elif kind == "finite_gf":
                m = op.args[1]
                ok = [res.coefficient(i) for i in range(m + 2)] == [0, *ref[:m], 0]
            elif kind == "closed_gf":
                ok = res.series(40) == (0, *ref[:40])
            elif kind == "moments":
                ok = res.mean == oracle.mean(word) and res.variance == oracle.variance(word)
            elif kind == "closed_form":
                horizon, values = res
                exact = oracle.counts(word, horizon) if horizon > 70 else ref[:horizon]
                ok = horizon >= _MIN_HORIZON and tuple(values) == exact
            else:
                ok = len(res) > 0 and all(c.passed for c in res)
            verdicts.append(ok)
        return verdicts


# --------------------------------------------------------------- monte-carlo

_SHORT_TRIALS = 98304  # one full 65536-trial chunk and one half chunk
_LONG_TRIALS = 65536  # one chunk
_BIG_CAP = 8192


class MonteCarlo(Workload):
    name = "monte-carlo"
    rounds_traced = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.long_words = _long_pool(self.rng, (4, 5, 6))
        self.short_bag = _Bag(self.rng, SHORT_WORDS)
        self.count = 0

    def _op(self, word: str, trials: int, cap: int = 512) -> Op:
        self.count += 1
        seed = self.rng.getrandbits(64)
        return Op("run_trials", word, (trials, seed, cap, 1 + self.count % 2))

    def round(self) -> list[Op]:
        """Six short words, the length-4, -5 and -6 words (the length-6 word
        twice), and the length-4 word with a cap of thousands.

        Trial counts are fixed per kind of op, so every two rounds hold the
        same mix of work whatever the seed, and p50 and p90 fall on the same
        kind of op in every run.  The seed picks the words' letters, the
        order and each op's simulation seed.
        """
        four, five, six = self.long_words
        ops = [self._op(self.short_bag.draw(), _SHORT_TRIALS) for _ in range(6)]
        ops += [self._op(word, _LONG_TRIALS) for word in (four, five, six, six)]
        # The up-front (chunk x cap/64) toss-block allocation of this op is
        # what peak_rss_mb sees.
        ops.append(self._op(four, _LONG_TRIALS, cap=_BIG_CAP))
        self.rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        return [Op("run_trials", "HTH", (4096, 1, 512, 1))]

    def execute(self, op: Op, inprocess: bool = True):
        import coinwords

        trials, seed, cap, workers = op.args
        cfg = coinwords.montecarlo.TrialConfig(coinwords.Word(op.word), trials, seed, cap)
        return coinwords.montecarlo.run_trials(cfg, workers=workers)

    def check(self, ops, results):
        verdicts = []
        twin_checked = False
        for op, res in zip(ops, results):
            if isinstance(res, BaseException):
                continue
            trials, seed, cap, workers = op.args
            hist = res.histogram
            ok = (res.trials == trials
                  and sum(hist.values()) + res.truncated == trials
                  and res.count == trials - res.truncated
                  and all(len(op.word) <= t <= cap for t in hist))
            if ok and not twin_checked:
                # One config per run: the other worker count must agree exactly.
                twin = self.execute(Op(op.kind, op.word, (trials, seed, cap, 3 - workers)))
                ok = (twin.histogram == hist and twin.truncated == res.truncated
                      and twin.mean == res.mean and twin.variance == res.variance)
                twin_checked = True
            verdicts.append(ok)
        return verdicts


# ------------------------------------------------------------------ cli-cold

_CLI_KINDS = ("counts", "tail", "threshold", "stats", "table", "gf", "simulate")


def _parse_poly(text: str) -> dict[int, Fraction]:
    """Coefficients of a polynomial printed by coinwords' Polynomial.__str__."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict[int, Fraction] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "x" not in term:
            coeff, power = Fraction(term), 0
        else:
            head, _, tail = term.partition("x")
            coeff = Fraction(head.rstrip("*")) if head else Fraction(1)
            power = int(tail[1:]) if tail.startswith("^") else 1
        out[power] = out.get(power, 0) + sign * coeff
    return out


def _series(num: dict, den: dict, n_max: int) -> list[Fraction]:
    """Taylor coefficients 0..n_max of num/den at 0."""
    out: list[Fraction] = []
    for n in range(n_max + 1):
        acc = Fraction(num.get(n, 0))
        for k in range(1, n + 1):
            acc -= den.get(k, 0) * out[n - k]
        out.append(acc / den[0])
    return out


def _exact_part(text: str) -> Fraction:
    """The exact value in front of the '(float)' the CLI prints beside it."""
    return Fraction(text.split(" (")[0])


class CliCold(Workload):
    name = "cli-cold"
    rounds_traced = 2
    min_ops = 150  # each op is a whole interpreter start, so average more of them

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.long_words = _long_pool(self.rng, (4, 5, 6))
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.rounds = 0

    def _op(self, kind: str) -> Op:
        rng = self.rng
        if kind == "counts":
            word = rng.choice(SHORT_WORDS + tuple(self.long_words))
            n = rng.randint(10, 60)
            fmt = rng.choice(("text", "csv"))
            argv = ["counts", word, str(n), "--format", fmt]
            if len(word) > 3:
                argv += ["--engine", "automaton"]
            return Op(kind, word, tuple(argv), extra={"n": n, "fmt": fmt})
        if kind == "tail":
            word = rng.choice(SHORT_WORDS + tuple(self.long_words))
            n = rng.randint(1, 200)
            return Op(kind, word, ("tail", word, str(n)), extra={"n": n})
        if kind == "threshold":
            word = rng.choice(SHORT_WORDS + tuple(self.long_words))
            q = f"{_log_scale(rng.random(), 1e-6 if len(word) > 3 else 1e-12, 0.5):.3g}"
            return Op(kind, word, ("threshold", word, q), extra={"q": Fraction(q)})
        if kind == "stats":
            word = rng.choice(SHORT_WORDS)
            return Op(kind, word, ("stats", word))
        if kind == "table":
            return Op(kind, "", ("table", "--format", "csv"))
        if kind == "gf":
            word = rng.choice(SHORT_WORDS)
            m = rng.randint(3, 12)
            return Op(kind, word, ("gf", word, "--m", str(m)), extra={"m": m})
        word = rng.choice(SHORT_WORDS + tuple(self.long_words[:1]))
        trials = rng.randint(1000, 4000)
        seed = rng.randint(0, 2**32)
        return Op(kind, word, ("simulate", word, "--trials", str(trials), "--seed", str(seed),
                               "--format", "csv"), extra={"trials": trials, "seed": seed})

    def round(self) -> list[Op]:
        ops = [self._op(kind) for kind in _CLI_KINDS for _ in range(2)]
        self.rounds += 1
        if self.rounds % 2:
            # verify takes about twice as long as the other commands.  At one
            # op in 29 it stays out of the band p90 falls in; at one in 15 it
            # sat right at p90, which then jumped between the two.
            ops.append(Op("verify", "", ("verify",)))
        self.rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        return [Op("tail", "HT", ("tail", "HT", "7"), extra={"n": 7})]

    def execute(self, op: Op, inprocess: bool = False):
        """(exit code, stdout) of ``coinwords <args>``."""
        if inprocess:
            import coinwords.cli

            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = coinwords.cli.main(list(op.args))
            return code, out.getvalue()
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        proc = subprocess.run([sys.executable, "-m", "coinwords.cli", *op.args],
                              cwd=self.root, env=env, capture_output=True, text=True,
                              timeout=60)
        return proc.returncode, proc.stdout

    def check(self, ops, results):
        return [self._check_one(op, res) for op, res in zip(ops, results)
                if not isinstance(res, BaseException)]

    def _check_one(self, op: Op, res) -> bool:
        code, out = res
        if code != 0:
            return False
        lines = out.splitlines()
        word, kind, extra = op.word, op.kind, op.extra
        try:
            if kind == "counts":
                if extra["fmt"] == "csv":
                    values = [int(line.split(",")[1]) for line in lines[1:]]
                    ok = lines[0] == "n,a_W(n)"
                else:
                    values = [int(v) for v in lines[0].split(", ")]
                    ok = True
                return ok and tuple(values) == oracle.counts(word, extra["n"])
            if kind == "tail":
                return _exact_part(lines[0]) == oracle.tail(word, extra["n"])
            if kind == "threshold":
                head, _, rest = lines[0].partition(" tail=")
                big_n = int(head.removeprefix("N="))
                sums = oracle.sweep(word, [n for n in (big_n - 1, big_n - 2) if n >= 1])
                return (oracle.tail_bracket_holds(sums, big_n, extra["q"])
                        and _exact_part(rest) == oracle.tail(word, big_n))
            if kind == "stats":
                fields = dict(part.split("=", 1) for part in lines[0].split())
                return (fields["word"] == word
                        and Fraction(fields["mean"]) == oracle.mean(word)
                        and Fraction(fields["variance"]) == oracle.variance(word))
            if kind == "table":
                if len(lines) != 5 or not lines[0].startswith("word,A,B,C,"):
                    return False
                for line in lines[1:]:
                    w, a, b, c, *values = line.split(",")
                    seq = [int(v) for v in values]
                    if tuple(seq) != oracle.counts(w, 15):
                        return False
                    coeffs = (int(a), int(b), int(c))
                    if any(seq[n] != sum(k * seq[n - 1 - i] for i, k in enumerate(coeffs))
                           for n in range(3, 15)):
                        return False
                return [line.split(",")[0] for line in lines[1:]] == ["HHH", "HTT", "HHT", "HTH"]
            if kind == "gf":
                m = extra["m"]
                ref = (0, *oracle.counts(word, m))
                partial = _parse_poly(lines[1].split(": ", 1)[1])
                num_text, den_text = lines[2].split(": ", 1)[1][1:-1].split(")/(")
                series = _series(_parse_poly(num_text), _parse_poly(den_text), m)
                return (lines[0] == f"word: {word}"
                        and [partial.get(i, 0) for i in range(m + 2)] == [*ref, 0]
                        and tuple(series) == ref)
            if kind == "simulate":
                blank = lines.index("")
                summary = dict(zip(lines[0].split(","), lines[1].split(",")))
                rows = [line.split(",") for line in lines[blank + 2:]]
                hist = {int(n): int(c) for n, c, _, _ in rows}
                exact = oracle.sweep(word, hist)
                return (lines[blank + 1] == "n,empirical_count,empirical_p,exact_p"
                        and int(summary["trials"]) == extra["trials"]
                        and int(summary["seed"]) == extra["seed"]
                        and sum(hist.values()) + int(summary["truncated"]) == extra["trials"]
                        and all(Fraction(p) == Fraction(exact[int(n)][0], 1 << int(n))
                                for n, _, _, p in rows))
            # verify
            return (len(lines) >= 2 and all(line.startswith("PASS ") for line in lines[:-1])
                    and lines[-1].endswith("checks passed (quick)")
                    and lines[-1].split("/")[0] == lines[-1].split("/")[1].split()[0])
        except (ValueError, KeyError, IndexError, ZeroDivisionError):
            return False


WORKLOADS = {cls.name: cls for cls in (ExactDeep, CrossCheck, MonteCarlo, CliCold)}
