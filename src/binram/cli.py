"""Command-line interface.

Subcommands run the suites of binram.certificates, shared with the acceptance
tests, at the CLI's ranges and emit deterministic CSV or JSON reports (fixed
row ordering, no timestamps in the data section); a range with no point to
check is a usage error.  Exit codes: 0 clean, 1 violations found, 2
inconclusive results only, 64 usage error, 70 resource guard exceeded or a
``--workers`` child failed.
"""

from __future__ import annotations

import argparse
import marshal
import os
import sys

EXIT_USAGE = 64  # 0, 1 and 2 come from Report.exit_code
EXIT_RESOURCE = 70
_SIGKILL = 9  # signal.SIGKILL wherever os.fork exists; importing signal costs about 1 ms

try:
    from .backend import BACKEND, Rat, as_rat
except ImportError as exc:  # BackendError: BINRAM_BACKEND names no usable backend
    print(f"binram: {exc}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE) from None

from .certificates import (
    check_above_half,
    check_boundary_cases,
    check_exp_bounds,
    check_medium,
    check_r_positivity,
    check_root_bounds,
    check_small_b,
    check_z_lowerbound,
    claim1_suite,
    claim2_suite,
    claim3_suite,
    lemma1_suite,
    moments_suite,
    poisson_suite,
    thm3_sign_suite,
)
from .exactcore import EXACT_CUTOFF, DomainError, p_diff_signs, z_diff_signs
from .highprec import theorem2_threshold
from .kernel import ORACLE_MAX_N, ResourceError
from .precision import PrecisionPolicy
from .report import CSV_HEADER, SCAN_P_HEADER, Report, merge_reports
from .smalldev import (
    conjecture_grid,
    conjecture_scan,
    tilde_p_monotonicity_scan,
    verify_samuels,
)


class _Parser(argparse.ArgumentParser):
    """argparse with the BSD usage exit code instead of 2, and a flag that the
    leaf parser does not declare reported by that leaf, so that its usage line
    shows the flags it does take.  A flag that comes before the subcommand or
    target, and that this level does not declare, is named as misplaced."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _subs(self):  # the action choosing the subcommand or target; None on a leaf
        return next((a for a in self._actions if isinstance(a, argparse._SubParsersAction)), None)

    def leaf(self, args: argparse.Namespace) -> "_Parser":
        """The parser of the parsed subcommand, or of its target if it has one."""
        subs = self._subs()
        return subs.choices[getattr(args, subs.dest)].leaf(args) if subs else self

    def parse_known_args(self, args=None, namespace=None):
        subs, declared = self._subs(), self._option_string_actions
        for arg in sys.argv[1:] if args is None else args:
            if subs is None or arg in subs.choices:
                break
            flag = arg.split("=", 1)[0]  # argparse also takes a unique prefix of a flag
            if flag.startswith("-") and not any(o.startswith(flag) for o in declared):
                self.error(f"{flag} comes before the {subs.dest}; flags go after the {subs.dest}")
        return super().parse_known_args(args, namespace)

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            self.leaf(args).error(f"unrecognized arguments: {' '.join(extra)}")
        return args


def _rational(text: str):
    try:
        return as_rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: expected P/Q") from exc


def _add_common(sub, *, n_max=None, b_max=None, digits=None, workers=False):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", metavar="PATH", default=None)
    if n_max is not None:
        sub.add_argument("--n-max", type=int, default=n_max)
    if b_max is not None:
        sub.add_argument("--b-max", type=int, default=b_max)
    if digits is not None:
        sub.add_argument("--digits", type=int, default=digits)
    if workers:
        sub.add_argument("--workers", type=int, default=1)


def build_parser() -> _Parser:
    parser = _Parser(prog="binram", description=__doc__)
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="key=value defaults file; explicit flags override")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("scan-p", help="exact tail-difference sign scan"),
                n_max=300, workers=True)
    scan_z = subs.add_parser("scan-z", help=f"exact z-difference sign map (n <= {EXACT_CUTOFF})")
    _add_common(scan_z, n_max=300, workers=True)
    thr = subs.add_parser("threshold", help="locate the z sign-flip near sqrt(77n/360)")
    thr.add_argument("--n", type=int, required=True)
    _add_common(thr, digits=60)
    ver = subs.add_parser("verify", help="exact identity suites")
    ver.add_argument("--claims", default="1,2,3,lemma1,moments",
                     help="comma list from {1,2,3,lemma1,moments}")
    _add_common(ver, n_max=60)
    _add_common(subs.add_parser("poisson", help="rigorous Poisson enclosures"),
                b_max=300, digits=30)
    cert = subs.add_parser("certify", help="finite-range inequality certificates")
    cert_targets = cert.add_subparsers(dest="target", required=True)
    for target in ("appendix-b", "appendix-c", "root-bounds"):
        _add_common(cert_targets.add_parser(target))
    for target in ("exp-bounds", "z-lowerbound"):
        _add_common(cert_targets.add_parser(target), n_max=EXACT_CUTOFF)
    sd = subs.add_parser("smalldev", help="small-deviation reductions")
    sd_targets = sd.add_subparsers(dest="target", required=True)
    _add_common(sd_targets.add_parser("samuels"), n_max=200)
    conj = sd_targets.add_parser("conjecture")
    conj.add_argument("--grid-step", type=_rational, default=Rat(1, 20))
    _add_common(conj, n_max=20)
    mono = sd_targets.add_parser("monotonicity")
    mono.add_argument("--c", type=_rational, default=Rat(1), help="shift parameter")
    _add_common(mono, n_max=100)
    merge = subs.add_parser("report-merge", help="merge JSON reports deterministically")
    merge.add_argument("inputs", nargs="+", metavar="REPORT.json")
    _add_common(merge)
    return parser


def _apply_config(parser: _Parser, argv: list) -> argparse.Namespace:
    """Parse, then parse again with the --config key=value pairs as defaults of
    the options of the leaf parser (the subcommand's, or its target's): a flag
    given on the command line, in any form argparse accepts, still wins, and
    argparse converts each value it uses with the option's declared type, as
    it would the flag.  A key the leaf does not declare is ignored."""
    args = parser.parse_args(argv)
    if not args.config:
        return args
    try:
        with open(args.config, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        parser.error(f"cannot read config {args.config}: {exc}")
    sub = parser.leaf(args)
    options = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
    defaults = {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"bad config line (expected key=value): {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        action = options.get(key.replace("-", "_"))
        if action is None:
            continue
        if action.choices and value not in action.choices:
            parser.error(f"bad config value for {key}: {value!r} is not one of "
                         f"{', '.join(action.choices)}")
        defaults[action.dest] = value
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _emit(report: Report, args) -> int:
    if not report.results:
        raise DomainError(f"{args.command}: the requested range holds no point to check")
    report.meta.setdefault("header", report.header)
    if args.out:
        report.write(args.out, args.format)
    else:
        sys.stdout.write(report.render(args.format))
    return report.exit_code()


def _meta(args, **extra) -> dict:
    meta = {"command": args.command, "backend": BACKEND}
    meta.update(extra)
    return meta


# -- scans ----------------------------------------------------------------------


class ProcessPoolExecutor:
    """binram's own fork pool for ``--workers K``, K counting this process.

    ``map(fn, items)`` deals the items to min(K, len(items)) shares in snake
    order (share 0, 1, ..., K-1, then K-1, ..., 0, and so on), forks one
    child for each share after the first, computes the first share in this
    process, and reads each child's results, marshalled, from a pipe in one
    message; it returns the results in item order.  A child leaves by
    ``os._exit`` and never returns into the caller's stack.  A share that
    raises, a child that dies and a failed fork each raise ResourceError
    naming the worker; on every path ``__exit__`` kills and reaps each child
    still there before the exception leaves the ``with`` block.  Results
    must be marshallable (ints, strings, lists and the like); the scans
    return lists of ints.

    The pool forks rather than spawns: a child shares the imported modules
    and needs none of the start-up that a spawned worker, or the stdlib
    pool with its multiprocessing import, would pay again.  The CLI runs no
    threads, so the fork copies a consistent interpreter.  The class keeps
    the name and the ``max_workers=`` constructor of the stdlib pool it
    replaced, because perfbench's tracer times every pool the CLI makes by
    rebinding this module attribute to a subclass.
    """

    def __init__(self, max_workers: int):
        self._max_workers = max_workers
        self._children = []  # (share number, pid, read end of its pipe), not yet reaped

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._reap()

    def _reap(self):
        """Kill and reap every child not yet reaped, and close its pipe."""
        while self._children:
            _, pid, reader = self._children.pop()
            os.close(reader)
            os.kill(pid, _SIGKILL)  # a child that has exited stays a zombie till reaped
            os.waitpid(pid, 0)

    def map(self, fn, items) -> list:
        items = list(items)
        k = max(1, min(self._max_workers, len(items)))
        shares = [[] for _ in range(k)]
        for i in range(len(items)):
            lap, j = divmod(i, k)
            shares[k - 1 - j if lap % 2 else j].append(i)
        for number in range(1, k):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(reader)
                os.close(writer)
                raise ResourceError(f"cannot fork worker {number + 1} of {k}: {exc}") from None
            if pid == 0:
                _run_share(fn, items, shares[number], writer,
                           [reader] + [r for _, _, r in self._children])
            os.close(writer)
            self._children.append((number, pid, reader))
        results, failure = [None] * len(items), None
        try:
            for i in shares[0]:
                results[i] = fn(items[i])
        except Exception as exc:
            failure = 0, f"raised {type(exc).__name__}: {exc}"
        while failure is None and self._children:
            number, pid, reader = self._children[0]
            with open(reader, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del self._children[0]
            os.close(reader)
            if code:
                failure = number, (f"was killed by signal {-code}" if code < 0
                                   else f"exited with code {code}")
                continue
            ok, value = marshal.loads(data)
            if ok:
                for i, result in zip(shares[number], value):
                    results[i] = result
            else:
                failure = number, f"raised {value}"
        if failure is None:
            return results
        number, what = failure
        share = shares[number]
        listed = ", ".join(str(items[i]) for i in share[:4]) + (", ..." if len(share) > 4 else "")
        raise ResourceError(f"--workers: the share of worker {number + 1} of {k} "
                            f"({len(share)} items: {listed}) {what}")


def _run_share(fn, items: list, share: list, writer: int, readers: list):
    """In a forked child: close the inherited read ends, so that a write to a
    parent that has died fails rather than blocks; send (True, the results of
    fn on the share's items), or (False, the error) if fn raises, through the
    pipe; then leave the process, whatever happened."""
    code = 1
    try:
        for reader in readers:
            os.close(reader)
        try:
            payload = True, [fn(items[i]) for i in share]
        except Exception as exc:
            payload = False, f"{type(exc).__name__}: {exc}"
        with open(writer, "wb") as pipe:
            pipe.write(marshal.dumps(payload))
        code = 0
    finally:
        os._exit(code)


def _signs_by_n(row, n_max: int, workers: int) -> list:
    """(n, row(n)) for n = 2..n_max in increasing n.

    With ``workers`` K above 1, K processes compute the rows (fewer if there
    are fewer rows): this one and K - 1 forked children of
    ``ProcessPoolExecutor``, each a fixed share dealt in snake order from the rows taken largest first, n = n_max,
    n_max - 1, ...  The snake balances the shares although the cost c(n) of
    a row grows steeply with n.  Each pair of laps deals a block of 2K
    consecutive rows, n = t, t-1, ..., t-2K+1, and gives share j the rows
    t - j and t - (2K-1-j), whose n sum to 2t - 2K + 1 for every j.  So for a
    cost linear over the block every share gets the same, and for a smooth
    convex cost the shares differ by about c''·K² per pair of laps, against
    the c'·(K-1) more that a plain round-robin deal gives share 0 in every
    lap.  The last, partial laps hold the cheapest rows.  Each child sends
    its share back in one message, so there is no per-row messaging, and the
    parent is not left idle.
    """
    if workers < 1:
        raise DomainError(f"--workers must be >= 1, got {workers}")
    if workers > 1 and not hasattr(os, "fork"):
        raise DomainError("--workers above 1 needs os.fork, which this platform lacks")
    ns = range(n_max, 1, -1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = pool.map(row, ns)
    else:
        rows = [row(n) for n in ns]
    return list(zip(ns, rows))[::-1]


def cmd_scan_p(args) -> int:
    report = Report(meta=_meta(args, n_max=args.n_max), header=SCAN_P_HEADER)
    thm3_sign_suite(report, _signs_by_n(p_diff_signs, args.n_max, args.workers))
    return _emit(report, args)


def cmd_scan_z(args) -> int:
    if args.n_max > EXACT_CUTOFF:
        raise ResourceError(f"scan-z is exact and guarded at n <= {EXACT_CUTOFF}")
    report = Report(meta=_meta(args, n_max=args.n_max),
                    header=["claim_id", "b", "n", "sign"])
    for n, signs in _signs_by_n(z_diff_signs, args.n_max, args.workers):
        report.results.extend(["z-sign", b, n, sign] for b, sign in enumerate(signs, start=1))
    return _emit(report, args)


def cmd_threshold(args) -> int:
    tr = theorem2_threshold(args.n, PrecisionPolicy(digits=args.digits))
    report = Report(
        meta=_meta(args, n=args.n, digits=args.digits, predicted=tr.predicted,
                   window=list(tr.window)),
        header=["claim_id", "n", "b_star_low", "b_star_high",
                "ratio_low", "ratio_high", "sign_changes"],
        results=[["thm2", tr.n, tr.b_star_low, tr.b_star_high,
                  f"{tr.ratio_low:.6f}", f"{tr.ratio_high:.6f}",
                  ";".join(f"{b}:{a}->{c}" for b, a, c in tr.sign_changes)]],
        inconclusive=len(tr.inconclusive_points),
    )
    return _emit(report, args)


# -- verify ----------------------------------------------------------------------


_VERIFY_SUITES = {  # each claim's suite at the CLI's clamps
    "1": lambda report, n_max: claim1_suite(report, min(n_max, ORACLE_MAX_N)),
    "2": lambda report, n_max: claim2_suite(report, min(n_max, 30)),
    "3": lambda report, n_max: claim3_suite(report, range(10, min(n_max, 200) + 1, 10)),
    "lemma1": lambda report, n_max: lemma1_suite(report, min(n_max, 200), 30),
    "moments": lambda report, n_max: moments_suite(report, (25, 100)),
}


def cmd_verify(args) -> int:
    if args.n_max < 1:
        raise DomainError(f"--n-max must be >= 1, got {args.n_max}")
    claims = [c.strip() for c in args.claims.split(",") if c.strip()]
    if not claims:
        raise DomainError(f"--claims {args.claims!r} is an empty claim list")
    report = Report(meta=_meta(args, claims=claims, n_max=args.n_max), header=CSV_HEADER)
    for claim in claims:
        if claim not in _VERIFY_SUITES:
            raise DomainError(f"unknown claim {claim!r}")
        if claims.count(claim) > 1:
            raise DomainError(f"claim {claim!r} listed more than once")
    for claim in claims:
        checked = len(report.results)
        _VERIFY_SUITES[claim](report, args.n_max)
        if len(report.results) == checked:
            raise DomainError(f"claim {claim} at --n-max {args.n_max} covers no point")
    return _emit(report, args)


# -- poisson ----------------------------------------------------------------------


def cmd_poisson(args) -> int:
    policy = PrecisionPolicy(digits=args.digits)
    report = Report(
        meta=_meta(args, b_max=args.b_max, digits=args.digits),
        header=["claim_id", "b", "y_lo", "y_hi", "alpha_lo", "alpha_hi",
                "beta_lo", "beta_hi"],
    )
    poisson_suite(report, args.b_max, policy, bound_digits=args.digits)
    return _emit(report, args)


# -- certify ----------------------------------------------------------------------


_CERTIFY = {  # each target's certificates; the checks are module globals, read per call
    "appendix-b": lambda args: [check_boundary_cases()],
    "appendix-c": lambda args: [check_small_b(), check_medium(), check_above_half(),
                                check_r_positivity()],
    "root-bounds": lambda args: [check_root_bounds()],
    "exp-bounds": lambda args: [check_exp_bounds(n_max=args.n_max)],
    "z-lowerbound": lambda args: [check_z_lowerbound(n_max=args.n_max)],
}


def cmd_certify(args) -> int:
    if getattr(args, "n_max", 0) > EXACT_CUTOFF:  # only the two exact scans take --n-max
        raise ResourceError(f"certify {args.target} is exact and guarded at "
                            f"--n-max <= {EXACT_CUTOFF}")
    report = Report(meta=_meta(args, target=args.target), header=CSV_HEADER)
    for cert in _CERTIFY[args.target](args):
        report.results.append([cert.claim_id, cert.range.b_lo, cert.range.n_hi,
                               cert.status, cert.range.describe(), "", "", ""])
        report.violations.extend(cert.witnesses)
    return _emit(report, args)


# -- smalldev ----------------------------------------------------------------------


def cmd_smalldev(args) -> int:
    report = Report(meta=_meta(args, target=args.target), header=CSV_HEADER)
    if args.target == "samuels":
        report.violations.extend(verify_samuels(args.n_max))
        report.results.append(["samuels", 2, args.n_max, "scanned", "", "", "", ""])
    elif args.target == "conjecture":
        conjecture_grid(args.n_max, args.grid_step)  # the guards, before the first row
        for n in range(2, args.n_max + 1):
            result = conjecture_scan(n, args.grid_step)
            report.violations.extend(result.violations)
            report.results.append([
                "conjecture", 0, n,
                f"witnesses={len(result.equality_witnesses)}",
                f"degenerate={result.degenerate_points}", "", "", ""])
    else:  # monotonicity: recorded signs, decreases listed but not violations
        signs, decreases = tilde_p_monotonicity_scan(args.c, args.n_max)
        increases = sum(1 for v in signs.values() if v > 0)
        report.results.append(["tilde-p-monotone", 1, args.n_max,
                               f"increases={increases}",
                               f"decreases={len(decreases)}",
                               f"points={len(signs)}", "", ""])
    return _emit(report, args)


# -- merge ------------------------------------------------------------------------


def cmd_report_merge(args) -> int:
    reports = [Report.read(path) for path in args.inputs]
    return _emit(merge_reports(reports), args)


_COMMANDS = {
    "scan-p": cmd_scan_p,
    "scan-z": cmd_scan_z,
    "threshold": cmd_threshold,
    "verify": cmd_verify,
    "poisson": cmd_poisson,
    "certify": cmd_certify,
    "smalldev": cmd_smalldev,
    "report-merge": cmd_report_merge,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = _apply_config(parser, list(sys.argv[1:] if argv is None else argv))
    try:
        handler = _COMMANDS[args.command]
        return handler(args)
    except ResourceError as exc:
        print(f"binram: resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, ValueError, OSError) as exc:
        print(f"binram: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
