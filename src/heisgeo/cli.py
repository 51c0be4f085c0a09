"""Command-line front door: every experiment as a reproducible run.

Exit codes: 0 success, 2 hypothesis violation, 3 resource cap, 64 usage.
All randomness flows from --seed, no default depends on the clock or the
environment, and structured outputs embed the full run configuration,
so identical invocations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

# covering, ergodic and separation are imported by the commands that use
# them, so the lattice commands start without loading those layers
from . import __version__
from .balls import (
    DEFAULT_CAP,
    BallSpec,
    ball_cardinality,
    doubling_table,
    symmetric_difference_cardinality,
    t_boundary_count,
)
from .core import (
    ContinuousPoint,
    LatticePoint,
    dist_le_exact,
    generator,
    inverse,
    lattice_identity,
    multiply,
)
from .errors import HypothesisViolation, ResourceCapError, check_cap
from .spherequad import sphere_point


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    """argparse variant that reports bad flags as exit code 64."""

    def error(self, message):
        raise UsageError(message)


def parse_sigma(word: str, n: int) -> LatticePoint:
    """Generator word: comma-separated e<j> / ie<j>, optional ^-1."""
    out = lattice_identity(n)
    for raw in word.split(","):
        tok = raw.strip()
        invert = tok.endswith("^-1")
        if invert:
            tok = tok[:-3]
        imag = tok.startswith("ie")
        body = tok[2:] if imag else tok[1:] if tok.startswith("e") else ""
        if not body.isdigit():
            raise UsageError(f"bad generator token {raw!r}")
        j = int(body)
        if not 1 <= j <= n:
            raise UsageError(f"generator index {j} outside 1..{n}")
        g = generator(n, j - 1, imag)
        if invert:
            g = inverse(g)
        out = multiply(out, g)
    return out


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")  # argparse reports it as usage
    return value


def _count(text: str) -> int:
    if int(text) < 1:  # argparse reports int's ValueError as usage too
        raise argparse.ArgumentTypeError(f"{text!r} is below 1")
    return int(text)


def _config_of(args) -> dict:
    # out and workers steer artifact placement and scheduling, never results
    skip = {"func", "out", "workers"}
    cfg = {}
    for key, val in sorted(vars(args).items()):
        if key in skip or val is None:
            continue
        cfg[key.replace("_", "-")] = str(val) if isinstance(val, Fraction) else val
    return cfg


def _json_fallback(x):
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"unserializable {type(x)!r}")


def _table(header: str, rows) -> list[str]:
    """CSV lines of a table: the header, then one line per row; floats and
    Fractions as repr(float), everything else as str."""
    return [header] + [",".join(repr(float(v)) if isinstance(v, (float, Fraction)) else str(v)
                                for v in row) for row in rows]


def _emit(args, result, text=None, checklist=None) -> None:
    """Write the command's artifact to --out or stdout.

    The JSON document (command, config, version, result, checklist) is
    written for --format json and for commands without a text form (text
    None); otherwise a bare value (text a str) or a table (text a list of
    CSV lines) under a `#` header that embeds the same metadata.
    """
    if args.format == "json" or text is None:
        doc = {"command": args.command, "config": _config_of(args),
               "version": __version__, "result": result}
        if checklist is not None:
            doc["checklist"] = checklist
        body = json.dumps(doc, sort_keys=True, indent=2, default=_json_fallback) + "\n"
    elif isinstance(text, str):
        body = text + "\n"
    else:
        meta = json.dumps(_config_of(args), sort_keys=True, default=_json_fallback)
        body = (f"# command: {args.command}\n# config: {meta}\n# version: {__version__}\n"
                + "\n".join(text) + "\n")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


# --- subcommands -------------------------------------------------------------

def cmd_ball(args) -> int:
    check_cap((2 * args.k + 1) ** (2 * args.n), args.cap, "horizontal grid cells")
    card = ball_cardinality(args.n, args.k)
    _emit(args, {"cardinality": card}, str(card))
    return 0


def cmd_doubling(args) -> int:
    rows = doubling_table(args.n, args.k_max, args.cap)
    _emit(args, [{"k": r.k, "card": r.card, "card_sq": r.card_sq, "ratio": float(r.ratio)}
                 for r in rows],
          _table("k,card,card_sq,ratio", [(r.k, r.card, r.card_sq, r.ratio) for r in rows]))
    return 0


def cmd_folner(args) -> int:
    if (args.k is None) == (args.k_max is None):
        raise UsageError("folner needs exactly one of --k or --k-max")
    sigma = parse_sigma(args.sigma, args.n)
    ks = [args.k] if args.k_max is None else range(1, args.k_max + 1)
    rows = []
    for k in ks:
        sym, card = symmetric_difference_cardinality(args.n, k, sigma, args.cap)
        rows.append((k, sym, card, Fraction(sym, card)))
    docs = [{"k": k, "sym_diff": sym, "card": card, "ratio": str(ratio)}
            for k, sym, card, ratio in rows]
    if args.k_max is None:
        _emit(args, docs[0], docs[0]["ratio"])
    else:
        _emit(args, docs, _table("k,sym_diff,card,ratio", rows))
    return 0


def cmd_boundary(args) -> int:
    count = t_boundary_count(args.n, args.k, args.t, args.cap)
    _emit(args, {"count": count}, str(count))
    return 0


def cmd_net(args) -> int:
    from . import covering as cv

    count, centers = cv.covering_net(args.n, args.rho, args.cap)
    pts = [{"z": [[c.real, c.imag] for c in p.z], "tau": p.tau} for p in centers]
    _emit(args, {"count": count, "centers": pts}, str(count))
    return 0


def _random_carpet(rng, count: int, box: int, rmax: int):
    """Lattice carpet with unique centers and integer radii."""
    from . import covering as cv

    centers = (2 * box + 1) ** 2 * (6 * box + 1)  # the distinct (a, b, m) that can be drawn
    if count > centers:
        raise UsageError(f"--count {count} exceeds the {centers} distinct centers")
    balls = []
    seen = set()
    while len(balls) < count:
        a = int(rng.integers(-box, box + 1))
        b = int(rng.integers(-box, box + 1))
        m = a * b + 2 * int(rng.integers(-3 * box, 3 * box + 1))
        if (a, b, m) in seen:
            continue
        seen.add((a, b, m))
        balls.append(BallSpec(LatticePoint((a,), (b,), m),
                              int(rng.integers(1, rmax + 1))))
    return cv.Carpet(tuple(balls))


def cmd_bcp(args) -> int:
    from . import covering as cv

    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0
    all_covered = True
    for trial in range(args.trials):
        carpet = _random_carpet(rng, args.count, 12, 8)
        chosen = cv.besicovitch_select(carpet)
        centers = [b.center for b in carpet.balls]
        mult = cv.selection_multiplicity(chosen, centers)
        covered = all(
            any(dist_le_exact(c, b.center, b.radius) for b in chosen)
            for c in centers
        )
        worst = max(worst, mult)
        all_covered = all_covered and covered
        rows.append((trial, len(carpet.balls), len(chosen), mult, covered))
    table = _table("trial,balls,selected,multiplicity,covered", rows)
    _emit(args, table[1:], table,
          {"covered_all_trials": all_covered, "max_multiplicity": worst})
    return 0


def cmd_colour(args) -> int:
    from . import covering as cv

    rng = np.random.default_rng(args.seed)
    rows = []
    all_ok = True
    for trial in range(args.trials):
        carpet = _random_carpet(rng, args.count, 12, 8)
        chosen = cv.besicovitch_select(carpet)
        part = cv.colour_partition(chosen, args.chi)
        ok = all(cv.is_well_separated(cls) for cls in part.classes)
        all_ok = all_ok and ok
        rows.append((trial, len(chosen), part.chi_used, ok))
    table = _table("trial,selected,classes_used,separated", rows)
    _emit(args, table[1:], table, {"all_classes_separated": all_ok})
    return 0


def cmd_boundgen(args) -> int:
    from . import covering as cv

    nu, F, stack, eps, delta, t = cv.synthetic_boundgen_instance(
        args.f, args.t, args.height, args.clusters, args.seed)
    res = cv.boundgen_select(nu, F, stack, eps, delta, t, args.chi)
    result = {
        "k": res.k,
        "selected": len(res.selection),
        "captured": len(res.captured),
        "capture_fraction": res.report["postconditions"]["capture_fraction"],
        "stages": res.report["stages"],
    }
    _emit(args, result, checklist=res.report["hypotheses"])
    return 0


def cmd_height(args) -> int:
    from . import covering as cv

    params = cv.HeightParams(chi=args.chi, kappa=args.kappa, eps=args.eps,
                             delta=args.delta, R=args.R)
    res = cv.stack_height(params)
    _emit(args, {"q": res.q, "q_list": list(res.q_list), "p_list": list(res.p_list),
                 "stated_bound_holds": res.stated_bound_holds}, str(res.q))
    return 0


def cmd_lss(args) -> int:
    from . import separation as sp

    eps = float(args.eps)
    if not 0.0 < eps < 1.0:
        raise HypothesisViolation("eps_range", f"eps = {eps} must lie in (0, 1)")
    if not args.R > 1:
        raise HypothesisViolation("scale", f"R = {args.R} must exceed 1")
    holds = 0
    gaps = []
    for trial in range(args.trials):
        rng = np.random.default_rng([args.seed, trial])
        cfg = sp.random_lss_config(args.R, float(args.eps), args.n, rng=rng)
        res = sp.lss_check(*cfg, eps=float(args.eps), R=args.R)
        holds += int(res.holds)
        gaps.append(res.gap)
    result = {"trials": args.trials, "holds": holds,
              "min_gap": min(gaps), "max_gap": max(gaps)}
    _emit(args, result, checklist={"all_hold": holds == args.trials,
                                   "bound": sp.lss_bound(float(args.eps))})
    return 0


def cmd_closeball(args) -> int:
    from . import separation as sp

    rng = np.random.default_rng(args.seed)
    dim = 2 * args.n + 1
    verified = 0
    branches: dict = {}
    for trial in range(args.trials):
        rho = 2.0 * sp.DEFAULT_CLOSEBALL_R * args.r * (1.1 + float(rng.uniform(0.0, 2.0)))
        xi = rng.standard_normal(dim)
        xi /= float(np.linalg.norm(xi))
        base = ContinuousPoint(
            tuple(complex(*rng.normal(size=2)) for _ in range(args.n)),
            float(rng.normal()),
        )
        p = multiply(sphere_point(rho, xi), base)
        res = sp.closeball_witness(p, base, args.r, samples=160,
                                   seed=args.seed * 977 + trial)
        verified += int(res.verified)
        br = res.report["branch"]
        branches[br] = branches.get(br, 0) + 1
    result = {"trials": args.trials, "verified": verified, "branches": branches}
    _emit(args, result, checklist={"all_verified": verified == args.trials,
                                   "R": sp.DEFAULT_CLOSEBALL_R, "C": sp.DEFAULT_CLOSEBALL_C})
    return 0


def cmd_intersect(args) -> int:
    from . import separation as sp

    report = sp.intersection_search(args.n, args.R, args.trials,
                                    max_chain=args.max_chain, seed=args.seed,
                                    workers=args.workers)
    _emit(args, report)
    return 0


def _build_action(args):
    from . import ergodic as er

    if args.action:
        with open(args.action) as fh:
            return er.action_from_spec(json.load(fh))
    if args.masses == "linear":
        size = args.m ** 3
        total = size * (size + 1) // 2
        weights = (Fraction(i + 1, total) for i in range(size))  # drawn after the state cap
        return er.make_quotient_action(1, args.m, weights)
    return er.make_quotient_action(1, args.m)


def cmd_ergodic(args) -> int:
    from . import ergodic as er

    action = _build_action(args)
    if not 0 <= args.target < len(action.states):
        raise UsageError(f"--target {args.target} outside 0..{len(action.states) - 1}")
    target = action.states[args.target]
    f = lambda y: Fraction(1) if y == target else Fraction(0)
    ks = list(range(1, args.k_max + 1)) if args.k_max is not None else [args.k]
    rows = er.convergence_rows(action, f, ks, args.cap)
    _emit(args, [{"k": k, "x_id": x, "value": float(v), "abs_err": float(e)}
                 for k, x, v, e in rows],
          _table("k,x_id,value,abs_err", rows))
    return 0


def cmd_maximal(args) -> int:
    from . import ergodic as er

    action = _build_action(args)
    rng = np.random.default_rng(args.seed)
    rows = []
    all_hold = True
    for trial in range(args.trials):
        f = {x: Fraction(int(rng.integers(-6, 7)), 3) for x in action.states}
        out = er.maximal_inequality_experiment(action, f, args.eps, args.k_max, cap=args.cap)
        ok = out.lhs_measure <= out.bound
        all_hold = all_hold and ok
        rows.append((trial, out.lhs_measure, out.bound, ok))
    table = _table("trial,lhs,bound,holds", rows)
    _emit(args, table[1:], table, {"all_hold": all_hold})
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> Parser:
    parser = Parser(prog="heisgeo", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

    def common(p, *, seed=False, trials=None, fmt="plain", cap_help=None):
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--format", choices=("plain", "csv", "json"), default=fmt)
        p.add_argument("--cap", type=int, default=DEFAULT_CAP, help=cap_help)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if trials is not None:
            p.add_argument("--trials", type=_count, default=trials)

    p = sub.add_parser("ball", help="lattice ball cardinality")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("doubling", help="|B_k^2| / |B_k| table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    common(p, fmt="csv")
    p.set_defaults(func=cmd_doubling)

    p = sub.add_parser("folner", help="symmetric difference ratio")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--k-max", type=_count)
    p.add_argument("--sigma", required=True)
    common(p)
    p.set_defaults(func=cmd_folner)

    p = sub.add_parser("boundary", help="thickened sphere point count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=_fraction, required=True)
    common(p, cap_help="largest horizontal fiber grid of B_(k+t), in cells; "
                       "the points are counted per fiber, not enumerated")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("net", help="greedy rho/2-net of the unit ball")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=_finite, required=True)
    common(p)
    p.set_defaults(func=cmd_net)

    p = sub.add_parser("bcp", help="Besicovitch selection on random carpets")
    p.add_argument("--count", type=int, default=60, help="balls per carpet")
    common(p, seed=True, trials=20, fmt="csv")
    p.set_defaults(func=cmd_bcp)

    p = sub.add_parser("colour", help="well-separated colouring of selections")
    p.add_argument("--count", type=int, default=60)
    p.add_argument("--chi", type=int, default=12)
    common(p, seed=True, trials=20, fmt="csv")
    p.set_defaults(func=cmd_colour)

    p = sub.add_parser("boundgen", help="boundary selection on a synthetic instance")
    p.add_argument("--f", type=int, default=3, help="cluster size")
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--clusters", type=int, default=1)
    p.add_argument("--chi", type=int, default=4)
    common(p, seed=True, fmt="json")
    p.set_defaults(func=cmd_boundgen)

    p = sub.add_parser("height", help="stack height recursion")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--eps", type=_fraction, required=True)
    p.add_argument("--delta", type=_fraction, required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--R", type=_finite, default=2.0)
    common(p)
    p.set_defaults(func=cmd_height)

    p = sub.add_parser("lss", help="shell separation gap over random configs")
    p.add_argument("--n", type=_count, default=1)
    p.add_argument("--R", type=_finite, default=1e4)
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 2))
    common(p, seed=True, trials=100, fmt="json")
    p.set_defaults(func=cmd_lss)

    p = sub.add_parser("closeball", help="equidistant witness construction")
    p.add_argument("--n", type=_count, default=1)
    p.add_argument("--r", type=_finite, default=0.5)
    common(p, seed=True, trials=20, fmt="json")
    p.set_defaults(func=cmd_closeball)

    p = sub.add_parser("intersect", help="incident sphere chain search")
    p.add_argument("--n", type=_count, default=1)
    p.add_argument("--R", type=_finite, default=1e4)
    p.add_argument("--max-chain", type=int, default=3)
    p.add_argument("--workers", type=_count, default=1)
    common(p, seed=True, trials=100, fmt="json")
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("ergodic", help="weighted ball averages over a finite action")
    p.add_argument("--action", help="JSON action spec file")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--masses", choices=("uniform", "linear"), default="uniform")
    p.add_argument("--target", type=int, default=0, help="indicator state index")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--k-max", type=_count)
    common(p, fmt="csv")
    p.set_defaults(func=cmd_ergodic)

    p = sub.add_parser("maximal", help="maximal inequality experiment")
    p.add_argument("--action", help="JSON action spec file")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--masses", choices=("uniform", "linear"), default="linear")
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 4))
    p.add_argument("--k-max", type=_count, default=6)
    common(p, seed=True, trials=5, fmt="csv")
    p.set_defaults(func=cmd_maximal)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args) or 0
    except (UsageError, ValueError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 64
    except HypothesisViolation as exc:
        sys.stderr.write(f"hypothesis violation: {exc}\n")
        return 2
    except ResourceCapError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
