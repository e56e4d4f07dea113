"""flatrank command-line interface.

Subcommands: rank, construct, verify {oddtown,fw,rainbow,bollobas,badbox},
experiment {exhaustive,random-semidiagonal,badbox-sample,oddtown-search}.

Exit codes: 0 = success / verified; 1 = hypothesis fails or a bound check is
violated; 2 = usage, parse, or cap errors.  Each report is serialized once,
in canonical bytes (sorted keys, no whitespace, trailing newline); the same
bytes go to stdout and, with --out, to a file (atomic write).  Each input file
is read once, and its digest is taken of the bytes that were parsed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from . import __version__
from .field import FieldDescriptor, GF2, make_binary_field, make_prime_field
from .formats import (
    badbox_from_document,
    badbox_to_document,
    canonical_json,
    configuration_from_document,
    digest_params,
    hypergraph_from_document,
    load_document,
    make_report,
    set_family_from_document,
    setpair_from_document,
    tensor_from_document,
    tensor_text,
    tuple_family_from_document,
    write_atomic,
)
from .fw import SamplerExhausted, sample_badbox_family, verify_badbox_chain, verify_fw_chain
from .rainbow import bollobas_verify, certify_no_rainbow_bound
from .rng import Rng
from .search import (
    exhaustive_min_mfrank,
    random_cross_oddtown_search,
    random_semidiagonal_sweep,
)
from .setfam import verify_oddtown_chain
from .tensor import (
    axis_constant_construction,
    flattening_rank,
    flattening_ranks,
    partition_construction,
)


class VerificationFailed(Exception):
    """Raised when a verify pipeline finds its hypothesis or a bound broken."""


def _parse_field(spec: str) -> FieldDescriptor:
    spec = spec.strip().lower()
    if spec in ("gf2", "gf(2)", "2"):
        return GF2
    if spec.startswith("prime:"):
        return make_prime_field(int(spec.split(":", 1)[1]))
    if spec.startswith("binary:"):
        return make_binary_field(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown field spec {spec!r}; use gf2, prime:P, or binary:K")


def _emit(report: dict, out: str | None, csv_path: str | None = None) -> None:
    text = canonical_json(report)
    sys.stdout.write(text)
    if out:
        write_atomic(out, text)
    if csv_path:
        results = report.get("results", {})
        flat = {k: v for k, v in results.items() if isinstance(v, (int, float, str, bool)) or v is None}
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(list(flat))
            writer.writerow([flat[k] for k in flat])


def _cmd_rank(args) -> int:
    doc, digest = load_document(args.tensor)
    t = tensor_from_document(doc)
    results: dict = {"dims": list(t.dims), "field": t.field.to_document()}
    if args.axis is not None:
        results["axis"] = args.axis
        results["frank"] = flattening_rank(t, args.axis)
    else:
        franks = flattening_ranks(t)
        if args.max:
            results["mfrank"] = max(franks)
        else:
            results["sum_franks"] = sum(franks)
        results["franks"] = franks
    _emit(make_report("rank", digest, results), args.out)
    return 0


def _cmd_construct(args) -> int:
    field = _parse_field(args.field)
    if args.kind == "partition":
        t = partition_construction(args.a, args.d, field)
        meta = {"construction": "partition", "a": args.a, "d": args.d}
    else:
        if args.axis is None:
            raise ValueError("axis-constant construction needs --axis")
        t = axis_constant_construction(args.a, args.d, args.axis, field)
        meta = {"construction": "axis-constant", "a": args.a, "d": args.d, "axis": args.axis}
    text = tensor_text(t, meta, args.sparse)
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# stderr message of each failed chain, unless _failure finds a sharper one in its report
_FAILURES = {
    "oddtown": "cross-Oddtown chain failed; see report",
    "fw": "configuration bound chain failed; see report",
    "rainbow": "rainbow bound chain failed; see report",
    "bollobas": "set-pair verification failed; see report",
    "badbox": "bad-box family failed verification",
}


def _run_chain(doc: dict, args) -> dict:
    """The report of the ``args.target`` chain on the input document."""
    if args.target == "oddtown":
        return verify_oddtown_chain(tuple_family_from_document(doc))
    if args.target == "fw":
        fam = set_family_from_document(doc)
        cfg = configuration_from_document(load_document(args.config)[0])
        return verify_fw_chain(fam, cfg, distinct=args.distinct)
    if args.target == "rainbow":
        field = make_binary_field(args.field_k) if args.field_k is not None else None
        return certify_no_rainbow_bound(hypergraph_from_document(doc), field)
    if args.target == "bollobas":
        return bollobas_verify(setpair_from_document(doc))
    fam = badbox_from_document(doc)
    return verify_badbox_chain(fam, fam.k if args.k is None else args.k)


def _failure(target: str, results: dict) -> str:
    if results.get("satisfying") is False:
        return "family is not configuration-satisfying"
    if results.get("rainbow_matching"):
        return "hypergraph contains a full-size rainbow matching"
    return _FAILURES[target]


def _cmd_verify(args) -> int:
    doc, digest = load_document(args.input)
    results = _run_chain(doc, args)
    _emit(make_report(f"verify {args.target}", digest, results), args.out)
    if not results.get("verified"):  # an unsatisfying fw family's report has no "verified"
        raise VerificationFailed(_failure(args.target, results))
    return 0


def _cmd_experiment(args) -> int:
    seed, failure = args.seed, None
    if args.kind == "exhaustive":
        params = {"a": args.a, "d": args.d}
        rep = exhaustive_min_mfrank(args.a, args.d)
        predicted = -(-args.a // (args.d - 1))
        results = rep.to_document()
        results["predicted_min_mfrank"] = predicted
        results["matches_prediction"] = rep.min_mfrank == predicted
        seed = None
        if not results["matches_prediction"]:
            failure = "exhaustive minimum disagrees with the predicted bound"
    elif args.kind == "random-semidiagonal":
        field = _parse_field(args.field)
        params = {"a": args.a, "d": args.d, "count": args.count, "field": field.to_document()}
        rep = random_semidiagonal_sweep(args.a, args.d, args.count, args.seed, field=field)
        results = rep.to_document()
        if rep.violations:
            failure = f"{rep.violations} tensors violated the rank bound"
    elif args.kind == "badbox-sample":
        params = {"t": args.t, "s": args.s}
        try:
            fam = sample_badbox_family(args.t, args.s, args.seed, max_attempts=args.max_attempts)
        except SamplerExhausted as exc:
            results = {"failed_attempts": exc.attempts, "family": None}
            failure = str(exc)
        else:
            results = {
                "family": badbox_to_document(fam),
                "size": len(fam.members_factors),
                "k": fam.k,
                "attempts": fam.attempts,
            }
    else:  # oddtown-search
        params = {"n": args.n, "d": args.d, "budget": args.budget}
        rep = random_cross_oddtown_search(args.n, args.d, args.budget, Rng(args.seed))
        results = rep.to_document()
    report = make_report(f"experiment {args.kind}", digest_params(params), results, seed=seed)
    _emit(report, args.out, args.csv)
    if failure:
        raise VerificationFailed(failure)
    return 0


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and the parser of each subcommand by name."""
    parser = argparse.ArgumentParser(prog="flatrank", description=__doc__)
    parser.add_argument("--version", action="version", version=f"flatrank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="flattening ranks of a tensor document")
    p_rank.add_argument("tensor", help="tensor JSON file")
    mode = p_rank.add_mutually_exclusive_group(required=True)
    mode.add_argument("--axis", type=int, help="0-based axis for a single flattening rank")
    mode.add_argument("--max", action="store_true", help="max-flattening rank")
    mode.add_argument("--sum", action="store_true", help="sum of all flattening ranks")
    p_rank.add_argument("--out", help="write the report to this file")
    p_rank.set_defaults(func=_cmd_rank)

    p_con = sub.add_parser("construct", help="write an extremal construction tensor")
    p_con.add_argument("kind", choices=["partition", "axis-constant"])
    p_con.add_argument("--a", type=int, required=True, help="axis size")
    p_con.add_argument("--d", type=int, required=True, help="tensor order")
    p_con.add_argument("--axis", type=int, help="collapsed axis (axis-constant only)")
    p_con.add_argument("--field", default="gf2", help="gf2 | prime:P | binary:K")
    p_con.add_argument("--sparse", action="store_true", help="write sparse entries")
    p_con.add_argument("--out", help="output tensor file (default stdout)")
    p_con.set_defaults(func=_cmd_construct)

    p_ver = sub.add_parser("verify", help="run a bound-chain verifier")
    p_ver.add_argument(
        "target", choices=["oddtown", "fw", "rainbow", "bollobas", "badbox"]
    )
    p_ver.add_argument("input", help="input document")
    p_ver.add_argument("--config", help="configuration file (fw)")
    p_ver.add_argument(
        "--distinct",
        choices=["sets", "positions"],
        default="sets",
        help="distinctness semantics for fw witnesses",
    )
    p_ver.add_argument("--field-k", type=int, help="binary field degree override (rainbow)")
    p_ver.add_argument("--k", type=int, help="clique order override (badbox)")
    p_ver.add_argument("--out", help="write the report to this file")
    p_ver.set_defaults(func=_cmd_verify)

    p_exp = sub.add_parser("experiment", help="seeded sweeps and samplers")
    p_exp.add_argument(
        "kind",
        choices=["exhaustive", "random-semidiagonal", "badbox-sample", "oddtown-search"],
    )
    p_exp.add_argument("--a", type=int, help="axis size")
    p_exp.add_argument("--d", type=int, help="tensor order / tuple width")
    p_exp.add_argument("--n", type=int, help="ground-set size (oddtown-search)")
    p_exp.add_argument("--t", type=int, help="factor ground size (badbox-sample)")
    p_exp.add_argument("--s", type=int, help="number of factors (badbox-sample)")
    p_exp.add_argument("--count", type=int, help="sample count (random-semidiagonal)")
    p_exp.add_argument("--budget", type=int, help="candidate budget (oddtown-search)")
    p_exp.add_argument("--seed", type=int, help="RNG seed (required for randomized kinds)")
    p_exp.add_argument("--field", default="gf2", help="gf2 | prime:P | binary:K")
    p_exp.add_argument("--max-attempts", type=int, default=1000)
    p_exp.add_argument("--out", help="write the report to this file")
    p_exp.add_argument("--csv", help="also write a flat CSV summary")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser, {"rank": p_rank, "construct": p_con, "verify": p_ver, "experiment": p_exp}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed as the full parser parses it.

    A named subcommand's arguments go to its own parser, which takes about
    half the time (verify 40 -> 20 us a call); no arguments, options and
    unknown commands go through the full parser.  Leftover arguments are
    parsed again by the full parser, which exits with its own error.
    """
    parser, commands = build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv) if extra else args


def _validate_experiment_args(args) -> None:
    need = {
        "exhaustive": ["a", "d"],
        "random-semidiagonal": ["a", "d", "count", "seed"],
        "badbox-sample": ["t", "s", "seed"],
        "oddtown-search": ["n", "d", "budget", "seed"],
    }[args.kind]
    missing = [name for name in need if getattr(args, name) is None]
    if missing:
        raise ValueError(f"experiment {args.kind} requires --" + ", --".join(missing))
    if "seed" in need and not 0 <= args.seed < 1 << 64:
        raise ValueError(f"--seed must be in [0, 2^64), got {args.seed}")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.command == "experiment":
            _validate_experiment_args(args)
        if args.command == "verify" and args.target == "fw" and not args.config:
            raise ValueError("verify fw requires --config")
        return args.func(args)
    except VerificationFailed as exc:
        print(f"flatrank: verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"flatrank: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
