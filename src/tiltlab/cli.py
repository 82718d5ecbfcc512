"""Command line front end.

Exit status: 0 when the requested stages pass, 2 when a mathematical
check fails (the collection axioms, orthogonality, the tilting
verdict, a cross-check), 3 when the answer is inconclusive at the
given budgets, 4 for unreadable input or bad configuration, 5 for an
internal error (any other exception, reported on one line).
"""

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .reporting import (EXIT_BADINPUT, EXIT_INTERNAL, EmptyCorpus,
                        JobError, dg_reduce_report, parse_job, render_report,
                        run_corpus, run_pipeline)

_STAGE_OF = {
    "validate": "validate",
    "rickard": "rickard",
    "tilt": "tilt",
    "gamma": "gamma",
    "ainf-check": "ainf",
}

_HELP = {
    "validate": "check the simple-minded collection axioms",
    "rickard": "run the cone iteration and its orthogonality check",
    "tilt": "decide whether the constructed object is tilting",
    "gamma": "also present the endomorphism heart by quiver and relations",
    "ainf-check": "also cross-check through the Koszul-dual route",
    "dg-reduce": "minimal perfect forms and endomorphism dimensions",
    "corpus": "run the bundled examples against stored reports",
}


def _add_job_args(p):
    p.add_argument("job", help="path to a JSON job file")
    p.add_argument("--window", type=int, metavar="W",
                   help="half-width of the degree window for hom checks")
    p.add_argument("--budget", type=int, metavar="N",
                   help="maximum number of cones per object")
    p.add_argument("--length", type=int, metavar="L",
                   help="rickard/tilt/gamma/ainf-check: coresolution "
                        "length past the window (default: 2, deepened to "
                        "2*dim+4 when a companion is not certified); "
                        "dg-reduce: resolution length")
    p.add_argument("--arity-cap", type=int, dest="arity_cap", metavar="K",
                   help="highest operation arity kept in the minimal model")
    p.add_argument("--policy", choices=("proceed", "strict"),
                   help="how to treat a generation check that is only "
                        "necessary-verified")
    p.add_argument("--out", metavar="FILE",
                   help="also write the full report as JSON")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tiltlab",
        description="exact tilting checks for finite-dimensional algebras")
    ap.add_argument("--version", action="version",
                    version=f"tiltlab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("validate", "rickard", "tilt", "gamma", "ainf-check",
                 "dg-reduce"):
        _add_job_args(sub.add_parser(name, help=_HELP[name]))
    pc = sub.add_parser("corpus", help=_HELP["corpus"])
    pc.add_argument("dir", nargs="?", default=None,
                    help="corpus directory (default: the bundled corpus)")
    pc.add_argument("--out", metavar="FILE",
                    help="also write the summary to a file")
    return ap


def _load_job(args):
    path = Path(args.job)
    data = json.loads(path.read_text(encoding="utf-8"))
    overrides = {k: getattr(args, k)
                 for k in ("window", "budget", "length", "arity_cap",
                           "policy")}
    return parse_job(data, name=path.stem, overrides=overrides)


def default_corpus_dir():
    return Path(__file__).parent / "corpus"


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_BADINPUT if e.code else 0

    try:
        if args.command == "corpus":
            base = args.dir if args.dir is not None else default_corpus_dir()
            text, code = run_corpus(base)
        elif args.command == "dg-reduce":
            text, code = dg_reduce_report(_load_job(args))
        else:
            report = run_pipeline(_load_job(args),
                                  upto=_STAGE_OF[args.command])
            text, code = render_report(report), report["exit_code"]
            if args.out:
                Path(args.out).write_text(
                    json.dumps(report, indent=2) + "\n")
        sys.stdout.write(text)
        if args.out and args.command in ("corpus", "dg-reduce"):
            Path(args.out).write_text(text)
        return code
    except (JobError, EmptyCorpus, json.JSONDecodeError, UnicodeDecodeError,
            OSError) as e:
        print(f"tiltlab: {e}", file=sys.stderr)
        return EXIT_BADINPUT
    except Exception as e:
        print(f"tiltlab: internal error: {type(e).__name__}: {e}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
