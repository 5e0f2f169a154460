"""Command-line interface.

Subcommands: verify (family invariant suites), gaps (separation table), sep
(pairwise distance check), decode (oracle file to parameter), nfl
(no-free-lunch runs), dump-oracle and dump-scm (canonical artifacts for
a parameter file).

Report commands emit a deterministic JSON envelope (tool version, active
caps, config echo, results; keys sorted). dump-oracle writes raw
canonical oracle bytes and dump-scm / decode write raw JSON documents,
so their outputs feed straight back in as inputs.

Exit codes: 0 success, 1 a verification or internal consistency check
failed, 2 invalid input or a decode failure, 3 an enumeration cap was
exceeded. A package error exits with its class's ``exit_code`` (``errors``
lists each class's); unreadable files, bad JSON and malformed numbers exit 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from fractions import Fraction

from . import __version__
from .caps import all_caps
from .catalog import FAMILIES, Family, param_from_json, param_to_json
from .errors import LengthMismatchError, ScmLabError
from .families import BIPARTITE
from .gap import pairwise_separation_check, separation_table
from .jsonio import scm_to_json
from .learning import EXACT, MONTE_CARLO, run_nfl
from .oracle import KINDS, compute_oracle, parse, serialize
from .rational import frac_str
from .verify import all_passed, verify_family

GAP_CSV_COLUMNS = [
    "family",
    "size_param",
    "n",
    "lower_kind",
    "higher_kind",
    "ambiguity_count",
    "log2_ambiguity",
    "encoder_bits",
    "entropy_bits",
    "min_pairwise_d_int",
]


def _jsonable(value):
    """Exact-arithmetic friendly JSON conversion; Fractions stay text."""
    if isinstance(value, Fraction):
        return frac_str(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _envelope(command: str, config: dict, results) -> str:
    doc = {
        "tool": {"name": "scmlab", "version": __version__},
        "command": command,
        "config": _jsonable({**config, "caps": all_caps()}),
        "results": _jsonable(results),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write(out_path: str | None, data: bytes) -> None:
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _gap_rows_csv(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(GAP_CSV_COLUMNS)
    for row in rows:
        values = [getattr(row, column) for column in GAP_CSV_COLUMNS]
        writer.writerow([frac_str(v) if isinstance(v, Fraction) else v for v in values])
    return buffer.getvalue()


def _load_scm(args):
    """The SCM of the family member that `--param-file` describes, which
    must have the size that `--n`/`--m` gives."""
    with open(args.param_file, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    family = Family(args.family, args.size)
    scm = family.build(param_from_json(args.family, doc))
    if scm.n != family.n_vars():
        raise LengthMismatchError(f"{family.kind} size {family.size} has n={family.n_vars()}, "
                                  f"but the parameter file describes n={scm.n}")
    return scm


def _cmd_verify(args) -> int:
    family = Family(args.family, args.size)
    results = verify_family(family)
    config = {"family": family.kind, "size": family.size, "n": family.n_vars()}
    _write(args.out, _envelope("verify", config, results).encode("ascii"))
    return 0 if all_passed(results) else 1


def _cmd_gaps(args) -> int:
    family = Family(args.family, args.size)
    rows = separation_table(family, args.lower, args.higher)
    if args.format == "csv":
        _write(args.out, _gap_rows_csv(rows).encode("ascii"))
    else:
        config = {"family": family.kind, "size": family.size}
        _write(args.out, _envelope("gaps", config, rows).encode("ascii"))
    return 0


def _cmd_sep(args) -> int:
    epsilon = Fraction(args.epsilon)
    check = pairwise_separation_check(args.size, epsilon)
    if args.format == "csv":
        rows = separation_table(Family(BIPARTITE, args.size))
        rows = [
            dataclasses.replace(row, min_pairwise_d_int=check.min_pairwise_d_int)
            for row in rows
        ]
        _write(args.out, _gap_rows_csv(rows).encode("ascii"))
    else:
        config = {"family": BIPARTITE, "size": args.size, "epsilon": epsilon}
        _write(args.out, _envelope("sep", config, check).encode("ascii"))
    return 0


def _cmd_decode(args) -> int:
    with open(args.oracle_file, "rb") as fh:
        oracle = parse(fh.read())
    param = FAMILIES[args.family].decode(oracle)
    doc = param_to_json(args.family, param)
    _write(args.out, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("ascii"))
    return 0


def _cmd_nfl(args) -> int:
    config = {
        "m": args.size,
        "n_samples": args.n_samples,
        "learner": args.learner,
        "mode": args.mode,
        "trials": args.trials,
        "seed": args.seed,
    }
    # the config echoes run_nfl's arguments in its parameter order
    report = run_nfl(*config.values())
    _write(args.out, _envelope("nfl", config, report).encode("ascii"))
    return 0


def _cmd_dump_oracle(args) -> int:
    oracle = compute_oracle(_load_scm(args), args.kind)
    _write(args.out, serialize(oracle))
    return 0


def _cmd_dump_scm(args) -> int:
    doc = scm_to_json(_load_scm(args))
    _write(args.out, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("ascii"))
    return 0


def _add_family_size(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family",
        required=True,
        choices=list(FAMILIES),
        help="family kind",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", dest="size", type=int, help="tree size parameter")
    group.add_argument("--m", dest="size", type=int, help="layer/module size parameter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scmlab",
        description="exact answer oracles for binary acyclic SCMs",
    )
    parser.add_argument("--version", action="version", version=f"scmlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a family's exhaustive invariant suite")
    _add_family_size(p)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gaps", help="emit the separation table for a family")
    _add_family_size(p)
    p.add_argument("--lower", choices=list(KINDS), help="lower oracle kind")
    p.add_argument("--higher", choices=list(KINDS), help="higher oracle kind")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(fn=_cmd_gaps)

    p = sub.add_parser("sep", help="pairwise interventional distances (layer graphs)")
    p.add_argument("--m", dest="size", type=int, required=True)
    p.add_argument("--epsilon", required=True, help="ball radius, e.g. 1/5")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(fn=_cmd_sep)

    p = sub.add_parser("decode", help="recover a family parameter from an oracle file")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--oracle-file", required=True)
    p.add_argument("--out", help="write the parameter JSON here instead of stdout")
    p.set_defaults(fn=_cmd_decode)

    p = sub.add_parser("nfl", help="no-free-lunch measurement on layer graphs")
    p.add_argument("--m", dest="size", type=int, required=True)
    p.add_argument("--n-samples", type=int, required=True)
    p.add_argument("--learner", required=True)
    p.add_argument("--mode", choices=[EXACT, MONTE_CARLO], default=MONTE_CARLO)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(fn=_cmd_nfl)

    p = sub.add_parser("dump-oracle", help="canonical oracle bytes for a parameter")
    _add_family_size(p)
    p.add_argument("--param-file", required=True)
    p.add_argument("--kind", required=True, choices=list(KINDS))
    p.add_argument("--out", help="write the oracle bytes here instead of stdout")
    p.set_defaults(fn=_cmd_dump_oracle)

    p = sub.add_parser("dump-scm", help="SCM JSON document for a parameter")
    _add_family_size(p)
    p.add_argument("--param-file", required=True)
    p.add_argument("--out", help="write the SCM JSON here instead of stdout")
    p.set_defaults(fn=_cmd_dump_scm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScmLabError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, json.JSONDecodeError, ValueError, ZeroDivisionError) as exc:
        print(f"error[INPUT]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
