"""Command-line surface.

Every subcommand emits a JSON envelope {command, seed, payload, toolVersion,
schemaVersion} by default; --format csv/table give flat exports of the same
payload.  Exit codes: 0 success, 2 usage error or unwritable path, 3 domain
error (bad seed, non-member, tooLarge input, ...), 4 verification failure
(dimension check or cross-check).

Each leaf parser carries its handler and the envelope's command name
("info", "ideal list", "sweep unique", ...), and --m its real default.
``main`` builds the seed once (None for sweeps), passes it to the handler and
emits the envelope under the leaf's name.  A handler computes its result
once and returns (payload, exit code, text), where text maps "csv" or
"table" to a zero-argument renderer for a format the payload cannot render
generically.  Only the requested format is rendered: json is the envelope;
csv is a header plus one row per record of a list payload, or one row for a
dict payload, with list and dict cells written as JSON; table is one
"key: value" line per field.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import __version__
from .cone import apery_table, cone_decomposition, cone_to_json, ring_properties
from .errors import DomainError, VerificationError
from .family import (
    ArithmeticSeed,
    apery_records,
    element_order,
    has_closed_form,
    minimality_check,
    partial_sum_generators,
)
from .frobenius import pseudo_frobenius_set
from .ideal import INFINITE, catalog_to_json, gastinger_verify, generator_catalog
from .oracle import (
    apery_oracle,
    frobenius_oracle,
    order_oracle,
    pseudo_frobenius_oracle,
)
from .sweeps import sweep_gamma6, sweep_uniqueness

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_VERIFICATION = 4


def _jsonable(value):
    if value is INFINITE:
        return "infinite"
    return value


def _envelope(command: str, seed: ArithmeticSeed | None, payload) -> dict:
    return {
        "command": command,
        "seed": None if seed is None else {"a": seed.a, "d": seed.d, "m": seed.m},
        "payload": payload,
        "toolVersion": __version__,
        "schemaVersion": SCHEMA_VERSION,
    }


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(envelope: dict, fmt: str, text: dict) -> str:
    if fmt == "json":
        return json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    if fmt in text:
        return text[fmt]()
    payload = envelope["payload"]
    if fmt == "csv":
        return _csv(payload)
    return "".join(f"{k}: {v}\n" for k, v in payload.items())


def _csv(payload) -> str:
    records = [payload] if isinstance(payload, dict) else payload
    keys = list(records[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    writer.writerows([_cell(row[k]) for k in keys] for row in records)
    return buf.getvalue()


def _cell(value) -> str:
    return json.dumps(value) if isinstance(value, (list, dict)) else str(value)


class UsageError(DomainError):
    """Malformed command-line input that argparse cannot catch (exit 2)."""


def _parse_range(text: str) -> tuple[int, int]:
    """Inclusive LO:HI (or LO..HI, or one value); a reversed or non-integer range is refused."""
    lo, hi = text, text
    for sep in (":", ".."):
        if sep in text:
            lo, hi = text.split(sep, 1)
            break
    try:
        bounds = int(lo), int(hi)
    except ValueError:
        raise UsageError("invalidRange", f"range {text!r} is not LO:HI with integer bounds") from None
    if bounds[0] > bounds[1]:
        raise UsageError("invalidRange", f"range {text!r} is reversed (LO > HI)")
    return bounds


def _joined(values) -> str:
    return " ".join(str(v) for v in values) + "\n"


# ----------------------------------------------------------------------
# subcommand handlers: (seed, args) -> (payload, exit_code, text renderers)
# ----------------------------------------------------------------------

def _cmd_info(seed, args):
    gens = partial_sum_generators(seed)
    payload = {
        "generators": list(gens),
        "multiplicity": gens[0],
        "embeddingDimension": seed.m,
        "minimal": minimality_check(seed),
    }
    if has_closed_form(seed):
        pf = pseudo_frobenius_set(seed)
        payload.update({"frobenius": pf.frobenius, "pf": list(pf.pf), "type": pf.type_count})
    return payload, EXIT_OK, {}


def _cmd_apery(seed, args):
    if args.oracle:
        values = apery_oracle(partial_sum_generators(seed), seed.a)
        payload = {"byResidue": values, "set": sorted(values)}
        return payload, EXIT_OK, {"table": lambda: _joined(payload["set"])}
    records = apery_records(seed)
    payload = [{**vars(r), "expansion": list(r.expansion)} for r in records]
    return payload, EXIT_OK, {"table": lambda: _joined(sorted([0] + [r.value for r in records]))}


def _cmd_frobenius(seed, args):
    if args.oracle:
        value = frobenius_oracle(partial_sum_generators(seed))
    else:
        value = pseudo_frobenius_set(seed).frobenius
    return {"frobenius": value}, EXIT_OK, {"table": lambda: f"{value}\n"}


def _cmd_pf(seed, args):
    if args.oracle:
        pf = list(pseudo_frobenius_oracle(partial_sum_generators(seed)))
        payload = {"pf": pf, "type": len(pf), "frobenius": max(pf)}
    else:
        res = pseudo_frobenius_set(seed)
        payload = {"pf": list(res.pf), "type": res.type_count, "frobenius": res.frobenius,
                   "sourcePath": res.source_path}
    return payload, EXIT_OK, {"table": lambda: _joined(payload["pf"])}


def _cmd_order(seed, args):
    if has_closed_form(seed):
        value = element_order(seed, args.value)
    else:
        value = order_oracle(args.value, partial_sum_generators(seed))
    return {"element": args.value, "order": value}, EXIT_OK, {"table": lambda: f"{value}\n"}


def _cmd_ideal_list(seed, args):
    catalog = generator_catalog(seed, strict_21=args.strict_21)
    return catalog_to_json(catalog), EXIT_OK, {
        "table": lambda: "\n".join(f"{b.label}: {b.lhs} - {b.rhs}" for b in catalog) + "\n"}


def _cmd_ideal_verify(seed, args):
    report = gastinger_verify(seed)
    payload = {
        "dimension": _jsonable(report.dimension),
        "expected": seed.a,
        "pass": report.passed,
        "minimal": report.minimal,
        "dropOneDims": {k: _jsonable(v) for k, v in report.drop_one_dims.items()},
    }
    if report.adjudication is not None:
        payload["adjudication"] = {k: _jsonable(v) for k, v in report.adjudication.items()}
    code = EXIT_OK if report.passed and report.minimal else EXIT_VERIFICATION
    return payload, code, {"table": lambda: (
        f"dimension {payload['dimension']} expected {seed.a} pass {report.passed} minimal {report.minimal}\n")}


def _cmd_table(seed, args):
    table = apery_table(seed)
    payload = {"rows": [list(r) for r in table.rows], "top": table.top}
    return payload, EXIT_OK, {
        "csv": lambda: "".join(",".join(map(str, row)) + "\n" for row in table.rows),
        "table": lambda: "".join(" ".join(f"{v:5d}" for v in row) + "\n" for row in table.rows),
    }


def _cmd_cone(seed, args):
    dec = cone_decomposition(seed)
    return cone_to_json(dec), EXIT_OK, {"table": lambda: (
        f"tCounts {list(dec.t_counts)} free True shifts {list(dec.shifts)}\n"
        f"reduction formula {dec.reduction_formula} computed {dec.reduction_computed}\n"
        f"properties {ring_properties(dec)}\n"
    )}


def _cmd_hilbert(seed, args):
    numerator = cone_decomposition(seed).t_counts
    payload = {"numerator": list(numerator), "denominator": "1-x"}
    return payload, EXIT_OK, {
        "table": lambda: " + ".join(f"{c}x^{k}" for k, c in enumerate(numerator)) + " over (1-x)\n"}


def _jobs(args) -> int:
    """Worker count from --jobs, else the cpu count; at most the cpu count."""
    cpus = os.cpu_count() or 1
    return cpus if args.jobs is None else min(max(1, args.jobs), cpus)


def _sweep(report, verdicts: str):
    return report.to_json(), EXIT_OK, {"table": lambda: (
        f"seeds {len(report.records)} {verdicts} {len(report.counterexamples)} "
        f"reused {report.reused} elapsedMs {report.elapsed_ms}\n"
    )}


def _cmd_sweep_unique(seed, args):
    return _sweep(sweep_uniqueness(args.m, _parse_range(args.a_range), _parse_range(args.d_range),
                                   jobs=_jobs(args), checkpoint_path=args.checkpoint), "violations")


def _cmd_sweep_gamma6(seed, args):
    return _sweep(sweep_gamma6(_parse_range(args.a_range), _parse_range(args.d_range),
                               jobs=_jobs(args), checkpoint_path=args.checkpoint), "mismatches")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apsum",
        description="Exact invariants of numerical semigroups generated by partial sums "
        "of an arithmetic progression",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name, handler, summary, m=None):
        """Add leaf `name` (its envelope name) to `group` with its shared flags; --m only if m is given."""
        sweep = name.startswith("sweep ")
        p = group.add_parser(name.split()[-1], help=summary)
        p.set_defaults(handler=handler, name=name)
        if not sweep:
            p.add_argument("--a", type=int, required=True, help="first term of the progression")
            p.add_argument("--d", type=int, required=True, help="common difference")
        if m is not None:
            p.add_argument("--m", type=int, default=m, help=f"number of generators (default {m})")
        if sweep:
            p.add_argument("--a-range", required=True, help="inclusive range LO:HI")
            p.add_argument("--d-range", required=True, help="inclusive range LO:HI")
            p.add_argument("--jobs", type=int, default=None,
                           help="worker processes, at most the cpu count (default: cpu count)")
            p.add_argument("--checkpoint", default=None, help="append-only JSONL checkpoint path")
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")
        p.add_argument("--out", default=None,
                       help=None if sweep else "write output to a file instead of stdout")
        return p

    leaf(sub, "info", _cmd_info, "generators and basic invariants", m=5)
    leaf(sub, "apery", _cmd_apery, "Apery set (closed form, or --oracle)", m=5).add_argument(
        "--oracle", action="store_true", help="use the brute-force oracle instead of the closed form")
    leaf(sub, "frobenius", _cmd_frobenius, "Frobenius number", m=5).add_argument(
        "--oracle", action="store_true")
    leaf(sub, "pf", _cmd_pf, "pseudo-Frobenius numbers and type", m=5).add_argument(
        "--oracle", action="store_true")
    leaf(sub, "order", _cmd_order, "order of an element (max generator count)", m=5).add_argument(
        "--value", type=int, required=True, help="semigroup element")

    ideal_sub = sub.add_parser("ideal", help="defining-ideal catalog and verification").add_subparsers(
        dest="ideal_command", required=True)
    leaf(ideal_sub, "ideal list", _cmd_ideal_list, "catalog of binomial generators").add_argument(
        "--strict-21", action="store_true", dest="strict_21",
        help="at a=21, drop the seed-independent generators")
    leaf(ideal_sub, "ideal verify", _cmd_ideal_verify, "dimension check plus drop-one minimality")

    leaf(sub, "table", _cmd_table, "Apery table rows")
    leaf(sub, "cone", _cmd_cone, "tangent-cone decomposition summary")
    leaf(sub, "hilbert", _cmd_hilbert, "Hilbert series numerator")

    sweep_sub = sub.add_parser("sweep", help="conjecture sweeps over (a, d) grids").add_subparsers(
        dest="sweep_command", required=True)
    leaf(sweep_sub, "sweep unique", _cmd_sweep_unique, "uniqueness of Apery expansions", m=6)
    leaf(sweep_sub, "sweep gamma6", _cmd_sweep_gamma6, "six-generator Apery formula vs oracle")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    seed = None
    try:
        if hasattr(args, "a"):
            seed = ArithmeticSeed(args.a, args.d, getattr(args, "m", 5))
        payload, code, text = args.handler(seed, args)
        _emit(_render(_envelope(args.name, seed, payload), args.format, text), args.out)
    except (DomainError, VerificationError) as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        if isinstance(exc, UsageError):
            return EXIT_USAGE
        return EXIT_DOMAIN if isinstance(exc, DomainError) else EXIT_VERIFICATION
    except OSError as exc:  # an unwritable --out or --checkpoint path
        print(json.dumps({"error": "ioError", "message": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, OverflowError) as exc:  # a sieve or table sized by a huge input
        message = f"input too large to compute: {exc!r}"
        print(json.dumps({"error": "tooLarge", "message": message}), file=sys.stderr)
        return EXIT_DOMAIN
    return code


if __name__ == "__main__":
    sys.exit(main())
