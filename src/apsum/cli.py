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
csv is a header and a row per record, or one row for a dict payload, with
containers as JSON (``table`` prints bare rows); table is a "key: value" line
per field.  JSON and CSV are byte for byte what ``json.dumps(indent=2,
sort_keys=True)`` and ``csv.writer`` (lineterminator "\\n") write; a CSV cell
holding ``,``, ``"`` or a newline is quoted, inner ``"`` doubled.  Table text
joins the cells of ``AperyTable.columns`` and a record fills a %-template;
the rest goes through ``_json``.  The parser tree is built once per process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache, partial

from . import __version__
from .cone import apery_table, cone_to_json, ring_properties
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
    return "infinite" if value is INFINITE else value


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_key = json.encoder.encode_basestring_ascii  # what json.dumps(str) calls


def _json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, with ``pad`` the newline and current indent.

    With ``indent`` set, the stdlib drops to its pure-Python encoder, one
    generator frame per item; here a plain int is its str, written inline as
    a dict value, a list of plain ints (bools print as true/false, so they
    are not) is one join, a dict key goes straight to the C string encoder,
    and other scalars and empty containers go through the C encoder.  A
    callable renders itself at ``pad``.  An f-string copies a body once, ``+`` once per step.
    """
    if type(value) is int:
        return str(value)
    if isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        if set(map(type, value)) == {int}:
            body = ("," + inner).join(map(str, value))
        else:
            body = ("," + inner).join(_json(v, inner) for v in value)
        return f"[{inner}{body}{pad}]"
    if isinstance(value, dict) and value:
        inner = pad + "  "
        body = ("," + inner).join(_key(k) + ": " + (str(v) if type(v) is int else _json(v, inner))
                                  for k, v in sorted(value.items()))
        return f"{{{inner}{body}{pad}}}"
    return value(pad) if callable(value) else json.dumps(value)


def _row_text(table, sep: str, cell=str):
    """The rows zipped from the table's columns of ``cell`` strings, cells joined by ``sep``."""
    return map(sep.join, zip(*table.columns(lambda ints: tuple(map(cell, ints)))))


def _rows_json(table, pad: str | None = None) -> str:
    """``json.dumps`` of the table's rows: compact, or with indent=2 at ``pad``."""
    if pad is None:
        return f"[[{'], ['.join(_row_text(table, ', '))}]]"
    row, cell = pad + "  ", pad + "    "
    return f"[{row}[{cell}{(row + '],' + row + '[' + cell).join(_row_text(table, ',' + cell))}{row}]{pad}]"


def _records_json(records, pad: str) -> str:
    """The indent=2 dump at ``pad`` of the records as dicts, expansion a list: one %-template, keys sorted."""
    item, field, digit = pad + "  ", pad + "    ", pad + "      "
    template = (f'{{{field}"expansion": [{digit}%d,{digit}%d,{digit}%d,{digit}%d{field}],{field}"gap": %d,'
                f'{field}"multiplier": %d,{field}"n": %d,{field}"order": %d,{field}"value": %d{item}}}')
    body = ("," + item).join([template % (e0, e1, e2, e3, gap, mult, n, order, value)
                              for n, mult, value, gap, order, (e0, e1, e2, e3) in records])
    return f"[{item}{body}{pad}]"


def _render(envelope: dict, fmt: str, text: dict) -> str:
    if fmt == "json":
        return _json(envelope) + "\n"
    if fmt in text:
        return text[fmt]()
    payload = envelope["payload"]
    if fmt == "csv":
        return _csv(payload)
    return "".join(f"{k}: {v}\n" for k, v in payload.items())


def _csv(payload) -> str:
    records = [payload] if isinstance(payload, dict) else payload
    keys = list(records[0])
    rows = [keys, *([_cell(r[k]) for k in keys] for r in records)]
    return "".join(",".join(map(_quoted, row)) + "\n" for row in rows)


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if "," in cell or '"' in cell or "\n" in cell else cell


def _cell(value) -> str:
    return value() if callable(value) else json.dumps(value) if isinstance(value, (list, tuple, dict)) else str(value)


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
    return partial(_records_json, records), EXIT_OK, {
        "csv": lambda: _csv([r._asdict() for r in records]),
        "table": lambda: _joined(sorted([0] + [r.value for r in records]))}


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
    payload = {"rows": partial(_rows_json, table), "top": table.top}
    return payload, EXIT_OK, {
        "csv": lambda: "\n".join(_row_text(table, ",")) + "\n",
        "table": lambda: "\n".join(_row_text(table, " ", "{:5d}".format)) + "\n",
    }


def _cmd_cone(seed, args):
    table = apery_table(seed)
    return cone_to_json(table, rows=partial(_rows_json, table)), EXIT_OK, {"table": lambda: (
        f"tCounts {list(table.t_counts)} free True shifts {list(table.shifts)}\n"
        f"reduction formula {table.reduction_formula} computed {table.top}\n"
        f"properties {ring_properties(table)}\n"
    )}


def _cmd_hilbert(seed, args):
    numerator = apery_table(seed).t_counts
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


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process and shared by every query.

    Sharing is sound: each ``parse_args`` fills a fresh Namespace and changes
    no parser, a handler looks up what it calls when it runs, so a
    monkeypatch still takes effect, and help reads COLUMNS when it is
    printed, not when the tree is built.
    """
    parser = argparse.ArgumentParser(
        prog="apsum",
        description="Exact invariants of numerical semigroups generated by partial sums "
        "of an arithmetic progression",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name, handler, summary, m=None, extra=()):
        """Add leaf `name` (its envelope name) to `group` with its shared flags,
        --m only if m is given, then each (flag, kwargs) of `extra`."""
        p = group.add_parser(name.split()[-1], help=summary)
        sweep = name.startswith("sweep ")
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
        p.add_argument("--format", choices=("json", "csv", "table"), default="json",
                       help="output format (default: json)")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")
        for flag, kwargs in extra:
            p.add_argument(flag, **kwargs)

    oracle = ("--oracle", {"action": "store_true",
                           "help": "use the brute-force oracle instead of the closed form"})
    leaf(sub, "info", _cmd_info, "generators and basic invariants", m=5)
    leaf(sub, "apery", _cmd_apery, "Apery set (closed form, or --oracle)", m=5, extra=[oracle])
    leaf(sub, "frobenius", _cmd_frobenius, "Frobenius number", m=5, extra=[oracle])
    leaf(sub, "pf", _cmd_pf, "pseudo-Frobenius numbers and type", m=5, extra=[oracle])
    leaf(sub, "order", _cmd_order, "order of an element (max generator count)", m=5, extra=[(
        "--value", {"type": int, "required": True, "help": "semigroup element"})])

    ideal = sub.add_parser("ideal", help="defining-ideal catalog and verification")
    ideal_sub = ideal.add_subparsers(dest="ideal_command", required=True)
    leaf(ideal_sub, "ideal list", _cmd_ideal_list, "catalog of binomial generators", extra=[(
        "--strict-21", {"action": "store_true", "dest": "strict_21",
                        "help": "at a=21, drop the seed-independent generators"})])
    leaf(ideal_sub, "ideal verify", _cmd_ideal_verify, "dimension check plus drop-one minimality")

    leaf(sub, "table", _cmd_table, "Apery table rows")
    leaf(sub, "cone", _cmd_cone, "tangent-cone decomposition summary")
    leaf(sub, "hilbert", _cmd_hilbert, "Hilbert series numerator")

    sweep = sub.add_parser("sweep", help="conjecture sweeps over (a, d) grids")
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)
    leaf(sweep_sub, "sweep unique", _cmd_sweep_unique, "uniqueness of Apery expansions", m=6)
    leaf(sweep_sub, "sweep gamma6", _cmd_sweep_gamma6, "six-generator Apery formula vs oracle")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    seed = None
    try:
        if hasattr(args, "a"):
            seed = ArithmeticSeed(args.a, args.d, getattr(args, "m", 5))
        payload, code, text = args.handler(seed, args)
        envelope = {"command": args.name, "seed": None if seed is None else {"a": seed.a, "d": seed.d, "m": seed.m},
                    "payload": payload, "toolVersion": __version__, "schemaVersion": SCHEMA_VERSION}
        try:  # str() and %d refuse an int longer than the interpreter's digit limit
            rendered = _render(envelope, args.format, text)
        except ValueError as exc:
            raise DomainError("tooLarge", f"answer too long to print: {exc}") from None
        _emit(rendered, args.out)
    except (DomainError, VerificationError) as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        if isinstance(exc, UsageError):
            return EXIT_USAGE
        return EXIT_DOMAIN if isinstance(exc, DomainError) else EXIT_VERIFICATION
    except OSError as exc:  # an unwritable --out or --checkpoint path
        print(json.dumps({"error": "ioError", "message": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, OverflowError) as exc:  # a sieve or table sized by a huge input
        exc.__traceback__ = None  # free the half-built lists before formatting the message
        message = f"input too large to compute: {exc!r}"
        print(json.dumps({"error": "tooLarge", "message": message}), file=sys.stderr)
        return EXIT_DOMAIN
    return code


if __name__ == "__main__":
    sys.exit(main())
