"""Command-line front end: ingest -> SCM -> regularize -> export/evaluate.

Subcommands: scm, spectral, shrink, truncate, eval, baiyin. Every
subcommand is a thin adapter over the library; no numerics live here.
Exit codes: 0 ok, 1 usage, 2 parse/validation, 3 numerical.
"""

from __future__ import annotations

import argparse
import sys

from . import harness, regularizers, serialize
from .covariance import SampleCovariance, sample_covariance, spectral_decompose
from .errors import NumericalError, ParseError, ValidationError
from .factors import dense
from .panels import load_panel, read_text

EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _write(path: str | None, *texts: str) -> None:
    """Write texts one after another, so no output is copied to append its newline."""
    if path is None or path == "-":
        sys.stdout.writelines(texts)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(texts)


def _load_scm(args) -> SampleCovariance:
    if getattr(args, "from_matrix", False):
        m = serialize.matrix_from_csv(read_text(args.input))
        return SampleCovariance.from_matrix(m)
    return sample_covariance(load_panel(args.input, header=not args.no_header))


def _number(cast, text: str, name: str):
    try:
        return cast(text)
    except ValueError:
        raise ParseError(f"{name} must be a number, got {text!r}") from None


def _rho(text: str) -> float | None:
    return None if text == "auto" else _number(float, text, "rho")


def _emit(dense_out, model_json: dict, args) -> None:
    """Dense matrix plus factor model: one JSON object, or CSV + stderr JSON."""
    if args.json:
        payload = {"dense": serialize.matrix_to_json_dict(dense_out),
                   "factor_model": model_json}
        _write(args.output, serialize.dumps(payload), "\n")
    else:
        model_text = serialize.dumps(model_json)  # first, so its error writes nothing
        _write(args.output, serialize.matrix_to_csv(dense_out))
        sys.stderr.write(model_text + "\n")


def _cmd_scm(args) -> None:
    scm = _load_scm(args)
    if args.json:
        _write(args.output, serialize.dumps(serialize.matrix_to_json_dict(scm.c)), "\n")
    else:
        _write(args.output, serialize.matrix_to_csv(scm.c))


def _cmd_spectral(args) -> None:
    pcs = spectral_decompose(_load_scm(args))
    _write(args.output, serialize.dumps(serialize.spectral_to_json_dict(pcs)), "\n")


def _cmd_fit(args) -> None:
    """shrink or truncate: the flags as a MethodConfig, checked before the input is read."""
    cfg = harness.MethodConfig(args.kind, _number(float, args.q, "q"),
                               _number(int, args.f_hat, "f_hat"), args.target, _rho(args.rho))
    scm = _load_scm(args)
    model, target, nu = harness.fit_method(scm, spectral_decompose(scm), cfg)
    if nu is None:
        _emit(regularizers.shrink_dense(scm, target, cfg.q),
              serialize.shrunk_to_json_dict(model, cfg.q), args)
    else:
        _emit(dense(model), serialize.truncated_to_json_dict(model, cfg.f_hat, nu), args)


METHOD_KEYS = ("q", "f_hat", "target", "rho")


def _parse_methods(specs: list[str]) -> list[harness.MethodConfig]:
    """kind[,key=value...] with distinct keys from METHOD_KEYS -> MethodConfig."""
    methods = []
    for raw in specs:
        kind, *tokens = raw.split(",")
        parts = {}
        for token in tokens:
            key, eq, value = token.partition("=")
            if not eq or key not in METHOD_KEYS:
                raise ParseError(
                    f"method spec {raw!r}: expected key=value with key in "
                    f"{', '.join(METHOD_KEYS)}, got {token!r}"
                )
            if key in parts:
                raise ParseError(f"method spec {raw!r}: key {key!r} given twice")
            parts[key] = value
        methods.append(
            harness.MethodConfig(
                kind=kind,
                q=_number(float, parts.get("q", "0"), "q"),
                f_hat=_number(int, parts.get("f_hat", "0"), "f_hat"),
                target_kind=parts.get("target", "diagonal"),
                rho=_rho(parts.get("rho", "auto")),
            )
        )
    return methods


def _cmd_eval(args) -> None:
    methods = _parse_methods(args.method)
    split = _number(float, args.split, "split")
    panel = load_panel(args.input, header=not args.no_header)
    report = harness.stability_experiment(panel, split, methods)
    if args.json:
        _write(args.output, serialize.dumps(report.to_json_dict()), "\n")
    else:
        _write(args.output, report.to_table(), "\n")


def _cmd_baiyin(args) -> None:
    report = harness.bai_yin_check(args.n, args.m, args.trials, args.seed)
    _write(args.output, serialize.dumps(report.to_json_dict()), "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covreg",
        description="Covariance regularization: shrinkage, factor models, truncated-PC",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io(p, matrix_ok=False):
        p.add_argument("--input", "-i", required=True,
                       help="input path, or - for stdin")
        p.add_argument("--output", "-o", default=None,
                       help="output path, default stdout")
        p.add_argument("--no-header", action="store_true",
                       help="panel CSV has no header row; column 0 holds ids unless"
                            " its first cell is a number (then ids A0001, ...)")
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of CSV")
        if matrix_ok:
            p.add_argument("--from-matrix", action="store_true",
                           help="input is a dense covariance CSV, not a panel")

    def add_target(p):
        p.add_argument("--target", choices=regularizers.TARGET_KINDS,
                       default="diagonal")
        p.add_argument("--rho", default="auto",
                       help="uniform correlation, or 'auto' to estimate")

    p = sub.add_parser("scm", help="panel -> sample covariance matrix")
    add_io(p)
    p.set_defaults(func=_cmd_scm)

    p = sub.add_parser("spectral", help="covariance CSV -> eigenpairs JSON")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_spectral, from_matrix=True)

    p = sub.add_parser("shrink", help="shrink toward a target; dense + factor form")
    add_io(p, matrix_ok=True)
    add_target(p)
    p.add_argument("--q", required=True, help="shrinkage constant in [0,1]")
    p.set_defaults(func=_cmd_fit, kind="shrink", f_hat="0")

    p = sub.add_parser("truncate", help="truncated-PC regularizer")
    add_io(p, matrix_ok=True)
    add_target(p)
    p.add_argument("--f-hat", required=True, dest="f_hat",
                   help="number of principal components kept")
    p.set_defaults(func=_cmd_fit, kind="truncated_pc", q="0")

    p = sub.add_parser("eval", help="train/test stability comparison")
    add_io(p)
    p.add_argument("--split", default="0.5")
    p.add_argument("--method", action="append", required=True,
                   help="e.g. shrink,q=0.5,target=diagonal or truncated_pc,f_hat=1"
                        " (repeatable)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("baiyin", help="Monte Carlo eigenvalue edge check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_baiyin)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except NumericalError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    return 0


if __name__ == "__main__":
    sys.exit(main())
