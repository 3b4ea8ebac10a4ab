"""Command-line interface.

Exit codes: 0 success, 1 usage error or unwritable output (``--out`` is
checked before anything is computed), 2 validation or computation failure,
3 sweep completed with failed points.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import leads, phasespace, redfield, sweep, validation
from .configfile import OUTPUT_GROUPS, ConfigError, load_config
from .model import validate_regime


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _bounded(kind, low: float, *, strict: bool = False):
    """argparse type: a finite ``kind`` number >= ``low`` (> ``low`` if ``strict``)."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(f"must be {'>' if strict else '>='} {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its "invalid ... value" message
    return parse


@functools.cache  # argparse copies the --set default list before it appends
def _build_parser() -> _Parser:
    parser = _Parser(prog="qdmr", description="Dot-resonator steady-state transport")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def with_config(p):
        p.add_argument("--config", required=True, help="INI parameter file")
        p.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="SECTION.KEY=VALUE", help="override a config entry",
        )
        return p

    p = with_config(sub.add_parser("point", help="solve one operating point"))
    p.add_argument("--out", help="write the report here instead of stdout")

    p = with_config(sub.add_parser("sweep", help="run the sweep described by [sweep]"))
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--workers", type=_bounded(int, 1), help="override [sweep] workers")
    p.add_argument("--resume", action="store_true", help="continue from the journal")

    p = with_config(sub.add_parser("husimi", help="export a Husimi grid as CSV"))
    p.add_argument("--out", required=True)
    p.add_argument(
        "--extent", type=_bounded(float, 0.0, strict=True), help="half-width of the grid (default auto)"
    )
    p.add_argument("--points", type=_bounded(int, 2), default=101, help="grid points per axis")

    p = with_config(sub.add_parser("torotropy", help="export radial profiles and the measure"))
    p.add_argument("--out", help="CSV path (default stdout summary only)")

    p = with_config(sub.add_parser("markov-check", help="bath correlation decay diagnostic"))
    p.add_argument("--out", help="CSV path for the traces")

    p = sub.add_parser("validate", help="run a built-in validation suite")
    p.add_argument("suite", choices=sorted(validation.SUITES))
    return parser


def _load(args) -> tuple:
    try:
        return load_config(args.config, args.overrides)
    except ConfigError as exc:
        print(f"qdmr: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _check_writable(path: str) -> None:
    """Raise the OSError that writing ``path`` would raise, before anything is
    computed, and without creating the file."""
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.exists():
        code = errno.ENOENT
    elif not target.parent.is_dir():
        code = errno.ENOTDIR
    elif not os.access(target if target.exists() else target.parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _cmd_point(args) -> int:
    config, _ = _load(args)
    result = sweep.run_point(config)
    lines = [f"{key} = {value}" for key, value in result.row(OUTPUT_GROUPS).items()]
    tail = result.lab_state.fock_tail if result.lab_state is not None else float("nan")
    lines.append(f"fock_tail = {tail}")
    if tail >= sweep.ADAPTIVE_TAIL_TOL:
        lines.append(
            f"warning = Fock tail {tail:.2e} >= {sweep.ADAPTIVE_TAIL_TOL:g} at n_cut = {result.n_cut}; "
            "outputs may not be converged in the cutoff"
        )
    for warning in validate_regime(config):
        lines.append(f"warning = {warning}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0 if not result.status.startswith("error") else 2


def _cmd_sweep(args) -> int:
    config, spec = _load(args)
    if spec is None:
        print("qdmr: config has no [sweep] section", file=sys.stderr)
        return 1
    if args.workers is not None:
        spec = replace(spec, workers=args.workers)
    try:
        outcome = sweep.run_sweep(config, spec, args.out, resume=args.resume)
    except sweep.JournalError as exc:
        print(f"qdmr: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {outcome.path} ({outcome.n_points} points, {outcome.n_errors} failed)")
    return 3 if outcome.n_errors else 0


def _export_point(args, outputs: tuple[str, ...]) -> tuple:
    """Config and evaluated point of a phonon export; at lam = 0, where the decoupled
    resonator has no unique state, its ``lab_state`` is None and a message says why."""
    config, _ = _load(args)
    point = sweep.evaluate_point(config, outputs)
    if point.lab_state is None:
        print(
            f"qdmr {args.command}: lam = 0 decouples the resonator, so it has no unique "
            "phonon state to export; only dot-sector outputs (qdmr point) are defined there",
            file=sys.stderr,
        )
    return config, point


def _cmd_husimi(args) -> int:
    config, point = _export_point(args, ())
    if point.lab_state is None:
        return 2
    rho, _ = phasespace.reduce_resonator(point.lab_state)
    center = -config.system.lam * point.lab_state.occupation
    extent = phasespace.auto_extent(rho) if args.extent is None else args.extent
    axis = np.linspace(center - extent, center + extent, args.points)
    imag_axis = np.linspace(-extent, extent, args.points)
    # one grid row per call: a call holds a points x N overlap array, not points^2 x N
    q = [phasespace.husimi(rho, re + 1j * imag_axis) for re in axis]
    comments = ["# qdmr husimi grid", f"# center_re = {center!r}", f"# extent = {extent!r}"]
    rows = ((re, im, value) for re, q_row in zip(axis, q) for im, value in zip(imag_axis, q_row))
    sweep.write_csv(args.out, comments, ["re_alpha", "im_alpha", "q"], rows)
    print(f"wrote {args.out}")
    return 0


def _cmd_torotropy(args) -> int:
    _, point = _export_point(args, ("phasespace",))
    if point.lab_state is None:
        return 2
    result = point.torotropy
    print(f"torotropy = {result.value!r}")
    print(f"anchor = {result.anchor.real!r}{result.anchor.imag:+}j")
    print(f"barycenter = {result.barycenter.real!r}{result.barycenter.imag:+.3e}j")
    for phi, contribution, entropy in result.per_angle:
        print(f"angle {phi:.6f}: contribution = {contribution!r}, entropy = {entropy!r}")
    if args.out:
        rows = [(p.phi, r, q) for p in result.profiles for r, q in zip(p.radii, p.values)]
        comments = ["# qdmr torotropy radial profiles", f"# value = {result.value!r}"]
        sweep.write_csv(args.out, comments, ["phi", "r", "q_normalized"], rows)
        print(f"wrote {args.out}")
    return 0


def _cmd_markov(args) -> int:
    config, _ = _load(args)
    traces = [leads.bath_correlation(lead) for lead in config.leads]
    for lead, trace in zip(config.leads, traces):
        state = f"decays at {trace.decay_time:.4f} ns" if trace.converged else "does not decay in window"
        print(
            f"lead {trace.label}: {state} (threshold {trace.threshold:g} of |C(0)|), "
            f"sum rule residual {validation.sum_rule_residual(lead, trace):.1e}"
        )
    if args.out:
        header, columns = ["s_ns"], [traces[0].times]
        for trace in traces:
            header += [f"{trace.label}_{part}" for part in ("re_c_out", "im_c_out", "re_c_in", "im_c_in")]
            columns += [trace.c_out.real, trace.c_out.imag, trace.c_in.real, trace.c_in.imag]
        sweep.write_csv(args.out, ["# qdmr bath correlation traces"], header, zip(*columns))
        print(f"wrote {args.out}")
    return 0 if all(t.converged for t in traces) else 2


def _cmd_validate(args) -> int:
    report = validation.SUITES[args.suite]()
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "point": _cmd_point,
        "sweep": _cmd_sweep,
        "husimi": _cmd_husimi,
        "torotropy": _cmd_torotropy,
        "markov-check": _cmd_markov,
        "validate": _cmd_validate,
    }
    try:
        if getattr(args, "out", None):
            _check_writable(args.out)
        return handlers[args.command](args)
    except redfield.SteadyStateError as exc:
        print(f"qdmr: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output, or the sweep journal, cannot be written
        print(f"qdmr: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
