"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 validation or computation
failure, 3 sweep completed with failed points.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import leads, phasespace, redfield, sweep, validation
from .configfile import ConfigError, load_config
from .model import validate_regime


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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
    p.add_argument("--workers", type=int, help="override [sweep] workers")
    p.add_argument("--resume", action="store_true", help="continue from the journal")

    p = with_config(sub.add_parser("husimi", help="export a Husimi grid as CSV"))
    p.add_argument("--out", required=True)
    p.add_argument("--extent", type=float, help="half-width of the grid (default auto)")
    p.add_argument("--points", type=int, default=101, help="grid points per axis")

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
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"qdmr: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_point(args) -> int:
    config, _ = _load(args)
    outputs = ("transport", "thermo", "phasespace", "mode")
    result = sweep.run_point(config, outputs)
    lines = [f"{key} = {value}" for key, value in result.row(outputs).items()]
    for warning in validate_regime(config):
        lines.append(f"warning = {warning}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0 if not result.status.startswith("error") else 2


def _cmd_sweep(args) -> int:
    config, spec = _load(args)
    if spec is None:
        print("qdmr: config has no [sweep] section", file=sys.stderr)
        return 1
    outcome = sweep.run_sweep(config, spec, args.out, resume=args.resume, workers=args.workers)
    print(f"wrote {outcome.path} ({outcome.n_points} points, {outcome.n_errors} failed)")
    return 3 if outcome.n_errors else 0


def _csv_line(*cells) -> str:
    return ",".join(sweep._format_cell(c) for c in cells) + "\n"


def _cmd_husimi(args) -> int:
    config, _ = _load(args)
    lab = redfield.solve(config).lab
    rho, _ = phasespace.reduce_resonator(lab)
    center = -config.system.lam * lab.occupation
    if args.extent is not None:
        extent = args.extent
    else:
        n_ph = float(np.sum(np.arange(rho.shape[0]) * np.diagonal(rho).real))
        extent = 3.0 * (math.sqrt(max(n_ph, 0.0)) + 1.0)
    axis = np.linspace(center - extent, center + extent, args.points)
    imag_axis = np.linspace(-extent, extent, args.points)
    grid_re, grid_im = np.meshgrid(axis, imag_axis, indexing="ij")
    q = phasespace.husimi(rho, grid_re + 1j * grid_im)
    with open(args.out, "w") as fh:
        fh.write("# qdmr husimi grid\n")
        fh.write(f"# center_re = {center!r}\n# extent = {extent!r}\n")
        fh.write("re_alpha,im_alpha,q\n")
        for cells in zip(grid_re.ravel(), grid_im.ravel(), q.ravel()):
            fh.write(_csv_line(*cells))
    print(f"wrote {args.out}")
    return 0


def _cmd_torotropy(args) -> int:
    config, _ = _load(args)
    lab = redfield.solve(config).lab
    result = phasespace.torotropy(lab, config.system.lam)
    print(f"torotropy = {result.value!r}")
    print(f"anchor = {result.anchor.real!r}{result.anchor.imag:+}j")
    print(f"barycenter = {result.barycenter.real!r}{result.barycenter.imag:+.3e}j")
    for phi, contribution, entropy in result.per_angle:
        print(f"angle {phi:.6f}: contribution = {contribution!r}, entropy = {entropy!r}")
    if args.out:
        rho, _ = phasespace.reduce_resonator(lab)
        with open(args.out, "w") as fh:
            fh.write("# qdmr torotropy radial profiles\n")
            fh.write(f"# value = {result.value!r}\n")
            fh.write("phi,r,q_normalized\n")
            for phi, _, _ in result.per_angle:
                prof = phasespace.radial_profile(rho, result.anchor, phi)
                for r, q in zip(prof.radii, prof.values):
                    fh.write(_csv_line(phi, r, q))
        print(f"wrote {args.out}")
    return 0


def _cmd_markov(args) -> int:
    config, _ = _load(args)
    traces = [leads.bath_correlation(lead) for lead in config.leads]
    for trace in traces:
        state = f"decays at {trace.decay_time:.4f} ns" if trace.converged else "does not decay in window"
        print(f"lead {trace.label}: {state} (threshold {trace.threshold:g} of |C(0)|)")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("# qdmr bath correlation traces\n")
            header = ["s_ns"]
            for trace in traces:
                label = trace.label
                header += [
                    f"{label}_re_c_out", f"{label}_im_c_out",
                    f"{label}_re_c_in", f"{label}_im_c_in",
                ]
            fh.write(",".join(header) + "\n")
            for i, s in enumerate(traces[0].times):
                cells = [s]
                for trace in traces:
                    c_out, c_in = trace.c_out[i], trace.c_in[i]
                    cells += [c_out.real, c_out.imag, c_in.real, c_in.imag]
                fh.write(_csv_line(*cells))
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
        return handlers[args.command](args)
    except redfield.SteadyStateError as exc:
        print(f"qdmr: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
