"""Command-line front end.

Subcommands
    factors     geometric factors of a domain
    disk        analytic Dirichlet disk spectrum (Kummer / Bessel roots)
    solve       discrete spectrum of an arbitrary starlike domain
    verify      disk-maximality bound verdicts for Phi-functionals
    transplant  transplantation identity report for one disk mode
    perturb     perturbation coefficients and solver slope validation
    pauli       Dirichlet Pauli spectrum by shift-and-union
    sweep       flux sweep (exploratory; e.g. Neumann ground-mode tracking)

All computations are deterministic: repeated runs with the same inputs
produce byte-identical output files.  Output files start with a
reproducibility header recording the package version and the full
argument set.  Exit codes: 0 success, 1 computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__
from .disk import disk_eigenvalues
from .functionals import PhiFamily, verdicts_to_csv, verify_bounds
from .geometry import factors, load_profile
from .pauli import pauli_spectrum
from .perturbation import (PerturbationProfile, quadratic_bound,
                           slope_validation)
from .solver import SolverConfig, dominant_angular_mode, solve
from .spectra import DIRICHLET
from .svg import curve_svg, domain_outline_svg, spectrum_steps_svg
from .transplant import transplant_identity

__all__ = ["main"]


def _manifest(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return {"tool": "magspec", "version": __version__,
            "command": args.command, "arguments": config,
            "deterministic": True}


def _comment_header(args: argparse.Namespace) -> str:
    meta = _manifest(args)
    return (f"# magspec {meta['version']} {meta['command']}\n"
            f"# config: {json.dumps(meta['arguments'], sort_keys=True)}\n")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _write_json(path: str, payload: dict, args: argparse.Namespace) -> None:
    doc = {"meta": _manifest(args), **payload}
    _write(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _emit_csv(args: argparse.Namespace, body: str) -> None:
    csv_text = _comment_header(args) + body
    print(csv_text, end="")
    if args.out:
        _write(args.out, csv_text)


def _maybe_plot(args: argparse.Namespace, render, *data) -> None:
    """Write render(*data) beside --out when --plot is given; draw nothing otherwise."""
    if getattr(args, "plot", None) is None:
        return
    base = getattr(args, "out", None) or args.command
    _write(str(Path(base).with_suffix(".svg")), render(*data))


def _parse_phis(spec: str):
    if spec == "all":
        return PhiFamily.all_families()
    fams = []
    for token in spec.split(","):
        token = token.strip()
        if ":" in token:
            tag, param = token.split(":", 1)
            fams.append(PhiFamily(tag, float(param)))
        else:
            fams.append(PhiFamily(token))
    return tuple(fams)


def _parse_ints(spec: str):
    counts = tuple(int(tok) for tok in str(spec).split(","))
    if min(counts) < 1:
        raise ValueError(f"counts must be positive integers, got {spec}")
    return counts


_MAX_BETA_POINTS = 10_000


def _parse_beta_range(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("beta range must be start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise argparse.ArgumentTypeError(f"beta range {spec} must be finite")
    if step <= 0:
        raise argparse.ArgumentTypeError("beta step must be positive")
    if (stop + 1e-12 - start) / step >= _MAX_BETA_POINTS:  # as the loop ends
        raise argparse.ArgumentTypeError(
            f"beta range {spec} has more than {_MAX_BETA_POINTS} points")
    out, v, i = [], start, 0
    while v <= stop + 1e-12:
        out.append(round(v, 12))
        i += 1
        v = start + i * step
    if not out:
        raise argparse.ArgumentTypeError(f"beta range {spec} has no points")
    return out


def _positive_int(text: str) -> int:
    (value,) = _parse_ints(text)
    return value


def _checked(parse):
    """argparse type that validates its text with parse but stores the text
    unchanged, so the config header records the argument as given."""
    def check(text: str) -> str:
        try:
            parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text
    return check


def _config_value(name: str, kind):
    """argparse type that parses with kind and checks the value against
    SolverConfig's own limit for the field name."""
    def parse(text: str):
        try:
            value = kind(text)
            SolverConfig(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def _parse_eps(spec: str):
    eps = tuple(float(tok) for tok in spec.split(","))
    if not all(0 < e < math.inf for e in eps):
        raise ValueError(f"eps values must be positive and finite, got {spec}")
    return eps


def _solver_config(args, bc: str, beta: float, n_eigs: int) -> SolverConfig:
    return SolverConfig(n_radial=args.nr, n_angular=args.nt, bc=bc,
                        beta=beta, n_eigs=n_eigs, tolerance=args.tol)


# --------------------------------------------------------------------- factors

def _cmd_factors(args) -> int:
    profile = load_profile(args.domain)
    f = factors(profile)
    print(f"g0={f.g0:.12g} g1={f.g1:.12g} g={f.g:.12g} "
          f"area={f.area:.12g} polar_moment={f.polar_moment:.12g}")
    if args.out:
        _write_json(args.out, {"factors": {
            "g0": f.g0, "g1": f.g1, "g": f.g,
            "area": f.area, "polar_moment": f.polar_moment}}, args)
    _maybe_plot(args, domain_outline_svg, profile)
    return 0


# ------------------------------------------------------------------------ disk

def _cmd_disk(args) -> int:
    spectrum = disk_eigenvalues(args.beta, args.n)
    _emit_csv(args, spectrum.to_csv())
    _maybe_plot(args, spectrum_steps_svg, spectrum.eigenvalues, "disk spectrum")
    return 0


# ----------------------------------------------------------------------- solve

def _cmd_solve(args) -> int:
    profile = load_profile(args.domain)
    cfg = _solver_config(args, args.bc, args.beta, args.n)
    spectrum = solve(profile, cfg)
    _emit_csv(args, spectrum.to_csv())
    _maybe_plot(args, spectrum_steps_svg, spectrum.eigenvalues, "spectrum")
    return 0


# ---------------------------------------------------------------------- verify

def _cmd_verify(args) -> int:
    profile = load_profile(args.domain)
    cfg = _solver_config(args, args.bc, args.beta, max(_parse_ints(args.n)))
    verdicts = verify_bounds(profile, args.beta, args.bc, _parse_ints(args.n),
                             _parse_phis(args.phi), cfg)
    width = max(len(v.functional) for v in verdicts)
    print(f"{'functional':<{width}}  {'n':>3}  {'lhs':>14}  {'rhs':>14}  "
          f"{'margin':>12}  {'error_bar':>11}  holds")
    for v in verdicts:
        print(f"{v.functional:<{width}}  {v.n:>3}  {v.lhs:>14.8g}  {v.rhs:>14.8g}  "
              f"{v.margin:>12.5g}  {v.error_bar:>11.4g}  {str(v.holds).lower()}")
    all_hold = all(v.holds for v in verdicts)
    print(f"all bounds hold: {str(all_hold).lower()}")
    if args.out:
        _write_json(args.out, {"verdicts": [v.to_dict() for v in verdicts]}, args)
        _write(str(Path(args.out).with_suffix(".csv")),
               _comment_header(args) + verdicts_to_csv(verdicts))
    _maybe_plot(args, domain_outline_svg, profile)
    return 0 if all_hold else 1


# ------------------------------------------------------------------ transplant

def _cmd_transplant(args) -> int:
    profile = load_profile(args.domain)
    spectrum = disk_eigenvalues(args.beta, args.mode_index + 1)
    mode = spectrum.modes[args.mode_index]
    report = transplant_identity(profile, mode)
    payload = {
        "mode": {"m": mode.m, "k": mode.k, "eigenvalue": mode.eigenvalue},
        "q1_avg": report.q1_avg, "q2_avg": report.q2_avg, "q3_avg": report.q3_avg,
        "identity_residual": report.identity_residual,
        "predicted_sum_bound": report.predicted_sum_bound,
        "g0": report.g0, "g1": report.g1,
        "radial_energy": report.radial_energy,
        "angular_energy": report.angular_energy,
        "mass": report.mass,
    }
    print(json.dumps(payload, indent=1, sort_keys=True))
    if args.out:
        _write_json(args.out, {"transplant": payload}, args)
    _maybe_plot(args, domain_outline_svg, profile)
    return 0


# --------------------------------------------------------------------- perturb

def _cmd_perturb(args) -> int:
    with open(args.profile, "r", encoding="utf-8") as fh:
        pprofile = PerturbationProfile.from_dict(json.load(fh))
    eps_list = _parse_eps(args.eps)
    cfg = _solver_config(args, DIRICHLET, abs(args.beta), 1)
    report = slope_validation(args.beta, pprofile, eps_list, cfg)
    bounds = {f"{eps:g}": vars(quadratic_bound(pprofile, eps)) for eps in eps_list}
    payload = report.to_dict()
    payload["quadratic_bounds"] = bounds
    print(json.dumps(payload, indent=1, sort_keys=True))
    if args.out:
        _write_json(args.out, {"perturbation": payload}, args)
        q_rows = ["n,q_n"] + [f"{n},{q!r}" for n, q in sorted(report.q.items())]
        _write(str(Path(args.out).with_suffix(".csv")),
               _comment_header(args) + "\n".join(q_rows) + "\n")
    eps, slopes = zip(*report.slopes_by_eps)
    _maybe_plot(args, curve_svg, eps, slopes, "eps^2 slope")
    return 0


# ----------------------------------------------------------------------- pauli

def _cmd_pauli(args) -> int:
    profile = load_profile(args.domain)
    magnetic = solve(profile, _solver_config(args, DIRICHLET, args.beta, args.n))
    ps = pauli_spectrum(magnetic, args.n, g=factors(profile).g)
    _emit_csv(args, ps.to_csv())
    _maybe_plot(args, spectrum_steps_svg, ps.eigenvalues, "pauli spectrum")
    return 0


# ----------------------------------------------------------------------- sweep

def _cmd_sweep(args) -> int:
    profile = load_profile(args.domain)
    betas = _parse_beta_range(args.beta)
    workers = int(os.environ.get("MAGSPEC_THREADS", "0")) or None

    def point(beta: float):
        cfg = _solver_config(args, args.bc, beta, args.n)
        spectrum = solve(profile, cfg)
        mode = dominant_angular_mode(spectrum) if args.track_mode else None
        return beta, spectrum, mode

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(point, betas))

    header = "beta,eigenvalue_1"
    if args.n > 1:
        header += "".join(f",eigenvalue_{j}" for j in range(2, args.n + 1))
    if args.track_mode:
        header += ",dominant_mode"
    lines = [header]
    for beta, spectrum, mode in results:
        row = f"{beta!r}," + ",".join(repr(v) for v in spectrum.eigenvalues[:args.n])
        if args.track_mode:
            row += f",{mode}"
        lines.append(row)
    _emit_csv(args, "\n".join(lines) + "\n")
    _maybe_plot(args, curve_svg, [r[0] for r in results],
                [r[1].eigenvalues[0] for r in results], "flux sweep")
    return 0


# ----------------------------------------------------------------------- main

def _add_mesh_flags(sub, nr=64, nt=128):
    sub.add_argument("--nr", type=_config_value("n_radial", int), default=nr,
                     help="radial cells (>= 8)")
    sub.add_argument("--nt", type=_config_value("n_angular", int), default=nt,
                     help="angular cells (even, >= 16)")
    sub.add_argument("--tol", type=_config_value("tolerance", float), default=1e-8,
                     help="eigenpair residual tolerance, in (0, 1e-6]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magspec",
        description="Magnetic Laplacian and Pauli spectra on starlike plane "
                    "domains, with sharp geometric bound verification.")
    parser.add_argument("--version", action="version",
                        version=f"magspec {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("factors", help="geometric factors of a domain")
    p.add_argument("--domain", required=True, help="domain JSON "
                   '({"r0": ..., "harmonics": [...]} or {"samples": [...]})')
    p.add_argument("--out", help="write factors JSON here")
    p.add_argument("--plot", choices=["svg"], help="write a domain outline SVG")
    p.set_defaults(func=_cmd_factors)

    p = subs.add_parser(
        "disk", help="analytic disk spectrum",
        epilog="CSV columns: index,eigenvalue,lambda_times_A,bc,beta,provenance")
    p.add_argument("--beta", type=_config_value("beta", float), required=True,
                   help="magnetic flux")
    p.add_argument("--n", type=_positive_int, default=6, help="eigenvalue count")
    p.add_argument("--out", help="write spectrum CSV here")
    p.add_argument("--plot", choices=["svg"])
    p.set_defaults(func=_cmd_disk)

    p = subs.add_parser(
        "solve", help="discrete spectrum of a starlike domain",
        epilog="CSV columns: index,eigenvalue,lambda_times_A,bc,beta,provenance")
    p.add_argument("--domain", required=True)
    p.add_argument("--beta", type=_config_value("beta", float), required=True)
    p.add_argument("--bc", choices=["dirichlet", "neumann"], default="dirichlet")
    p.add_argument("--n", type=_positive_int, default=6, help="eigenvalue count")
    _add_mesh_flags(p)
    p.add_argument("--out", help="write spectrum CSV here")
    p.add_argument("--plot", choices=["svg"])
    p.set_defaults(func=_cmd_solve)

    p = subs.add_parser(
        "verify", help="disk-maximality bound verdicts (exit 1 if any bound fails)",
        epilog="CSV columns: functional,n,lhs,rhs,margin,error_bar,holds,bc,beta")
    p.add_argument("--domain", required=True)
    p.add_argument("--beta", type=_config_value("beta", float), required=True)
    p.add_argument("--bc", choices=["dirichlet", "neumann"], default="dirichlet")
    p.add_argument("--n", type=_checked(_parse_ints), default="5",
                   help="partial-sum lengths, e.g. 1,3,5")
    p.add_argument("--phi", type=_checked(_parse_phis), default="all",
                   help='"all" or a list like identity,power:0.5,negexp:1')
    _add_mesh_flags(p)
    p.add_argument("--out", help="write verdicts JSON here (plus .csv summary)")
    p.add_argument("--plot", choices=["svg"])
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("transplant", help="transplantation identity report")
    p.add_argument("--domain", required=True)
    p.add_argument("--beta", type=_config_value("beta", float), required=True)
    p.add_argument("--mode-index", type=_nonnegative_int, default=0,
                   help="disk mode index (0 = ground state)")
    p.add_argument("--out", help="write report JSON here")
    p.add_argument("--plot", choices=["svg"])
    p.set_defaults(func=_cmd_transplant)

    p = subs.add_parser("perturb", help="perturbation series vs solver slopes")
    p.add_argument("--profile", required=True,
                   help='perturbation JSON, e.g. {"p": {"2": [0.5, 0.0]}}')
    p.add_argument("--beta", type=_config_value("beta", float), required=True)
    p.add_argument("--eps", type=_checked(_parse_eps), default="0.04,0.02,0.01",
                   help="eps schedule, positive values")
    _add_mesh_flags(p, nr=96, nt=192)
    p.add_argument("--out", help="write report JSON here (plus .csv of q_n)")
    p.add_argument("--plot", choices=["svg"])
    p.set_defaults(func=_cmd_perturb)

    p = subs.add_parser(
        "pauli", help="Dirichlet Pauli spectrum",
        epilog="CSV columns: index,eigenvalue,branch,source_index,"
               "shifted_normalized,beta,area,g")
    p.add_argument("--domain", required=True)
    p.add_argument("--beta", type=_config_value("beta", float), required=True)
    p.add_argument("--n", type=_positive_int, default=6, help="Pauli eigenvalue count")
    _add_mesh_flags(p)
    p.add_argument("--out", help="write branch-labeled CSV here")
    p.add_argument("--plot", choices=["svg"])
    p.set_defaults(func=_cmd_pauli)

    p = subs.add_parser(
        "sweep", help="flux sweep (exploratory)",
        epilog="CSV columns: beta,eigenvalue_1[,eigenvalue_2,...][,dominant_mode]")
    p.add_argument("--domain", required=True)
    p.add_argument("--beta", type=_checked(_parse_beta_range), required=True,
                   help="range start:stop:step")
    p.add_argument("--bc", choices=["dirichlet", "neumann"], default="neumann")
    p.add_argument("--n", type=_positive_int, default=1)
    p.add_argument("--track-mode", action="store_true",
                   help="record the dominant angular mode of the ground state")
    _add_mesh_flags(p, nr=48, nt=96)
    p.add_argument("--out", help="write sweep CSV here")
    p.add_argument("--plot", choices=["svg"])
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, KeyError, OverflowError) as exc:
        print(f"magspec {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
