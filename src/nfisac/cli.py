"""Command line front end: sweeps, heatmaps, estimator runs, invariant checks.

Exit codes: 0 success, 2 infeasible scenario (the message names the violated
constraint), 1 internal error.
"""

import os
import sys

from . import BLAS_THREAD_VARS

# One BLAS thread unless the user set one, fixed before numpy loads (later
# it has no effect): the small matrices of a design and of an estimate run
# faster and more steadily on one thread than split across cores.
if "numpy" not in sys.modules:
    for _var in BLAS_THREAD_VARS:
        os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

from . import config as config_mod, estimators, geometry, harness, hybrid, sca  # noqa: E402
from .errors import InvalidArgumentError, ScenarioInfeasibleError  # noqa: E402


def _build_parser():
    p = argparse.ArgumentParser(prog="nfisac",
                                description="near-field sensing/communication beamfocusing simulator")
    sub = p.add_subparsers(dest="command", required=True)
    for name, helptext in (("sweep", "run the configured sweep and emit a result table"),
                           ("heatmap", "optimize and emit the transmit gain map"),
                           ("estimate", "Monte Carlo estimator trials against the bound"),
                           ("check", "run fast invariant suites")):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", help="configuration file (JSON); defaults per --scale")
        sp.add_argument("--seed", type=int, help="override the configured seed")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--format", choices=("csv", "json"), help="result format")
        sp.add_argument("--scale", choices=("desk", "paper"), default="desk",
                        help="default-scenario scale when keys are unspecified")
        sp.add_argument("--arch", choices=("digital", "fully", "partially", "all"),
                        default="all", help="restrict architectures")
    return p


def _load(args):
    if args.config:
        cfg = config_mod.load_config(args.config, scale=args.scale)
    else:
        cfg = config_mod.default_config(scale=args.scale)
    if args.seed is not None:
        cfg = replace(cfg, seed=int(args.seed))
    if args.arch != "all":
        cfg = replace(cfg, architectures=(args.arch,))
    if args.format:
        cfg = replace(cfg, output=dict(cfg.output, format=args.format))
    return cfg


def _write(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_sweep(args):
    cfg = _load(args)
    table = harness.run_sweep(cfg)
    fmt = cfg.output.get("format", "csv")
    body = harness.results_to_csv(table) if fmt == "csv" else harness.results_to_json(table)
    header = harness.describe(cfg) if fmt == "csv" else ""
    _write(header + body, args.out)
    return 0


def _cmd_heatmap(args):
    cfg = _load(args)
    scn = config_mod.config_to_scenario(cfg)
    W, _, _, _ = harness.optimize_scenario(scn)
    reach = 1.5 * geometry.rayleigh_distance(scn.geom)
    grid = harness.HeatmapGrid(x_min=-reach, x_max=reach, y_min=0.0, y_max=2 * reach)
    gain = harness.beamfocusing_heatmap(W, scn.geom, grid)
    _write(harness.heatmap_to_csv(gain, grid), args.out)
    return 0


def _cmd_estimate(args):
    cfg = _load(args)
    scn = config_mod.config_to_scenario(cfg)
    if not isinstance(scn.target, geometry.PointTarget):
        raise InvalidArgumentError("estimator trials need a point target")
    W, _, _, _ = harness.optimize_scenario(scn)
    table = harness.ResultTable()
    # a standard error needs two trials; a config without trials gets two
    trials = max(cfg.trials, 2)
    harness.estimator_trial_rows(table, scn, "none", 0.0, W, trials, cfg.seed)
    _write(harness.results_to_csv(table), args.out)
    return 0


def _check_suite(scn):
    """(name, passed) pairs of fast cross-module consistency checks."""
    out = []
    geom = scn.geom
    d_r = geometry.rayleigh_distance(geom)
    out.append(("rayleigh_distance_positive", d_r > 0))
    b = geometry.steering_vector(geom, scn.target.distance if isinstance(
        scn.target, geometry.PointTarget) else d_r, 0.1)
    out.append(("steering_unit_modulus", np.allclose(np.abs(b), 1.0, atol=1e-12)))

    # analytic steering derivatives against central differences
    r0, phi0 = 0.8 * d_r, 0.2
    db_dr, db_dphi = geometry.steering_derivatives(geom, r0, phi0)
    eps = 1e-6
    fd_r = (geometry.steering_vector(geom, r0 + eps, phi0)
            - geometry.steering_vector(geom, r0 - eps, phi0)) / (2 * eps)
    fd_phi = (geometry.steering_vector(geom, r0, phi0 + eps)
              - geometry.steering_vector(geom, r0, phi0 - eps)) / (2 * eps)
    out.append(("steering_derivative_fd",
                np.linalg.norm(db_dr - fd_r) <= 1e-4 * np.linalg.norm(fd_r)
                and np.linalg.norm(db_dphi - fd_phi) <= 1e-4 * np.linalg.norm(fd_phi)))

    # the rank penalty's spectral-norm tangent u^H W u is a minorant on a random probe
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    W_prev = A @ A.conj().T
    u = sca.spectral_direction(W_prev)
    B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    W_probe = B @ B.conj().T
    out.append(("spectral_surrogate_minorant",
                np.real(u.conj() @ W_probe @ u) <= np.linalg.norm(W_probe, 2) + 1e-10))

    # chord envelope underestimates the log
    intercepts, slopes = sca.chord_envelope(1e-7, 100.0, 32)
    us = np.geomspace(1e-7, 100.0 + 1e-7, 200)
    env = np.min(intercepts[:, None] + slopes[:, None] * us[None, :], axis=0)
    out.append(("ee_chords_underestimate", np.all(env <= np.log2(us) + 1e-12)))

    # hybrid factorization keeps the radiated power
    Wf = rng.standard_normal((geom.n_tx, 2)) + 1j * rng.standard_normal((geom.n_tx, 2))
    fac = hybrid.factorize(Wf, geom.n_rf, architecture="fully")
    p0 = np.linalg.norm(Wf) ** 2
    out.append(("hybrid_power_equality",
                abs(np.linalg.norm(fac.analog @ fac.digital) ** 2 - p0) <= 1e-8 * p0))

    # noiseless linear MMSE recovery in the overdetermined regime
    Bm = rng.standard_normal((geom.n_rx, geom.n_tx)) + 1j * rng.standard_normal((geom.n_rx, geom.n_tx))
    X = rng.standard_normal((geom.n_tx, 2 * geom.n_tx)) + 1j * rng.standard_normal((geom.n_tx, 2 * geom.n_tx))
    echo = estimators.EchoBatch(Y=Bm @ X, X=X, noise_power=0.0)
    B_hat = estimators.lmmse_trm(echo, prior_variance=1.0)
    out.append(("lmmse_noiseless_exact", np.linalg.norm(B_hat - Bm) <= 1e-8 * np.linalg.norm(Bm)))
    return out


def _cmd_check(args):
    cfg = _load(args)
    scn = config_mod.config_to_scenario(cfg)
    results = _check_suite(scn)
    lines = []
    for name, passed in results:
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}")
    _write("\n".join(lines) + "\n", args.out)
    return 0 if all(p for _, p in results) else 1


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler = {"sweep": _cmd_sweep, "heatmap": _cmd_heatmap,
               "estimate": _cmd_estimate, "check": _cmd_check}[args.command]
    try:
        return handler(args)
    except ScenarioInfeasibleError as exc:
        print(f"infeasible scenario: {exc} (violated: {exc.violated})", file=sys.stderr)
        return 2
    except Exception as exc:  # surfaced with a message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
