"""Experiment runner: approximate / refine / check-hypothesis / zero-scan / torus / report.

Configuration is flat ``key = value`` text; every flag mirrors a config key
and command-line values win.  Each run writes a manifest echoing the full
configuration plus seed and version, so pointing --config at a previous
manifest replays the run (a ``workers`` line from older manifests is
skipped: that key never had an effect; a key an older manifest lacks, such as
``width_factor``, takes its default).

``check-hypothesis`` tests the paper's window (h, h (1 + log^-10 h)] unless
``width_factor`` sets the relative width: below h ~ e^41 the paper's window
holds no integer, so at desk scale only a wider window can pass.

Exit codes: 0 success, 2 stall, 3 invalid config (a malformed flag or value
included), 4 hypothesis failure, 5 pool exhausted (``approximate`` steered
every prime up to pmax and the surveyed error is still above eps; raise pmax
or lower the floor y).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .analysis import Circle, _memo, fit_c0, min_modulus, rouche_check, zero_count
from .approx import (
    ApproximationProblem,
    ApproximationStall,
    InvalidProblem,
    RefineStall,
    _approximate_impl,
    product_target,
    refine_sequence,
)
from .factors import PhaseAssignment, dirichlet_spec, load_custom_spec, zeta_spec
from .primes import primes_up_to
from .torus import RNG_ALGORITHM, ball_volume_mc, equidistribution_test, slab_bound_check

CONFIG_KEYS = {
    "spec": "zeta",
    "target": "exp:0.1",
    "sigma0": 0.75,
    "radius": 0.02,
    "eps": 0.1,
    "y": 2.0,
    "gamma": 2.0,
    "lam": 0.01,
    "delta": 0.01,
    "t0": 0.0,
    "pmax": 100_000,
    "phase_grid": "quarter",
    "seed": 0,
    "stages": 3,
    "width_factor": "",
    "out": "run",
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=lambda: dict(CONFIG_KEYS))

    def __getitem__(self, key):
        return self.values[key]

    def set(self, key: str, raw: str) -> None:
        if key not in CONFIG_KEYS:
            raise InvalidProblem(f"unknown config key {key!r}")
        default = CONFIG_KEYS[key]
        try:
            if isinstance(default, int):
                self.values[key] = int(float(raw))
            elif isinstance(default, float):
                self.values[key] = float(raw)
            else:
                self.values[key] = raw
        except (ValueError, OverflowError):
            raise InvalidProblem(f"{key} must be a finite number (got {raw!r})") from None

    def manifest_text(self) -> str:
        lines = [f"version = {__version__}", f"rng = {RNG_ALGORITHM}"]
        for k in sorted(self.values):
            lines.append(f"{k} = {self.values[k]}")
        return "\n".join(lines) + "\n"


def load_config(path: str | None, overrides: dict) -> RunConfig:
    cfg = RunConfig()
    if path:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise InvalidProblem(f"cannot read config {path!r}: {exc}") from None
        for line in lines:
            line = line.split("#", 1)[0].strip()
            if not line or "=" not in line:
                continue
            k, v = (t.strip() for t in line.split("=", 1))
            if k in ("version", "rng", "workers"):
                continue
            cfg.set(k, v)
    for k, v in overrides.items():
        if v is not None:
            cfg.set(k, str(v))
    return cfg


def build_spec(cfg: RunConfig):
    name = cfg["spec"]
    if name == "zeta":
        return zeta_spec()
    if name == "chi4":
        return dirichlet_spec(4, [0, 1, 0, -1])
    if name.startswith("custom:"):
        path = name.split(":", 1)[1]
        try:
            return load_custom_spec(path)
        except (OSError, ValueError) as exc:
            raise InvalidProblem(f"cannot load custom spec {path!r}: {exc}") from None
    raise InvalidProblem(f"unknown spec {name!r} (use zeta, chi4, or custom:<path>)")


def build_target(cfg: RunConfig):
    t = cfg["target"]
    if t == "one":
        return lambda s: np.ones_like(np.asarray(s, dtype=complex))
    if t.startswith("exp:"):
        try:
            a = float(t.split(":", 1)[1])
        except ValueError:
            raise InvalidProblem(f"exp target needs a number (got {t!r})") from None
        return lambda s: np.exp(a * np.asarray(s, dtype=complex))
    if t.startswith("product:"):
        spec = build_spec(cfg)
        theta = read_phases(t.split(":", 1)[1])
        return product_target(spec, sorted(theta), PhaseAssignment(theta, t0=cfg["t0"]),
                              cfg["sigma0"])
    raise InvalidProblem(f"unknown target {t!r} (use one, exp:<a>, product:<phases file>)")


def read_phases(path: str) -> dict[int, float]:
    theta = {}
    try:
        with open(path) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2:
                    theta[int(parts[0])] = float(parts[1])
    except (OSError, ValueError) as exc:
        raise InvalidProblem(f"cannot read phases file {path!r}: {exc}") from None
    return theta


def build_problem(cfg: RunConfig) -> ApproximationProblem:
    return ApproximationProblem(
        spec=build_spec(cfg), target=build_target(cfg),
        sigma0=cfg["sigma0"], r=cfg["radius"], eps=cfg["eps"], y=cfg["y"],
        gamma_c=cfg["gamma"], lam=cfg["lam"], delta=cfg["delta"], t0=cfg["t0"],
        p_max=cfg["pmax"], seed=cfg["seed"], phase_mode=cfg["phase_grid"])


def _write(outdir: str, name: str, text: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, name), "w") as fh:
        fh.write(text)


def cmd_approximate(cfg: RunConfig) -> int:
    problem = build_problem(cfg)
    problem.validate()
    out = cfg["out"]
    _write(out, "manifest.txt", cfg.manifest_text())
    result = _approximate_impl(problem)
    _write(out, "phases.txt", result.phases_text())
    _write(out, "trace.txt", result.trace_text())
    _write(out, "heatmap.txt", result.survey.heatmap_text())
    if result.success:
        status, code = "success", 0
    elif result.pool_exhausted:
        status, code = "pool_exhausted", 5
    else:
        status, code = "stall", 2
    _write(out, "report.txt",
           f"status {status}\nmax_error {result.max_error!r}\n"
           f"argmax {result.argmax.real!r} {result.argmax.imag!r}\n"
           f"primes {len(result.primes)}\nresidual_norm {result.residual_norm!r}\n"
           f"tail_bound {result.tail_bound!r}\n"
           f"contraction_deviation {result.contraction_deviation!r}\n")
    print(f"{status}: surveyed error {result.max_error:.6g} over {len(result.primes)} primes")
    return code


def cmd_refine(cfg: RunConfig) -> int:
    problem = build_problem(cfg)
    problem.validate()
    out = cfg["out"]
    _write(out, "manifest.txt", cfg.manifest_text())
    try:
        stages = refine_sequence(problem, stages=cfg["stages"])
    except RefineStall as exc:
        _write(out, "report.txt", f"status stall\nreason {exc}\n")
        print(f"stall: {exc}")
        return 2
    lines = ["stage y m_k core_error error bound draws"]
    for st in stages:
        lines.append(f"{st.stage} {st.y!r} {st.m_k} {st.core_error!r} {st.error!r} "
                     f"{st.schedule_bound!r} {st.draws_used}")
    _write(out, "report.txt", "status success\n" + "\n".join(lines) + "\n")
    last = stages[-1]
    _write(out, "phases.txt",
           "\n".join(f"{p} {last.phases.theta[p]!r}" for p in sorted(last.phases.theta)) + "\n")
    _write(out, "trace.txt", "\n".join(f"{s.stage} {s.error!r}" for s in stages) + "\n")
    print(f"success: {len(stages)} stages, final error {last.error:.6g}")
    return 0


def cmd_check_hypothesis(cfg: RunConfig, h_grid: str) -> int:
    spec = build_spec(cfg)
    try:
        lo, hi, count = h_grid.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise InvalidProblem(f"h grid must be lo:hi:count (got {h_grid!r})") from None
    # every window needs h > e; fit_c0 needs a nonempty, ascending grid
    if not (count >= 1 and math.e < lo <= hi < math.inf and (lo < hi or count == 1)):
        raise InvalidProblem(f"h grid needs e < lo < hi < inf and count >= 1 "
                             f"(or lo = hi and count 1), got {h_grid!r}")
    if not math.isfinite(cfg["lam"]):
        raise InvalidProblem(f"lam must be a finite number (got {cfg['lam']})")
    hs = list(np.exp(np.linspace(math.log(lo), math.log(hi), count)))
    wf = None   # empty: the paper's window (h, h (1 + log^-10 h)]
    if cfg["width_factor"] != "":
        try:
            wf = float(cfg["width_factor"])
        except ValueError:
            wf = math.nan
        if not (math.isfinite(wf) and wf > 0):
            raise InvalidProblem(f"width_factor must be a positive number "
                                 f"(got {cfg['width_factor']!r})")
    report = fit_c0(spec, cfg["lam"], hs, width_factor=wf)
    out = cfg["out"]
    _write(out, "manifest.txt", cfg.manifest_text())
    _write(out, "report.txt", report.to_text())
    ok = report.all_pass() and report.c0 > 0
    print(f"hypothesis {'holds' if ok else 'fails'}: c0 = {float(report.c0)!r}"
          + (f", first failure at h = {report.first_failure}" if report.first_failure else ""))
    return 0 if ok else 4


def cmd_zero_scan(cfg: RunConfig, center: complex, cradius: float, samples: int,
                  compare_n: int | None, phases_path: str | None) -> int:
    if not (samples >= 8 and 0 < cradius < math.inf and cfg["pmax"] >= 2):
        raise InvalidProblem(f"zero-scan needs samples >= 8, a finite cradius > 0 and "
                             f"pmax >= 2 (got samples={samples}, cradius={cradius}, "
                             f"pmax={cfg['pmax']})")
    spec = build_spec(cfg)
    theta = read_phases(phases_path) if phases_path else {}
    plist = [int(p) for p in primes_up_to(cfg["pmax"])]
    pa = PhaseAssignment({p: theta.get(p, 0.0) for p in plist}, t0=cfg["t0"])
    # zero_count, min_modulus and rouche_check sample some of the same points
    f = _memo(product_target(spec, plist, pa, 0.0))
    contour = Circle(center, cradius)
    count = zero_count(f, contour, quadrature_n=samples)
    m = min_modulus(f, contour, samples=max(64, samples))
    lines = [f"zero_count {count}", f"min_modulus {m!r}"]
    if compare_n is not None:
        g = product_target(spec, [p for p in plist if p <= compare_n], pa, 0.0)
        rr = rouche_check(f, g, contour, samples=max(64, samples))
        lines += [f"rouche_pass {int(rr.passed)}", f"rouche_margin {rr.margin!r}"]
        if rr.zeros_g is not None:   # counted only when dominance holds
            lines.append(f"zeros_truncated {rr.zeros_g}")
    out = cfg["out"]
    _write(out, "manifest.txt", cfg.manifest_text())
    _write(out, "report.txt", "\n".join(lines) + "\n")
    print("; ".join(lines))
    return 0


def cmd_torus(cfg: RunConfig, n: int, r: float, eps_slab: float, samples: int) -> int:
    if not (n >= 1 and samples >= 1 and 0 < eps_slab < r and cfg["seed"] >= 0):
        raise InvalidProblem(f"torus needs N >= 1, samples >= 1, 0 < eps-slab < r and "
                             f"seed >= 0 (got N={n}, samples={samples}, eps-slab={eps_slab}, "
                             f"r={r}, seed={cfg['seed']})")
    est, half = ball_volume_mc(n, r, samples, seed=cfg["seed"])
    slab = slab_bound_check(n, r, eps_slab, samples, seed=cfg["seed"])
    eq = equidistribution_test(t_max=10_000.0, n=min(n, 8), seed=cfg["seed"])
    lines = [
        f"N {n} r {r!r} volume {est!r} half_width {half!r}",
        slab.to_text().strip(),
        f"discrepancy_coordinate {eq.max_coordinate!r} pairwise {eq.max_pairwise!r}",
    ]
    out = cfg["out"]
    _write(out, "manifest.txt", cfg.manifest_text())
    _write(out, "report.txt", "\n".join(lines) + "\n")
    print("; ".join(lines))
    return 0


def cmd_report(run_dir: str) -> int:
    for name in ("manifest.txt", "report.txt"):
        path = os.path.join(run_dir, name)
        if os.path.exists(path):
            print(f"--- {name} ---")
            with open(path) as fh:
                sys.stdout.write(fh.read())
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an invalid config (exit 3), not argparse's 2."""

    def error(self, message: str):
        raise InvalidProblem(message)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="eulerapprox", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value config file (or a prior manifest)")
        for key, default in CONFIG_KEYS.items():
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, default=None,
                           help=f"config key {key} (default {default})")

    p_appr = sub.add_parser("approximate", help="greedy disc approximation run")
    add_common(p_appr)
    p_ref = sub.add_parser("refine", help="doubling-floor schedule run")
    add_common(p_ref)
    p_hyp = sub.add_parser("check-hypothesis", help="short-interval sum report")
    add_common(p_hyp)
    p_hyp.add_argument("--h-grid", default="1e4:1e6:20", help="lo:hi:count, log spaced")
    p_zero = sub.add_parser("zero-scan", help="winding-number zero count on a circle")
    add_common(p_zero)
    p_zero.add_argument("--center-re", type=float, default=None)
    p_zero.add_argument("--center-im", type=float, default=0.0)
    p_zero.add_argument("--cradius", type=float, default=None)
    p_zero.add_argument("--samples", type=int, default=512)
    p_zero.add_argument("--compare-n", type=int, default=None,
                        help="also run the dominance check against the product truncated here")
    p_zero.add_argument("--phases", default=None, help="phases file for the product twists")
    p_tor = sub.add_parser("torus", help="volume, slab, and equidistribution checks")
    add_common(p_tor)
    p_tor.add_argument("--N", type=int, default=4)
    p_tor.add_argument("--r", type=float, default=0.8)
    p_tor.add_argument("--eps-slab", type=float, default=0.05)
    p_tor.add_argument("--samples", type=int, default=200_000)
    p_rep = sub.add_parser("report", help="print the manifest and report of a run directory")
    p_rep.add_argument("run_dir")

    try:
        args = parser.parse_args(argv)
        if args.command == "report":
            return cmd_report(args.run_dir)
        overrides = {k: getattr(args, k, None) for k in CONFIG_KEYS}
        cfg = load_config(args.config, overrides)
        if args.command == "approximate":
            return cmd_approximate(cfg)
        if args.command == "refine":
            return cmd_refine(cfg)
        if args.command == "check-hypothesis":
            return cmd_check_hypothesis(cfg, args.h_grid)
        if args.command == "zero-scan":
            center = complex(args.center_re if args.center_re is not None else cfg["sigma0"],
                             args.center_im)
            cradius = args.cradius if args.cradius is not None else cfg["radius"]
            return cmd_zero_scan(cfg, center, cradius, args.samples,
                                 args.compare_n, args.phases)
        if args.command == "torus":
            return cmd_torus(cfg, args.N, args.r, args.eps_slab, args.samples)
    except InvalidProblem as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 3
    except ApproximationStall as exc:
        print(f"stall: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
