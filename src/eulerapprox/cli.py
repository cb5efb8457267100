"""Experiment runner: approximate / refine / check-hypothesis / zero-scan / torus / report.

Configuration is flat ``key = value`` text.  ``COMMAND_KEYS`` lists each
subcommand's keys; every key is a flag (``eps_slab`` is ``--eps-slab``), and
command-line values win over the config file:

* approximate: spec target sigma0 radius eps y gamma lam delta t0 pmax
  phase_grid out; refine: the same and seed stages;
* check-hypothesis: spec lam width_factor h_grid (lo:hi:count, log spaced) out;
* zero-scan: spec t0 pmax center_re center_im cradius samples compare_n
  (also check dominance over the product truncated there) phases (a phases
  file of product twists) out; an empty compare_n or phases is off;
* torus: seed N r eps_slab samples out.

A flag of another subcommand is an invalid config.  Each run's manifest lists
every key of its subcommand plus version and rng, so --config <manifest>
replays the run.  Replay skips version, rng, workers (it never had an effect)
and the keys of other subcommands (older manifests list every subcommand's
keys); it rejects a key that no subcommand has, and a key the manifest lacks,
such as ``width_factor``, takes its default.

``check-hypothesis`` tests the paper's window (h, h (1 + log^-10 h)] unless
``width_factor`` sets the relative width: below h ~ e^41 the paper's window
holds no integer, so at desk scale only a wider window can pass.

Exit codes: 0 success, 2 stall, 3 invalid config (a malformed flag or value
included), 4 hypothesis failure, 5 pool exhausted (``approximate`` steered
every prime up to pmax and the surveyed error is still above eps; raise pmax
or lower the floor y), 6 step cap (``approximate``'s last steering round
ran out of steps while moves still decreased the residual), 7 contour failure
(``zero-scan`` could not count windings on its circle; ``report.txt`` says why).
The ``report.txt`` of an ``approximate`` run that ends on a stall or an
exhausted pool closes with the last round's ``best_decrease`` and
``best_pairing``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .analysis import Circle, ContourZeroError, _memo, fit_c0, min_modulus, rouche_check, zero_count
from .approx import (
    ApproximationProblem,
    ApproximationStall,
    InvalidProblem,
    RefineStall,
    approximate,
    product_target,
    refine_sequence,
)
from .factors import PhaseAssignment, dirichlet_spec, load_custom_spec, zeta_spec
from .primes import primes_up_to
from .torus import RNG_ALGORITHM, ball_volume_mc, equidistribution_test, slab_bound_check

_PROBLEM_KEYS = {
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
    "out": "run",
}

#: subcommand -> its config keys and their defaults; a default's type is the
#: key's type.  The table makes each subcommand's flags and manifest lines.
COMMAND_KEYS = {
    "approximate": _PROBLEM_KEYS,
    "refine": {**_PROBLEM_KEYS, "seed": 0, "stages": 3},
    "check-hypothesis": {"spec": "zeta", "lam": 0.01, "width_factor": "",
                         "h_grid": "1e4:1e6:20", "out": "run"},
    "zero-scan": {"spec": "zeta", "t0": 0.0, "pmax": 100_000, "center_re": 0.75,
                  "center_im": 0.0, "cradius": 0.02, "samples": 512, "compare_n": "",
                  "phases": "", "out": "run"},
    "torus": {"seed": 0, "N": 4, "r": 0.8, "eps_slab": 0.05, "samples": 200_000,
              "out": "run"},
}

_ALL_KEYS = frozenset(k for keys in COMMAND_KEYS.values() for k in keys)


class RunConfig:
    def __init__(self, command: str):
        self.command = command
        self.values = dict(COMMAND_KEYS[command])

    def __getitem__(self, key):
        return self.values[key]

    def set(self, key: str, raw: str) -> None:
        if key not in self.values:
            raise InvalidProblem(f"unknown config key {key!r} for {self.command}")
        default = COMMAND_KEYS[self.command][key]
        try:
            value = float(raw) if isinstance(default, (int, float)) else raw
        except ValueError:
            raise InvalidProblem(f"{key} must be a finite number (got {raw!r})") from None
        if isinstance(default, int):
            if not value.is_integer():     # 1e6 is an integer, 3.7 and inf are not
                raise InvalidProblem(f"{key} must be an integer (got {raw!r})")
            value = int(value)
        self.values[key] = value

    def manifest_text(self) -> str:
        """The config as ``key = value`` lines, file paths absolute so any directory replays it."""
        lines = [f"version = {__version__}", f"rng = {RNG_ALGORITHM}"]
        for k in sorted(self.values):
            lines.append(f"{k} = {_manifest_value(k, self.values[k])}")
        return "\n".join(lines) + "\n"


#: config keys whose value names a file, after the given prefix
_PATH_KEYS = {"phases": "", "spec": "custom:", "target": "product:"}


def _manifest_value(key: str, value):
    """``value`` with the file path of a ``_PATH_KEYS`` key made absolute."""
    prefix = _PATH_KEYS.get(key)
    if prefix is None or not value or not value.startswith(prefix):
        return value
    return prefix + os.path.abspath(value[len(prefix):])


def load_config(command: str, path: str | None, overrides: dict) -> RunConfig:
    cfg = RunConfig(command)
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
            if k in ("version", "rng", "workers") or (k in _ALL_KEYS and k not in cfg.values):
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
            for ln, line in enumerate(fh, 1):
                parts = line.split()
                if len(parts) not in (0, 2):
                    raise ValueError(f"line {ln} is not 'prime twist': {line.strip()!r}")
                if parts:
                    theta[int(parts[0])] = float(parts[1])
        PhaseAssignment(theta)      # rejects a twist outside [0, 1), NaN and inf included
        for n in theta:     # trial division by the primes up to sqrt(n), at most 10^7
            if not 2 <= n <= 10**14 or np.any(n % primes_up_to(math.isqrt(n)) == 0):
                raise ValueError(f"key {n} is not a prime up to 1e14")
    except (OSError, ValueError) as exc:
        raise InvalidProblem(f"cannot read phases file {path!r}: {exc}") from None
    return theta


def build_problem(cfg: RunConfig) -> ApproximationProblem:
    # only the refine draws use a seed
    seed = {"seed": cfg["seed"]} if cfg.command == "refine" else {}
    return ApproximationProblem(
        spec=build_spec(cfg), target=build_target(cfg),
        sigma0=cfg["sigma0"], r=cfg["radius"], eps=cfg["eps"], y=cfg["y"],
        gamma_c=cfg["gamma"], lam=cfg["lam"], delta=cfg["delta"], t0=cfg["t0"],
        p_max=cfg["pmax"], phase_mode=cfg["phase_grid"], **seed)


def _optional(cfg: RunConfig, key: str, kind: type):
    """The value of a key whose empty value means off: None, or ``kind`` of it."""
    raw = cfg[key]
    if raw == "":
        return None
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise InvalidProblem(f"{key} must be {noun} (got {raw!r})") from None


def _write(outdir: str, name: str, text: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, name), "w") as fh:
        fh.write(text)


#: ``approximate``'s result status -> exit code
_EXIT_CODES = {"success": 0, "stall": 2, "pool_exhausted": 5, "step_cap": 6}


def cmd_approximate(cfg: RunConfig) -> int:
    problem = build_problem(cfg)
    problem.validate()
    out = cfg["out"]
    _write(out, "manifest.txt", cfg.manifest_text())
    try:
        result = approximate(problem)
    except ApproximationStall as exc:
        result = exc.result
    _write(out, "phases.txt", result.phases_text())
    _write(out, "trace.txt", result.trace_text())
    _write(out, "heatmap.txt", result.survey.heatmap_text())
    stall = result.stall if result.status != "success" else None   # why the run stopped short
    _write(out, "report.txt",
           f"status {result.status}\nmax_error {result.max_error!r}\n"
           f"argmax {result.argmax.real!r} {result.argmax.imag!r}\n"
           f"primes {len(result.primes)}\nresidual_norm {result.trace[-1]!r}\n"
           f"tail_bound {result.tail_bound!r}\n"
           f"contraction_deviation {result.contraction_deviation!r}\n"
           + (f"best_decrease {stall.best_decrease!r}\nbest_pairing {stall.best_pairing!r}\n"
              if stall else ""))
    print(f"{result.status}: surveyed error {result.max_error:.6g} over "
          f"{len(result.primes)} primes")
    return _EXIT_CODES[result.status]


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


def cmd_check_hypothesis(cfg: RunConfig) -> int:
    spec = build_spec(cfg)
    h_grid = cfg["h_grid"]
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
    # None: the paper's window (h, h (1 + log^-10 h)]
    wf = _optional(cfg, "width_factor", float)
    if wf is not None and not (math.isfinite(wf) and wf > 0):
        raise InvalidProblem(f"width_factor must be a positive number (got {wf!r})")
    report = fit_c0(spec, cfg["lam"], hs, width_factor=wf)
    out = cfg["out"]
    _write(out, "manifest.txt", cfg.manifest_text())
    _write(out, "report.txt", report.to_text())
    ok = report.all_pass() and report.c0 > 0
    print(f"hypothesis {'holds' if ok else 'fails'}: c0 = {float(report.c0)!r}"
          + (f", first failure at h = {report.first_failure}" if report.first_failure else ""))
    return 0 if ok else 4


def cmd_zero_scan(cfg: RunConfig) -> int:
    cradius, samples = cfg["cradius"], cfg["samples"]
    if not (samples >= 8 and 0 < cradius < math.inf and cfg["pmax"] >= 2):
        raise InvalidProblem(f"zero-scan needs samples >= 8, a finite cradius > 0 and "
                             f"pmax >= 2 (got samples={samples}, cradius={cradius}, "
                             f"pmax={cfg['pmax']})")
    centre = complex(cfg["center_re"], cfg["center_im"])
    if not (np.isfinite(centre) and centre.real - cradius > 0.0):   # the factors need Re s > 0
        raise InvalidProblem(f"zero-scan needs a finite centre and a circle in Re s > 0 "
                             f"(got centre {centre!r}, cradius {cradius!r})")
    compare_n = _optional(cfg, "compare_n", int)
    spec = build_spec(cfg)
    theta = read_phases(cfg["phases"]) if cfg["phases"] else {}
    ps = primes_up_to(cfg["pmax"])      # int64: the products take it as it is
    pa = PhaseAssignment({p: theta.get(p, 0.0) for p in ps.tolist()}, t0=cfg["t0"])
    # min_modulus' coarse scan repeats zero_count's first stage, and
    # rouche_check repeats min_modulus' calls, array for array
    f = _memo(product_target(spec, ps, pa, 0.0))
    contour = Circle(centre, cradius)
    out = cfg["out"]
    _write(out, "manifest.txt", cfg.manifest_text())
    try:
        # where the winding fails the product overflows: report.txt says why, not numpy
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            count = zero_count(f, contour, quadrature_n=samples)
            m = min_modulus(f, contour, samples=max(64, samples))
            lines = [f"zero_count {count}", f"min_modulus {m!r}"]
            if compare_n is not None:
                g = product_target(spec, ps[ps <= compare_n], pa, 0.0)
                rr = rouche_check(f, g, contour, samples=max(64, samples))
                lines += [f"rouche_pass {int(rr.passed)}", f"rouche_margin {rr.margin!r}"]
                if rr.zeros_g is not None:   # counted only when dominance holds
                    lines.append(f"zeros_truncated {rr.zeros_g}")
    except ContourZeroError as exc:
        _write(out, "report.txt", f"status contour_failure\nreason {exc}\n")
        print(f"contour failure: {exc}")
        return 7
    _write(out, "report.txt", "\n".join(lines) + "\n")
    print("; ".join(lines))
    return 0


def cmd_torus(cfg: RunConfig) -> int:
    n, r, eps_slab, samples = cfg["N"], cfg["r"], cfg["eps_slab"], cfg["samples"]
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


#: subcommand -> (runner, help line); ``report`` reads a run directory, not a config
COMMANDS = {
    "approximate": (cmd_approximate, "greedy disc approximation run"),
    "refine": (cmd_refine, "doubling-floor schedule run"),
    "check-hypothesis": (cmd_check_hypothesis, "short-interval sum report"),
    "zero-scan": (cmd_zero_scan, "winding-number zero count on a circle"),
    "torus": (cmd_torus, "volume, slab, and equidistribution checks"),
}


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="eulerapprox", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", help="key = value config file (or a prior manifest)")
        for key, default in COMMAND_KEYS[command].items():
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=f"config key {key} (default {default!r})")
    p_rep = sub.add_parser("report", help="print the manifest and report of a run directory")
    p_rep.add_argument("run_dir")

    try:
        args = parser.parse_args(argv)
        if args.command == "report":
            return cmd_report(args.run_dir)
        overrides = {k: getattr(args, k) for k in COMMAND_KEYS[args.command]}
        return COMMANDS[args.command][0](load_config(args.command, args.config, overrides))
    except InvalidProblem as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
