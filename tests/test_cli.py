import warnings
from pathlib import Path

import numpy as np
import pytest

from eulerapprox import cli
from eulerapprox.approx import _approximate_impl


NOT_LABELS = {"none", "nan", "inf", "infinity"}


def parse_number(token):
    try:
        return int(token)
    except ValueError:
        value = float(token)
        assert np.isfinite(value), token
        return value


def test_every_output_file_parses_back(tmp_path):
    runs = {
        "approximate": (["approximate", "--pmax", "2000"], 0),
        "refine": (["refine", "--pmax", "2000", "--stages", "2"], 0),
        "hypothesis": (["check-hypothesis", "--h-grid", "1e4:1e5:3"], 4),
        # the paper's window holds no integer at desk scale; a wider one passes
        "hypothesis-wide": (["check-hypothesis", "--width-factor", "0.01"], 0),
        "zero-scan": (["zero-scan", "--pmax", "2000", "--compare-n", "200"], 0),
        "zero-scan-dominated": (["zero-scan", "--pmax", "2000", "--compare-n", "1000",
                                 "--center-re", "1.5", "--cradius", "0.2"], 0),
        "torus": (["torus", "--samples", "20000"], 0),
    }
    for name, (argv, code) in runs.items():
        assert cli.main(argv + ["--out", str(tmp_path / name)]) == code
        for path in sorted((tmp_path / name).iterdir()):
            for line in path.read_text().splitlines():
                if path.name == "manifest.txt":
                    key, value = line.split(" = ")
                    default = cli.COMMAND_KEYS[argv[0]].get(key)
                    if isinstance(default, (int, float)) or (
                            key in ("width_factor", "compare_n") and value):
                        parse_number(value)
                else:
                    # labels are identifiers (c0, half_width, success); the rest are
                    # numbers, and a missing or non-finite value is not a label
                    for token in line.split():
                        if not token.isidentifier() or token.lower() in NOT_LABELS:
                            parse_number(token)

    # the truncated product's zeros are counted only where dominance holds
    assert "zeros_truncated" not in (tmp_path / "zero-scan" / "report.txt").read_text()
    assert "zeros_truncated 0\n" in (tmp_path / "zero-scan-dominated" / "report.txt").read_text()

    def replayed(name):
        return cli.load_config("check-hypothesis", str(tmp_path / name / "manifest.txt"), {})

    assert replayed("hypothesis-wide")["width_factor"] == "0.01"
    assert replayed("hypothesis")["width_factor"] == ""
    assert cli.main(["check-hypothesis", "--width-factor", "0", "--out",
                     str(tmp_path / "hypothesis-zero")]) == 3

    heatmap = tmp_path / "approximate" / "heatmap.txt"
    rows = np.array([[float(t) for t in line.split()] for line in heatmap.read_text().splitlines()])
    problem = cli.build_problem(cli.load_config("approximate", None, {"pmax": 2000}))
    assert np.array_equal(rows, _approximate_impl(problem)[0].survey.rows)


def test_manifest_with_workers_line_still_replays(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("version = 0.1.0\nrng = numpy-PCG64\nworkers = 4\npmax = 3000\n")
    cfg = cli.load_config("approximate", str(manifest), {})
    assert cfg["pmax"] == 3000
    assert "workers" not in cfg.values
    # the key is newer than this manifest
    assert cli.load_config("check-hypothesis", str(manifest), {})["width_factor"] == ""


@pytest.mark.parametrize("argv", [
    ["approximate", "--pmax", "abc"],
    ["approximate", "--target", "exp:abc"],
    ["approximate", "--spec", "custom:/nonexistent"],
    ["check-hypothesis", "--h-grid", "a:b:3"],
    ["check-hypothesis", "--h-grid", "1e4:1e6:0"],
    ["check-hypothesis", "--h-grid", "0:1e6:3"],
    ["torus", "--N", "0"],
    ["torus", "--N", "abc"],
    ["approximate", "--no-such-flag", "1"],
    # NaN slips past a plain `eps <= 0` or `y < 2` check
    ["approximate", "--eps", "nan"],
    ["approximate", "--y", "nan"],
    ["approximate", "--t0", "nan"],
    ["approximate", "--config", "/nonexistent"],
    ["refine", "--stages", "0"],
    ["zero-scan", "--samples", "0"],
    # numpy raises on these (np.random.SeedSequence, the sieve) unless they are caught first
    ["refine", "--seed", "-1", "--pmax", "2000"],
    ["torus", "--seed", "-1", "--samples", "1000"],
    ["zero-scan", "--pmax", "-5"],
    # these would otherwise yield a verdict (exit 4 or 0) from a malformed input
    ["check-hypothesis", "--lam", "nan"],
    ["check-hypothesis", "--lam", "inf"],
    ["zero-scan", "--cradius", "0"],
    ["zero-scan", "--pmax", "1"],
    # fewer than 8 winding samples can only count 0 zeros
    ["zero-scan", "--samples", "4"],
    ["zero-scan", "--compare-n", "abc"],
    # the factors have poles on Re s = 0, and a non-finite centre counts nothing
    ["zero-scan", "--center-re", "0.01", "--cradius", "0.02"],
    ["zero-scan", "--center-re", "nan"],
    ["zero-scan", "--center-im", "inf"],
    # a flag of another subcommand would otherwise be accepted and ignored
    ["torus", "--pmax", "5"],
    ["zero-scan", "--sigma0", "0.8"],
    ["check-hypothesis", "--seed", "1"],
    ["approximate", "--seed", "7"],      # approximate draws nothing at random
    # an integer key takes no fraction: these would otherwise run N 3, 25000 and 2
    ["torus", "--N", "3.7"],
    ["approximate", "--pmax", "25000.5"],
    ["refine", "--stages", "2.5"],
], ids=lambda argv: "_".join(argv))
def test_malformed_input_is_an_invalid_config(tmp_path, capsys, argv):
    # exit 3, not a traceback (1) or argparse's 2, which would read as a stall
    assert cli.main(argv + ["--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("name,text,argv", [
    ("phases", "2 1.5\n", ["approximate", "--target", "product:{}"]),
    ("phases", "2 1.5\n", ["zero-scan", "--phases", "{}"]),
    ("phases", "2 0.25\n3 nan\n", ["approximate", "--target", "product:{}"]),
    ("phases", "2 0.25\n3 nan\n", ["zero-scan", "--phases", "{}"]),
    # a key that is not a prime would put a non-Euler factor into the target
    ("phases", "2 0.25\n4 0.5\n", ["approximate", "--target", "product:{}"]),
    ("phases", "2 0.25\n4 0.5\n", ["zero-scan", "--phases", "{}"]),
    ("phases", "1 0.5\n", ["approximate", "--target", "product:{}"]),
    ("phases", "1 0.5\n", ["zero-scan", "--phases", "{}"]),
    # a line that is not "prime twist" would otherwise be skipped
    ("phases", "2 0.25\n3\n", ["approximate", "--target", "product:{}"]),
    ("phases", "2 0.25\n3\n", ["zero-scan", "--phases", "{}"]),
    ("phases", "2 0.25\n5 0.5 0.1\n", ["approximate", "--target", "product:{}"]),
    ("phases", "2 0.25\n5 0.5 0.1\n", ["zero-scan", "--phases", "{}"]),
    # a coefficient index below 1 would otherwise be dropped from the table
    ("spec", "c_eps 0.05 2.0\n2 0 0.5 0\n", ["approximate", "--spec", "custom:{}"]),
], ids=["twist-range-target", "twist-range-zero-scan", "twist-nan-target",
        "twist-nan-zero-scan", "composite-key-target", "composite-key-zero-scan",
        "key-1-target", "key-1-zero-scan", "one-field-target", "one-field-zero-scan",
        "three-fields-target", "three-fields-zero-scan", "custom-index-0"])
def test_malformed_input_file_is_an_invalid_config(tmp_path, capsys, name, text, argv):
    path = tmp_path / name
    path.write_text(text)
    argv = [a.format(path) for a in argv] + ["--pmax", "2000", "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and err.count("\n") == 1


def test_phases_file_skips_blank_lines_only(tmp_path):
    path = tmp_path / "phases"
    path.write_text("2 0.25\n\n   \n3 0.5\n")
    assert cli.read_phases(str(path)) == {2: 0.25, 3: 0.5}
    path.write_text("2 0.25\n\n5 0.5 0.1\n")
    with pytest.raises(cli.InvalidProblem, match="line 3 is not 'prime twist'"):
        cli.read_phases(str(path))


@pytest.mark.parametrize("argv,code,stalled", [
    (["--pmax", "30", "--eps", "0.001"], 2, True),              # two pair rescues, then a stall
    (["--pmax", "3000", "--y", "11", "--eps", "0.02"], 5, True),   # every pool prime steered
    (["--pmax", "2000"], 0, False),
    (["--pmax", "30", "--eps", "0.005"], 0, True),      # the last round stalls within eps
], ids=["rescue", "exhausted", "success", "success-after-stall"])
def test_stall_record_parses_back(tmp_path, argv, code, stalled):
    run = tmp_path / "run"
    assert cli.main(["approximate"] + argv + ["--out", str(run)]) == code
    report = dict(line.split(" ", 1) for line in (run / "report.txt").read_text().splitlines())
    cfg = cli.load_config("approximate", str(run / "manifest.txt"), {})
    stall = _approximate_impl(cli.build_problem(cfg))[0].stall
    assert (stall is not None) == stalled
    if code == 0:      # a success report has no stall record
        assert "best_decrease" not in report and "best_pairing" not in report
    else:
        assert float(report["best_decrease"]) == stall.best_decrease
        assert float(report["best_pairing"]) == stall.best_pairing
        assert list(report)[-2:] == ["best_decrease", "best_pairing"]


def test_large_prime_phase_key_sieves_to_its_square_root(tmp_path, monkeypatch):
    path = tmp_path / "phases"
    path.write_text("2 0.25\n999999999989 0.5\n")      # the largest prime below 10^12
    bounds = []
    sieve = cli.primes_up_to
    monkeypatch.setattr(cli, "primes_up_to", lambda n: bounds.append(n) or sieve(n))
    assert cli.read_phases(str(path)) == {2: 0.25, 999999999989: 0.5}
    assert max(bounds) == 999999
    path.write_text("999999999999 0.5\n")      # 3 x 333333333333
    with pytest.raises(cli.InvalidProblem, match="key 999999999999 is not a prime"):
        cli.read_phases(str(path))


def test_zero_scan_contour_failure_has_its_exit_code(tmp_path, capsys):
    # a valid circle near Re s = 0, where the product's argument is not resolved
    run = tmp_path / "run"
    argv = ["zero-scan", "--pmax", "2000", "--center-re", "0.03", "--cradius", "0.02"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv + ["--out", str(run)]) == 7
    assert not caught      # the report says why, without numpy's overflow warnings
    out, err = capsys.readouterr()
    assert out.startswith("contour failure: ") and err == ""
    report = (run / "report.txt").read_text()
    assert report == ("status contour_failure\n"
                      "reason winding failed to stabilize (last estimate nan)\n")
    assert (run / "manifest.txt").exists()


def test_integral_value_of_an_integer_key_runs(tmp_path):
    run = tmp_path / "run"
    assert cli.main(["approximate", "--pmax", "2.5e4", "--out", str(run)]) == 0
    assert "pmax = 25000\n" in (run / "manifest.txt").read_text()


def test_manifest_paths_replay_from_another_directory(tmp_path, monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    (work / "ph.txt").write_text("2 0.25\n3 0.5\n7 0.75\n")
    (work / "spec.txt").write_text("c_eps 0.05 2.0\n2 1 0.25 0.1\n3 1 -0.3 0\n5 1 0 0.2\n")
    runs = {
        "r1": ["zero-scan", "--pmax", "3000", "--phases", "ph.txt"],
        "r2": ["approximate", "--spec", "custom:spec.txt", "--target", "product:ph.txt",
               "--pmax", "2000", "--eps", "0.3"],
    }
    monkeypatch.chdir(work)
    codes = {name: cli.main(argv + ["--out", name]) for name, argv in runs.items()}
    assert "phases = " + str(work / "ph.txt") + "\n" in (work / "r1" / "manifest.txt").read_text()
    monkeypatch.chdir(tmp_path)
    for name, argv in runs.items():
        again = tmp_path / (name + "-again")
        assert cli.main([argv[0], "--config", str(Path("work") / name / "manifest.txt"),
                         "--out", str(again)]) == codes[name]
        for path in (work / name).iterdir():
            if path.name != "manifest.txt":
                assert (again / path.name).read_bytes() == path.read_bytes(), path.name


def replay_argv(tmp_path):
    """Per subcommand, a quick run that sets every one of its keys but out off its default."""
    phases = tmp_path / "phases.txt"
    phases.write_text("2 0.25\n3 0.5\n7 0.75\n")
    problem = ["--target", "exp:-0.05", "--sigma0", "0.76", "--radius", "0.019",
               "--y", "3", "--gamma", "1.9", "--lam", "0.011", "--delta", "0.009",
               "--t0", "0.5", "--pmax", "2000"]
    return {
        "approximate": ["approximate", "--spec", "chi4", "--phase-grid", "golden",
                        "--eps", "0.025"] + problem,
        "refine": ["refine", "--spec", "zeta", "--phase-grid", "quarter", "--eps", "0.2",
                   "--stages", "2", "--seed", "1"] + problem,
        "check-hypothesis": ["check-hypothesis", "--spec", "chi4", "--lam", "0.02",
                             "--width-factor", "0.01", "--h-grid", "1e4:1e5:3"],
        "zero-scan": ["zero-scan", "--spec", "chi4", "--t0", "0.5", "--pmax", "2000",
                      "--center-re", "1.5", "--center-im", "3", "--cradius", "0.2",
                      "--samples", "64", "--compare-n", "1000", "--phases", str(phases)],
        "torus": ["torus", "--seed", "2", "--N", "3", "--r", "0.7", "--eps-slab", "0.1",
                  "--samples", "1000"],
    }


def manifest_keys(run):
    return [line.split(" = ")[0] for line in (run / "manifest.txt").read_text().splitlines()]


@pytest.mark.parametrize("command", list(cli.COMMAND_KEYS))
def test_manifest_lists_exactly_its_subcommand_keys(tmp_path, command):
    argv = replay_argv(tmp_path)[command]
    flags = {a[2:].replace("-", "_") for a in argv if a.startswith("--")}
    assert flags == set(cli.COMMAND_KEYS[command]) - {"out"}
    cli.main(argv + ["--out", str(tmp_path / "run")])
    keys = manifest_keys(tmp_path / "run")
    assert keys[:2] == ["version", "rng"]
    assert sorted(keys[2:]) == sorted(cli.COMMAND_KEYS[command])


@pytest.mark.parametrize("command", list(cli.COMMAND_KEYS))
def test_manifest_replays_every_output(tmp_path, command):
    first, again = tmp_path / "first", tmp_path / "again"
    code = cli.main(replay_argv(tmp_path)[command] + ["--out", str(first)])
    assert code in (0, 2, 4)
    assert cli.main([command, "--config", str(first / "manifest.txt"),
                     "--out", str(again)]) == code
    names = sorted(p.name for p in first.iterdir() if p.name != "manifest.txt")
    assert names and names == sorted(p.name for p in again.iterdir()
                                     if p.name != "manifest.txt")
    for name in names:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


# every key of every subcommand before each subcommand recorded only its own
OLD_MANIFEST = """version = 0.1.0
rng = numpy-PCG64
delta = 0.01
eps = 0.1
gamma = 2.0
lam = 0.01
out = old
phase_grid = quarter
pmax = 2000
radius = 0.02
seed = 1
sigma0 = 0.75
spec = zeta
stages = 2
t0 = 0.0
target = exp:0.1
width_factor = 0.01
y = 2.0
"""


@pytest.mark.parametrize("command", list(cli.COMMAND_KEYS))
def test_old_manifest_replays_into_each_subcommand(tmp_path, command):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(OLD_MANIFEST)
    old = dict(line.split(" = ") for line in OLD_MANIFEST.splitlines())
    assert len(old) == 18   # the 16 keys, version and rng
    cfg = cli.load_config(command, str(manifest), {})
    for key, default in cli.COMMAND_KEYS[command].items():
        want = old[key] if key in old else str(default)
        assert str(cfg[key]) == want, key
    run = tmp_path / "run"
    assert cli.main([command, "--config", str(manifest), "--out", str(run)]) == 0
    assert sorted(manifest_keys(run)[2:]) == sorted(cli.COMMAND_KEYS[command])
    # a key that no subcommand has is still rejected
    manifest.write_text(OLD_MANIFEST + "bogus = 1\n")
    assert cli.main([command, "--config", str(manifest), "--out", str(run)]) == 3


@pytest.mark.parametrize("compare", [[], ["--compare-n", "1000"]], ids=["alone", "compare"])
def test_zero_scan_evaluates_each_product_sample_once(tmp_path, monkeypatch, compare):
    samples = []   # (primes, sample array) of every product evaluation
    make = cli.product_target

    def counting(spec, primes, phases, sigma0):
        assert primes.dtype == np.int64    # one array per product, converted by no call
        h = make(spec, primes, phases, sigma0)

        def g(s):
            samples.append((len(primes), np.array(s)))
            return h(s)

        return g

    monkeypatch.setattr(cli, "product_target", counting)
    argv = ["zero-scan", "--pmax", "2000", "--center-re", "1.5", "--cradius", "0.2",
            "--out", str(tmp_path / "run")]
    assert cli.main(argv + compare) == 0
    if compare:   # dominance holds, so rouche_check runs to the end
        assert "zeros_truncated 0\n" in (tmp_path / "run" / "report.txt").read_text()
    f = [s for n, s in samples if n == 303]   # the full product; g has 168 primes
    # zero_count's 512 points and their 512 odd midpoints, then one refinement
    # call; min_modulus' coarse scan and rouche_check repeat these arrays.
    # |f| is least at angle 0 and even in it, so the parabola's vertex is the
    # coarse argmin itself and the call takes only its two neighbours
    assert [len(s) for s in f] == [512, 512, 2]
    pts = np.concatenate(f)
    # only min_modulus' refinement points may repeat one of zero_count's
    assert len(np.unique(pts)) >= len(pts) - 3
