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
                    if isinstance(cli.CONFIG_KEYS.get(key), (int, float)) or (
                            key == "width_factor" and value):
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

    wide = cli.load_config(str(tmp_path / "hypothesis-wide" / "manifest.txt"), {})
    assert wide["width_factor"] == "0.01"
    assert cli.load_config(str(tmp_path / "hypothesis" / "manifest.txt"), {})["width_factor"] == ""
    assert cli.main(["check-hypothesis", "--width-factor", "0", "--out",
                     str(tmp_path / "hypothesis-zero")]) == 3

    heatmap = tmp_path / "approximate" / "heatmap.txt"
    rows = np.array([[float(t) for t in line.split()] for line in heatmap.read_text().splitlines()])
    problem = cli.build_problem(cli.load_config(None, {"pmax": 2000}))
    assert np.array_equal(rows, _approximate_impl(problem).survey.rows)


def test_manifest_with_workers_line_still_replays(tmp_path):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("version = 0.1.0\nrng = numpy-PCG64\nworkers = 4\npmax = 3000\n")
    cfg = cli.load_config(str(manifest), {})
    assert cfg["pmax"] == 3000
    assert "workers" not in cfg.values
    assert cfg["width_factor"] == ""   # the key is newer than this manifest


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
], ids=lambda argv: "_".join(argv))
def test_malformed_input_is_an_invalid_config(tmp_path, capsys, argv):
    # exit 3, not a traceback (1) or argparse's 2, which would read as a stall
    assert cli.main(argv + ["--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("compare", [[], ["--compare-n", "1000"]], ids=["alone", "compare"])
def test_zero_scan_evaluates_each_product_sample_once(tmp_path, monkeypatch, compare):
    samples = []   # (primes, sample array) of every product evaluation
    make = cli.product_target

    def counting(spec, primes, phases, sigma0):
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
    # zero_count's 512 points and their 512 odd midpoints, then 3 rounds of 9
    # refinement points; min_modulus' coarse scan and rouche_check repeat these arrays
    assert [len(s) for s in f] == [512, 512, 9, 9, 9]
    pts = np.concatenate(f)
    # only min_modulus' refinement rounds may repeat a point
    assert len(np.unique(pts)) >= len(pts) - 27
