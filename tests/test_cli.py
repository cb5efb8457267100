import numpy as np

from eulerapprox import cli
from eulerapprox.approx import _approximate_impl


def parse_number(token):
    try:
        return int(token)
    except ValueError:
        return float(token)


def test_every_output_file_parses_back(tmp_path):
    runs = {
        "approximate": (["approximate", "--pmax", "2000"], 0),
        "refine": (["refine", "--pmax", "2000", "--stages", "2"], 0),
        "hypothesis": (["check-hypothesis", "--h-grid", "1e4:1e5:3"], 4),
        "zero-scan": (["zero-scan", "--pmax", "2000", "--compare-n", "200"], 0),
        "torus": (["torus", "--samples", "20000"], 0),
    }
    for name, (argv, code) in runs.items():
        assert cli.main(argv + ["--out", str(tmp_path / name)]) == code
        for path in sorted((tmp_path / name).iterdir()):
            for line in path.read_text().splitlines():
                if path.name == "manifest.txt":
                    key, value = line.split(" = ")
                    if isinstance(cli.CONFIG_KEYS.get(key), (int, float)):
                        parse_number(value)
                else:
                    # labels are identifiers (c0, half_width, success); the rest are numbers
                    for token in line.split():
                        if not token.isidentifier():
                            parse_number(token)

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
