import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# every command that does no quadrature, at a small config
NUMPY_ONLY_ROUTES = [
    ["sample-field", "--domain", "box1d:1", "--seed", "5"],
    ["simulate", "--domain", "box1d:1", "--t", "1", "--seed", "2"],
    ["solve-variational", "--domain", "box1d:0"],
    ["solve-variational", "--domain", "box1d:0", "--brute-force"],
    ["nonexit", "--method", "mc", "--domain", "box1d:1", "--t", "2", "--trials", "20", "--seed", "1"],
    ["nonexit", "--method", "is", "--domain", "box1d:1", "--t", "2", "--trials", "20", "--seed", "1"],
    ["eigen-tail", "--method", "mc", "--domain", "box1d:0", "--eps", "2", "--trials", "20",
     "--seed", "1"],
    ["ldp-check", "--domain", "box1d:0", "--t", "1", "--trials", "4", "--seed", "3"],
    ["girsanov-test", "--domain", "box1d:1", "--t", "1", "--trials", "20", "--seed", "0"],
]

PROBE = """
import json, sys
import rwrc
codes, loaded = [], []
for argv in json.loads(sys.argv[1]):
    codes.append(rwrc.run_cli(argv + ["--out", "out." + argv[0]]))
    loaded.append("scipy" in sys.modules)
codes.append(rwrc.run_cli(["nonexit", "--method", "quadrature", "--t", "10", "--out", "q.csv"]))
loaded.append("scipy" in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_only_the_quadrature_commands_load_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(NUMPY_ONLY_ROUTES)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["codes"] == [0] * (len(NUMPY_ONLY_ROUTES) + 1), proc.stderr
    # scipy stays out through every numpy-only command; the quadrature loads it
    assert doc["loaded"] == [False] * len(NUMPY_ONLY_ROUTES) + [True]
