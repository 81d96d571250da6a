"""Fresh-interpreter runs: quaddyn never loads scipy, the float dynamics
commands must not load mpmath, `import quaddyn.dynamics` and `ray` must not
load numpy either, the exact commands must not load numpy, mpmath or the
float renderer, radius and ratio-experiment must not load numpy, and
`python -m quaddyn` must reach the CLI.

Every CLI invocation is a fresh interpreter, so imports are most of a cheap
command's time.  scipy is no dependency; hausdorff_distance is plain numpy.
Only the functions of dynamics that build arrays import numpy.  mpmath
serves the high-precision layers (linearize, the Brjuno sums), which julia,
ray, lavrentiev and the exact commands never reach.  The checks run in a fresh
interpreter, because this test session may have loaded all three already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

MODULES = (
    "cli", "angles", "cardioid", "cantor", "cfrac",
    "combdomain", "dynamics", "imaging", "linearize",
)

SCRIPT = """
import contextlib, importlib, io, json, sys

def scipy_loaded():
    return any(name.split(".")[0] == "scipy" for name in sys.modules)

import quaddyn
for name in MODULES:
    importlib.import_module("quaddyn." + name)
after_import = scipy_loaded()

from quaddyn.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["julia", "--c", "0", "--res", "4", "--json", "--out", OUT])
after_julia = scipy_loaded()

from quaddyn.dynamics import hausdorff_distance
distance = hausdorff_distance([0j, 1j], [3 + 4j])
print(json.dumps([after_import, code, after_julia, distance, scipy_loaded()]))
"""


def test_scipy_never_loads(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    prelude = f"MODULES = {MODULES!r}\nOUT = {str(tmp_path)!r}\n"
    proc = subprocess.run(
        [sys.executable, "-c", prelude + SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    after_import, code, after_julia, distance, after_call = json.loads(proc.stdout)
    assert not after_import
    assert code == 0
    assert (tmp_path / "julia-manifest.json").exists()
    assert not after_julia
    assert distance == 5.0
    assert not after_call


FLOAT_COMMANDS = """
import contextlib, io, json, sys
import quaddyn.dynamics

def loaded():
    return ["numpy" in sys.modules, "mpmath" in sys.modules]

after_import = loaded()
from quaddyn.cli import main

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(main(["ray", "--c", "-2,0", "--angle", "1/3", "--out", OUT]))
    after_ray = loaded()
    for argv in (["julia", "--c", "0", "--res", "4"], ["lavrentiev", "--count", "5"]):
        codes.append(main(argv + ["--out", OUT]))
print(json.dumps([after_import, after_ray, codes, loaded()]))
"""


def test_float_commands_leave_mpmath_unloaded(tmp_path):
    """Importing dynamics and running ray load neither numpy nor mpmath;
    julia and lavrentiev then load numpy, still not mpmath, and exit 0."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", f"OUT = {str(tmp_path)!r}\n" + FLOAT_COMMANDS],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    after_import, after_ray, codes, after_all = json.loads(proc.stdout)
    assert after_import == [False, False]
    assert after_ray == [False, False]
    assert codes == [0, 0, 0]
    assert (tmp_path / "julia.ppm").exists()
    assert (tmp_path / "lavrentiev.json").exists()
    assert after_all == [True, False]


EXACT_COMMANDS = """
import contextlib, io, json, sys
from quaddyn.cli import main

codes = []
for argv in (["angle", "--cf", "1:rep=1", "--prec", "16"],
             ["orbit", "--pq", "2/5"],
             ["landing-pair", "--pq", "3/5"],
             ["cantor", "--cf", "1:rep=1", "--depth", "6"],
             ["cf", "--cf", "1:rep=1"],
             ["omega", "--depth", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv + ["--out", OUT]))
print(json.dumps([codes, "numpy" in sys.modules, "mpmath" in sys.modules,
                  "quaddyn.dynamics" in sys.modules]))
"""


def test_exact_commands_leave_numpy_mpmath_and_renderer_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", f"OUT = {str(tmp_path)!r}\n" + EXACT_COMMANDS],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    codes, numpy_loaded, mpmath_loaded, dynamics_loaded = json.loads(proc.stdout)
    assert codes == [0] * 6
    assert (tmp_path / "omega.ppm").exists()
    assert (tmp_path / "cantor-cover.ppm").exists()
    assert not numpy_loaded
    assert not mpmath_loaded
    assert not dynamics_loaded


LINEARIZE_COMMANDS = """
import contextlib, io, json, sys
from quaddyn.cli import main

codes = []
for argv in (["radius", "--cf", "1:rep=1", "--order", "80"],
             ["ratio-experiment", "--prefix", "1,2,1,1", "--A", "2", "--n", "3..4",
              "--order", "48"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv + ["--out", OUT]))
print(json.dumps([codes, "numpy" in sys.modules, "mpmath" in sys.modules]))
"""


def test_linearize_commands_leave_numpy_unloaded(tmp_path):
    """radius screens its circle with a float FFT in plain Python: importing
    numpy would cost a fresh interpreter more than the whole probe takes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", f"OUT = {str(tmp_path)!r}\n" + LINEARIZE_COMMANDS],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    codes, numpy_loaded, mpmath_loaded = json.loads(proc.stdout)
    assert codes == [0, 0]
    assert (tmp_path / "radius.json").exists()
    assert (tmp_path / "ratio-experiment.csv").exists()
    assert mpmath_loaded
    assert not numpy_loaded


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "quaddyn", "landing-pair", "--pq", "3/5", "--json",
         "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"alpha_minus": "21/31", "alpha_plus": "22/31"}
    assert (tmp_path / "landing-pair.json").exists()
