"""Import budget: the modules that `import hahncalc`, its CLI and each table
command load.

Each case runs a fresh interpreter and lists sys.modules once the work is
done; nothing is timed.  The package resolves its public names on first use,
the CLI imports each module inside the function that runs it, and the Gauss
routes of the lattice sum live in a module of their own, so:

* `import hahncalc, hahncalc.cli` loads only cli and errors from the
  package, and no dataclasses;
* a drag sweep loads neither kinematics nor the Gauss module;
* a kinematics sweep loads neither resist nor qexp, and one whose sums all
  stay on the plain route, such as every sum at q <= 1/2, not the Gauss
  module either.
"""

import json
import subprocess
import sys

from conftest import child_env

# Runs the code in argv[1] (a CLI argv as JSON, or "import"), then prints the
# exit status and the sorted module names as one JSON line on stderr.
PROBE = """
import json, runpy, sys
spec = json.loads(sys.argv[1])
code = 0
if spec == "import":
    import hahncalc, hahncalc.cli
else:
    sys.argv = ["hahncalc", *spec]
    try:
        runpy.run_module("hahncalc", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)
"""

DRAG_SWEEP = ["sweep", "drag", "--sweep", "q=0.3:0.99:4", "--sweep", "w=0:1:2", "--samples", "5"]
KINEMATICS_SWEEP = [
    "sweep", "kinematics", "--sweep", "q=0.3:0.99:4", "--sweep", "w=0:1:2", "--samples", "5"
]
LOW_Q_KINEMATICS_SWEEP = [
    "sweep", "kinematics", "--sweep", "q=0.3:0.5:3", "--sweep", "w=0:1:3", "--samples", "5"
]


def run_fresh(*args):
    """Run a fresh interpreter with this checkout's src first on its path."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
        check=True,
    )


def loaded_modules(spec):
    proc = run_fresh("-c", PROBE, json.dumps(spec))
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


def package_modules(modules):
    return {name for name in modules if name.split(".")[0] == "hahncalc"}


def test_importing_the_package_and_cli_loads_only_cli_and_errors():
    modules = loaded_modules("import")
    assert package_modules(modules) == {"hahncalc", "hahncalc.cli", "hahncalc.errors"}
    assert "dataclasses" not in modules


def test_drag_sweep_loads_neither_kinematics_nor_the_gauss_routes():
    modules = loaded_modules(DRAG_SWEEP)
    assert "hahncalc.resist" in modules
    assert "hahncalc.kinematics" not in modules
    assert "hahncalc._gauss" not in modules
    assert "dataclasses" not in modules


def test_kinematics_sweep_loads_neither_resist_nor_qexp():
    modules = loaded_modules(KINEMATICS_SWEEP)
    assert "hahncalc.resist" not in modules
    assert "hahncalc.qexp" not in modules
    assert "dataclasses" not in modules
    # Its long lattice sums at q = 0.99 take the Gauss route.
    assert {"hahncalc.kinematics", "hahncalc._gauss"} <= modules


def test_low_q_kinematics_sweep_does_not_load_the_gauss_routes():
    modules = loaded_modules(LOW_Q_KINEMATICS_SWEEP)
    assert "hahncalc.kinematics" in modules
    assert "hahncalc._gauss" not in modules


def test_dir_lists_every_public_name_before_any_is_used():
    code = (
        "import json, sys, hahncalc\n"
        "listed = dir(hahncalc)\n"
        "print(json.dumps([[n for n in hahncalc.__all__ if n not in listed],"
        " sorted(m for m in sys.modules if m.startswith('hahncalc.'))]))\n"
    )
    missing, submodules = json.loads(run_fresh("-c", code).stdout)
    assert missing == []
    assert submodules == []
