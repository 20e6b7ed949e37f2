import os
import subprocess
import sys
import types

import diskextrema

#: The package's public names; adding or removing one is an API change.
PUBLIC_NAMES = [
    "AnalyticFunction", "ChainValues", "ConstantFunction", "DEFAULT_GRID", "DEFAULT_TOL",
    "DegenerateModuli", "DiskExtremaError", "DiskImage", "DomainError", "ExampleFamily",
    "ExpSeriesFunction", "ExtremumResult", "InteriorAboveBoundary", "InteriorBelowBoundary",
    "LemmaReport", "LinkCheck", "MinPoint", "PowerSeries", "Reciprocal", "SeriesFormatError",
    "SeriesFunction", "SweepSummary", "TrialFunction", "TrialOutcome", "ZeroDenominator",
    "ZeroInDisk", "ZeroOnCircle", "check_max_lemma", "check_min_theorem", "draw_trial",
    "exp_series", "find_max_on_disk", "find_min_on_disk", "invert_series", "mocanu_bounds",
    "modulus_profile", "parse_series", "read_series", "run_sweep", "run_trial",
    "write_profile_csv", "write_series",
]


def test_all_lists_the_public_names_and_no_module():
    assert diskextrema.__all__ == PUBLIC_NAMES
    assert not any(
        isinstance(getattr(diskextrema, name), types.ModuleType) for name in diskextrema.__all__
    )


def test_import_and_sweep_load_neither_numpy_random_nor_scipy():
    # every interpreter pays for what the package imports, and numpy.random
    # alone takes about 19 ms; the sweep's draws need none of it
    code = (
        "import sys, diskextrema\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.random'))\n"
        "print(loaded()); diskextrema.run_sweep(2, 1); print(loaded())"
    )
    root = os.path.dirname(os.path.dirname(diskextrema.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.splitlines() == ["[]", "[]"]
