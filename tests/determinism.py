"""Run the determinism configs through the CLI and print one digest each.

    PYTHONPATH=src python tests/determinism.py OUT [--expect FILE]

Each config runs through `hermgrid.cli.main` into its own directory under
OUT.  A line reads ``name exit-code sha256``, the SHA-256 over every output
file's name and bytes in name order (`meta.txt` included).  Run it at two
commits and compare the lines: a change that claims byte-identical study
outputs must print the same ones.  ``--expect FILE`` compares each line with
the same line of FILE (``tests/determinism.sha256`` holds the committed
digests) and exits 1 at the first that differs.  Not a pytest module
(pytest collects only ``test_*.py``); it takes a few seconds.
"""

import hashlib
import sys
from pathlib import Path

from hermgrid.cli import main

SIN16 = "system = sindecay\nr_decay = 3.0\nd_max = 16\n"
SIN8_EPS = "system = sindecay\nd_max = 8\neps_grid = 1e-2,1e-4,1e-6\n"

# (name, study, config text, budgets or None for the defaults, seed)
CONFIGS = (
    ("criterion-8", "quad", SIN16, "400,1200,4000,10000,20000", 0),
    ("quad-sin64-mean", "quad", "system = sindecay\nd_max = 64\nqoi = mean\n", None, 0),
    ("quad-blocks8", "quad", "system = blocks\nd_max = 8\n", "25,100,400", 0),
    ("ml-quad-sin4", "ml-quad", "system = sindecay\nd_max = 4\n", None, 0),
    ("ml-interp-sin4", "ml-interp", "system = sindecay\nd_max = 4\n", None, 0),
    ("interp-sin16", "interp", SIN16, "250,500,1000,2000", 0),
    ("interp-default", "interp", "", None, 0),
    ("bayes-default", "bayes", "", None, 0),
    ("quad-sin16", "quad", SIN16, "25,50,100,200", 0),
    ("mlquad-fem", "ml-quad", "system = sindecay\nr_decay = 3.0\nd_max = 4\nalpha = 1.0\n",
     "4096,16384,65536", 0),
    ("grf-write", "grf", "cov = matern\ncorr_length = 0.5\nsmoothness = 1.5\ngrid_m = 256\n"
     "ell = 4.0\nkappa = 3.0\nspline_order = 2\n", "50", 5),
    ("grf-exponential", "grf", "cov = exponential\ncorr_length = 1.0\ngrid_m = 64\n"
     "ell = 2.0\n", "20", 3),
    ("quad-blocks-x0", "quad", "system = blocks\nd_max = 8\nx0 = 0.3\n", "25,100,400", 0),
    ("grf-kappa-order1", "grf", "cov = exponential\ncorr_length = 0.5\ngrid_m = 64\n"
     "ell = 4.0\nkappa = 3.0\n", "20", 2),
    ("quad-weight-keys", "quad", "system = sindecay\nr_decay = 2.5\nd_max = 8\np = 0.4\n"
     "r = 10\ntau = 2.5\nK = 2\n", "25,100,400", 0),
    # 13 samples: the parent's 6 and the child's 7 both end inside a block
    ("grf-block-ends", "grf", "cov = exponential\ncorr_length = 1.0\ngrid_m = 16\nell = 2.0\n",
     "13", 4),
    # eps-grid rows in place of budget rows
    ("quad-eps", "quad", SIN8_EPS, None, 0),
    ("interp-eps", "interp", SIN8_EPS, None, 0),
    ("ml-quad-eps", "ml-quad", SIN8_EPS.replace("d_max = 8", "d_max = 4"), None, 0),
    ("ml-interp-eps", "ml-interp", SIN8_EPS.replace("d_max = 8", "d_max = 4"), None, 0),
    # a member table large enough that the walk's order and member order differ widely
    ("ml-quad-sin64", "ml-quad", "system = sindecay\nd_max = 64\nalpha = 2.0\n",
     "256,1024,4096,16384,65536", 0),
)


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def run(root: Path, expected=None):
    """Print each config's line; with ``expected`` lines, exit 1 at the
    first line that differs from its own."""
    root.mkdir(parents=True, exist_ok=True)
    for i, (name, study, text, budgets, seed) in enumerate(CONFIGS):
        cfg, out = root / f"{name}.cfg", root / name
        cfg.write_text(text)
        args = [study, "--config", str(cfg), "--out", str(out), "--seed", str(seed)]
        if budgets:
            args += ["--budgets", budgets]
        line = f"{name} {main(args)} {digest(out)}"
        print(line, flush=True)
        if expected is not None and expected[i:i + 1] != [line]:
            sys.exit(f"mismatch at line {i + 1}: expected {expected[i:i + 1]}")
    if expected is not None and len(expected) != len(CONFIGS):
        sys.exit(f"mismatch: expected {len(expected)} lines, printed {len(CONFIGS)}")


if __name__ == "__main__":
    argv = sys.argv[1:]
    if len(argv) not in (1, 3) or len(argv) == 3 and argv[1] != "--expect":
        sys.exit("usage: python tests/determinism.py OUT [--expect FILE]")
    run(Path(argv[0]), Path(argv[2]).read_text().splitlines() if len(argv) == 3 else None)
