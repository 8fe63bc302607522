"""SHA-256 digests of every output file of a fixed list of CLI runs.

Usage:

    python tools/output_digests.py SRC_DIR [--root DIR] > digests.txt

Imports `blaq` from SRC_DIR, runs each call of `RUNS` in-process through
`blaq.cli.main`, and prints one line per output file:
`<run> <exit code> <file> <sha256>`.  Run it on two source trees and
diff the two listings: a refactor that leaves the algorithm unchanged
prints identical lines.  Both trees must write under the same root,
because `config.json` echoes `output_dir`; the default root is fixed for
that reason.  BLAS is pinned to one thread so that the MNIST runs repeat
bit for bit.  The whole list takes about 10 s on one core.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile

DEFAULT_ROOT = os.path.join(tempfile.gettempdir(), "blaq-output-digests")

MNIST_FIXTURE = {"n_train": 640, "n_test": 1000, "seed": 1}
SWEEP = ["--sweep-bitwidths", "[1,2,4]", "--eta-schedule", "[[0,0.2]]",
         "--beta2", "0.9", "--steps", "600", "--window", "100"]
MNIST = ["--epochs", "4", "--data-dir", "{data}"]

# (run name, CLI arguments without --output-dir); "{data}" is the fixture.
RUNS = [
    ("toy2d-fp", ["toy2d", "--optimizer", "full-precision"]),
    ("toy2d-laq-k1", ["toy2d", "--optimizer", "laq"]),
    ("toy2d-blaq-k1", ["toy2d", "--optimizer", "blaq"]),
    ("toy2d-laq-k4", ["toy2d", "--optimizer", "laq", "--bitwidth", "4"]),
    ("toy2d-blaq-k3", ["toy2d", "--optimizer", "blaq", "--bitwidth", "3"]),
    ("toy2d-sweep", ["toy2d", *SWEEP]),
    ("pow32-laq", ["toy-pow32", "--optimizer", "laq"]),
    ("pow32-blaq", ["toy-pow32", "--optimizer", "blaq"]),
    ("pow32-fp", ["toy-pow32", "--optimizer", "full-precision"]),
    # zero start weights: the 1-bit code of a zero is +1
    ("toy2d-zero-k1", ["toy2d", "--omega0", "[0,1]"]),
    ("pow32-zero-laq", ["toy-pow32", "--omega0", "[0,0.3]", "--optimizer", "laq"]),
    ("theory-default", ["theory-check"]),
    ("theory-k2", ["theory-check", "--bitwidth", "2", "--n-instances", "10"]),
    # every suite key off its default, so a key read from the wrong place shows
    ("theory-keys", ["theory-check", "--theory-dim", "6", "--n-instances", "5", "--seed", "3",
                     "--beta2", "0.9", "--eps", "1e-6", "--steps", "60"]),
    ("mnist-blaq-k1", ["train-mnist", "--optimizer", "blaq", "--bitwidth", "1", *MNIST]),
    ("mnist-laq-k2", ["train-mnist", "--optimizer", "laq", "--bitwidth", "2", *MNIST]),
    ("mnist-fp", ["train-mnist", "--optimizer", "full-precision", *MNIST]),
    # every trainer key off its default
    ("mnist-keys", ["train-mnist", "--optimizer", "blaq", "--a", "0.3", "--beta2", "0.99",
                    "--eps", "1e-6", "--hidden", "[32,16]", "--track-coords", "5",
                    "--batch-size", "64", "--seed", "3", "--epochs", "2",
                    "--data-dir", "{data}"]),
]


def import_blaq(src_dir):
    """Import the `blaq` package found in src_dir, and only there."""
    src_dir = os.path.abspath(src_dir)
    sys.path.insert(0, src_dir)
    import blaq
    import blaq.cli
    import blaq.mnist
    if not os.path.abspath(blaq.__file__).startswith(os.path.join(src_dir, "blaq")):
        raise SystemExit(f"blaq was imported from {blaq.__file__}, not from {src_dir}")
    return blaq


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digest_lines(blaq, root):
    """Run every call of RUNS under root; yield one line per output file."""
    data = os.path.join(root, "data")
    shutil.rmtree(data, ignore_errors=True)
    blaq.mnist.make_synthetic_fixture(data, **MNIST_FIXTURE)
    for name, argv in RUNS:
        out = os.path.join(root, name)
        shutil.rmtree(out, ignore_errors=True)
        argv = [a.format(data=data) for a in argv] + ["--output-dir", out]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = blaq.cli.main(argv)
        files = sorted(os.path.relpath(os.path.join(d, f), out)
                       for d, _, fs in os.walk(out) for f in fs)
        for rel in files:
            yield f"{name} {code} {rel} {sha256(os.path.join(out, rel))}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_dir", help="directory that holds the blaq package")
    parser.add_argument("--root", default=DEFAULT_ROOT,
                        help=f"output root, the same for every tree compared (default {DEFAULT_ROOT})")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")   # read when numpy is first imported
    blaq = import_blaq(args.src_dir)
    for line in digest_lines(blaq, args.root):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
