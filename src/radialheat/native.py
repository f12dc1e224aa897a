"""The THOMAS kernel's compiled float64 twin: thomas.c, built on first use.

thomas_twin() compiles thomas.c with ``cc -O2 -ffp-contract=off -fPIC
-shared`` (no -ffast-math and no -march: a fused multiply-add would change
roundings) into a temporary directory and loads it with ctypes; the
directory is removed once the library is loaded.  It runs once per process,
on the first float NTDM factorization, never at import, and costs one cc
run, about 0.09 s.  If the build or the load fails (no compiler, or a
temporary directory mounted noexec), the twin records why, and
band_solvers runs the Python kernel.
"""

from __future__ import annotations

import ctypes
import tempfile
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("thomas.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


@dataclass(frozen=True)
class Twin:
    """The loaded library, or None and the reason the build failed, with
    the source bytes that cc was given."""

    lib: ctypes.CDLL | None
    source: bytes = field(repr=False)
    error: str = ""

    def describe(self) -> dict:
        """Which float NTDM kernel runs: compiled with the sha256 of its
        source, or python and why."""
        if self.lib is None:
            return {"ntdm_kernel": "python", "build_error": self.error}
        # imported here: hashlib loads OpenSSL, about 3.6 MB of resident
        # memory that no solve needs
        import hashlib

        return {"ntdm_kernel": "compiled",
                "source_sha256": hashlib.sha256(self.source).hexdigest()}


def _load(lib_path: Path) -> ctypes.CDLL:
    array = np.ctypeslib.ndpointer(dtype=np.float64, ndim=1,
                                   flags="C_CONTIGUOUS")
    lib = ctypes.CDLL(str(lib_path))
    lib.thomas_factor.argtypes = [ctypes.c_long] + [array] * 6
    lib.thomas_factor.restype = ctypes.c_long
    lib.thomas_solve.argtypes = [ctypes.c_long] + [array] * 5
    lib.thomas_solve.restype = None
    return lib


@cache
def thomas_twin() -> Twin:
    """Build and load the twin, once per process."""
    # imported here: about 0.4 MB of resident memory that only the build
    # needs
    import subprocess

    source = SOURCE.read_bytes()
    try:
        with tempfile.TemporaryDirectory(prefix="radialheat-") as tmp:
            built = Path(tmp) / "thomas.so"
            subprocess.run(["cc", *CFLAGS, "-o", str(built), "-x", "c", "-"],
                           input=source, check=True, capture_output=True,
                           timeout=120)
            lib = _load(built)
    except subprocess.CalledProcessError as exc:
        stderr = exc.stderr.decode(errors="replace").strip()
        return Twin(None, source, f"cc exited with {exc.returncode}: {stderr}")
    except (OSError, subprocess.SubprocessError) as exc:
        return Twin(None, source, f"{type(exc).__name__}: {exc}")
    return Twin(lib, source)


def factor(lib: ctypes.CDLL, c: np.ndarray, d: np.ndarray, a: np.ndarray,
           thr: np.ndarray) -> tuple[int, tuple]:
    """(-1, factors) or (the breakdown row, None).  The caller has checked
    that the four float64 arrays share one length n >= 2.  The factors keep
    a copy of c, as the Python kernel's keep its list."""
    c, d, a = (np.ascontiguousarray(band) for band in (c, d, a))
    n = len(d)
    sp = np.zeros(n)
    q = np.empty(n)
    row = lib.thomas_factor(n, c, d, a, thr, sp, q)
    return row, (None if row >= 0 else (c.copy(), sp, q))


def solve(lib: ctypes.CDLL, factors: tuple, f: np.ndarray) -> np.ndarray:
    """The solution for the right-hand side f, read as float64."""
    c, sp, q = factors
    f = np.ascontiguousarray(f, dtype=np.float64)
    if f.shape != q.shape:
        raise ValueError(f"right-hand side of shape {f.shape}, not {q.shape}")
    z = np.empty(len(q))
    lib.thomas_solve(len(q), c, sp, q, f, z)
    return z
