"""Shared fixtures-in-plain-code for the test suite.

Keeps the random instance generator in one place so the unit tests and the
acceptance gate exercise the exact same family.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from luresim import (
    Box,
    DecomposedMovingSet,
    build_system,
    range_projector,
    scenario_dir,
)


def count_decompositions(monkeypatch):
    """Count calls of numpy's svd, eigvalsh and eigh from here on.

    Returns a Counter keyed by name. The wrappers replace both the public
    ``numpy.linalg`` names and the ones numpy's own functions call (as
    ``norm(m, 2)`` calls ``svd``); ``monkeypatch`` restores them.
    """
    inner = importlib.import_module("numpy.linalg._linalg")
    counts = Counter()
    for name in ("svd", "eigvalsh", "eigh"):
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        monkeypatch.setattr(inner, name, counted)
    return counts


def load_benchmark_workload(name):
    """Import a workload module of the repository's lurebench/ directory."""
    path = Path(__file__).resolve().parents[1] / "lurebench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"lurebench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scenario_path(name):
    return os.path.join(scenario_dir(), name)


def run_cli(*args, env_extra=None, cwd=None):
    """Run the command line interface in a subprocess; returns CompletedProcess."""
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "luresim.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


# the kinds of a box coordinate: no lower face, no upper face, both faces at
# one point, two distinct finite faces
FACE_KINDS = ("no_lower", "no_upper", "pinned", "finite")


def random_box(rng, m, scale=1.0, kinds=None):
    """Random box in R^m with occasional infinite and pinned faces.

    ``kinds`` (one of FACE_KINDS per coordinate) fixes each coordinate's
    kind; by default it is rolled: 15% no lower face, 15% no upper face, 5%
    pinned.
    """
    lower = np.empty(m)
    upper = np.empty(m)
    for i in range(m):
        lo = scale * rng.normal()
        width = abs(scale * rng.normal()) + 0.1 * scale
        if kinds is None:
            roll = rng.random()
            kind = FACE_KINDS[np.searchsorted([0.15, 0.30, 0.35], roll, "right")]
        else:
            kind = kinds[i]
        if kind == "no_lower":
            lower[i], upper[i] = -np.inf, lo
        elif kind == "no_upper":
            lower[i], upper[i] = lo, np.inf
        elif kind == "pinned":
            lower[i] = upper[i] = lo
        else:
            lower[i], upper[i] = lo, lo + width
    return Box(lower, upper)


def random_psd(rng, m, rank=None):
    """Random PSD matrix of the given rank (possibly 0) plus a skew part."""
    if rank is None:
        rank = int(rng.integers(0, m + 1))
    g = rng.normal(size=(m, rank)) if rank else np.zeros((m, 1))
    d = g @ g.T
    if rng.random() < 0.4 and m > 1:
        w = rng.normal(size=(m, m))
        d = d + 0.3 * (w - w.T)
    return d


def random_step_instance(rng, m=None, family=None, rank=None, kinds=None,
                         offset=False):
    """One random implicit-step problem over a box constraint.

    Two subfamilies, both solvable by construction:
    * 70%: B = C^T + Z * proj_rge(D + D^T) with D possibly rank deficient,
      so the multiplier mismatch lives in the range of D + D^T.
    * 30%: fully random B, C with D + D^T positive definite.
    The step size is shrunk until the reduced matrix M = h' C B + D has a
    positive definite symmetric part, which makes the variational problem
    uniquely solvable on every face pattern.

    ``m``, ``family`` ("r" for the first subfamily, "p" for the second),
    ``rank`` (of D in the first) and ``kinds`` (see :func:`random_box`) fix
    what is otherwise drawn. ``offset`` adds K's offset H x + g with
    rge(H) in rge(D + D^T) and g nonzero; by default K is the box itself.
    """
    if m is None:
        m = int(rng.integers(1, 4))
    n = int(rng.integers(m, 5))
    c = rng.normal(size=(m, n))
    while np.linalg.matrix_rank(c) < m:
        c = rng.normal(size=(m, n))
    if family is None:
        family = "r" if rng.random() < 0.7 else "p"
    if family == "r":
        d = random_psd(rng, m, rank)
        z = rng.normal(size=(n, m))
        b = c.T + z @ range_projector(d + d.T)
    else:
        d = random_psd(rng, m, rank=m) + (0.1 + rng.random()) * np.eye(m)
        b = rng.normal(size=(n, m))
    box = random_box(rng, m, kinds=kinds)
    h_mat, g = np.zeros((m, n)), np.zeros(m)
    if offset:
        h_mat = range_projector(d + d.T) @ rng.normal(size=(m, n))
        g = rng.normal(size=m)
    sys_ = build_system(
        b,
        c,
        d,
        DecomposedMovingSet(lambda t, _box=box: _box, h_mat, lambda t, _g=g: _g),
    )
    kappa = sys_.kappa
    h = 0.05
    for _ in range(40):
        hp = h / (1.0 - h * kappa)
        m_mat = hp * (c @ b) + d
        eigs = np.linalg.eigvalsh(0.5 * (m_mat + m_mat.T))
        if eigs[0] > 1e-10 * max(1.0, abs(eigs[-1])):
            break
        h *= 0.5
    else:
        raise AssertionError("step size calibration failed")
    x_prev = rng.normal(size=n)
    y_in = 1.5 * rng.normal(size=n)
    return sys_, 0.0, x_prev, y_in, h
