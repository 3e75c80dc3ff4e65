"""The printed bits do not depend on the BLAS kernel or on numpy's SIMD dispatch.

The nine report prefixes (``test_report_identity``) and the twelve estimate
digests (``test_estimate_identity``) are recomputed in child processes that
run OpenBLAS with ``OPENBLAS_CORETYPE`` set to Prescott (SSE3 kernels, which
any x86-64 CPU runs) and then to Haswell (AVX2 with FMA), and must equal the
values this process computes. A BLAS or LAPACK call behind a printed number,
such as LAPACK's ``inv`` in ``tables.invert2or4`` or a BLAS dot in
``estimators._count_mean``, turns this red: those kernels round differently
from the native one. These two are skipped where numpy is not linked to
OpenBLAS or the machine is not x86-64, since the kernel switch exists only
there. A third child runs with ``NPY_DISABLE_CPU_FEATURES`` limiting numpy
to its X86_V2 baseline (no AVX2 or AVX-512 loops); it needs x86-64 only.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import test_estimate_identity as estimate_identity
import test_report_identity as report_identity

KERNELS = ("Prescott", "Haswell")
ABOVE_X86_V2 = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"  # every feature above numpy's x86-64 baseline
TESTS = Path(__file__).resolve().parent


def _on_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


_X86 = platform.machine().lower() in ("x86_64", "amd64")
# each child: its environment, and why it cannot run here (None when it can)
CHILDREN = {
    **{kernel: ({"OPENBLAS_CORETYPE": kernel},
                None if _X86 and _on_openblas() else "OPENBLAS_CORETYPE selects kernels only for OpenBLAS on x86-64")
       for kernel in KERNELS},
    "X86_V2": ({"NPY_DISABLE_CPU_FEATURES": ABOVE_X86_V2},
               None if _X86 else "numpy's X86_V2 baseline and the features above it exist only on x86-64"),
}


def digests() -> dict[str, str]:
    """Every report prefix and estimate digest the two identity files pin."""
    out = {f"report {case}": report_identity.report_hash(config)
           for case, (config, _) in sorted(report_identity.CASES.items())}
    with tempfile.TemporaryDirectory() as root:
        data, regimes = estimate_identity.write_files(Path(root))
        for n in sorted(estimate_identity.PINS):
            for method in estimate_identity.FOLDS:
                text = estimate_identity._transcript(data[n], regimes, method)[0]
                out[f"estimate {n} {method}"] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return out


_CHILD = (f"import json, sys; sys.path.insert(0, {str(TESTS)!r}); "
          "import test_kernel_identity; print(json.dumps(test_kernel_identity.digests()))")


@pytest.fixture(scope="module")
def children():
    """Each child process that can run here, all started at once; one still running at the end is killed."""
    procs = {}
    for name, (setting, skip) in CHILDREN.items():
        if skip is not None:
            continue
        env = {**os.environ, **setting,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")]))}
        procs[name] = subprocess.Popen([sys.executable, "-c", _CHILD], env=env, stdout=subprocess.PIPE,
                                       stderr=subprocess.PIPE, text=True)
    yield procs
    for proc in procs.values():
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


@pytest.fixture(scope="module")
def here():
    return digests()


def _same_digests(children, here, name):
    if CHILDREN[name][1] is not None:
        pytest.skip(CHILDREN[name][1])
    out, err = children[name].communicate(timeout=300)
    assert children[name].returncode == 0, err
    there = json.loads(out)
    assert len(here) == 21 and there.keys() == here.keys()
    differ = {key: (here[key], there[key]) for key in here if here[key] != there[key]}
    assert not differ, f"digests that differ under {CHILDREN[name][0]}: {differ}"


@pytest.mark.parametrize("kernel", KERNELS)
def test_every_printed_digest_is_the_same_under_another_blas_kernel(children, here, kernel):
    _same_digests(children, here, kernel)


def test_every_printed_digest_is_the_same_with_numpy_limited_to_its_x86_v2_baseline(children, here):
    _same_digests(children, here, "X86_V2")
