"""The cross-build contract: another BLAS kernel or CPU dispatch may move
fitted parameters in their last digits, never a decision.

A small pool of each benchmark workload runs in three child processes: the
default build, OpenBLAS forced to its Haswell kernels, and numpy with its
AVX-512 loops off. Each prints ``same_bits --decisions`` digests and dumps
its trends; the digests must be equal, and every parameter must agree with
the default's within ``PARAMETER_BOUND`` relative. A switch that cannot act
on this host (no AVX-512, an OpenBLAS without DYNAMIC_ARCH, a numpy that
rejects the feature list) is named in a warning, and the test still passes.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

from same_bits import largest_relative_difference, read_dump

SAME_BITS = Path(__file__).resolve().parent / "same_bits.py"
# 20 times the largest relative parameter difference measured on both
# seeds' full pools: 5.0e-10 with numpy's AVX-512 loops off, 7.7e-12 under
# the Haswell kernels.
PARAMETER_BOUND = 1e-8
POOL = 2
DISABLED_FEATURES = "AVX512_ICL AVX512_SPR X86_V4"
SWITCHES = {
    "default": {},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": DISABLED_FEATURES},
}


def _environment(env_line: str) -> dict:
    return dict(field.split("=", 1) for field in env_line.split())


def _run_switches(tmp_path):
    """{switch: (completed process, dump path)}, the three children run at
    once."""
    children = {}
    for name, switch in SWITCHES.items():
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        env.update(switch)
        dump = tmp_path / f"{name}.txt"
        command = [sys.executable, str(SAME_BITS), "--seed", "7", "--pool", str(POOL),
                   "--decisions", "--dump", str(dump)]
        children[name] = (subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                                           stderr=subprocess.PIPE, text=True), dump)
    done = {}
    for name, (child, dump) in children.items():
        out, err = child.communicate(timeout=120)
        done[name] = (child.returncode, out, err, dump)
    return done


def test_switches_keep_every_decision_and_bound_every_parameter(tmp_path):
    done = _run_switches(tmp_path)
    code, digests, err, dump = done["default"]
    assert code == 0, err
    assert len(digests.splitlines()) == 3
    env, trends = read_dump(dump)
    default = _environment(env)
    for name in ("haswell", "no-avx512"):
        code, out, err, other_dump = done[name]
        if code != 0 and name == "no-avx512" and "NPY_DISABLE_CPU_FEATURES" in err:
            warnings.warn(f"numpy rejects NPY_DISABLE_CPU_FEATURES={DISABLED_FEATURES!r}: "
                          f"{' '.join(err.split('Error:')[-1].split())}")
            continue
        assert code == 0, err
        assert out == digests, name
        other_env, other_trends = read_dump(other_dump)
        largest = largest_relative_difference(trends, other_trends)
        assert largest is not None and largest[0] <= PARAMETER_BOUND, (name, largest)
        switched = _environment(other_env)
        if name == "haswell" and (default["blas"] == "unknown"
                                  or switched["blas"] == default["blas"]):
            warnings.warn(f"OPENBLAS_CORETYPE=Haswell did not change the OpenBLAS kernel "
                          f"({default['blas']} -> {switched['blas']})")
        if name == "no-avx512" and switched["simd"] == default["simd"]:
            warnings.warn(f"NPY_DISABLE_CPU_FEATURES={DISABLED_FEATURES!r} switched off no "
                          f"SIMD target numpy uses ({default['simd']})")
