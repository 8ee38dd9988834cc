"""Golden bytes: the SHA-256 of stdout for a fixed set of CLI invocations,
each of which exits 0 with nothing on stderr.

The output contract (17 significant digits, LF endings, byte-identical
reruns) is a frozen interface, so a refactor of the physics layer must leave
every one of these tables unchanged down to the last digit. The hashes were
recorded with CPython 3.11 and NumPy 2.4 on x86-64 Linux; a platform whose
libm rounds sin/cos differently in the last bit may need its own set.

The tables come from the array kernel profiles._profile_terms, which runs
the same profile Forms as the scalar functions with np.float_power as their
power function: that is libm's pow, as operator.pow (the scalar `**`) is.
A form that powered with ** or np.power itself would, on arrays, use a SIMD
pow that differs from libm in the last bit on about 5% of points, and change
these bytes on hosts whose NumPy dispatches to it (AVX-512).
A grid is evaluated, judged and written in analysis.CHUNK_ROWS-row chunks,
each written in slices of rows, one %-format call a slice; the bytes must
depend neither on the chunk size nor on the slice size.

A single --z point and the limits ladder are evaluated on floats through the
scalar forms, without NumPy; their hashes are also checked in a process
where NumPy cannot be imported, and the grid cases must fail there, which
shows that the block holds.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from cpwalls import analysis, cli
from cpwalls.cli import main

_GRID = ("--z-min", "1e-9", "--z-max", "0.999999999", "--z-count", "41")
_ALL_QUANTITIES = ("--quantities", "V,V_E,V_M,force,EE_trace,BB_trace")

GOLDEN = {
    "potential-cc-csv": (
        ("potential", "--alpha", "1", "--beta", "0.25",
         "--z-min", "0.001", "--z-max", "0.999", "--z-count", "41"),
        "a0ac1c4d90285fc168e3238f41c43afe24825685756ecfaeab2c1473ce3a83ec",
    ),
    "potential-cp-csv": (
        ("potential", "--geometry", "cp", "--a", "2.5", "--alpha", "0.5",
         "--beta", "2", "--z-min", "0.01", "--z-max", "2.49", "--z-count", "37"),
        "e513f1c5a6324e6e85218aa9184eb47597413e59b118feb8d815cb14373d2a14",
    ),
    "potential-cc-json": (
        ("potential", "--alpha", "0.3", "--beta", "1.7", "--format", "json",
         "--z-min", "0.05", "--z-max", "0.95", "--z-count", "19"),
        "c45e7138bf5eaaaf4a0b9fc8d448cef9548770c582d7ad1a4d7a9af3395bcd17",
    ),
    "potential-cp-json-si": (
        ("potential", "--geometry", "cp", "--a", "1e-6", "--alpha", "2e-30",
         "--beta", "1e-31", "--units", "si", "--format", "json",
         "--z-min", "1e-8", "--z-max", "9.9e-7", "--z-count", "23"),
        "8b51afb26fae4ed31c2c1103eaceb537852e73ab17b1caa6d82f3a5562843ed1",
    ),
    "potential-cc-asymptotic": (
        ("potential", "--alpha", "1", "--beta", "0.25",
         "--guard-mode", "asymptotic") + _GRID,
        "94cc1e2921670fbe66a0f0944ef531ea98119ec400a611e46e93084275533d31",
    ),
    "potential-cp-asymptotic": (
        ("potential", "--geometry", "cp", "--guard-mode", "asymptotic",
         "--guard-eps", "1e-4") + _GRID,
        "6c636f360c36774eddb844bfd79b17239282cbcf2b8c0f7cd8cb93db5994ccaa",
    ),
    # more rows than one default chunk
    "potential-cp-two-chunks": (
        ("potential", "--geometry", "cp", "--a", "2.5", "--alpha", "0.5",
         "--beta", "2", "--z-min", "0.001", "--z-max", "2.499",
         "--z-count", "100001"),
        "54d1d297d2dd80b64e731e887dc216b6803b1c7aa835636aa135caff03150d7c",
    ),
    "correlators-cc": (
        ("correlators", "--a", "3", "--z-min", "0.1", "--z-max", "2.9",
         "--z-count", "29"),
        "3c08d449077020b53c87661e5cc53b32ce681fbb255dff7e41ab034940f563e3",
    ),
    "correlators-cp-asymptotic": (
        ("correlators", "--geometry", "cp", "--guard-mode", "asymptotic")
        + _GRID,
        "25acbcaffcd385ce37ee932012ece72df34ceadf0e7a51fdde4b3c9ae5dae216",
    ),
    "correlators-cc-asymptotic-json-si": (
        ("correlators", "--guard-mode", "asymptotic", "--units", "si",
         "--format", "json") + _GRID,
        "fb0683d6269870c4ba48b1e004513c9e876c27ea81d0e893a204da93b71450ad",
    ),
    # correlators write their zero cells as a literal 0: CSV in SI units
    # and JSON in natural units complete the format x units square
    "correlators-cp-csv-si": (
        ("correlators", "--geometry", "cp", "--units", "si",
         "--z-min", "0.01", "--z-max", "0.99", "--z-count", "33"),
        "8bbf0c3fbd462c9d59fc92d8cdf77ec8acfece95ab9f7c218a440e3aca08dd5d",
    ),
    "correlators-cc-json": (
        ("correlators", "--a", "2", "--format", "json",
         "--z-min", "0.02", "--z-max", "1.98", "--z-count", "17"),
        "7fa7bc06ad7b8f0abf0c347840c1485e99fe78c3f1ee685303a04127c948db89",
    ),
    "sweep-cc-limit-reference": (
        ("sweep", "--alpha", "1", "--beta", "0.25", "--emit-limit-reference",
         "--z-min", "0.01", "--z-max", "0.99", "--z-count", "57")
        + _ALL_QUANTITIES,
        "db7d7b5ea34466931c507f315b57c39383e78c1c7146309bfdbf5badaad0a297",
    ),
    "sweep-cp-limit-reference-json": (
        ("sweep", "--geometry", "cp", "--a", "0.7", "--alpha", "0.5",
         "--beta", "2", "--emit-limit-reference", "--format", "json",
         "--z-min", "0.007", "--z-max", "0.693", "--z-count", "31")
        + _ALL_QUANTITIES,
        "3fa060a44e453bde54b8ff0ebe6c199ea8deee41d06551443b1f067ba2356c1c",
    ),
    "sweep-cc-asymptotic-subset": (
        ("sweep", "--guard-mode", "asymptotic", "--quantities", "force,BB_trace")
        + _GRID,
        "76e4a903882a26cabefe83edcca7ecb875ac5507b8776c3dafb8007cb26a28bf",
    ),
    # a**5 overflows at a = 1e70: a sweep that does not ask for the force
    # must not evaluate the force's prefactor
    "sweep-cc-huge-a-potential-only": (
        ("sweep", "--a", "1e70", "--quantities", "V", "--z-min", "1e69",
         "--z-max", "5e69", "--z-count", "3"),
        "fbb74bcbcacffe09aed30ac0b4e4e2aa1ea0a91ae5a866aa7c0bc1a38642c2b4",
    ),
    "sweep-cp-huge-a-asymptotic-json": (
        ("sweep", "--geometry", "cp", "--a", "1e70", "--alpha", "0.5",
         "--beta", "2", "--quantities", "V,V_E,EE_trace",
         "--emit-limit-reference", "--guard-mode", "asymptotic",
         "--guard-eps", "0.01", "--z-min", "1e67", "--z-max", "9.99e69",
         "--z-count", "9", "--format", "json"),
        "36768bc4cbf3584b4c2700ed165a3b6f30f197831d348a949e1121beeb25a3c4",
    ),
    "limits-conducting": (
        ("limits", "--z", "0.5", "--alpha", "1", "--beta", "0.25"),
        "2167dd82f1b5d9992bf4753bcb52f7e67be3d066bbd765ee4f51d850c5009b8f",
    ),
    "limits-permeable": (
        ("limits", "--wall-type", "permeable", "--z", "1.5",
         "--a-values", "4,8,16,32,64", "--format", "json"),
        "0ef23849aa12204da2e33e8bbd0928ce172553af475ab1e2931b7316ad0febd7",
    ),
    "limits-degenerate": (
        ("limits", "--z", "1.0", "--alpha", "1", "--beta", "1"),
        "715e0700bfe7e4b0458f3d30c6844780164657541cfca810f39f7bf5ca74ae07",
    ),
    # the only JSON table that writes the "limit degenerate" word
    "limits-degenerate-json": (
        ("limits", "--z", "1.0", "--alpha", "1", "--beta", "1", "--format", "json"),
        "5e3f30834f7c8245ec55c978a4f9171c349e6ba8cf644d8316ac768d3cd48233",
    ),
    # single points (--z): cc and cp, CSV, JSON and SI, a point past the
    # midplane and guard-band points under mode=asymptotic
    "potential-z-cc-csv": (
        ("potential", "--a", "2", "--alpha", "1", "--beta", "0.25", "--z", "0.3"),
        "4895562b7991ad6e24cf46706759b776ba7a0d6e4237520cf3c0d084a4b9a5e5",
    ),
    "potential-z-cp-csv": (
        ("potential", "--geometry", "cp", "--a", "2.5", "--alpha", "0.5",
         "--beta", "2", "--z", "0.7"),
        "d256c46986743bd426099da1ac132c776c48ebbb8c0c8ac0d91f5a6533d26f83",
    ),
    "potential-z-cc-json": (
        ("potential", "--alpha", "0.3", "--beta", "1.7", "--format", "json",
         "--z", "0.45"),
        "0d5555c4931e0a49136fe328fcb710dbbd3101de70926ba168fd18f8395181a0",
    ),
    "potential-z-cp-json-si": (
        ("potential", "--geometry", "cp", "--a", "1e-6", "--alpha", "2e-30",
         "--beta", "1e-31", "--units", "si", "--format", "json", "--z", "3e-7"),
        "b184565ee8ce07d7633f2653a9f732f8f043f486ae09105bf1ae7c72d047b602",
    ),
    "potential-z-cc-csv-si": (
        ("potential", "--a", "1e-6", "--alpha", "2e-30", "--beta", "1e-31",
         "--units", "si", "--z", "2.2e-7"),
        "204c870a9746b960aecde900b48f8a9de55701ad3a7aa046b20a814f231ec1e0",
    ),
    "potential-z-cp-far-half": (
        ("potential", "--geometry", "cp", "--alpha", "1", "--beta", "0.25",
         "--z", "0.8125"),
        "453e235d2714d4dd3ed1a14378828c38d2f95fe1be25f2f82c9f339ae1a3896f",
    ),
    "potential-z-cc-asymptotic": (
        ("potential", "--alpha", "1", "--beta", "0.25", "--guard-mode",
         "asymptotic", "--guard-eps", "1e-3", "--z", "1e-4"),
        "0460e27734218390597b886f0d6241e20e8877381a09c9fe98b604a98cc538b7",
    ),
    # V_M is -0 here (beta = 0 times a negative factor)
    "potential-z-cp-far-asymptotic-json": (
        ("potential", "--geometry", "cp", "--guard-mode", "asymptotic",
         "--guard-eps", "1e-3", "--format", "json", "--z", "0.99995"),
        "1e4a378edcb9699fb8d7479d5588df0b51d94d920adf7319b6594da4f01bf2d4",
    ),
    "correlators-z-cc-csv": (
        ("correlators", "--a", "3", "--z", "1.1"),
        "cf92d1f7f9aa5ed3b1bc8a2afdfd9a5a7d9cf8b09a0617005932f0fa71f00d9b",
    ),
    "correlators-z-cp-json-si": (
        ("correlators", "--geometry", "cp", "--a", "1e-6", "--units", "si",
         "--format", "json", "--z", "7e-7"),
        "f9a21cce0d1f20bda701ec36c60c7804509cab485977a530aa53be12201cd536",
    ),
    "verify-full-csv": (
        ("verify", "--level", "full", "--format", "csv"),
        "393e9e3923c9c041f67b0ae7bcaf1e380cb1886ae043cc5b25a0e8b20dc9b0ec",
    ),
    "verify-full-text": (
        ("verify", "--level", "full"),
        "790ef1822297c7ed43650f08b8383f79911935282138c6db2bc02d9d84ece1f8",
    ),
    "verify-full-json": (
        ("verify", "--level", "full", "--format", "json"),
        "9a91d90f7dc80a31f4b5abd80c5b6616e3f694ddab3ae06ec4ba523dec79144e",
    ),
    "verify-quick-text": (
        ("verify", "--level", "quick"),
        "38567c1ce92154b5f85df18f57040d5e6fadad3adf13b6509ce9efc3dc0bc326",
    ),
    "verify-quick-json": (
        ("verify", "--level", "quick", "--format", "json"),
        "8396851a1f6f2492a501f8510eafe6339162999ab287f7fb3279d09e967b037a",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_bytes_are_pinned(capsys, case):
    argv, want = GOLDEN[case]
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want


@pytest.mark.parametrize("chunk_rows", [1, 7])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_bytes_do_not_depend_on_the_chunk_size(
    capsys, monkeypatch, case, chunk_rows
):
    monkeypatch.setattr(analysis, "CHUNK_ROWS", chunk_rows)
    test_stdout_bytes_are_pinned(capsys, case)


# One row per %-format call, and slices of a few rows in 7-row chunks.
@pytest.mark.parametrize("chunk_rows, slice_cells", [(analysis.CHUNK_ROWS, 1), (7, 40)])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_bytes_do_not_depend_on_the_slice_size(
    capsys, monkeypatch, case, chunk_rows, slice_cells
):
    monkeypatch.setattr(analysis, "CHUNK_ROWS", chunk_rows)
    monkeypatch.setattr(cli, "_SLICE_CELLS", slice_cells)
    test_stdout_bytes_are_pinned(capsys, case)


# Runs the GOLDEN argv it is given with NumPy blocked and prints, per case,
# [exit code, stdout hash] or "ImportError".
_WITHOUT_NUMPY = """
import contextlib, hashlib, io, json, sys
sys.modules["numpy"] = None
from cpwalls.cli import main
result = {}
for name, argv in json.loads(sys.stdin.read()).items():
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except ImportError:
        result[name] = "ImportError"
    else:
        result[name] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
print(json.dumps(result))
"""


def test_single_points_and_limits_need_no_numpy():
    cases = {k: list(argv) for k, (argv, _) in GOLDEN.items() if argv[0] != "verify"}
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY], input=json.dumps(cases),
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    points = [k for k, argv in cases.items() if "--z" in argv]
    assert len(points) == 14  # ten --z points and four limits ladders
    for name in cases:
        want = [0, GOLDEN[name][1]] if name in points else "ImportError"
        assert result[name] == want, name
