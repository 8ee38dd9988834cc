"""Golden bytes: the SHA-256 of stdout for a fixed set of CLI invocations.

The output contract (17 significant digits, LF endings, byte-identical
reruns) is a frozen interface, so a refactor of the physics layer must leave
every one of these tables unchanged down to the last digit. The hashes were
recorded with CPython 3.11 and NumPy 2.4 on x86-64 Linux; a platform whose
libm rounds sin/cos differently in the last bit may need its own set.

The tables come from the array kernel profiles.profile_terms, which runs
the same profile Forms as the scalar functions with np.float_power as their
power function: that is libm's pow, as operator.pow (the scalar `**`) is.
A form that powered with ** or np.power itself would, on arrays, use a SIMD
pow that differs from libm in the last bit on about 5% of points, and change
these bytes on hosts whose NumPy dispatches to it (AVX-512).
The tables are written in cli.CHUNK_ROWS-row chunks; the bytes must not
depend on the chunk size.
"""

import hashlib

import pytest

from cpwalls import cli
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
    "verify-full-csv": (
        ("verify", "--level", "full", "--format", "csv"),
        "393e9e3923c9c041f67b0ae7bcaf1e380cb1886ae043cc5b25a0e8b20dc9b0ec",
    ),
    "verify-quick-text": (
        ("verify", "--level", "quick"),
        "f9233dbef331bbfbcf700fcbf89e95abf098eb138d59df36ab83915a661878d6",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_bytes_are_pinned(capsys, case):
    argv, want = GOLDEN[case]
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want


@pytest.mark.parametrize("chunk_rows", [1, 7])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_bytes_do_not_depend_on_the_chunk_size(
    capsys, monkeypatch, case, chunk_rows
):
    monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
    test_stdout_bytes_are_pinned(capsys, case)
