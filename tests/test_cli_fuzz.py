"""Seeded CLI fuzz: whatever the argv, main returns 0, 1 or 2 and says why.

Each run draws a potential, correlators, sweep or limits command with
numbers log-uniform over +-1e-300..1e300 plus 0, nan, inf, +-1e308 and the
smallest subnormal, random guard modes, units, formats, --a-values lists and
--z-count values up to one no machine can allocate, and calls cli.main in
this process. The contract checked on every run: nothing escapes main, the
exit code is 0, 1 or 2, a table written with exit 0 holds no inf or nan, and
a refused run writes nothing to stdout and ends stderr with one
"ClassName: message" line. No run writes a file (no --out) or runs verify.
"""

import math
import random
import re

import pytest

from cpwalls.cli import main

SEED = 20261018
RUNS = 500
_SPECIAL = ("0", "nan", "inf", "-inf", "1e308", "-1e308", "5e-324")
# 99999999999999999 rows would take hundreds of PiB: the allocation fails at
# once, before any memory is touched.
_COUNTS = ("2", "3", "17", "100", "99999999999999999")
_QUANTITIES = ("V", "V_E", "V_M", "force", "EE_trace", "BB_trace")
_ERROR_LINE = re.compile(r"[A-Z]\w*: ")


def _number(rng: random.Random) -> str:
    if rng.random() < 0.15:
        return rng.choice(_SPECIAL)
    sign = -1.0 if rng.random() < 0.15 else 1.0
    return repr(sign * 10.0 ** rng.uniform(-300.0, 300.0))


def _inside(rng: random.Random, a: str) -> str:
    """A position strictly between the walls half of the time, else any number."""
    width = float(a)
    if rng.random() < 0.5 and 0.0 < width < math.inf:
        return repr(width * rng.random())
    return _number(rng)


def _argv(rng: random.Random) -> list[str]:
    command = rng.choice(("potential", "correlators", "sweep", "limits"))
    a = _number(rng)
    argv = [command, f"--a={a}"]
    for flag, share in (("--alpha", 0.4), ("--beta", 0.4), ("--guard-eps", 0.2)):
        if rng.random() < share:
            argv.append(f"{flag}={_number(rng)}")
    argv += [
        f"--guard-mode={rng.choice(('reject', 'asymptotic'))}",
        f"--units={rng.choice(('natural', 'si'))}",
        f"--format={rng.choice(('csv', 'json'))}",
    ]
    if command == "limits":
        z = _number(rng)
        argv += [f"--wall-type={rng.choice(('conducting', 'permeable'))}", f"--z={z}"]
        if rng.random() < 0.7:
            width = float(z)
            if rng.random() < 0.5 and 0.0 < width < math.inf:
                ladder = sorted(width * 10.0 ** rng.uniform(0.0, 3.0) for _ in range(3))
                tokens = [repr(x) for x in ladder]
            else:
                tokens = [_number(rng) for _ in range(rng.randint(1, 4))]
            argv.append(f"--a-values={','.join(tokens)}")
    elif command == "sweep" or rng.random() < 0.5:
        ends = sorted((_inside(rng, a), _inside(rng, a)), key=float)
        argv += [f"--z-min={ends[0]}", f"--z-max={ends[1]}",
                 f"--z-count={rng.choice(_COUNTS)}"]
        if command == "sweep":
            picked = rng.sample(_QUANTITIES, rng.randint(1, len(_QUANTITIES)))
            argv.append(f"--quantities={','.join(picked)}")
            if rng.random() < 0.5:
                argv.append("--emit-limit-reference")
    else:
        argv.append(f"--z={_inside(rng, a)}")
    return argv


def test_seeded_argv_exit_0_1_or_2_without_traceback(capsys):
    rng = random.Random(SEED)
    codes = []
    for _ in range(RUNS):
        argv = _argv(rng)
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(f"{argv} escaped main: {type(exc).__name__}: {exc}")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 0:
            assert not re.search("inf|nan", out, re.IGNORECASE), argv
        else:
            assert out == "", argv
            assert _ERROR_LINE.match(err.splitlines()[-1]), (argv, err)
        codes.append(code)
    # the draws reach every outcome, not only the argument parser's refusals
    assert all(codes.count(c) >= 20 for c in (0, 1, 2)), codes
