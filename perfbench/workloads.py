"""The three workloads: the inputs each seed generates, the call each job makes
into numsgps, the canonical text of a job's output, and the checks on it that
do not rely on golden digests.

Jobs call numsgps through the package's attributes, where the traced run
swaps in its wrappers.

A workload is an endless stream of rounds, lists of jobs, and every round of
a workload has the same make-up. Runs do whole rounds, so the seed changes
which inputs are drawn, not how costly the mix is.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from functools import reduce
from math import lcm
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numsgps
from numsgps import LinearFamily, Semigroup, cli

SPECS = Path(__file__).resolve().parent / "specs"

DEFAULT_SEED = 0
# Seed never used while tuning the benchmark or a change; a claimed gain must
# also hold on it.
HELD_OUT_SEED = 1000003

GOLDEN_RATIO_STEP = 0.6180339887498949


@dataclasses.dataclass(frozen=True)
class Job:
    """One timed call into numsgps.

    ``key`` names the input and keys the golden digests; ``call`` is the timed
    part; ``canonical`` turns its result into the text that is digested;
    ``check`` returns the problems that independent checks find in it.
    """

    key: str
    call: Callable[[], object]
    canonical: Callable[[object], str]
    check: Callable[[object], list[str]]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(value):
    """Dataclasses, tuples and Fractions as JSON-ready values."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return [[_plain(k), _plain(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def _dumps(value) -> str:
    return json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))


def _spread(rng: random.Random, window: range) -> Iterator[int]:
    """Endless draws from ``window`` that cover it evenly from the first few
    on (additive golden-ratio sequence from a seeded start)."""
    x = rng.random()
    while True:
        yield window[int(x * len(window))]
        x = (x + GOLDEN_RATIO_STEP) % 1.0


# --------------------------------------------------------------------------
# transport: relation transport and the Betti bijection (ROADMAP item 2)

EX53 = ((3, 4, 6, 9), (1, 2, 4, 6))
F2 = ((1, 2, 3, 3), (0, 1, 4, 6))
FAMILIES = {"ex53": EX53, "f2": F2}
# the relation blocks the paper prints for P_515 and P_524, the images of the
# minimal presentations of P_506 and P_515
PRINTED_BLOCKS = {
    506: {
        frozenset(((0, 0, 3, 0), (0, 0, 0, 2))),
        frozenset(((0, 3, 0, 0), (2, 0, 1, 0))),
        frozenset(((515, 1, 0, 0), (0, 0, 0, 172))),
        frozenset(((517, 0, 0, 0), (0, 2, 2, 170))),
    },
    515: {
        frozenset(((0, 0, 3, 0), (0, 0, 0, 2))),
        frozenset(((0, 3, 0, 0), (2, 0, 1, 0))),
        frozenset(((524, 1, 0, 0), (0, 0, 0, 175))),
        frozenset(((526, 0, 0, 0), (0, 2, 2, 173))),
    },
}
EX53_WINDOW = range(100, 301)
# every n here is above the family's transport bound 108
F2_WINDOW = range(109, 301)
# many short jobs per round, so that the median and the tail of a run rest
# on enough samples
F2_PER_ROUND = 12


def _transport_call(family: str, n: int):
    # both families are already normalized (shift 0), so n is the printed parameter
    fam = LinearFamily.normalize(*FAMILIES[family])
    return numsgps.transport_presentation(fam, n), numsgps.betti_bijection(fam, n)


def _transport_canonical(result) -> str:
    rep, bij = result
    return _dumps(
        {"transport": rep, "ok": rep.ok, "bijection": bij, "is_bijection": bij.is_bijection}
    )


def _transport_check(family: str, n: int, result) -> list[str]:
    rep, bij = result
    problems = []
    if not rep.ok:
        problems.append(f"transport problems at n={n}: {list(rep.problems)}")
    if not bij.is_bijection:
        problems.append(f"Betti map at n={n} is not a bijection")
    relations = sum(m for _, m in bij.source)
    if not relations == sum(m for _, m in bij.target) == len(rep.image):
        problems.append(f"Betti multiplicities at n={n} do not count the transported relations")
    if family == "ex53" and n in PRINTED_BLOCKS:
        if {r.as_pair() for r in rep.image} != PRINTED_BLOCKS[n]:
            problems.append(f"image at n={n} differs from the printed relation block")
    return problems


def transport_job(family: str, n: int) -> Job:
    return Job(
        key=f"{family} n={n}",
        call=lambda: _transport_call(family, n),
        canonical=_transport_canonical,
        check=lambda result: _transport_check(family, n, result),
    )


def transport_rounds(seed: int) -> Iterator[list[Job]]:
    """Rounds of one printed EX53 member (506 and 515 in turn), one EX53
    member from EX53_WINDOW and F2_PER_ROUND members of the second family.
    Every round has the same make-up, so the metrics do not depend on how
    many rounds a run completes."""
    rng = random.Random(seed)
    printed = sorted(PRINTED_BLOCKS)
    rng.shuffle(printed)
    ex53 = _spread(rng, EX53_WINDOW)
    f2 = _spread(rng, F2_WINDOW)
    for i in itertools.count():
        jobs = [transport_job("ex53", printed[i % 2]), transport_job("ex53", next(ex53))]
        jobs += [transport_job("f2", next(f2)) for _ in range(F2_PER_ROUND)]
        rng.shuffle(jobs)
        yield jobs


def transport_pool() -> list[Job]:
    """Every job any seed can draw."""
    jobs = [transport_job("ex53", n) for n in sorted(PRINTED_BLOCKS)]
    jobs += [transport_job("ex53", n) for n in EX53_WINDOW]
    jobs += [transport_job("f2", n) for n in F2_WINDOW]
    return jobs


# --------------------------------------------------------------------------
# weighted_oracle: the C3 shape on one semigroup and one weight vector
# (ROADMAP item 3)

PROFILE_BOUND = 400
# Boundaries that split the inputs _draw_weighted makes into 32 strata of
# _cost_key, each holding 1/32 of them give or take 6% (ties). Each round
# draws one input from every stratum, so the mix of cheap and costly inputs
# is the same in every run while each input stays about as likely as in
# plain draws.
COST_STRATA = (
    1018, 1247, 1516, 1804, 2104, 2448, 2898, 3555, 4288, 5508, 7286,
    9237, 11144, 13288, 15582, 18230, 21010, 24270, 27770, 32142, 36587,
    42014, 48851, 56086, 64177, 74240, 85497, 97026, 112704, 132859, 164516,
)


def _cost_key(gens, w) -> float:
    """k**4 * bitmask depth * sqrt(weight spread): a log-linear fit to the
    time of one job, dominated by weighted_delta_profile."""
    den = reduce(lcm, (x.denominator for x in w), 1)
    iw = [int(x * den) for x in w] + [0]
    depth = PROFILE_BOUND // min(gens) + 1
    return len(gens) ** 4 * depth * math.sqrt(max(iw) - min(iw) + 1)


def _stratum(gens, w) -> int:
    return bisect.bisect_left(COST_STRATA, _cost_key(gens, w))


def _draw_weighted(rng: random.Random):
    k = rng.randint(2, 4)
    gens = tuple(sorted(rng.sample(range(3, 21), k)))
    w = tuple(Fraction(rng.randint(-5, 6), rng.randint(1, 4)) for _ in range(k))
    return gens, w


def _weighted_call(gens, w):
    S = Semigroup(gens)
    g = max(gens)
    return (
        numsgps.min_delta_w(S, w),
        numsgps.max_delta_w(S, w),
        numsgps.weighted_delta_profile(S, w, PROFILE_BOUND),
        numsgps.verify_weighted_recurrences(S, w, g * g + g),
    )


def _weighted_canonical(result) -> str:
    dmin, dmax, profile, recurrences = result
    return _dumps({"min": dmin, "max": dmax, "profile": profile, "recurrences": recurrences})


def _weighted_check(gens, w, result) -> list[str]:
    """The C3 identities: min delta_w divides every gap of the brute-force
    profile, and the largest gap is attained at a Betti element."""
    dmin, dmax, profile, _ = result
    gaps = {g for row in profile.values() for g in row}
    if dmin == 0:
        return [f"{gens} w={w}: empty min delta but gaps {sorted(gaps)}"] if gaps else []
    problems = [f"{gens} w={w}: gap {g} is no multiple of {dmin}" for g in gaps if (g / dmin).denominator != 1]
    if gaps:
        top = max(gaps)
        betti = numsgps.betti_elements(Semigroup(gens))
        if top not in {g for b in betti if b <= PROFILE_BOUND for g in profile.get(b, ())}:
            problems.append(f"{gens} w={w}: largest gap {top} not attained at a Betti element")
        if max(betti) <= PROFILE_BOUND and dmax != top:
            problems.append(f"{gens} w={w}: max delta {dmax} != largest profile gap {top}")
    return problems


def weighted_job(gens, w) -> Job:
    return Job(
        key=f"{','.join(map(str, gens))}|{','.join(map(str, w))}",
        call=lambda: _weighted_call(gens, w),
        canonical=_weighted_canonical,
        check=lambda result: _weighted_check(gens, w, result),
    )


def weighted_rounds(seed: int) -> Iterator[list[Job]]:
    rng = random.Random(seed)
    while True:
        strata = list(range(len(COST_STRATA) + 1))
        rng.shuffle(strata)
        jobs = []
        for stratum in strata:
            gens, w = _draw_weighted(rng)
            while _stratum(gens, w) != stratum:
                gens, w = _draw_weighted(rng)
            jobs.append(weighted_job(gens, w))
        yield jobs


# --------------------------------------------------------------------------
# family_scan: in-process CLI calls on spec files

SHIFTS = 8
EX53_SCAN = range(5, 1205)
SCAN_CHUNK = 50
BETTI_SCAN = range(5, 85)
BETTI_CHUNK = 4
EX71_SCAN = range(5, 33)
EX71_CHUNK = 2
FIT_SCAN = range(100, 700)
FIT_CHUNK = 60
# apery0.json .. apery9.json: w_1 = 1 families, scanned just above their
# closed-form Apery bound
APERY_FAMILIES = 10
# verify-pf fails inside its guaranteed regime on apery9.json, w=(1,2,3,3),
# r=(0,1,4,6), for every n tried; the workload keeps to passing operations
PF_FAMILIES = 9


class CliResult(NamedTuple):
    code: int
    stdout: str


def _cli_call(argv: list[str]) -> CliResult:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return CliResult(code, out.getvalue())


def _cli_canonical(result) -> str:
    code, stdout = result
    return f"exit {code}\n{stdout}"


def _cli_check(result) -> list[str]:
    code, stdout = result
    if code != 0:
        return [f"exit status {code}"]
    payload = json.loads(stdout)
    if payload.get("ok") is False:
        return ["verification reported a mismatch"]
    if any(not r["ok"] for r in payload.get("results", ())):
        return ["verify-apery reported a mismatch"]
    if "fit" in payload:
        return [f"fit failed: {payload.get('reason')}"]
    return []


def cli_job(spec: str, *args) -> Job:
    words = [str(a) for a in args]
    argv = ["family", "--spec", str(SPECS / spec), *words, "--json"]
    return Job(
        key=" ".join([spec, *words]),
        call=lambda: _cli_call(argv),
        canonical=_cli_canonical,
        check=_cli_check,
    )


def _chunks(window: range, width: int):
    for a in range(window.start, window.stop, width):
        yield a, min(a + width, window.stop) - 1


def _apery_window(spec: str, shift: int) -> tuple[int, int]:
    with open(SPECS / spec, encoding="utf-8") as fh:
        doc = json.load(fh)
    fam = LinearFamily.normalize(doc["w"], doc["r"])
    lo = fam.apery_bound + 1 + fam.shift + shift
    return lo, lo + 2 * fam.r[-1] - 1


def scan_jobs(shift: int) -> list[Job]:
    """The commands of one round. ``shift`` moves the ranges of the cheap
    commands (Apery families, C7 fits). The EX53 and EX71 chunks stay fixed:
    their cost grows steeply with n, and moving them would change the work
    from seed to seed."""
    jobs = []
    for invariant in ("frobenius", "genus"):
        jobs += [cli_job("ex53.json", "scan", "--invariant", invariant, "--range", a, b)
                 for a, b in _chunks(EX53_SCAN, SCAN_CHUNK)]
        jobs += [cli_job("ex53.json", "fit", "--invariant", invariant, "--range", a, b,
                         "--degree", 2, "--period", 3)
                 for a, b in _chunks(FIT_SCAN, FIT_CHUNK)]
        a = 5 + 2 * (shift % 4)
        jobs.append(cli_job("c7.json", "fit", "--invariant", invariant, "--range", a, a + 56,
                            "--step", 2, "--degree", 2, "--period", 2))
    jobs += [cli_job("ex53.json", "scan", "--invariant", "betti_count", "--range", a, b)
             for a, b in _chunks(BETTI_SCAN, BETTI_CHUNK)]
    jobs += [cli_job("ex71.json", "scan", "--invariant", "minpres_degrees", "--range", a, b)
             for a, b in _chunks(EX71_SCAN, EX71_CHUNK)]
    for i in range(APERY_FAMILIES):
        spec = f"apery{i}.json"
        lo, hi = _apery_window(spec, shift)
        jobs += [cli_job(spec, "scan", "--invariant", inv, "--range", lo, hi) for inv in ("type", "wilf")]
        jobs.append(cli_job(spec, "verify-apery", "--range", lo, hi))
        if i < PF_FAMILIES:
            jobs.append(cli_job(spec, "verify-pf", "--n", lo))
    return jobs


def scan_rounds(seed: int) -> Iterator[list[Job]]:
    rng = random.Random(seed)
    jobs = scan_jobs(rng.randrange(SHIFTS))
    while True:
        rng.shuffle(jobs)
        yield list(jobs)


def scan_pool() -> list[Job]:
    return [job for shift in range(SHIFTS) for job in scan_jobs(shift)]


WORKLOADS = {
    "transport": transport_rounds,
    "weighted_oracle": weighted_rounds,
    "family_scan": scan_rounds,
}
