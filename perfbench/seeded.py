"""Seeded, validated inputs of the three workloads.

Every input the program sees is generated here from the run's seed:
the same seed gives the same op sequence, a different seed a different
one, and no two ops of one run share an input.

Inputs are registered scenario specs scaled by ``1/16`` times a per-op
factor taken from a grid of levels, ``(96 + level) / 96`` for ``level``
in ``LEVELS``.  The grid is finite on purpose: it lets ``expected.json``
pin the result of every input any seed can produce.  It is fine enough
that a program twice as fast as today's still fills a run with distinct
matrix rows (the specs with the fewest buildable levels have 37).

On ``matrix`` the scenario2 specs are also doubled (``BASE_SIZE``):
their application runs 2.4x fewer cycles than scenario1's at equal
scale.  The levels span +-25% so that the row times of the spec groups
(pairs, three-core, four-core specs) overlap: with +-12% they formed
separate clusters, and the median sat at the edge of the pairs' cluster,
where the levels a seed happened to draw moved it by 7%.

Some factors are not buildable: the control-loop builder finds no
``11*n_r + 10*n_w`` split for some scaled stall budgets and raises
``WorkloadError``.  :func:`validate` builds every workload of the
candidate inputs at set-up and drops those that raise, so they never
count as failed ops.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Iterable, Iterator, Sequence

#: Scale of every input relative to the registered spec.
SCALE = 1 / 16
#: Per-base size multiplier of matrix rows (see the module docstring).
BASE_SIZE = {"scenario1": 1.0, "scenario2": 2.0}
#: Factor levels; level 0 is the canonical input of round 0.
LEVELS = tuple(range(-24, 25))
#: Level strata: each run of this many consecutive picks of one spec
#: draws one level from each stratum, so every run sees the same
#: spread of sizes whatever its seed.
STRATA = 4
#: The pair specs a service batch draws from.
SERVICE_PAIRS = tuple(
    f"{base}-pair-{level}"
    for base in ("scenario1", "scenario2")
    for level in ("H", "M", "L")
)
#: The family of a service batch's DMA member.  Only its period-24
#: members are drawn: the period-2 ones simulate up to 5x longer, which
#: pushes most batches past the client's second result poll and the
#: run below the hundred ops ``op_s.p90`` needs.
SERVICE_FAMILY = "dma-pressure"
SERVICE_MEMBER_TAG = "-p24-"


@dataclasses.dataclass(frozen=True, order=True)
class Input:
    """One scaled spec: a registered (or family member) spec and a level."""

    spec: str
    level: int

    @property
    def key(self) -> str:
        return f"{self.spec}@{self.level:+d}"


class SpecSource:
    """Resolves input names to registered or family-member specs.

    ``sized`` applies the matrix rows' sizing (see the module
    docstring); the service batches use the plain scale.
    """

    def __init__(self, sized: bool) -> None:
        from repro.engine import default_registry, expand_family, get_family

        self.sized = sized
        self.registered = default_registry().names()
        members = [
            member
            for member in expand_family(get_family(SERVICE_FAMILY))
            if SERVICE_MEMBER_TAG in member.name
        ]
        self.family_members = tuple(member.name for member in members)
        self._specs = {spec.name: spec for spec in default_registry().specs()}
        self._specs.update((member.name, member.spec) for member in members)

    def base_spec(self, name: str):
        return self._specs[name]

    def factor(self, spec, level: int) -> float:
        """The scale factor applied to ``spec`` at ``level``."""
        size = BASE_SIZE[spec.base] if self.sized else 1.0
        return SCALE * size * (96 + level) / 96

    def spec(self, item: Input):
        spec = self._specs[item.spec]
        return spec.scaled(self.factor(spec, item.level))


def validate(source: SpecSource, specs: Iterable[str]) -> dict[str, list[int]]:
    """The buildable levels of each spec.

    Builds every distinct workload once (specs sharing a base and a
    workload share the build) and keeps a level only when all of the
    spec's workloads build.
    """
    from repro.errors import ReproError

    built: dict[tuple, bool] = {}
    valid: dict[str, list[int]] = {}
    for name in specs:
        spec = source.base_spec(name)
        deployment = spec.deployment()
        refs = [spec.app] + [ref for _, ref in spec.contenders]
        valid[name] = []
        for level in LEVELS:
            scale = source.factor(spec, level)
            ok = True
            for ref in refs:
                scaled = dataclasses.replace(ref, scale=ref.scale * scale)
                key = (spec.base, scaled)
                if key not in built:
                    try:
                        scaled.build(spec.base, deployment)
                        built[key] = True
                    except ReproError:
                        built[key] = False
                ok = ok and built[key]
            if ok:
                valid[name].append(level)
    return valid


def _stratified(levels: Sequence[int], rng: random.Random) -> list[int]:
    """A seeded permutation drawing one level per stratum in turn."""
    size = -(-len(levels) // STRATA)
    strata = [list(levels[k * size:(k + 1) * size]) for k in range(STRATA)]
    for stratum in strata:
        rng.shuffle(stratum)
    order: list[int] = []
    for i in range(size):
        turn = list(range(STRATA))
        rng.shuffle(turn)
        order.extend(strata[k][i] for k in turn if i < len(strata[k]))
    return order


def _level_stream(valid: Sequence[int], rng: random.Random) -> list[int]:
    """Every valid level once: the canonical one (closest to 0) first,
    then a stratified seeded permutation of the rest."""
    canonical = min(valid, key=lambda level: (abs(level), level))
    return [canonical] + _stratified(
        [level for level in valid if level != canonical], rng
    )


def paper_rounds(models: Sequence[str]) -> Iterator[list[tuple[str, ...]]]:
    """Paper ops take no seeded input: every op is Figure 4 over the
    published readings, so a round is one op and all ops are equal."""
    while True:
        yield [tuple(models)]


def matrix_rounds(
    seed: int, names: Sequence[str], valid: dict[str, list[int]]
) -> Iterator[list[Input]]:
    """Rounds of matrix rows: each round is every spec once, in seeded
    order, round 0 at each spec's canonical level.  The rounds end when
    a spec has used up its valid levels, so no input repeats."""
    rng = random.Random(f"matrix:{seed}")
    streams = {name: _level_stream(valid[name], rng) for name in names}
    for index in range(min(len(stream) for stream in streams.values())):
        order = list(names)
        rng.shuffle(order)
        yield [Input(name, streams[name][index]) for name in order]


def service_rounds(
    seed: int,
    pairs: Sequence[str],
    members: Sequence[str],
    valid: dict[str, list[int]],
) -> Iterator[list[tuple[Input, ...]]]:
    """Service batches: two pair specs and one DMA member each.

    A round is three batches that cover the six pair specs once in
    seeded order; the DMA members cycle through seeded permutations and
    every spec walks its level stream cyclically.  Round 0 is the same
    in every run: the pairs in listed order, the first three members
    and canonical levels.  A batch equal to an earlier one is skipped.
    """
    rng = random.Random(f"service:{seed}")
    streams = {
        name: itertools.cycle(_level_stream(valid[name], rng))
        for name in (*pairs, *members)
    }
    member_order: list[str] = list(reversed(members[:len(pairs) // 2]))
    seen: set[tuple[Input, ...]] = set()
    for round_index in itertools.count():
        order = list(pairs)
        if round_index:
            rng.shuffle(order)
        batches = []
        for i in range(0, len(order), 2):
            if not member_order:
                member_order = list(members)
                rng.shuffle(member_order)
            names = (order[i], order[i + 1], member_order.pop())
            batch = tuple(Input(name, next(streams[name])) for name in names)
            if batch not in seen:
                seen.add(batch)
                batches.append(batch)
        yield batches
