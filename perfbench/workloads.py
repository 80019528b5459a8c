"""Seeded synthetic pseudo-C with planted ground truth.

Each workload has a fixed *layout*: how many files and bodies, how long
each body is, which events sit at which lines and which library function
each event names, and which template each filler line follows. The
layout depends only on the workload name, so every seed yields the same
line, function, marker and call counts, and the same reconcile pairings.
The seed picks the *content*: numbers, offsets, marker array names and
identifier spellings, all of fixed width. So a seed changes bytes but
not sizes or structure, and timings and F1 stay comparable across seeds.

An event is one of

* ``inlined``   a marker followed by the inlined residue of a target call;
* ``consumed``  a marker directly above a plain call the decompiler kept;
* ``plain``     a plain target call with no marker;
* ``nontarget`` a marker naming a function outside the target list.

The planted truth of a body follows the reconcile rule on counts: per
name, the plain calls consume that many markers, and the rest are the
inlined truth; the plain calls form the decompiler's multiset.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

TARGETS = ("memcpy", "memset", "strcmp", "strcpy", "strlen")
NONTARGETS = ("atoi", "qsort")

# Every residue is exactly five lines, so line counts do not depend on names.
RESIDUE = {
    "memset": (
        "  *(ulong *)(param_1 + 0x{o:x}) = 0;",
        "  *(ulong *)(param_1 + 0x{o:x} + 8) = 0;",
        "  *(uint *)(param_1 + 0x{o:x} + 0x10) = 0;",
        "  *(ushort *)(param_1 + 0x{o:x} + 0x14) = 0;",
        "  *(byte *)(param_1 + 0x{o:x} + 0x16) = 0;",
    ),
    "memcpy": (
        "  auVar{a}._0_16_ = *(undefined1 (*) [16])(param_2 + 0x{o:x});",
        "  auVar{b}._0_16_ = *(undefined1 (*) [16])(param_2 + 0x{o:x} + 0x10);",
        "  *(undefined1 (*) [16])(param_1 + 0x{n:x}) = auVar{a}._0_16_;",
        "  *(undefined1 (*) [16])(param_1 + 0x{n:x} + 0x10) = auVar{b}._0_16_;",
        "  *(undefined8 *)(param_1 + 0x{n:x} + 0x20) = *(undefined8 *)(param_2 + 0x20);",
    ),
    "strcpy": (
        "  pcVar{a} = (char *)(param_2 + 0x{o:x});",
        "  do {{",
        "    cVar{b} = *pcVar{a}; pcVar{a} = pcVar{a} + 1;",
        "    *pcVar{c} = cVar{b}; pcVar{c} = pcVar{c} + 1;",
        "  }} while (cVar{b} != '\\0');",
    ),
    "strlen": (
        "  sVar{a} = 0;",
        "  while (*(char *)(param_1 + 0x{o:x} + sVar{a}) != '\\0') {{",
        "    sVar{a} = sVar{a} + 1;",
        "  }}",
        "  *(size_t *)(param_2 + 0x{n:x}) = sVar{a};",
    ),
    "strcmp": (
        "  pbVar{a} = (byte *)(param_1 + 0x{o:x});",
        "  do {{",
        "    bVar{b} = *pbVar{a}; bVar{c} = *pbVar{d}; pbVar{a} = pbVar{a} + 1;",
        "    pbVar{d} = pbVar{d} + 1;",
        "  }} while ((bVar{b} == bVar{c}) && (bVar{b} != 0));",
    ),
}

PLAIN_CALL = {
    "memset": "  memset((void *)(param_1 + 0x{o:x}),0,0x{n:x});",
    "memcpy": "  memcpy(puVar{a},(void *)(param_2 + 0x{o:x}),0x{n:x});",
    "strcpy": "  strcpy((char *)(param_1 + 0x{o:x}),(char *)param_2);",
    "strlen": "  sVar{a} = strlen((char *)(param_2 + 0x{o:x}));",
    "strcmp": "  iVar{a} = strcmp((char *)param_1,(char *)(param_2 + 0x{o:x}));",
}

MARKER = '  funcmark_{array}[{slot}] = "FUNCMARK:{name}";'
NONTARGET_BODY = "  uVar{a} = FUN_{f:08x}(param_1,0x{n:x});"

# Boilerplate of the repeat style: the pool itself is the same for every
# seed, so a seed only reorders it and the BPE merges barely change.
REPEAT_POOL = (
    "  uVar1 = *(long *)(param_1 + 0x10);",
    "  *(long *)(param_1 + 0x18) = uVar1;",
    "  iVar2 = *(int *)(param_1 + 8);",
    "  if (iVar2 < 1) goto LAB_00101c40;",
    "  lVar3 = lVar3 + 1;",
    "  uVar4 = uVar4 ^ *(uint *)(param_2 + lVar3 * 4);",
    "  *(int *)(param_1 + 8) = iVar2 + -1;",
    "  param_2 = param_2 + 0x20;",
    "  uVar1 = FUN_00101b70(param_1,uVar1);",
    "  uVar5 = *(int *)(param_1 + 0x24) & 1;",
)

DISTINCT_TEMPLATES = (
    "  *(undefined4 *)(param_1 + 0x{h:x}) = 0x{v:x};",
    "  uVar{d} = *(uint *)(param_2 + 0x{h:x});",
    "  if ((int)uVar{d} < 0x{v:x}) goto LAB_{f:08x};",
    "  lVar{d} = lVar{d} * 0x{v:x} + 0x{h:x};",
    "  local_{h:x} = local_{v:x} ^ 0x{f:x};",
)

IDENT_TEMPLATES = (
    "  {x} = {y} + {z};",
    "  {x} = *(long *)({y} + 0x{h:x});",
    "  if ({x} == {y}) goto LAB_{f:08x};",
    "  {x} = FUN_{f:08x}({y},{z});",
)

SYLLABLES = tuple(c + v for c in "bcdfghklmnprstvz" for v in "aeiou")

DECLS = ("  undefined8 local_{h:x};", "  long lStack_{v:x};")

# Lines a body always has: signature, open brace, two declarations,
# return, close brace.
FIXED_LINES = 6
EVENT_LINES = {"inlined": 1 + 5, "consumed": 2, "plain": 1, "nontarget": 2}


@dataclass(frozen=True)
class Shape:
    """The seed-independent shape of one workload."""

    name: str
    why: str
    train_bodies: int
    held_bodies: int
    bodies_per_file: int
    body_lines: tuple[int, int]  # inclusive range, signature through close brace
    events: dict  # kind -> inclusive (min, max) count per body
    filler: str  # "repeat" | "distinct" | "identifiers"
    identifiers: int  # pool size of the identifiers style
    vocab_size: int
    min_frequency: int
    external: bool


SHAPES = {
    s.name: s
    for s in (
        Shape(
            name="long-repeat",
            why="few long bodies of recurring boilerplate; stride-1 windows make "
            "bpe.encode dominate both chains",
            train_bodies=5,
            held_bodies=5,
            bodies_per_file=1,
            body_lines=(100, 110),
            events={"inlined": (3, 3), "consumed": (1, 1), "plain": (1, 1), "nontarget": (1, 1)},
            filler="repeat",
            identifiers=0,
            vocab_size=256 + 32,
            min_frequency=2,
            external=False,
        ),
        Shape(
            name="short-distinct",
            why="many one-window bodies of distinct lines, labeled by an external "
            "process: no overlap, little repetition, many records and round trips",
            train_bodies=150,
            held_bodies=360,
            bodies_per_file=20,
            body_lines=(17, 20),
            events={"inlined": (0, 1), "consumed": (0, 1), "plain": (0, 1), "nontarget": (0, 1)},
            filler="distinct",
            identifiers=0,
            vocab_size=256 + 16,
            min_frequency=2,
            external=True,
        ),
        Shape(
            name="vocab-heavy",
            why="many distinct identifiers and a large vocabulary limit; bpe-train "
            "learns several times the merges and dominates the train chain",
            train_bodies=20,
            held_bodies=12,
            bodies_per_file=4,
            body_lines=(20, 24),
            events={"inlined": (0, 1), "consumed": (0, 1), "plain": (0, 1), "nontarget": (0, 1)},
            filler="identifiers",
            identifiers=250,
            vocab_size=256 + 400,
            min_frequency=2,
            external=False,
        ),
    )
}


@dataclass(frozen=True)
class PlantedBody:
    """What the generator put into one body, keyed like a function record."""

    path: str
    name: str
    ordinal: int
    truth: Counter  # residual inlined markers per target name
    plain: Counter  # target calls visible to the decompiler


@dataclass(frozen=True)
class Inputs:
    """Generated files of one split, as relative path -> bytes."""

    files: dict
    bodies: list  # PlantedBody, in file then ordinal order

    @property
    def lines(self) -> int:
        return sum(content.count(b"\n") for content in self.files.values())


@dataclass(frozen=True)
class Workload:
    train: Inputs
    held: Inputs
    targets_tsv: str

    def write(self, root: Path) -> None:
        """Write the targets file and both splits under `root`."""
        root.mkdir(parents=True, exist_ok=True)
        (root / "targets.tsv").write_text(self.targets_tsv, encoding="utf-8")
        for split in (self.train, self.held):
            for rel, content in split.files.items():
                path = root / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(content)


def _layout(shape: Shape, count: int, rng: random.Random) -> list[list]:
    """Per body, its slots in line order.

    A filler slot is ``("fill", template, identifier indices)``; an event
    slot is ``(kind, name)``.
    """
    templates = {"repeat": REPEAT_POOL, "distinct": DISTINCT_TEMPLATES,
                 "identifiers": IDENT_TEMPLATES}[shape.filler]
    bodies = []
    for _ in range(count):
        length = rng.randint(*shape.body_lines)
        events = [
            (kind, rng.choice(NONTARGETS if kind == "nontarget" else TARGETS))
            for kind, (lo, hi) in shape.events.items()
            for _ in range(rng.randint(lo, hi))
        ]
        rng.shuffle(events)
        filler = length - FIXED_LINES - sum(EVENT_LINES[kind] for kind, _ in events)
        if filler < 0:
            raise ValueError(f"{shape.name}: events do not fit a {length}-line body")
        # events spread evenly, each nudged by a little jitter
        step = filler / (len(events) + 1)
        cuts = sorted(
            min(filler, max(0, round(step * (i + 1)) + rng.randint(-2, 2)))
            for i in range(len(events))
        )
        slots: list = []
        for i in range(filler + 1):
            slots += [event for event, cut in zip(events, cuts) if cut == i]
            if i < filler:
                idents = tuple(rng.randrange(max(shape.identifiers, 1)) for _ in range(3))
                slots.append(("fill", rng.randrange(len(templates)), idents))
        bodies.append(slots)
    return bodies


class _Content:
    """The seed's choices: identifier spellings and numbers.

    Every choice has a fixed width, so the seed changes bytes, not sizes.
    """

    def __init__(self, shape: Shape, rng: random.Random):
        self.shape = shape
        self.rng = rng
        self.idents = [self._identifier() for _ in range(shape.identifiers)]

    def _identifier(self) -> str:
        r = self.rng
        head = "".join(r.choice(SYLLABLES) for _ in range(3))
        tail = "".join(r.choice(SYLLABLES) for _ in range(2))
        return f"{r.choice('gpsm')}_{head}_{tail}"

    def numbers(self) -> dict:
        r = self.rng
        return {
            "a": r.randint(1, 9), "b": r.randint(1, 9), "c": r.randint(1, 9),
            "d": r.randint(1, 9), "o": r.randrange(0x100, 0x200, 8),
            "n": r.randint(0x10, 0x3F), "h": r.randrange(0x100, 0x1000),
            "v": r.randrange(0x1000, 0x10000), "f": 0x101000 + r.randrange(0, 0x4000, 4),
        }

    def filler(self, template: int, idents: tuple) -> str:
        style = self.shape.filler
        if style == "repeat":
            return REPEAT_POOL[template]
        if style == "distinct":
            return DISTINCT_TEMPLATES[template].format(**self.numbers())
        x, y, z = (self.idents[i] for i in idents)
        return IDENT_TEMPLATES[template].format(x=x, y=y, z=z, **self.numbers())


def _split(shape: Shape, split: str, count: int, layout_rng, content: _Content) -> Inputs:
    files: dict[str, bytes] = {}
    bodies: list[PlantedBody] = []
    layouts = _layout(shape, count, layout_rng)
    for file_no in range(0, count, shape.bodies_per_file):
        rel = f"{split}/unit{file_no // shape.bodies_per_file:03d}.c"
        array = f"{content.rng.getrandbits(48):012x}"
        slot = 0
        out = [f"// pseudo-C of {rel}", '#include "out.h"', "", "undefined8 DAT_00104010;", ""]
        for ordinal, slots in enumerate(layouts[file_no:file_no + shape.bodies_per_file]):
            name = f"FUN_{0x101000 + 0x100 * (file_no + ordinal):08x}"
            lines = [f"undefined8 {name}(long param_1,long param_2)", "{",
                     DECLS[0].format(**content.numbers()), DECLS[1].format(**content.numbers())]
            markers: Counter = Counter()
            plain: Counter = Counter()
            for kind, *args in slots:
                if kind == "fill":
                    lines.append(content.filler(*args))
                    continue
                nums = content.numbers()
                if kind == "nontarget":
                    lines.append(MARKER.format(array=array, slot=slot, name=args[0]))
                    lines.append(NONTARGET_BODY.format(**nums))
                    slot += 1
                    continue
                target = args[0]
                if kind in ("inlined", "consumed"):
                    lines.append(MARKER.format(array=array, slot=slot, name=target))
                    markers[target] += 1
                    slot += 1
                if kind == "inlined":
                    lines += [t.format(**nums) for t in RESIDUE[target]]
                else:
                    lines.append(PLAIN_CALL[target].format(**nums))
                    plain[target] += 1
            lines += ["  return 0;", "}"]
            truth = Counter({n: c - min(c, plain[n]) for n, c in markers.items()})
            bodies.append(PlantedBody(rel, name, ordinal, +truth, plain))
            out += lines + [""]
        files[rel] = ("\n".join(out) + "\n").encode("utf-8")
    return Inputs(files, bodies)


def generate(name: str, seed: int, variant: int = 0) -> Workload:
    """The inputs of workload `name` for `seed`; equal arguments give equal bytes.

    Variants share the layout and differ in content, so each of several
    set-ups in one run meets text it has not seen.
    """
    shape = SHAPES[name]
    layout_rng = random.Random(f"layout:{name}")
    content = _Content(shape, random.Random(f"content:{name}:{seed}:{variant}"))
    train = _split(shape, "train", shape.train_bodies, layout_rng, content)
    held = _split(shape, "held", shape.held_bodies, layout_rng, content)
    targets = "".join(f"{t}\t{100 * (i + 1)}\n" for i, t in enumerate(TARGETS))
    return Workload(train, held, targets)
