"""The fixed corpus of small programs the two corpus workloads run.

Each program covers one mapping feature of the paper (BLOCK, CYCLIC(k),
GENERAL_BLOCK, ALIGN with stride and offset, 2-D mixes, a mid-program
REDISTRIBUTE, the self-adaptive ``opt="auto"`` Jacobi and the directive
front end).  The program set and every size are fixed; the seed only
draws the initial array values and the order the programs run in, so
every op does the same work and the ledgers do not depend on the seed.

A program is built twice per seed: once under the engine (simulator or
service, ``-O2``) and once under ``Session(machine=False)`` reference
semantics, whose arrays every engine run must reproduce bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import Session
from repro.directives.analyzer import Analyzer
from repro.distributions.base import Collapsed
from repro.distributions.block import Block, BlockVariant
from repro.distributions.cyclic import Cyclic
from repro.distributions.general_block import GeneralBlock
from repro.workloads.irregular import imbalanced_jacobi_session
from repro.workloads.multigrid import multigrid_session

#: the directive-language program, read from the repository's examples
HPF_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "examples", "jacobi_do.hpf")
HPF_N = 48
HPF_PROCESSORS = 4


def _fill(s: Session, rng: np.random.Generator) -> None:
    """Seeded initial values for every allocated array of the scope."""
    for name in sorted(s.ds.arrays):
        arr = s.ds.arrays[name]
        if arr.is_allocated:
            arr.data[...] = rng.random(arr.data.shape)


def _block_shift(rng, **kw) -> Session:
    s = Session(4, **kw)
    pr = s.processors("PR", 4)
    a = s.array("A", 400).distribute(Block(), to=pr)
    b = s.array("B", 400).distribute(Block(), to=pr)
    _fill(s, rng)
    with s.loop(3):
        b[1:-1] = 0.5 * (a[:-2] + a[2:])
        a[1:-1] = b[1:-1] + 1.0
    return s


def _cyclic_k(rng, **kw) -> Session:
    s = Session(4, **kw)
    pr = s.processors("PR", 4)
    a = s.array("A", 384).distribute(Cyclic(3), to=pr)
    b = s.array("B", 384).distribute(Block(), to=pr)
    c = s.array("C", 384).distribute(Cyclic(8), to=pr)
    _fill(s, rng)
    b[:] = a + 2.0 * c
    c[2:] = b[:-2] - a[2:]
    return s


def _general_block(rng, **kw) -> Session:
    s = Session(4, **kw)
    pr = s.processors("PR", 4)
    g = GeneralBlock((40, 150, 230))
    a = s.array("A", 320).distribute(g, to=pr)
    b = s.array("B", 320).distribute(g, to=pr)
    c = s.array("C", 320).distribute(Block(), to=pr)
    _fill(s, rng)
    with s.loop(2):
        b[1:-1] = a[:-2] + a[2:] - 2.0 * a[1:-1]
        c[:] = b * 0.5
        a[:] = c
    return s


def _align_stride(rng, **kw) -> Session:
    s = Session(4, **kw)
    pr = s.processors("PR", 4)
    a = s.array("A", 600).distribute(Block(), to=pr)
    b = s.array("B", 250).align(a, lambda I: 2 * I + 3)
    c = s.array("C", 250).align(a, lambda I: I + 7)
    _fill(s, rng)
    b[:] = c + 1.0
    c[1:] = b[:-1] * 2.0
    a[10:260] = b + c
    return s


def _block_cyclic_2d(rng, **kw) -> Session:
    s = Session(4, **kw)
    pr = s.processors("PR", 2, 2)
    u = s.array("U", 48, 48).distribute(Block(), Cyclic(2), to=pr)
    v = s.array("V", 48, 48).distribute(Cyclic(), Block(), to=pr)
    _fill(s, rng)
    with s.loop(2):
        v[1:-1, 1:-1] = 0.25 * (u[:-2, 1:-1] + u[2:, 1:-1]
                                + u[1:-1, :-2] + u[1:-1, 2:])
        u[1:-1, 1:-1] = v[1:-1, 1:-1]
    return s


def _collapsed_2d(rng, **kw) -> Session:
    s = Session(4, **kw)
    pr = s.processors("PR", 4)
    a = s.array("A", 64, 32).distribute(Block(), Collapsed(), to=pr)
    b = s.array("B", 64, 32).distribute(Collapsed(), Cyclic(), to=pr)
    _fill(s, rng)
    b[:, 1:] = a[:, :-1] + a[:, 1:]
    a[1:, :] = b[:-1, :] * 0.5
    return s


def _redistribute(rng, **kw) -> Session:
    s = Session(4, **kw)
    pr = s.processors("PR", 4)
    a = s.array("A", 512, dynamic=True).distribute(Block(), to=pr)
    b = s.array("B", 512).distribute(Block(), to=pr)
    _fill(s, rng)
    b[1:-1] = a[:-2] + a[2:]
    a.redistribute(Cyclic(4), to=pr)
    b[1:-1] = b[1:-1] + a[1:-1]
    a.redistribute(Block(), to=pr)
    a[:] = b * 0.5
    return s


def _staggered(rng, **kw) -> Session:
    s = Session(4, **kw)
    pr = s.processors("PR", 2, 2)
    u = s.array("U", (0, 32), (1, 32))
    v = s.array("V", (1, 32), (0, 32))
    p = s.array("P", (1, 32), (1, 32))
    vienna = Block(variant=BlockVariant.VIENNA)
    for h in (u, v, p):
        h.distribute(vienna, vienna, to=pr)
    _fill(s, rng)
    p[:, :] = u[:-1, :] + u[1:, :] + v[:, :-1] + v[:, 1:]
    return s


def _vienna_align(rng, **kw) -> Session:
    s = Session(4, **kw)
    pr = s.processors("PR", 2, 2)
    p = s.array("P", 40, 40).distribute(
        Block(variant=BlockVariant.VIENNA),
        Block(variant=BlockVariant.VIENNA), to=pr)
    q = s.array("Q", 20, 20).align(p, lambda I, J: (2 * I, 2 * J - 1))
    _fill(s, rng)
    q[:, :] = p[1::2, ::2] * 0.5
    p[1::2, ::2] = q + 1.0
    return s


def _multigrid(rng, **kw) -> Session:
    s = multigrid_session(32, 2, 2, cycles=1, **kw)
    _fill(s, rng)
    return s


def _auto_jacobi(rng, **kw) -> Session:
    if "opt" in kw:
        kw = dict(kw, opt="auto")
    s = imbalanced_jacobi_session(48, 4, iters=6, **kw)
    _fill(s, rng)
    return s


@dataclass(frozen=True)
class Program:
    """One corpus entry: a name and a builder taking ``(rng, **session
    kwargs)`` that returns a Session with the program recorded."""

    name: str
    build: Callable[..., Session]


PROGRAMS: tuple[Program, ...] = (
    Program("block_shift", _block_shift),
    Program("cyclic_k", _cyclic_k),
    Program("general_block", _general_block),
    Program("align_stride", _align_stride),
    Program("block_cyclic_2d", _block_cyclic_2d),
    Program("collapsed_2d", _collapsed_2d),
    Program("redistribute", _redistribute),
    Program("staggered", _staggered),
    Program("vienna_align", _vienna_align),
    Program("multigrid", _multigrid),
    Program("auto_jacobi", _auto_jacobi),
)
BY_NAME = {p.name: p for p in PROGRAMS}
#: the directive-language program's corpus name
HPF_NAME = "jacobi_do_hpf"


def draw(seed: int) -> list[str]:
    """The corpus order for ``seed``: every program, shuffled."""
    names = [p.name for p in PROGRAMS] + [HPF_NAME]
    order = np.random.default_rng([seed, 1]).permutation(len(names))
    return [names[k] for k in order]


def program_rng(seed: int, name: str) -> np.random.Generator:
    """The data generator of one program under one seed."""
    return np.random.default_rng([seed, 2, sum(map(ord, name)), len(name)])


def hpf_source() -> str:
    with open(HPF_FILE, encoding="utf-8") as fh:
        return fh.read()


def arrays_of(ds) -> dict[str, np.ndarray]:
    return {name: arr.data.copy() for name, arr in sorted(ds.arrays.items())
            if arr.is_allocated}


def reference_arrays(seed: int) -> dict[str, dict[str, np.ndarray]]:
    """Every program's final arrays under the sequential reference."""
    out = {}
    for prog in PROGRAMS:
        s = prog.build(program_rng(seed, prog.name), machine=False)
        s.run()
        out[prog.name] = arrays_of(s.ds)
    analyzer = Analyzer(HPF_PROCESSORS, inputs={"N": HPF_N})
    analyzer.run(hpf_source())
    out[HPF_NAME] = arrays_of(analyzer.ds)
    return out
