"""Seeded synthetic program traces, and a reference direct-mapped model.

Each trace is the reference stream of a small made-up program: functions
of random length placed at random addresses in a code region, run in
phases that loop over a few hot functions, with loads and stores to a
stack frame, to globals and along arrays. Random placement gives the
loop-level and between-loop conflicts dynamic exclusion is about, and the
code region size sets the footprint against the simulated cache sizes.

The same (seed, name) always gives the same bytes. The length is fixed
up to one function call, so every seed costs the simulator the same work.
"""

import random
import struct

RECORD = struct.Struct("<QBB")  # lackey layout: addr u64, kind u8, size u8
IFETCH, LOAD, STORE = 0, 1, 2
LETTERS = "ils"

CODE_BASE = 0x400000
STACK_BASE = 0x7FFF0000
GLOBAL_BASE = 0x10000000
ARRAY_BASE = 0x20000000


class Trace:
    """One generated trace in both interchange formats."""

    def __init__(self, name, lackey, text, refs):
        self.name = name
        self.lackey = lackey  # bytes, lackey binary layout
        self.text = text      # str, the text format
        self.refs = refs

    def addresses(self):
        return [addr for addr, _, _ in RECORD.iter_unpack(self.lackey)]


class _Piece:
    """A fixed run of references, pre-rendered in both formats."""

    def __init__(self, refs):
        self.lackey = b"".join(RECORD.pack(a, k, 4) for a, k in refs)
        self.text = "".join(f"{LETTERS[k]} {a:x} 4\n" for a, k in refs)
        self.count = len(refs)


def _function_body(rng, base, length):
    """Straight-line code with an optional inner loop and data refs."""
    frame = STACK_BASE + rng.randrange(0, 4096, 64)
    globals_ = [GLOBAL_BASE + 4 * rng.randrange(4096) for _ in range(4)]
    code = []
    for i in range(length):
        pc = base + 4 * i
        code.append((pc, IFETCH))
        if i % 5 == 2:
            kind = LOAD if rng.random() < 0.7 else STORE
            addr = (frame + 4 * rng.randrange(16) if rng.random() < 0.6
                    else rng.choice(globals_))
            code.append((addr, kind))
    if length >= 16 and rng.random() < 0.5:
        start = rng.randrange(0, length // 2)
        stop = rng.randrange(start + 4, length)
        # The instruction slots [start, stop) repeat; data refs ride along.
        lo = next(j for j, (a, k) in enumerate(code)
                  if k == IFETCH and a == base + 4 * start)
        hi = next(j for j, (a, k) in enumerate(code)
                  if k == IFETCH and a == base + 4 * stop)
        code = code[:hi] + code[lo:hi] * rng.randint(1, 6) + code[hi:]
    return code


def _array_chunks(rng, kernel_pc, count=8, elements=48):
    """Loop-kernel pieces that walk one array, a chunk per call."""
    array = ARRAY_BASE + rng.randrange(16) * 0x100000
    span = rng.choice((8, 16, 32, 64)) * 1024
    stride = rng.choice((4, 8, 16))
    chunks = []
    for c in range(count):
        refs = []
        for j in range(elements):
            offset = ((c * elements + j) * stride) % span
            refs += [(kernel_pc, IFETCH), (kernel_pc + 4, IFETCH),
                     (array + offset, LOAD), (kernel_pc + 8, IFETCH)]
        chunks.append(_Piece(refs))
    return chunks


def generate(seed, name, refs, code_kb, functions=64):
    """The trace @p name of @p seed: about @p refs references.

    Many short phases rather than a few long ones keep each trace's
    character, and so the simulator's cost, close to the same from one
    seed to the next.
    """
    rng = random.Random(f"{seed}/{name}")
    region = code_kb * 1024
    bodies, walkers = [], []
    for _ in range(functions):
        length = max(8, min(int(24 * rng.lognormvariate(0, 0.6)), 240))
        base = CODE_BASE + rng.randrange(0, region - 4 * length, 16)
        bodies.append(_Piece(_function_body(rng, base, length)))
        walkers.append(_array_chunks(rng, base) if rng.random() < 0.3
                       else None)

    pieces, count, calls = [], 0, [0] * functions
    while count < refs:
        hot = rng.sample(range(functions), rng.randint(2, 5))
        for _ in range(rng.randint(4, 24)):
            callees = hot if rng.random() < 0.9 else [rng.randrange(functions)]
            for f in callees:
                pieces.append(bodies[f])
                count += bodies[f].count
                if walkers[f]:
                    chunk = walkers[f][calls[f] % len(walkers[f])]
                    pieces.append(chunk)
                    count += chunk.count
                calls[f] += 1
            if count >= refs:
                break
    return Trace(name, b"".join(p.lackey for p in pieces),
                 "".join(p.text for p in pieces), count)


def direct_mapped_misses(addresses, size_bytes, line_bytes):
    """Misses of an allocate-on-miss direct-mapped cache."""
    sets = size_bytes // line_bytes
    shift = line_bytes.bit_length() - 1
    tags = [None] * sets
    misses = 0
    for addr in addresses:
        block = addr >> shift
        index = block & (sets - 1)
        if tags[index] != block:
            tags[index] = block
            misses += 1
    return misses
