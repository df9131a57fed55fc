"""Independent reference implementations used to cross-check the codec.

Everything here is deliberately written against the documented behaviour,
not by calling into the library's own machinery: the decoder below is the
literal one-entry-at-a-time scan, the delta resolver is a fresh
implementation of the reference rule, and the generators build the input
families the acceptance suite runs over.  Brute force over clarity.
"""

import random

from ccz.container import parse


class RefEntry:
    def __init__(self, ch, start, count):
        self.ch = ch
        self.start = start
        self.count = count
        self.remaining = count
        self.consumed_at = 0


def ref_undo_delta(entries):
    """Resolve parsed entries to absolute (ch, start, count) triples."""
    base = reach = 0
    out = []
    for e in entries:
        if e.count == 0:
            base += e.delta
            if reach < base:
                reach = base
            continue
        start = base + e.delta
        out.append((e.ch, start, e.count))
        if start + e.count > reach:
            base, reach = start, start + e.count
    return out


def ref_decode(archive):
    """Spec-literal decode: per-circle forward scan with a prevpos marker.

    Returns (output, matches, occurrences) where ``matches`` lists, per
    circle, the live-entry indices taken in order, and ``occurrences`` maps
    entry index -> {circle: output offset} for the non-crossing check.
    """
    parts = parse(archive)
    entries = [RefEntry(ch, start, count) for ch, start, count in ref_undo_delta(parts.entries)]

    out = bytearray()
    li = 0
    r = 1
    prevpos = -1
    seen = set()
    matches = [[]]
    occurrences = {i: {} for i in range(len(entries))}

    def find(lo):
        for j in range(lo, len(entries)):
            e = entries[j]
            if e.remaining and e.start <= r <= e.start + e.count - 1 and e.consumed_at < r:
                return j
        return None

    for flag in parts.flags:
        if not flag:
            if li == len(parts.literals):
                raise AssertionError("literal stream exhausted")
            value = parts.literals[li]
            li += 1
            if value in seen:
                r += 1
                prevpos = -1
                seen = set()
                matches.append([])
        else:
            j = find(prevpos + 1)
            if j is None:
                r += 1
                prevpos = -1
                seen = set()
                matches.append([])
                j = find(0)
                if j is None:
                    raise AssertionError("no admissible entry after circle advance")
            e = entries[j]
            value = e.ch
            if value in seen:
                raise AssertionError("matched entry duplicates a circle byte")
            e.remaining -= 1
            e.consumed_at = r
            occurrences[j][r] = len(out)
            matches[-1].append(j)
            prevpos = j
        out.append(value)
        seen.add(value)

    if li != len(parts.literals):
        raise AssertionError("unused literals")
    if any(e.remaining for e in entries):
        raise AssertionError("entries left unconsumed")
    return bytes(out), matches, occurrences


def ref_pack_flags(bits):
    """Pack 0/1 flags one bit at a time: bit i is bit 7-(i%8) of byte i//8, padding 0."""
    out = bytearray((len(bits) + 7) // 8)
    for i, bit in enumerate(bits):
        if bit:
            out[i // 8] |= 0x80 >> (i % 8)
    return bytes(out)


def ref_unpack_flags(packed, n):
    """The first ``n`` bits of ``packed``, MSB-first, one bit at a time."""
    return [packed[i // 8] >> (7 - i % 8) & 1 for i in range(n)]


def strictly_increasing(values):
    return all(a < b for a, b in zip(values, values[1:]))


def check_non_crossing(occurrences):
    """Entries earlier in serialized order must sit earlier in every shared circle."""
    idxs = sorted(occurrences)
    for a in range(len(idxs)):
        for b in range(a + 1, len(idxs)):
            occ_a, occ_b = occurrences[idxs[a]], occurrences[idxs[b]]
            for circle in occ_a.keys() & occ_b.keys():
                if occ_a[circle] >= occ_b[circle]:
                    return False
    return True


def redundancy_violations(parsed_entries):
    """Criterion-4 re-removal check over the final entry list.

    Returns human-readable problems: a count in {0 real, 1}, or a retained
    count-2 entry.  A two-circle run costs 3 bytes to cover 2, and rebase
    entries bridge any forward gap, so no count-2 entry is ever needed.
    """
    problems = []
    for i, e in enumerate(parsed_entries):
        if e.count == 1:
            problems.append(f"entry {i} has count 1")
        if e.count == 0 and e.ch != 0:
            problems.append(f"entry {i} count 0 but not a rebase")
        if e.count == 2:
            problems.append(f"count-2 entry {i} retained")
    return problems


_WORDS = (
    b"the quick brown fox jumps over the lazy dog while zeros and ones "
    b"circle around a compression experiment in plain english text "
)


def generate_corpus(seed=20260810, target=10000):
    """Deterministic mixed corpus: uniform, small-alphabet, periodic, text."""
    rng = random.Random(seed)
    inputs = []

    def lengths(n_short, n_long):
        out = [rng.randrange(0, 513) for _ in range(n_short)]
        out += [rng.randrange(513, 4097) for _ in range(n_long)]
        return out

    for n in lengths(2460, 60):
        inputs.append(rng.randbytes(n))
    for n in lengths(2900, 80):
        k = rng.choice((1, 2, 3, 4, 8, 16, 32))
        alphabet = bytes(rng.randrange(256) for _ in range(k))
        inputs.append(bytes(rng.choice(alphabet) for _ in range(n)))
    for n in lengths(2400, 60):
        period = rng.randrange(1, 17)
        unit = rng.randbytes(period)
        data = bytearray((unit * (n // period + 1))[:n])
        for _ in range(rng.randrange(0, 4)):  # sprinkle defects into the pattern
            if data:
                data[rng.randrange(len(data))] = rng.randrange(256)
        inputs.append(bytes(data))
    for n in lengths(1900, 50):
        start = rng.randrange(len(_WORDS))
        text = (_WORDS * (2 + (start + n) // len(_WORDS)))[start:start + n]
        inputs.append(text)

    inputs += [
        b"",
        b"A",
        b"AAAA",
        b"ABC",
        b"ABABBA",
        b"THEPHONEBLAH",
        b"ABCDEFG" * 128,
        bytes(range(256)) * 4,
        bytes(range(256))[::-1] * 2,
        b"AB" * 300,
        chain_circles(300),
        chain_circles(300) + b"\xff\xff\xff",
        underflow_input(),
    ]
    while len(inputs) < target:
        inputs.append(rng.randbytes(rng.randrange(0, 64)))
    return inputs


def chain_circles(n_circles, alphabet=200, triple_circles=()):
    """Circles "x0 x1", "x1 x2", ...: every boundary byte is a two-circle run.

    Circles listed in ``triple_circles`` (1-based) additionally end with a
    0xFF byte, producing one run of 0xFF across them.
    """
    out = bytearray()
    for i in range(n_circles):
        out.append(i % alphabet)
        out.append((i + 1) % alphabet)
        if i + 1 in triple_circles:
            out.append(0xFF)
    return bytes(out)


def underflow_input():
    """Input whose run list cannot be fully delta encoded.

    Nested insertions under the 127-count cap produce serialized order
    [w1, w2, x, f, e] where the e run starts 250 circles behind the
    reference in force, so the encoder must fall back to literals for it.
    """
    W, E, F, X = 0x77, 0x65, 0x66, 0x78
    pool = iter(range(1000))

    def p():
        return next(pool) % 64

    circles = []
    circles += [[W, E]] * 125
    circles += [[W, F, E], [W, F, E]]
    circles += [[W, F, p()] for _ in range(123)]
    circles += [[W, X, F, p()], [W, X, F, p()]]
    circles += [[W, X, p()], [W, X, p()]]
    circles += [[X, p()]]
    return bytes(b for circle in circles for b in circle)
