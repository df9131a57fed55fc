"""Seeded input generators for the three benchmark workloads.

Every generator takes a ``random.Random`` and a size scale and returns a
list of ``(name, data)`` pairs.  The same seed and scale always give the
same bytes; nothing here reads a file, so editing the repository's docs
never changes a workload.  ``scale`` shrinks inputs for the smoke test;
the benchmark itself always runs at scale 1.
"""

import random

# Size of each dense and positional input.  1 MiB inputs were tried: one
# 1 MiB compress call took from 2 to 4.5 s on a 2-core shared machine, so
# a 30-second run held two passes and its median was not steady.
BLOCK = 256 * 1024

# About 200 common English words, most frequent first.  Text draws from
# them with Zipf weights (1 / rank), which gives the skewed letter and
# word statistics of prose without depending on any document.
WORDS = """
the of and to a in is it you that he was for on are with as his they be at
one have this from or had by hot word but what some we can out other were
all there when up use your how said an each she which do their time if will
way about many then them write would like so these her long make thing see
him two has look more day could go come did number sound no most people my
over know water than call first who may down side been now find any new work
part take get place made live where after back little only round man year
came show every good me give our under name very through just form sentence
great think say help low line differ turn cause much mean before move right
boy old too same tell does set three want air well also play small end put
home read hand port large spell add even land here must big high such follow
act why ask men change went light kind off need house picture try us again
animal point mother world near build self earth father head stand own page
should country found answer school grow study still learn plant cover food
sun four between state keep eye never last let thought city tree cross farm
hard start might story saw far sea draw left late run while press close night
real life few north open seem together next white children begin got walk
example ease paper group always music those both mark often letter until mile
river car feet care second book carry took science eat room friend began idea
fish mountain stop once base hear horse cut sure watch color face wood main
""".split()

_WEIGHTS = [1.0 / (rank + 1) for rank in range(len(WORDS))]


def english_text(rng: random.Random, n: int) -> bytes:
    """Prose-like ASCII: capitalised sentences, commas, paragraph breaks."""
    out: list[str] = []
    size = 0
    while size < n:
        words = rng.choices(WORDS, _WEIGHTS, k=rng.randrange(4, 19))
        words[0] = words[0].capitalize()
        if len(words) > 8 and rng.random() < 0.5:
            words[rng.randrange(2, len(words) - 2)] += ","
        sentence = " ".join(words) + (".\n\n" if rng.random() < 0.15 else ". ")
        out.append(sentence)
        size += len(sentence)
    return "".join(out).encode("ascii")[:n]


def alphabet_bytes(rng: random.Random, n: int, alphabet: bytes) -> bytes:
    """Bytes drawn uniformly from ``alphabet``."""
    return bytes(rng.choices(alphabet, k=n))


def periodic(rng: random.Random, n: int, period: int, defect_every: int) -> bytes:
    """A unit of ``period`` distinct bytes repeated, one defect per ``defect_every`` bytes.

    Distinct unit bytes make every circle exactly one period, so runs are
    as long as the data allows and hit the 127-circle cap.  A defect
    overwrites one byte with another byte of the unit.  A defect byte from
    outside the unit would change the workload's character: a few of them
    leave one byte per circle literal for the rest of the input, which
    roughly halves the factor and varies widely with the seed.  The
    ``small`` workload keeps such defects, as the acceptance suite does.
    """
    unit = bytes(rng.sample(range(256), period))
    data = bytearray((unit * (n // period + 1))[:n])
    for _ in range(n // defect_every):
        data[rng.randrange(n)] = rng.choice(unit)
    return bytes(data)


def dense(rng: random.Random, scale: float = 1.0) -> list[tuple[str, bytes]]:
    """Text, a uniform 4-letter alphabet and uniform random bytes, 256 KiB each."""
    n = max(1, int(BLOCK * scale))
    return [
        ("text", english_text(rng, n)),
        ("acgt", alphabet_bytes(rng, n, b"ACGT")),
        ("random", rng.randbytes(n)),
    ]


def positional(rng: random.Random, scale: float = 1.0) -> list[tuple[str, bytes]]:
    """256 KiB of periodic data (periods 1-16, sparse defects) and 256 KiB of zeros."""
    n = max(16, int(BLOCK * scale))
    segment = n // 16
    body = b"".join(periodic(rng, segment, period, 4096) for period in range(1, 17))
    return [("periodic", body), ("zeros", bytes(n))]


SMALL_PER_FAMILY = 250
SMALL_MAX = 4096


def small_lengths(count: int, scale: float) -> list[int]:
    """Fixed lengths from 0 to ``SMALL_MAX``, skewed short (cubic spacing).

    The lengths do not depend on the seed, so the amount of work in a pass
    is the same for every seed; only the content varies.
    """
    top = max(1, int(SMALL_MAX * scale))
    return [int(top * (k / (count - 1)) ** 3) for k in range(count)]


ALPHABET_SIZES = (1, 2, 3, 4, 8, 16, 32)


def small(rng: random.Random, scale: float = 1.0) -> list[tuple[str, bytes]]:
    """1,000 inputs of 0-4 KiB from the acceptance suite's four families.

    Families: uniform random bytes, a small random alphabet (1-32 letters),
    a unit of 1-16 distinct random bytes repeated with 0-3 random-valued
    defects,
    and English text.  Alphabet sizes, unit lengths and defect counts
    cycle through their ranges instead of being drawn, so that, like the
    lengths, they are the same for every seed.
    """
    lengths = small_lengths(SMALL_PER_FAMILY, scale)
    inputs: list[tuple[str, bytes]] = []
    for n in lengths:
        inputs.append(("uniform", rng.randbytes(n)))
    for k, n in enumerate(lengths):
        alphabet = rng.randbytes(ALPHABET_SIZES[k % len(ALPHABET_SIZES)])
        inputs.append(("alphabet", alphabet_bytes(rng, n, alphabet)))
    for k, n in enumerate(lengths):
        unit = bytes(rng.sample(range(256), 1 + k % 16))
        data = bytearray((unit * (n // len(unit) + 1))[:n])
        for _ in range(k % 4 if n else 0):
            data[rng.randrange(n)] = rng.randrange(256)
        inputs.append(("periodic", bytes(data)))
    for n in lengths:
        inputs.append(("text", english_text(rng, n)))
    rng.shuffle(inputs)
    return inputs


GENERATORS = {"dense": dense, "positional": positional, "small": small}


def generate(workload: str, seed: int, scale: float = 1.0) -> list[tuple[str, bytes]]:
    """The inputs of ``workload`` for ``seed``, in the order they are run."""
    return GENERATORS[workload](random.Random(f"ccz-bench/{workload}/{seed}"), scale)
