"""Benchmark inputs, made from the workload seed.

Every corpus comes from ``idpskit.simulate``. Its SHA-256 is printed with
the results, and a pinned fingerprint of the generator is checked first,
so a change to the generator cannot silently change the workload.
"""

import hashlib
import random

from idpskit.simulate import generate_lines

CORPUS_RECORDS = 50_000

# SHA-256 of the first 2000 records of seed 0, newline-terminated.
GENERATOR_FINGERPRINT = (
    2_000, 0, "ae3087f60b18b18f553a18d4185e8f949d8406bf62a0587cc08c2056503c7a28")

# The detect stream: most lines labeled, some unlabeled, a few malformed.
# Nothing in the program or its paper fixes this mix; it is the benchmark's
# choice. Measured in-process on one core of a 2-core x86_64 host, detect's
# engine spends about 68 us on a labeled line, 57 us on an unlabeled one
# and 6-10 us on a malformed one, which fails before scaling and forward.
# At these shares the error path is about 0.3% of the engine's time.
# Against them, the engine's records/s moves by -5% and +15% at
# UNLABELED_SHARE 0 and 1, and by -2% and +8% at MALFORMED_SHARE 0 and
# 0.10: the well-formed path, which batching would change, sets
# records_per_s.
UNLABELED_SHARE = 0.30
MALFORMED_SHARE = 0.02
CAUSES = ("field_count", "not_a_number", "unknown_symbol")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_generator() -> str | None:
    """Return an error message if the generator no longer makes the pinned corpus."""
    n, seed, expected = GENERATOR_FINGERPRINT
    got = sha256_text("".join(line + "\n" for line in generate_lines(n, seed)))
    if got != expected:
        return (f"idpskit.simulate changed: generate_lines({n}, {seed}) hashes "
                f"to {got}, the benchmark pins {expected}")
    return None


def corpus_lines(seed: int, n: int = CORPUS_RECORDS) -> list:
    """n labeled 42-field record lines, the same for the same seed."""
    return list(generate_lines(n, seed))


def write_lines(path, lines) -> str:
    """Write newline-terminated lines; return the file's SHA-256."""
    text = "".join(line + "\n" for line in lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return sha256_text(text)


def strip_label(line: str) -> str:
    return line.rsplit(",", 1)[0]


def detect_stream(lines, seed: int):
    """Mix labeled, unlabeled and malformed lines.

    Returns (lines, causes): causes[i] names what was corrupted in line i,
    or is None for a well-formed line. A malformed line has the wrong field
    count, a non-number in a continuous field, or an unknown protocol.
    """
    rng = random.Random(f"perfbench-detect-{seed}")
    out, causes = [], []
    for line in lines:
        fields = line.split(",")
        if rng.random() < UNLABELED_SHARE:
            fields.pop()
        cause = None
        if rng.random() < MALFORMED_SHARE:
            cause = CAUSES[rng.randrange(len(CAUSES))]
            if cause == "field_count":
                fields = fields[:30]
            elif cause == "not_a_number":
                fields[0] = "1x"  # duration
            else:
                fields[1] = "xtp"  # protocol_type
        out.append(",".join(fields))
        causes.append(cause)
    return out, causes

