"""Small shared helpers: seeding, integer checks, crossings, hashing, stable float
text and the CSV table layout."""

import hashlib

import numpy as np

from .errors import ContractError

# kHz (technical frequency) to angular frequency in rad/us.
KHZ_TO_RAD_PER_US = 2.0 * np.pi * 1e-3


def realization_rng(master_seed, k):
    """Deterministic per-realization generator derived from (master_seed, k)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(master_seed), int(k))))


def require_int(value, name):
    """`value` if it is an integer, a numpy integer included, else a
    ContractError naming `name`; a bool is no integer here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    return value


def first_crossing(times, values, level):
    """Time of the first downward crossing of `values` through `level`.

    Linear interpolation between samples of 1-D arrays of one length, which
    callers check; an exact hit takes the earlier sample time. Returns None
    when the series never reaches the level.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    for i, v in enumerate(values):
        if v <= level:
            if i == 0:
                return float(times[0])
            v0 = values[i - 1]
            frac = (v0 - level) / (v0 - v)
            return float(times[i - 1] + frac * (times[i] - times[i - 1]))
    return None


def text_digest(text):
    """Hex digest of a text blob (config fingerprints)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def fmt(x):
    """Shortest round-trip decimal text for a float; used for CSV output."""
    return repr(float(x))


def write_csv(fh, meta, header, rows):
    """Write a table to the text file `fh`: a `# key=value` line for each item
    of `meta`, the `header` line, then each row of strings joined by commas."""
    fh.writelines(f"# {key}={value}\n" for key, value in meta.items())
    fh.write(header + "\n")
    fh.writelines(",".join(row) + "\n" for row in rows)
