"""Interaction tensor containers, permutational symmetry, and text file I/O.

A :class:`TensorSet` holds the scalar, one-body and two-body interaction
coefficients of a single Hamiltonian at a single geometry, in Mulliken
``(pq|rs)`` index convention.  Bare tensors are closed under the eight-fold
permutation group

    (pq|rs) = (qp|rs) = (pq|sr) = (qp|sr) = (rs|pq) = (sr|pq) = (rs|qp) = (sr|qp)

while downfolded ("effective") tensors only retain the four-fold subgroup

    (pq|rs) = (qp|sr) = (rs|pq) = (sr|qp).

Orbital indices are 0-based everywhere in memory; the text formats are
1-based, and the conversion happens in the readers/writers.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Kind",
    "Symmetry",
    "TensorSet",
    "GeometrySeries",
    "TensorFormatError",
    "SymmetryViolationError",
    "canonical_index",
    "orbit",
    "OrbitTable",
    "orbit_table",
    "two_body_representatives",
    "one_body_representatives",
    "nonsymmetric_unit",
    "one_body_unit",
    "load_fcidump",
    "save_canonical",
    "load_canonical",
    "save_series",
    "load_series",
]

FORMAT_TAG = "tanfold-tensor v1"

#: Conflicting duplicate entries in a file are rejected beyond this spread.
DUPLICATE_TOL = 1e-12

#: Symmetry violations of in-memory tensors are rejected beyond this spread;
#: anything below is removed exactly by orbit averaging.
SYMMETRY_TOL = 1e-10


class TensorFormatError(ValueError):
    """Raised for malformed, inconsistent, or mislabelled tensor files."""


class SymmetryViolationError(ValueError):
    """Raised when a tensor violates its declared permutational symmetry."""


class Kind(enum.Enum):
    """Which Hamiltonian a tensor set belongs to."""

    BARE = "bare"
    EFFECTIVE = "effective"


class Symmetry(enum.Enum):
    """Two-body index permutation group."""

    EIGHT_FOLD = "eight-fold"
    FOUR_FOLD = "four-fold"

    @property
    def permutations(self) -> tuple[tuple[int, int, int, int], ...]:
        return _PERMS[self]


# Index permutations written as positions into the tuple (p, q, r, s).
_PERMS = {
    Symmetry.EIGHT_FOLD: (
        (0, 1, 2, 3),
        (1, 0, 2, 3),
        (0, 1, 3, 2),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 0, 1),
        (2, 3, 1, 0),
        (3, 2, 1, 0),
    ),
    Symmetry.FOUR_FOLD: (
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    ),
}


def symmetry_for(kind: Kind) -> Symmetry:
    """Two-body symmetry group implied by a tensor kind."""
    return Symmetry.EIGHT_FOLD if kind is Kind.BARE else Symmetry.FOUR_FOLD


def orbit(index: tuple[int, int, int, int], symmetry: Symmetry) -> tuple[tuple[int, int, int, int], ...]:
    """All distinct images of ``index`` under the symmetry group, sorted."""
    p, q, r, s = index
    t = (p, q, r, s)
    members = {tuple(t[k] for k in perm) for perm in symmetry.permutations}
    return tuple(sorted(members))


def canonical_index(
    p: int,
    q: int,
    r: int,
    s: int,
    symmetry: Symmetry,
    n_orb: int | None = None,
) -> tuple[int, int, int, int]:
    """Lexicographically smallest member of the orbit of ``(p, q, r, s)``.

    Two indices map to the same canonical tuple exactly when they are related
    by the symmetry group.  If ``n_orb`` is given, indices are validated
    against ``0 <= i < n_orb``.
    """
    idx = (p, q, r, s)
    if n_orb is not None:
        for i in idx:
            if not 0 <= i < n_orb:
                raise IndexError(f"orbital index {i} out of range for n_orb={n_orb}")
    return orbit(idx, symmetry)[0]


@dataclass(frozen=True, eq=False)
class OrbitTable:
    """Orbit structure of every index tuple of one rank under one group.

    A flat index is the row-major offset of a tuple in the
    ``(n_orb,) * rank`` array, so flat order is lexicographic order and each
    orbit's representative is its smallest flat member.  The arrays are
    read-only: tables are shared through the cache of :func:`orbit_table`.
    """

    reps: np.ndarray      # (R, rank) representatives, sorted
    rep_flat: np.ndarray  # (R,) their flat indices
    members: np.ndarray   # (R, group order) flat image of each rep under each permutation
    sizes: np.ndarray     # (R,) distinct members per orbit
    orbit_of: np.ndarray  # (n_orb,) * rank: orbit id of every tuple

    def expand(self, values) -> np.ndarray:
        """The array holding ``values[i]`` on every member of orbit ``i``."""
        return np.asarray(values, dtype=np.float64)[self.orbit_of]


#: the one-body group (p, q) -> (q, p)
_PAIR_PERMUTATIONS = ((0, 1), (1, 0))


@functools.lru_cache(maxsize=None)
def _build_table(n_orb: int, perms: tuple[tuple[int, ...], ...]) -> OrbitTable:
    rank = len(perms[0])
    shape = (n_orb,) * rank
    idx = np.indices(shape).reshape(rank, -1)
    strides = n_orb ** np.arange(rank - 1, -1, -1)
    images = np.stack([strides @ idx[list(perm)] for perm in perms], axis=1)
    canon = images.min(axis=1)
    rep_flat = np.flatnonzero(canon == np.arange(canon.size))
    members = images[rep_flat]
    sizes = 1 + np.count_nonzero(np.diff(np.sort(members, axis=1), axis=1), axis=1)
    table = OrbitTable(
        reps=idx[:, rep_flat].T.copy(),
        rep_flat=rep_flat,
        members=members,
        sizes=sizes,
        orbit_of=np.searchsorted(rep_flat, canon).reshape(shape),
    )
    for arr in vars(table).values():
        arr.flags.writeable = False
    return table


def orbit_table(n_orb: int, symmetry: Symmetry | None) -> OrbitTable:
    """The cached orbit table of two-body indices under ``symmetry``, or of
    one-body pairs ``(p, q) ~ (q, p)`` when ``symmetry`` is None."""
    return _build_table(n_orb, _PAIR_PERMUTATIONS if symmetry is None else symmetry.permutations)


def two_body_representatives(n_orb: int, symmetry: Symmetry) -> list[tuple[int, int, int, int]]:
    """Sorted canonical representatives, one per two-body orbit."""
    return list(map(tuple, orbit_table(n_orb, symmetry).reps.tolist()))


def one_body_representatives(n_orb: int) -> list[tuple[int, int]]:
    """Sorted canonical one-body representatives ``p <= q``."""
    return list(map(tuple, orbit_table(n_orb, None).reps.tolist()))


def _orbit_average(a: np.ndarray, symmetry: Symmetry | None, tol: float) -> np.ndarray:
    """Orbit-average ``a`` so closure under ``symmetry`` holds to the bit.

    ``symmetry`` None averages a one-body matrix over ``(p, q) ~ (q, p)``.
    Every orbit member receives the identical double (the fsum mean of the
    orbit values).  Orbit sizes divide the group order, so they are powers of
    two and re-averaging an already symmetric tensor is exact, which makes
    the operation idempotent.
    """
    table = orbit_table(a.shape[0], symmetry)
    flat = a.ravel()
    values = flat[table.members]
    lo, hi = values.min(axis=1), values.max(axis=1)
    spread = hi - lo
    bad = np.flatnonzero(spread > tol)
    if bad.size:
        i = bad[0]
        what = ("one-body tensor is not symmetric" if symmetry is None
                else f"two-body tensor violates {symmetry.value} symmetry")
        raise SymmetryViolationError(
            f"{what} at orbit of {_rep(table, i)}: spread {spread[i]:.3e} exceeds {tol:.1e}"
        )
    # the fsum mean of equal values is that value, with -0.0 turned to +0.0
    mean = lo + 0.0
    for i in np.flatnonzero(hi != lo):
        mean[i] = math.fsum(flat[np.unique(table.members[i])].tolist()) / table.sizes[i]
    return table.expand(mean)


@dataclass(frozen=True, eq=False)
class TensorSet:
    """Scalar, one-body, and two-body coefficients at one geometry.

    Construction validates shapes, finiteness, and the permutational
    symmetry implied by ``kind`` (to ``SYMMETRY_TOL``), then stores exactly
    orbit-averaged, read-only arrays.  Instances are immutable.
    """

    geometry: float
    kind: Kind
    n_orb: int
    scalar_term: float
    one_body: np.ndarray
    two_body: np.ndarray
    system: str = ""

    def __post_init__(self) -> None:
        if self.n_orb < 1:
            raise ValueError(f"n_orb must be positive, got {self.n_orb}")
        if not isinstance(self.kind, Kind):
            raise TypeError(f"kind must be a Kind, got {self.kind!r}")
        one = np.asarray(self.one_body, dtype=np.float64)
        two = np.asarray(self.two_body, dtype=np.float64)
        n = self.n_orb
        if one.shape != (n, n):
            raise ValueError(f"one_body shape {one.shape} != {(n, n)}")
        if two.shape != (n, n, n, n):
            raise ValueError(f"two_body shape {two.shape} != {(n,) * 4}")
        for name, arr in (("one_body", one), ("two_body", two)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
        if not np.isfinite(self.scalar_term):
            raise ValueError("scalar_term is not finite")
        one = _orbit_average(one, None, SYMMETRY_TOL)
        two = _orbit_average(two, self.symmetry, SYMMETRY_TOL)
        one.flags.writeable = False
        two.flags.writeable = False
        object.__setattr__(self, "geometry", float(self.geometry))
        object.__setattr__(self, "scalar_term", float(self.scalar_term))
        object.__setattr__(self, "one_body", one)
        object.__setattr__(self, "two_body", two)

    @property
    def symmetry(self) -> Symmetry:
        return symmetry_for(self.kind)

    @classmethod
    def zeros(cls, geometry: float, kind: Kind, n_orb: int, system: str = "") -> "TensorSet":
        return cls(
            geometry=geometry,
            kind=kind,
            n_orb=n_orb,
            scalar_term=0.0,
            one_body=np.zeros((n_orb, n_orb)),
            two_body=np.zeros((n_orb,) * 4),
            system=system,
        )


def nonsymmetric_unit(tset: TensorSet) -> list[tuple[tuple[int, int, int, int], float]]:
    """Two-body entries, exactly one per symmetry orbit, sorted by index."""
    table = orbit_table(tset.n_orb, tset.symmetry)
    values = tset.two_body.ravel()[table.rep_flat].tolist()
    return list(zip(map(tuple, table.reps.tolist()), values))


def one_body_unit(tset: TensorSet) -> list[tuple[tuple[int, int], float]]:
    """One-body entries ``p <= q``, sorted by index."""
    return [(pq, float(tset.one_body[pq])) for pq in one_body_representatives(tset.n_orb)]


@dataclass(frozen=True, eq=False)
class GeometrySeries:
    """All tensor sets of one system, indexed by geometry and kind."""

    system: str
    tensor_sets: tuple[TensorSet, ...]

    def __post_init__(self) -> None:
        sets = tuple(sorted(self.tensor_sets, key=lambda t: (t.geometry, t.kind.value)))
        if not sets:
            raise ValueError("a GeometrySeries needs at least one tensor set")
        n_orbs = {t.n_orb for t in sets}
        if len(n_orbs) != 1:
            raise ValueError(f"inconsistent n_orb across series: {sorted(n_orbs)}")
        seen = set()
        for t in sets:
            key = (t.geometry, t.kind)
            if key in seen:
                raise ValueError(f"duplicate tensor set for geometry {t.geometry}, kind {t.kind.value}")
            seen.add(key)
        object.__setattr__(self, "tensor_sets", sets)

    @property
    def n_orb(self) -> int:
        return self.tensor_sets[0].n_orb

    def geometries(self, kind: Kind | None = None) -> np.ndarray:
        """Strictly increasing geometries, optionally restricted to a kind."""
        vals = sorted({t.geometry for t in self.tensor_sets if kind is None or t.kind is kind})
        return np.asarray(vals, dtype=np.float64)

    def get(self, geometry: float, kind: Kind) -> TensorSet:
        for t in self.tensor_sets:
            if t.kind is kind and t.geometry == geometry:
                return t
        raise KeyError(f"no {kind.value} tensor set at geometry {geometry!r}")

    def of_kind(self, kind: Kind) -> list[TensorSet]:
        return [t for t in self.tensor_sets if t.kind is kind]


# ----------------------------------------------------------------------------
# Body lines, shared by both text formats
# ----------------------------------------------------------------------------


def _rep(table: OrbitTable, key: int) -> tuple[int, ...]:
    """The 0-based representative of orbit ``key``."""
    return tuple(table.reps[key].tolist())


def _file_index(table: OrbitTable, key: int) -> str:
    """Orbit ``key``'s representative as a file writes it: 1-based ``p q r s``."""
    rep = [i + 1 for i in _rep(table, key)]
    return " ".join(map(str, rep + [0, 0] * (len(rep) == 2)))


def _bad_index(n_orb: int, index: tuple[int, ...]) -> str:
    for i in index:
        if i > n_orb:
            return f"index {i} out of range for n_orb={n_orb}"
    return "invalid index pattern ({} {} {} {})".format(*index)


def _read_body(
    path, lines: list[str], start: int, tables: tuple[OrbitTable, OrbitTable], scalar: float | None
) -> tuple[float | None, tuple[dict[int, float], dict[int, float]]]:
    """Parse the ``value p q r s`` lines ``lines[start:]`` of a tensor file.

    Blank and ``#`` lines are skipped.  Indices are 1-based: ``0 0 0 0`` is
    the scalar term, ``p q 0 0`` a one-body entry and ``p q r s`` a two-body
    entry, orbit-reduced through ``tables`` (one-body, two-body).  Values
    must be finite.  Lines of one orbit, and scalar lines together with the
    starting ``scalar``, must agree to ``DUPLICATE_TOL``; the first value is
    kept.  Returns the scalar (None if there is none) and the
    ``{orbit id: value}`` maps of both ranks.
    """
    n = tables[0].orbit_of.shape[0]
    # one-body, two-body and scalar entries; the scalar is entry 0 of its own
    entries: tuple[dict[int, float], ...] = ({}, {}, {} if scalar is None else {0: scalar})
    for ln in range(start, len(lines)):
        tokens = lines[ln].split()
        if not tokens or tokens[0][0] == "#":
            continue
        try:
            value = float(tokens[0])
            p, q, r, s = map(int, tokens[1:])
        except ValueError as exc:
            why = exc if len(tokens) == 5 else f"expected 'value p q r s', got {lines[ln].strip()!r}"
            raise TensorFormatError(f"{path}:{ln + 1}: {why}") from exc
        if not math.isfinite(value):
            raise TensorFormatError(f"{path}:{ln + 1}: non-finite value {tokens[0]!r}")
        if 0 < r <= n and 0 < s <= n and 0 < p <= n and 0 < q <= n:
            body, key = 1, tables[1].orbit_of.item(p - 1, q - 1, r - 1, s - 1)
        elif r == s == 0 and 0 < p <= n and 0 < q <= n:
            body, key = 0, tables[0].orbit_of.item(p - 1, q - 1)
        elif p == q == r == s == 0:
            body, key = 2, 0
        else:
            raise TensorFormatError(f"{path}:{ln + 1}: {_bad_index(n, (p, q, r, s))}")
        seen = entries[body]
        if abs(seen.setdefault(key, value) - value) > DUPLICATE_TOL:
            what = "scalar term" if body == 2 else f"orbit of ({_file_index(tables[body], key)})"
            raise TensorFormatError(
                f"{path}:{ln + 1}: conflicting duplicate for the {what}: {seen[key]!r} vs {value!r}"
            )
    return entries[2].get(0), entries[:2]


def _tensor_set(tables, scalar, entries, **fields) -> TensorSet:
    """The :class:`TensorSet` of parsed body entries; absent orbits are zero."""
    arrays = []
    for table, seen in zip(tables, entries):
        values = np.zeros(table.sizes.size)
        values[list(seen)] = list(seen.values())
        arrays.append(table.expand(values))
    return TensorSet(
        scalar_term=0.0 if scalar is None else scalar, one_body=arrays[0], two_body=arrays[1], **fields
    )


# ----------------------------------------------------------------------------
# FCIDUMP-like reader
# ----------------------------------------------------------------------------

_NORB_RE = re.compile(r"NORB\s*=\s*(\d+)", re.IGNORECASE)


def load_fcidump(
    path: str | os.PathLike,
    kind: Kind,
    *,
    geometry: float = 0.0,
    system: str = "",
    expected_n_orb: int | None = None,
) -> TensorSet:
    """Read an FCIDUMP-like text file into a fully expanded :class:`TensorSet`.

    The file is a ``&FCI NORB=...`` header terminated by ``&END`` (or a bare
    ``/``), followed by ``value p q r s`` lines with 1-based indices.
    ``(p q 0 0)`` encodes one-body entries and the all-zero index the scalar
    term (zero when absent).  Blank and ``#`` lines are skipped and values
    must be finite.  Entries are expanded under the symmetry group of
    ``kind``; duplicate entries of one orbit must agree to ``DUPLICATE_TOL``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    n_orb = None
    data_start = None
    for ln, line in enumerate(lines):
        stripped = line.strip()
        m = _NORB_RE.search(stripped)
        if m:
            n_orb = int(m.group(1))
        if "&END" in stripped.upper() or stripped == "/":
            data_start = ln + 1
            break
    if n_orb is None or data_start is None:
        raise TensorFormatError(f"{path}: missing FCIDUMP header with NORB and &END terminator")
    if n_orb < 1:
        raise TensorFormatError(f"{path}: invalid NORB={n_orb}")
    if expected_n_orb is not None and n_orb != expected_n_orb:
        raise TensorFormatError(f"{path}: NORB={n_orb} does not match expected {expected_n_orb}")

    tables = (orbit_table(n_orb, None), orbit_table(n_orb, symmetry_for(kind)))
    scalar, entries = _read_body(path, lines, data_start, tables, None)
    return _tensor_set(tables, scalar, entries, geometry=geometry, kind=kind, n_orb=n_orb, system=system)


# ----------------------------------------------------------------------------
# Canonical text format
# ----------------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Decimal text with enough digits to round-trip a double exactly."""
    return format(value, ".17g")


def save_canonical(path: str | os.PathLike, tset: TensorSet) -> None:
    """Write a tensor set as self-describing text, one orbit entry per line.

    ``load_canonical(save_canonical(...))`` reproduces the tensor set bit for
    bit.  Entries are 1-based ``value p q r s`` lines (one-body as
    ``value p q 0 0``), sorted by canonical index.
    """
    lines = [
        f"# {FORMAT_TAG}",
        f"# system: {tset.system}",
        f"# geometry: {_fmt(tset.geometry)}",
        f"# kind: {tset.kind.value}",
        f"# n_orb: {tset.n_orb}",
        f"# scalar_term: {_fmt(tset.scalar_term)}",
    ]
    one = orbit_table(tset.n_orb, None)
    for (p, q), v in zip((one.reps + 1).tolist(), tset.one_body.ravel()[one.rep_flat].tolist()):
        lines.append(f"{v:.17g} {p} {q} 0 0")
    two = orbit_table(tset.n_orb, tset.symmetry)
    for (p, q, r, s), v in zip((two.reps + 1).tolist(), tset.two_body.ravel()[two.rep_flat].tolist()):
        lines.append(f"{v:.17g} {p} {q} {r} {s}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_canonical(path: str | os.PathLike) -> TensorSet:
    """Read a file written by :func:`save_canonical`.

    The ``#`` header lines come first; the body follows the rules of
    :func:`load_fcidump`, with the header's ``scalar_term`` as the scalar a
    ``0 0 0 0`` line must agree with.  Every orbit must be present.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != f"# {FORMAT_TAG}":
        raise TensorFormatError(f"{path}: missing or mismatched format tag (expected '{FORMAT_TAG}')")

    header: dict[str, str] = {}
    body_start = 1
    for ln in range(1, len(lines)):
        stripped = lines[ln].strip()
        if stripped.startswith("#"):
            key, _, value = stripped[1:].partition(":")
            header[key.strip()] = value.strip()
            body_start = ln + 1
        else:
            break

    try:
        system = header["system"]
        geometry = float(header["geometry"])
        kind = Kind(header["kind"])
        n_orb = int(header["n_orb"])
        scalar = float(header["scalar_term"])
        if n_orb < 1 or not math.isfinite(geometry) or not math.isfinite(scalar):
            raise ValueError("n_orb must be positive, geometry and scalar_term finite")
    except (KeyError, ValueError) as exc:
        raise TensorFormatError(f"{path}: bad or missing header field ({exc})") from exc

    tables = (orbit_table(n_orb, None), orbit_table(n_orb, symmetry_for(kind)))
    scalar, entries = _read_body(path, lines, body_start, tables, scalar)
    # the writer emits every orbit, zeros included
    for body, table, seen in zip((1, 2), tables, entries):
        if len(seen) < table.sizes.size:
            first = next(i for i in range(table.sizes.size) if i not in seen)
            raise TensorFormatError(
                f"{path}: truncated file, {len(seen)} of {table.sizes.size} {body}-body "
                f"orbits present; first missing: ({_file_index(table, first)})"
            )
    return _tensor_set(tables, scalar, entries, geometry=geometry, kind=kind, n_orb=n_orb, system=system)


def save_series(series: GeometrySeries, directory: str | os.PathLike) -> list[str]:
    """Write every tensor set of a series into ``directory``.

    File names are ``{kind}_{index:04d}.tensor`` in geometry order; the
    geometry itself lives in each file header.  Returns the paths written.
    """
    os.makedirs(directory, exist_ok=True)
    paths = []
    for kind in Kind:
        for i, tset in enumerate(series.of_kind(kind)):
            path = os.path.join(directory, f"{kind.value}_{i:04d}.tensor")
            save_canonical(path, tset)
            paths.append(path)
    return paths


def load_series(directory: str | os.PathLike) -> GeometrySeries:
    """Rebuild a series from a directory written by :func:`save_series`."""
    names = sorted(n for n in os.listdir(directory) if n.endswith(".tensor"))
    if not names:
        raise TensorFormatError(f"{directory}: no .tensor files found")
    paths = [os.path.join(directory, n) for n in names]
    sets = [load_canonical(p) for p in paths]
    first = {}
    for path, t in zip(paths, sets):
        other = first.setdefault((t.geometry, t.kind), path)
        if other != path:
            raise TensorFormatError(
                f"{other} and {path} both hold geometry {t.geometry}, kind {t.kind.value}"
            )
    systems = {t.system for t in sets}
    if len(systems) != 1:
        raise TensorFormatError(f"{directory}: inconsistent system labels {sorted(systems)}")
    return GeometrySeries(system=systems.pop(), tensor_sets=tuple(sets))
