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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .atomic import replacing

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
        self._store(_orbit_average(one, None, SYMMETRY_TOL),
                    _orbit_average(two, self.symmetry, SYMMETRY_TOL))

    def _store(self, one: np.ndarray, two: np.ndarray) -> None:
        one.flags.writeable = False
        two.flags.writeable = False
        object.__setattr__(self, "geometry", float(self.geometry))
        object.__setattr__(self, "scalar_term", float(self.scalar_term))
        object.__setattr__(self, "one_body", one)
        object.__setattr__(self, "two_body", two)

    @classmethod
    def _exact(cls, one_body: np.ndarray, two_body: np.ndarray, **fields) -> "TensorSet":
        """A set whose float64 arrays are exact by construction: one finite
        value per orbit of ``fields["kind"]``, expanded over the orbit, as
        the file reader and the planter build them.  The checks and the
        orbit average are skipped; only -0.0 turns to +0.0, as the average
        turns it.  The set takes the arrays over."""
        tset = cls.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(tset, name, value)
        one_body += 0.0
        two_body += 0.0
        tset._store(one_body, two_body)
        return tset

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

#: one body line, ``value p q r s``
_ROW = np.dtype([("v", "f8"), ("i", "i8", (4,))])

#: what :func:`_loadtxt` raises on a line it cannot read
_UNREADABLE = (ValueError, DeprecationWarning)


@dataclass(frozen=True, eq=False)
class _Body:
    """The body ``lines[start:]`` of one tensor file and the rules it obeys:
    ``scalar`` is the header's scalar term (None for FCIDUMP files), and a
    ``complete`` body has a line for every orbit.  ``fields`` are the
    geometry, kind, n_orb and system of the :class:`TensorSet` it makes."""

    path: str | os.PathLike
    lines: list[str]
    start: int
    scalar: float | None
    complete: bool
    fields: dict

    @property
    def tables(self) -> tuple[OrbitTable, OrbitTable]:
        n = self.fields["n_orb"]
        return orbit_table(n, None), orbit_table(n, symmetry_for(self.fields["kind"]))


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


def _loadtxt(rows: list[str]) -> np.ndarray:
    """``rows`` as one structured array of ``_ROW``."""
    if not rows:
        return np.zeros(0, _ROW)
    with warnings.catch_warnings():
        # older numpy read an index written as "1.0" with this warning
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(rows, dtype=_ROW, comments=None, ndmin=1)


def _first_unreadable(rows: list[str]) -> int:
    """The index of the first row :func:`_loadtxt` rejects, by bisection."""
    lo, hi = 0, len(rows)  # rows[:lo] read; some row of rows[lo:hi] does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _loadtxt(rows[lo:mid])
            lo = mid
        except _UNREADABLE:
            hi = mid
    return lo


def _unreadable(line: str, n_orb: int) -> str:
    """Why :func:`_loadtxt` rejects ``line``: Python's own parsers' reason
    where they reject it too, else the check it fails once read."""
    tokens = line.split()
    if len(tokens) != 5:
        return f"expected 'value p q r s', got {line.strip()!r}"
    try:
        value = float(tokens[0])
        index = tuple(int(token) for token in tokens[1:])
    except ValueError as exc:
        return str(exc)
    if not math.isfinite(value):
        return f"non-finite value {tokens[0]!r}"
    if max(map(abs, index)) >= 2**63:  # past int64, so out of range
        return _bad_index(n_orb, index)
    return f"expected an ASCII decimal value and four integers, got {line.strip()!r}"


def _body_rows(bodies: list[_Body]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The ``value p q r s`` lines of all bodies, blank and ``#`` lines
    skipped, with the 1-based line number and the body of each."""
    rows, numbers = [], []
    for b in bodies:
        body = b.lines[b.start:]
        kept = [s for s in body if (t := s.lstrip()) and t[0] != "#"]
        number = np.arange(b.start + 1, len(b.lines) + 1)
        if len(kept) < len(body):
            number = number[[bool((t := s.lstrip()) and t[0] != "#") for s in body]]
        rows += kept
        numbers.append(number)
    owner = np.repeat(np.arange(len(bodies)), [x.size for x in numbers])
    return rows, np.concatenate(numbers) if bodies else np.zeros(0, np.int64), owner


def _read_bodies(bodies: list[_Body]) -> list[TensorSet]:
    """The tensor sets of several file bodies, parsed by one ``loadtxt`` call.

    Indices are 1-based: ``0 0 0 0`` is the scalar term, ``p q 0 0`` a
    one-body entry and ``p q r s`` a two-body entry, orbit-reduced under the
    file's kind.  Values must be finite.  Lines of one orbit, and scalar
    lines together with the header's scalar, must agree to
    ``DUPLICATE_TOL``; the first value is kept.  A complete body needs every
    orbit; elsewhere absent orbits are zero.  Of several faults, the one at
    the earliest (file, line) is raised; a file's truncation ranks after its
    lines.
    """
    rows, line, owner = _body_rows(bodies)
    try:
        data, unread = _loadtxt(rows), None
    except _UNREADABLE:
        unread = _first_unreadable(rows)
        data = _loadtxt(rows[:unread])
    value, idx = data["v"], data["i"]
    at = owner[: value.size]

    # rank 0: one-body, 1: two-body, 2: scalar, 3: no valid pattern
    tables = [b.tables for b in bodies]
    n_orb = np.array([t[0].orbit_of.shape[0] for t in tables], dtype=np.int64)
    n = n_orb[at]
    inside = (idx >= 1) & (idx <= n[:, None])
    one = inside[:, 0] & inside[:, 1] & (idx[:, 2] == 0) & (idx[:, 3] == 0)
    rank = np.select([inside.all(axis=1), one, ~idx.any(axis=1)], [1, 0, 2], 3)
    key = np.zeros(value.size, dtype=np.int64)
    pairs = list(dict.fromkeys(tables))
    pair = np.array([pairs.index(t) for t in tables], dtype=np.int64)[at]
    for p, both in enumerate(pairs):
        for r, table in enumerate(both):
            sel = np.flatnonzero((pair == p) & (rank == r))
            key[sel] = table.orbit_of[tuple((idx[sel, : table.orbit_of.ndim] - 1).T)]

    # runs of one orbit of one file, in line order; each leads with its first line
    group = (at * 4 + rank) * (1 + max((t[1].sizes.size for t in tables), default=0)) + key
    order = np.argsort(group, kind="stable")
    run = np.ones(value.size, dtype=bool)
    run[1:] = group[order[1:]] != group[order[:-1]]
    leads = order[run]
    first = np.empty(value.size)
    first[order] = value[leads[np.cumsum(run) - 1]]
    header = np.array([np.nan if b.scalar is None else b.scalar for b in bodies])[at]
    from_header = (rank == 2) & ~np.isnan(header)
    first[from_header] = header[from_header]
    # the runs of file i and rank r are leads[bounds[4 * i + r]:bounds[4 * i + r + 1]]
    bounds = np.searchsorted((at * 4 + rank)[leads], np.arange(4 * len(bodies) + 1))

    with np.errstate(invalid="ignore"):  # inf - inf on rows that fail as non-finite
        conflict = np.abs(first - value) > DUPLICATE_TOL
    fault = np.select([~np.isfinite(value), rank == 3, conflict], [1, 2, 3], 0)
    bad = np.flatnonzero(fault)
    row = bad[0] if bad.size else unread
    for i, b in enumerate(bodies[: len(bodies) if row is None else owner[row]]):
        for r, table in enumerate(tables[i] if b.complete else ()):
            seen = key[leads[bounds[4 * i + r]:bounds[4 * i + r + 1]]]
            if seen.size < table.sizes.size:
                gaps = np.flatnonzero(seen != np.arange(seen.size))
                missing = int(gaps[0]) if gaps.size else seen.size
                raise TensorFormatError(
                    f"{b.path}: truncated file, {seen.size} of {table.sizes.size} {r + 1}-body "
                    f"orbits present; first missing: ({_file_index(table, missing)})"
                )
    if row is not None:
        where = f"{bodies[owner[row]].path}:{line[row]}"
        if row == unread:
            raise TensorFormatError(f"{where}: {_unreadable(rows[row], n_orb[owner[row]])}")
        if fault[row] == 1:
            raise TensorFormatError(f"{where}: non-finite value {rows[row].split()[0]!r}")
        if fault[row] == 2:
            raise TensorFormatError(f"{where}: {_bad_index(n[row], tuple(idx[row].tolist()))}")
        r = rank[row]
        what = "scalar term" if r == 2 else f"orbit of ({_file_index(tables[owner[row]][r], key[row])})"
        raise TensorFormatError(
            f"{where}: conflicting duplicate for the {what}: {first[row].item()!r} vs {value[row].item()!r}"
        )

    sets = []
    for i, b in enumerate(bodies):
        arrays = []
        for r, table in enumerate(tables[i]):
            lead = leads[bounds[4 * i + r]:bounds[4 * i + r + 1]]
            values = np.zeros(table.sizes.size)
            values[key[lead]] = value[lead]
            arrays.append(table.expand(values))
        scalars = value[leads[bounds[4 * i + 2]:bounds[4 * i + 3]]].tolist() + [0.0]
        scalar = scalars[0] if b.scalar is None else b.scalar
        sets.append(TensorSet._exact(arrays[0], arrays[1], scalar_term=scalar, **b.fields))
    return sets


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

    fields = dict(geometry=geometry, kind=kind, n_orb=n_orb, system=system)
    return _read_bodies([_Body(path, lines, data_start, None, False, fields)])[0]


# ----------------------------------------------------------------------------
# Canonical text format
# ----------------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Decimal text with enough digits to round-trip a double exactly."""
    return format(value, ".17g")


@functools.lru_cache(maxsize=None)
def _body_template(n_orb: int, symmetry: Symmetry) -> str:
    """The body of a canonical file with a ``%.17g`` slot for each orbit's
    value: one-body lines first, then two-body, each in representative order."""
    lines = [f"%.17g {_file_index(table, key)}"
             for table in (orbit_table(n_orb, None), orbit_table(n_orb, symmetry))
             for key in range(len(table.reps))]
    return "\n".join(lines) + "\n"


def save_canonical(path: str | os.PathLike, tset: TensorSet) -> None:
    """Write a tensor set as self-describing text, one orbit entry per line.

    ``load_canonical(save_canonical(...))`` reproduces the tensor set bit for
    bit.  Entries are 1-based ``value p q r s`` lines (one-body as
    ``value p q 0 0``), sorted by canonical index.
    """
    header = [
        f"# {FORMAT_TAG}",
        f"# system: {tset.system}",
        f"# geometry: {_fmt(tset.geometry)}",
        f"# kind: {tset.kind.value}",
        f"# n_orb: {tset.n_orb}",
        f"# scalar_term: {_fmt(tset.scalar_term)}",
    ]
    one = orbit_table(tset.n_orb, None)
    two = orbit_table(tset.n_orb, tset.symmetry)
    values = tset.one_body.ravel()[one.rep_flat].tolist() + tset.two_body.ravel()[two.rep_flat].tolist()
    body = _body_template(tset.n_orb, tset.symmetry) % tuple(values)
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write("\n".join(header) + "\n" + body)


#: the header fields of a canonical file, each allowed once
_HEADER_FIELDS = ("system", "geometry", "kind", "n_orb", "scalar_term")


def _canonical_body(path: str | os.PathLike) -> _Body:
    """Read a canonical file and check its header; the body is left unparsed."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != f"# {FORMAT_TAG}":
        raise TensorFormatError(f"{path}: missing or mismatched format tag (expected '{FORMAT_TAG}')")

    header: dict[str, str] = {}
    start = 1
    while start < len(lines) and lines[start].strip().startswith("#"):
        key, _, value = lines[start].strip()[1:].partition(":")
        key = key.strip()
        if key in header and key in _HEADER_FIELDS:
            raise TensorFormatError(f"{path}:{start + 1}: repeated header field {key!r}")
        header[key] = value.strip()
        start += 1

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
    fields = dict(geometry=geometry, kind=kind, n_orb=n_orb, system=system)
    return _Body(path, lines, start, scalar, True, fields)


def load_canonical(path: str | os.PathLike) -> TensorSet:
    """Read a file written by :func:`save_canonical`.

    The ``#`` header lines come first, each field once; the body follows the
    rules of :func:`load_fcidump`, with the header's ``scalar_term`` as the
    scalar a ``0 0 0 0`` line must agree with.  Every orbit must be present.
    """
    return _read_bodies([_canonical_body(path)])[0]


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


def load_series(directory: str | os.PathLike, kind: Kind | None = None) -> GeometrySeries:
    """Rebuild a series from a directory written by :func:`save_series`.

    Every file's header is checked; with ``kind`` given, only the bodies of
    that kind are parsed and the series holds only them.  The bodies go
    through one batched parse; of several faults, the one of the first file
    in name order is raised, at its first faulty line.
    """
    names = sorted(n for n in os.listdir(directory) if n.endswith(".tensor"))
    if not names:
        raise TensorFormatError(f"{directory}: no .tensor files found")
    headers, bodies, failure = [], [], None
    for name in names:
        try:
            b = _canonical_body(os.path.join(directory, name))
        except (OSError, ValueError) as exc:
            # the bodies of the files before it come first
            failure = exc
            break
        headers.append((b.path, b.fields))
        if kind in (None, b.fields["kind"]):
            bodies.append(b)
    sets = _read_bodies(bodies)
    if failure is not None:
        raise failure
    first = {}
    for path, fields in headers:
        key = (fields["geometry"], fields["kind"])
        other = first.setdefault(key, path)
        if other != path:
            raise TensorFormatError(f"{other} and {path} both hold geometry {key[0]}, kind {key[1].value}")
    systems = {fields["system"] for _, fields in headers}
    if len(systems) != 1:
        raise TensorFormatError(f"{directory}: inconsistent system labels {sorted(systems)}")
    if not sets:
        raise TensorFormatError(f"{directory}: no {kind.value} .tensor files found")
    return GeometrySeries(system=systems.pop(), tensor_sets=tuple(sets))
