"""Tensor containers, symmetry orbits, and file round-trips."""

import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest

from tanfold import atomic, tensors
from tanfold.presets import PLANT_PRESETS, plant_preset
from tanfold.synth import plant_series
from tanfold.tensors import (
    DUPLICATE_TOL,
    FORMAT_TAG,
    SYMMETRY_TOL,
    GeometrySeries,
    Kind,
    Symmetry,
    SymmetryViolationError,
    TensorFormatError,
    TensorSet,
    canonical_index,
    load_canonical,
    load_fcidump,
    load_series,
    nonsymmetric_unit,
    one_body_representatives,
    one_body_unit,
    orbit,
    orbit_table,
    save_canonical,
    save_series,
    two_body_representatives,
)

# ----------------------------------------------------------------------------
# Independent orbit oracle: the group laws written out element by element.
# ----------------------------------------------------------------------------


def eight_fold_images(t):
    p, q, r, s = t
    return {
        (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
        (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
    }


def four_fold_images(t):
    p, q, r, s = t
    return {(p, q, r, s), (q, p, s, r), (r, s, p, q), (s, r, q, p)}


def brute_force_orbits(n_orb, images):
    orbits = []
    seen = set()
    for t in itertools.product(range(n_orb), repeat=4):
        if t in seen:
            continue
        o = frozenset(images(t))
        orbits.append(o)
        seen |= o
    return orbits


# Frozen counts from the brute-force oracle above.
ORBIT_COUNTS = {
    (1, Symmetry.EIGHT_FOLD): 1,
    (1, Symmetry.FOUR_FOLD): 1,
    (2, Symmetry.EIGHT_FOLD): 6,
    (2, Symmetry.FOUR_FOLD): 7,
    (3, Symmetry.EIGHT_FOLD): 21,
    (3, Symmetry.FOUR_FOLD): 27,
    (4, Symmetry.EIGHT_FOLD): 55,
    (4, Symmetry.FOUR_FOLD): 76,
    (5, Symmetry.EIGHT_FOLD): 120,
    (5, Symmetry.FOUR_FOLD): 175,
    (8, Symmetry.EIGHT_FOLD): 666,
    (8, Symmetry.FOUR_FOLD): 1072,
}


class TestOrbits:
    def test_canonical_index_examples(self):
        assert canonical_index(1, 0, 0, 0, Symmetry.EIGHT_FOLD) == (0, 0, 0, 1)
        # 1-based variant of the same orbit
        assert canonical_index(2, 1, 1, 1, Symmetry.EIGHT_FOLD) == (1, 1, 1, 2)
        assert canonical_index(1, 1, 1, 1, Symmetry.FOUR_FOLD) == (1, 1, 1, 1)

    def test_distinct_orbit_members(self):
        # all-distinct indices -> orbit of size 8 under the eight-fold group
        assert len(orbit((0, 1, 2, 3), Symmetry.EIGHT_FOLD)) == 8
        assert len(orbit((0, 1, 2, 3), Symmetry.FOUR_FOLD)) == 4

    @pytest.mark.parametrize("n_orb", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("symmetry", list(Symmetry))
    def test_representatives_match_brute_force(self, n_orb, symmetry):
        images = eight_fold_images if symmetry is Symmetry.EIGHT_FOLD else four_fold_images
        oracle = brute_force_orbits(n_orb, images)
        reps = two_body_representatives(n_orb, symmetry)
        assert len(reps) == ORBIT_COUNTS[(n_orb, symmetry)]
        assert len(reps) == len(oracle)
        # each representative is the lexicographic minimum of its oracle orbit
        rep_set = set(reps)
        for o in oracle:
            assert min(o) in rep_set
        # the cached table agrees with the scalar orbit() member by member
        table = orbit_table(n_orb, symmetry)
        shape = (n_orb,) * 4
        assert table.members.shape == (len(reps), len(symmetry.permutations))
        for i, rep in enumerate(reps):
            members = orbit(rep, symmetry)
            flat = [int(np.ravel_multi_index(m, shape)) for m in members]
            assert tuple(table.reps[i]) == rep
            assert table.rep_flat[i] == flat[0]
            assert table.sizes[i] == len(members)
            assert sorted(set(table.members[i].tolist())) == flat
            assert all(table.orbit_of[m] == i for m in members)

    @pytest.mark.parametrize("n_orb", [1, 2, 5])
    def test_one_body_table_pairs(self, n_orb):
        table = orbit_table(n_orb, None)
        pairs = [(p, q) for p in range(n_orb) for q in range(p, n_orb)]
        assert [tuple(r) for r in table.reps.tolist()] == pairs
        assert table.sizes.tolist() == [1 if p == q else 2 for p, q in pairs]
        for i, (p, q) in enumerate(pairs):
            assert table.orbit_of[p, q] == table.orbit_of[q, p] == i

    def test_table_is_cached_and_read_only(self):
        table = orbit_table(3, Symmetry.FOUR_FOLD)
        assert orbit_table(3, Symmetry.FOUR_FOLD) is table
        for arr in (table.reps, table.rep_flat, table.members, table.sizes, table.orbit_of):
            with pytest.raises(ValueError):
                arr.flat[0] = 1

    def test_four_fold_weaker_than_eight_fold(self):
        for n in (2, 3, 4):
            assert ORBIT_COUNTS[(n, Symmetry.FOUR_FOLD)] >= ORBIT_COUNTS[(n, Symmetry.EIGHT_FOLD)]

    def test_canonical_index_constant_on_orbit(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            t = tuple(rng.integers(0, 5, size=4))
            for sym in Symmetry:
                images = eight_fold_images if sym is Symmetry.EIGHT_FOLD else four_fold_images
                canon = {canonical_index(*m, sym) for m in images(t)}
                assert len(canon) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            canonical_index(0, 0, 0, 4, Symmetry.EIGHT_FOLD, n_orb=4)


def random_symmetric_tensors(n_orb, symmetry, rng):
    """Random one-/two-body arrays exactly closed under ``symmetry``."""
    one = rng.normal(size=(n_orb, n_orb))
    one = (one + one.T) / 2
    two = np.zeros((n_orb,) * 4)
    raw = rng.normal(size=(n_orb,) * 4)
    for idx in itertools.product(range(n_orb), repeat=4):
        canon = canonical_index(*idx, symmetry)
        two[idx] = raw[canon]
    return one, two


def fsum_symmetrize(a, symmetry):
    """Reference orbit average: the fsum mean of each orbit's distinct members."""
    out = np.empty_like(a)
    for idx in itertools.product(range(a.shape[0]), repeat=4):
        members = orbit(idx, symmetry)
        mean = math.fsum(a[m] for m in members) / len(members)
        for m in members:
            out[m] = mean
    return out


# ----------------------------------------------------------------------------
# Reference reader: the per-line parser the batched one replaced, line for line.
# ----------------------------------------------------------------------------


def _ref_symmetry(kind):
    return Symmetry.EIGHT_FOLD if kind is Kind.BARE else Symmetry.FOUR_FOLD


def _ref_file_index(table, key):
    rep = [i + 1 for i in table.reps[key].tolist()]
    return " ".join(map(str, rep + [0, 0] * (len(rep) == 2)))


def _ref_bad_index(n_orb, index):
    for i in index:
        if i > n_orb:
            return f"index {i} out of range for n_orb={n_orb}"
    return "invalid index pattern ({} {} {} {})".format(*index)


def reference_body(path, lines, start, tables, scalar):
    """``(scalar, ({one-body orbit: value}, {two-body orbit: value}))``."""
    n = tables[0].orbit_of.shape[0]
    entries = ({}, {}, {} if scalar is None else {0: scalar})
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
            raise TensorFormatError(f"{path}:{ln + 1}: {_ref_bad_index(n, (p, q, r, s))}")
        seen = entries[body]
        if abs(seen.setdefault(key, value) - value) > DUPLICATE_TOL:
            what = "scalar term" if body == 2 else f"orbit of ({_ref_file_index(tables[body], key)})"
            raise TensorFormatError(
                f"{path}:{ln + 1}: conflicting duplicate for the {what}: {seen[key]!r} vs {value!r}"
            )
    return entries[2].get(0), entries[:2]


def _ref_tensor_set(tables, scalar, entries, **fields):
    arrays = []
    for table, seen in zip(tables, entries):
        values = np.zeros(table.sizes.size)
        values[list(seen)] = list(seen.values())
        arrays.append(table.expand(values))
    return TensorSet(scalar_term=0.0 if scalar is None else scalar,
                     one_body=arrays[0], two_body=arrays[1], **fields)


def reference_canonical(path):
    lines = open(path, encoding="utf-8").read().splitlines()
    if not lines or lines[0].strip() != f"# {FORMAT_TAG}":
        raise TensorFormatError(f"{path}: missing or mismatched format tag (expected '{FORMAT_TAG}')")
    header, start = {}, 1
    while start < len(lines) and lines[start].strip().startswith("#"):
        key, _, value = lines[start].strip()[1:].partition(":")
        header[key.strip()] = value.strip()
        start += 1
    kind, n_orb = Kind(header["kind"]), int(header["n_orb"])
    tables = (orbit_table(n_orb, None), orbit_table(n_orb, _ref_symmetry(kind)))
    scalar, entries = reference_body(path, lines, start, tables, float(header["scalar_term"]))
    for body, table, seen in zip((1, 2), tables, entries):
        if len(seen) < table.sizes.size:
            first = next(i for i in range(table.sizes.size) if i not in seen)
            raise TensorFormatError(
                f"{path}: truncated file, {len(seen)} of {table.sizes.size} {body}-body "
                f"orbits present; first missing: ({_ref_file_index(table, first)})"
            )
    return _ref_tensor_set(tables, scalar, entries, geometry=float(header["geometry"]), kind=kind,
                           n_orb=n_orb, system=header["system"])


def reference_fcidump(path, kind):
    lines = open(path, encoding="utf-8").read().splitlines()
    n_orb = int(re.search(r"NORB\s*=\s*(\d+)", lines[0], re.IGNORECASE).group(1))
    start = next(ln for ln, line in enumerate(lines) if "&END" in line.upper()) + 1
    tables = (orbit_table(n_orb, None), orbit_table(n_orb, _ref_symmetry(kind)))
    scalar, entries = reference_body(path, lines, start, tables, None)
    return _ref_tensor_set(tables, scalar, entries, geometry=0.0, kind=kind, n_orb=n_orb)


def assert_same_bits(got, want):
    assert (got.geometry, got.kind, got.n_orb, got.system) == (want.geometry, want.kind, want.n_orb, want.system)
    assert np.float64(got.scalar_term).tobytes() == np.float64(want.scalar_term).tobytes()
    assert got.one_body.tobytes() == want.one_body.tobytes()
    assert got.two_body.tobytes() == want.two_body.tobytes()


def raised(fn, *args):
    """The message ``fn(*args)`` raises as a TensorFormatError."""
    with pytest.raises(TensorFormatError) as info:
        fn(*args)
    return str(info.value)


class TestTensorSet:
    def test_construction_canonicalizes_exactly(self):
        rng = np.random.default_rng(0)
        one, two = random_symmetric_tensors(3, Symmetry.EIGHT_FOLD, rng)
        # perturb below the symmetry tolerance: construction must restore
        # exact closure
        two_noisy = two + rng.normal(size=two.shape) * 1e-13
        tset = TensorSet(1.0, Kind.BARE, 3, -0.5, one, two_noisy)
        a = tset.two_body
        for perm in Symmetry.EIGHT_FOLD.permutations:
            assert np.array_equal(a, a.transpose(perm))
        assert np.array_equal(tset.one_body, tset.one_body.T)

    @pytest.mark.parametrize("kind", list(Kind))
    def test_orbit_average_matches_fsum_reference_bitwise(self, kind):
        rng = np.random.default_rng(7)
        sym = Symmetry.EIGHT_FOLD if kind is Kind.BARE else Symmetry.FOUR_FOLD
        _, two = random_symmetric_tensors(4, sym, rng)
        noisy = two + rng.uniform(-0.4, 0.4, size=two.shape) * SYMMETRY_TOL
        # untouched, all -0.0 and mixed-zero orbits
        noisy[0, 0, 0, 0] = 0.125
        for m in orbit((0, 1, 2, 3), sym):
            noisy[m] = -0.0
        for k, m in enumerate(orbit((1, 2, 3, 3), sym)):
            noisy[m] = -0.0 if k % 2 else 0.0
        got = TensorSet(1.0, kind, 4, 0.0, np.zeros((4, 4)), noisy).two_body
        want = fsum_symmetrize(noisy, sym)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[0, 1, 2, 3])

    def test_one_body_average_is_half_sum_bitwise(self):
        rng = np.random.default_rng(11)
        one = rng.normal(size=(5, 5))
        one = (one + one.T) + rng.uniform(-0.4, 0.4, size=one.shape) * SYMMETRY_TOL
        one[0, 0] = -0.0
        one[1, 2] = one[2, 1] = -0.0
        got = TensorSet(1.0, Kind.BARE, 5, 0.0, one, np.zeros((5,) * 4)).one_body
        want = (one + one.T) / 2.0
        assert np.array_equal(got, want)
        nonzero = want != 0.0
        assert got[nonzero].tobytes() == want[nonzero].tobytes()
        # an orbit of -0.0 turns to +0.0, as two-body orbits do
        assert not np.signbit(got[~nonzero]).any()

    def test_one_body_violation_reports_first_orbit(self):
        one = np.zeros((3, 3))
        one[2, 1] = 1.0
        one[0, 1] = 0.5
        with pytest.raises(SymmetryViolationError, match=r"one-body .* orbit of \(0, 1\): spread 5\.000e-01"):
            TensorSet(1.0, Kind.BARE, 3, 0.0, one, np.zeros((3,) * 4))

    def test_one_body_representatives(self):
        for n in (1, 2, 5):
            assert one_body_representatives(n) == [(p, q) for p in range(n) for q in range(p, n)]

    def test_violation_reports_first_orbit(self):
        two = np.zeros((3,) * 4)
        two[2, 1, 0, 0] = 1.0  # orbit of (0, 0, 1, 2)
        two[0, 1, 0, 0] = 1.0  # orbit of (0, 0, 0, 1), the earlier one
        with pytest.raises(SymmetryViolationError, match=r"orbit of \(0, 0, 0, 1\): spread 1\.000e\+00"):
            TensorSet(1.0, Kind.BARE, 3, 0.0, np.zeros((3, 3)), two)

    def test_symmetry_violation_rejected(self):
        one = np.zeros((2, 2))
        two = np.zeros((2,) * 4)
        two[0, 1, 0, 0] = 1.0  # orbit mates stay zero -> violation
        with pytest.raises(SymmetryViolationError):
            TensorSet(1.0, Kind.BARE, 2, 0.0, one, two)

    def test_effective_accepts_eight_fold_break(self):
        # (pq|rs) != (pq|sr) is legal for the four-fold group
        two = np.zeros((2,) * 4)
        for member in orbit((0, 1, 0, 1), Symmetry.FOUR_FOLD):
            two[member] = 0.3
        for member in orbit((0, 1, 1, 0), Symmetry.FOUR_FOLD):
            two[member] = 0.4
        tset = TensorSet(1.0, Kind.EFFECTIVE, 2, 0.0, np.zeros((2, 2)), two)
        assert tset.two_body[0, 1, 0, 1] != tset.two_body[0, 1, 1, 0]
        with pytest.raises(SymmetryViolationError):
            TensorSet(1.0, Kind.BARE, 2, 0.0, np.zeros((2, 2)), two)

    def test_immutable(self):
        tset = TensorSet.zeros(1.0, Kind.BARE, 2)
        with pytest.raises(ValueError):
            tset.one_body[0, 0] = 1.0

    def test_non_finite_rejected(self):
        two = np.zeros((2,) * 4)
        one = np.zeros((2, 2))
        one[0, 0] = np.nan
        with pytest.raises(ValueError):
            TensorSet(1.0, Kind.BARE, 2, 0.0, one, two)

    def test_unit_sizes(self):
        rng = np.random.default_rng(1)
        for kind, sym in ((Kind.BARE, Symmetry.EIGHT_FOLD), (Kind.EFFECTIVE, Symmetry.FOUR_FOLD)):
            one, two = random_symmetric_tensors(4, sym, rng)
            tset = TensorSet(1.0, kind, 4, 0.0, one, two)
            unit = nonsymmetric_unit(tset)
            assert len(unit) == ORBIT_COUNTS[(4, sym)]
            # exactly one member of each orbit, and the full tensor is
            # reconstructible from it
            rebuilt = np.zeros_like(two)
            for idx, v in unit:
                for member in orbit(idx, sym):
                    rebuilt[member] = v
            assert np.array_equal(rebuilt, tset.two_body)
            assert len(one_body_unit(tset)) == 4 * 5 // 2

    def test_zero_model_is_valid(self):
        tset = TensorSet.zeros(2.0, Kind.EFFECTIVE, 4)
        assert tset.scalar_term == 0.0
        assert not tset.two_body.any()


class TestExactSets:
    """The reader and the planter build each set from one value per orbit,
    so they skip the orbit average; sets that users build keep it."""

    @staticmethod
    def rebuilt(t):
        """``t`` through the checking constructor."""
        return TensorSet(t.geometry, t.kind, t.n_orb, t.scalar_term,
                         np.array(t.one_body), np.array(t.two_body), system=t.system)

    @staticmethod
    def refuse_average(monkeypatch):
        def refuse(*args):
            raise AssertionError("orbit average on a set exact by construction")

        monkeypatch.setattr(tensors, "_orbit_average", refuse)

    def test_user_built_sets_are_averaged_and_checked(self, monkeypatch):
        calls = []
        average = tensors._orbit_average
        monkeypatch.setattr(tensors, "_orbit_average", lambda *a: calls.append(a[1]) or average(*a))
        TensorSet.zeros(1.0, Kind.EFFECTIVE, 2)
        assert calls == [None, Symmetry.FOUR_FOLD]
        two = np.zeros((2,) * 4)
        two[0, 0, 0, 1] = 1.0
        with pytest.raises(SymmetryViolationError):
            TensorSet(1.0, Kind.BARE, 2, 0.0, np.zeros((2, 2)), two)

    def test_planted_and_loaded_sets_equal_the_checked_ones(self, tmp_path, monkeypatch):
        spec = dataclasses.replace(plant_preset("desk"), geometries=(1.8, 2.4), noise=1e-6)
        planted = plant_series(spec).series
        checked = [self.rebuilt(t) for t in planted.tensor_sets]
        save_series(planted, tmp_path / "planted")
        save_series(GeometrySeries(system=planted.system, tensor_sets=tuple(checked)),
                    tmp_path / "checked")
        for f in sorted((tmp_path / "checked").iterdir()):
            assert (tmp_path / "planted" / f.name).read_bytes() == f.read_bytes()

        self.refuse_average(monkeypatch)
        for got in (plant_series(spec).series, load_series(tmp_path / "planted")):
            for t, want in zip(got.tensor_sets, checked):
                assert_same_bits(t, want)
                assert not (t.one_body.flags.writeable or t.two_body.flags.writeable)

    def test_negative_zero_is_stored_as_positive_zero(self, tmp_path, monkeypatch):
        self.refuse_average(monkeypatch)
        path = tmp_path / "dump.txt"
        path.write_text("&FCI NORB=2\n&END\n-0.0 1 2 0 0\n-0.0 1 2 1 2\n-0.0 0 0 0 0\n",
                        encoding="utf-8")
        t = load_fcidump(path, Kind.BARE)
        assert not np.signbit(t.one_body).any() and not np.signbit(t.two_body).any()
        assert np.signbit(t.scalar_term)  # the scalar is stored as read, as before


class TestFcidump:
    def write(self, tmp_path, body, norb=2):
        path = tmp_path / "dump.txt"
        path.write_text(f"&FCI NORB={norb},NELEC=2\n&END\n{body}", encoding="utf-8")
        return path

    def test_basic_load_expands_orbit(self, tmp_path):
        path = self.write(tmp_path, "0.5 1 1 1 2\n0.25 1 2 0 0\n-1.5 0 0 0 0\n")
        tset = load_fcidump(path, Kind.BARE, geometry=1.8)
        assert tset.scalar_term == -1.5
        assert tset.one_body[0, 1] == 0.25 and tset.one_body[1, 0] == 0.25
        for member in eight_fold_images((0, 0, 0, 1)):
            assert tset.two_body[member] == 0.5
        assert tset.geometry == 1.8

    def test_duplicate_within_tolerance_ok(self, tmp_path):
        path = self.write(tmp_path, "0.5 1 1 1 2\n0.5 2 1 1 1\n")
        tset = load_fcidump(path, Kind.BARE)
        assert tset.two_body[0, 0, 0, 1] == 0.5

    def test_conflicting_duplicate_rejected(self, tmp_path):
        body = f"0.5 1 1 1 2\n{0.5 + 10 * DUPLICATE_TOL} 2 1 1 1\n"
        path = self.write(tmp_path, body)
        with pytest.raises(TensorFormatError):
            load_fcidump(path, Kind.BARE)

    def test_effective_kind_keeps_four_fold_distinction(self, tmp_path):
        # (12|12) and (12|21) share an eight-fold orbit but not a four-fold
        # one; as Effective they may differ
        body = "0.3 1 2 1 2\n0.4 1 2 2 1\n"
        path = self.write(tmp_path, body)
        eff = load_fcidump(path, Kind.EFFECTIVE)
        assert eff.two_body[0, 1, 0, 1] == 0.3
        assert eff.two_body[0, 1, 1, 0] == 0.4
        with pytest.raises(TensorFormatError):
            load_fcidump(path, Kind.BARE)

    def test_four_fold_orbit_conflict_rejected(self, tmp_path):
        body = "0.3 1 2 1 2\n0.3000001 1 2 1 2\n"
        path = self.write(tmp_path, body)
        with pytest.raises(TensorFormatError):
            load_fcidump(path, Kind.EFFECTIVE)

    def test_index_out_of_range(self, tmp_path):
        path = self.write(tmp_path, "0.5 1 3 0 0\n", norb=2)
        with pytest.raises(TensorFormatError):
            load_fcidump(path, Kind.BARE)

    def test_norb_mismatch(self, tmp_path):
        path = self.write(tmp_path, "", norb=2)
        with pytest.raises(TensorFormatError):
            load_fcidump(path, Kind.BARE, expected_n_orb=4)

    def test_malformed_line(self, tmp_path):
        path = self.write(tmp_path, "0.5 1 1 1\n")
        with pytest.raises(TensorFormatError):
            load_fcidump(path, Kind.BARE)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "dump.txt"
        path.write_text("0.5 1 1 1 1\n", encoding="utf-8")
        with pytest.raises(TensorFormatError):
            load_fcidump(path, Kind.BARE)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, "# a comment\n\n0.5 1 1 1 2\n   # indented\n-1.5 0 0 0 0\n")
        tset = load_fcidump(path, Kind.BARE)
        assert tset.scalar_term == -1.5 and tset.two_body[0, 0, 0, 1] == 0.5

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_line(self, tmp_path, token):
        path = self.write(tmp_path, f"0.5 1 1 1 2\n{token} 1 2 0 0\n")
        with pytest.raises(TensorFormatError, match=r"dump\.txt:4: non-finite value"):
            load_fcidump(path, Kind.BARE)

    def test_conflicting_scalar_rejected(self, tmp_path):
        path = self.write(tmp_path, "-1.5 0 0 0 0\n-1.25 0 0 0 0\n")
        with pytest.raises(TensorFormatError, match=r"dump\.txt:4: conflicting duplicate for the scalar term"):
            load_fcidump(path, Kind.BARE)

    def test_orbital_index_zero_pattern_rejected(self, tmp_path):
        path = self.write(tmp_path, "0.5 1 0 0 0\n")
        with pytest.raises(TensorFormatError):
            load_fcidump(path, Kind.BARE)


class TestCanonicalFormat:
    def roundtrip(self, tset, tmp_path):
        path = tmp_path / "set.tensor"
        save_canonical(path, tset)
        return load_canonical(path)

    @pytest.mark.parametrize("kind", list(Kind))
    def test_bit_exact_roundtrip(self, kind, tmp_path):
        rng = np.random.default_rng(42)
        sym = Symmetry.EIGHT_FOLD if kind is Kind.BARE else Symmetry.FOUR_FOLD
        one, two = random_symmetric_tensors(4, sym, rng)
        tset = TensorSet(1.85, kind, 4, rng.normal(), one, two, system="H4")
        back = self.roundtrip(tset, tmp_path)
        assert back.geometry == tset.geometry
        assert back.kind is tset.kind
        assert back.system == "H4"
        assert back.scalar_term == tset.scalar_term
        assert np.array_equal(back.one_body, tset.one_body)
        assert np.array_equal(back.two_body, tset.two_body)

    def test_awkward_floats_roundtrip(self, tmp_path):
        one = np.zeros((2, 2))
        one[0, 0] = 1.0 / 3.0
        one[1, 1] = -0.0
        two = np.zeros((2,) * 4)
        two[1, 1, 1, 1] = np.nextafter(1.0, 2.0)
        tset = TensorSet(2.0 / 3.0, Kind.BARE, 2, 1e-300, one, two)
        back = self.roundtrip(tset, tmp_path)
        assert back.geometry == tset.geometry
        assert back.scalar_term == tset.scalar_term
        assert np.array_equal(back.one_body, tset.one_body)
        assert np.array_equal(back.two_body, tset.two_body)

    def test_empty_payload_all_zero(self, tmp_path):
        tset = self.roundtrip(TensorSet.zeros(1.0, Kind.BARE, 4), tmp_path)
        assert not tset.one_body.any() and not tset.two_body.any()

    @pytest.mark.parametrize("drop", ["1 2 0 0", "1 1 2 3"])
    def test_truncated_file_rejected(self, tmp_path, drop):
        rng = np.random.default_rng(5)
        one, two = random_symmetric_tensors(3, Symmetry.EIGHT_FOLD, rng)
        path = tmp_path / "set.tensor"
        save_canonical(path, TensorSet(1.0, Kind.BARE, 3, 0.0, one, two))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [ln for ln in lines if not ln.endswith(f" {drop}\n")]
        assert len(kept) == len(lines) - 1
        path.write_text("".join(kept), encoding="utf-8")
        with pytest.raises(TensorFormatError, match=r"set\.tensor: truncated .*first missing: " + re.escape(f"({drop})")):
            load_canonical(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "set.tensor"
        save_canonical(path, TensorSet.zeros(1.0, Kind.BARE, 2))
        text = path.read_text(encoding="utf-8").replace("v1", "v9")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(TensorFormatError):
            load_canonical(path)

    @staticmethod
    def unit_writer(path, tset):
        """The canonical writer spelled out over one_body_unit and
        nonsymmetric_unit, as FORMATS.md describes the file."""
        fmt = lambda v: format(v, ".17g")  # noqa: E731
        lines = [
            f"# {FORMAT_TAG}",
            f"# system: {tset.system}",
            f"# geometry: {fmt(tset.geometry)}",
            f"# kind: {tset.kind.value}",
            f"# n_orb: {tset.n_orb}",
            f"# scalar_term: {fmt(tset.scalar_term)}",
        ]
        for (p, q), v in one_body_unit(tset):
            lines.append(f"{fmt(v)} {p + 1} {q + 1} 0 0")
        for (p, q, r, s), v in nonsymmetric_unit(tset):
            lines.append(f"{fmt(v)} {p + 1} {q + 1} {r + 1} {s + 1}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("n_orb", [4, 8])
    @pytest.mark.parametrize("kind", list(Kind))
    def test_bytes_match_unit_writer(self, kind, n_orb, tmp_path):
        rng = np.random.default_rng(n_orb)
        sym = Symmetry.EIGHT_FOLD if kind is Kind.BARE else Symmetry.FOUR_FOLD
        one, two = random_symmetric_tensors(n_orb, sym, rng)
        # a spread of magnitudes, exact zeros and integers among the values
        one *= 1e-300
        two[two > 1.5] = 0.0
        two[two < -1.5] = 3.0
        tset = TensorSet(2.0 / 3.0, kind, n_orb, -rng.normal() * 1e12, one, two, system="s")
        got, want = tmp_path / "got.tensor", tmp_path / "want.tensor"
        save_canonical(got, tset)
        self.unit_writer(want, tset)
        assert got.read_bytes() == want.read_bytes()

    def edit(self, tmp_path, change):
        """A saved n_orb 2 bare set whose body lines pass through ``change``."""
        path = tmp_path / "set.tensor"
        save_canonical(path, TensorSet(1.0, Kind.BARE, 2, -0.75, np.eye(2), np.ones((2,) * 4)))
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:6] + change(lines[6:])) + "\n", encoding="utf-8")
        return path

    def test_comment_and_blank_body_lines_skipped(self, tmp_path):
        path = self.edit(tmp_path, lambda body: ["# note", ""] + body[:2] + ["  # x"] + body[2:])
        tset = load_canonical(path)
        assert np.array_equal(tset.one_body, np.eye(2)) and tset.two_body.all()

    @pytest.mark.parametrize("scalar, ok", [("-0.75", True), ("-0.5", False)])
    def test_scalar_line_is_a_duplicate_of_the_header(self, tmp_path, scalar, ok):
        path = self.edit(tmp_path, lambda body: body + [f"{scalar} 0 0 0 0"])
        if ok:
            assert load_canonical(path).scalar_term == -0.75
        else:
            with pytest.raises(TensorFormatError, match=r"set\.tensor:16: conflicting duplicate for the scalar term"):
                load_canonical(path)

    @pytest.mark.parametrize("line, message", [
        ("nan 1 1 0 0", r"set\.tensor:7: non-finite value 'nan'"),
        ("2 1 1 0 0", r"set\.tensor:8: conflicting duplicate for the orbit of \(1 1 0 0\): 2\.0 vs 1\.0"),
        ("1 1 3 0 0", r"set\.tensor:7: index 3 out of range for n_orb=2"),
        ("1 1 0 1 0", r"set\.tensor:7: invalid index pattern \(1 0 1 0\)"),
        ("1 1 1 0", r"set\.tensor:7: expected 'value p q r s'"),
    ])
    def test_bad_body_line_names_file_and_line(self, tmp_path, line, message):
        path = self.edit(tmp_path, lambda body: [line] + body)
        with pytest.raises(TensorFormatError, match=message):
            load_canonical(path)

    @pytest.mark.parametrize("field", ["n_orb: two", "n_orb: 0", "scalar_term: nan", "geometry: inf"])
    def test_bad_header_field_rejected(self, tmp_path, field):
        path = self.edit(tmp_path, lambda body: body)
        key = field.partition(":")[0]
        lines = [f"# {field}" if ln.startswith(f"# {key}:") else ln
                 for ln in path.read_text(encoding="utf-8").splitlines()]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TensorFormatError, match=r"set\.tensor: bad or missing header field"):
            load_canonical(path)

    def test_both_formats_share_the_body_rules(self, tmp_path):
        body = ["0.5 1 1 1 2", "# c", "", "0.25 1 2 0 0", "0.5 2 1 1 1", "-1.5 0 0 0 0"]
        dump = tmp_path / "dump.txt"
        dump.write_text("&FCI NORB=2\n&END\n" + "\n".join(body) + "\n", encoding="utf-8")
        want = load_fcidump(dump, Kind.EFFECTIVE)
        one = orbit_table(2, None)
        two = orbit_table(2, Symmetry.FOUR_FOLD)
        full = [f"{v!r} {p + 1} {q + 1} 0 0"
                for v, (p, q) in zip(want.one_body.flat[one.rep_flat].tolist(), one.reps.tolist())]
        full += [f"{v!r} " + " ".join(str(k + 1) for k in rep)
                 for v, rep in zip(want.two_body.flat[two.rep_flat].tolist(), two.reps.tolist())]
        canon = tmp_path / "set.tensor"
        header = [f"# {FORMAT_TAG}", "# system: ", "# geometry: 0", "# kind: effective", "# n_orb: 2",
                  "# scalar_term: -1.5"]
        canon.write_text("\n".join(header + full + body) + "\n", encoding="utf-8")
        got = load_canonical(canon)
        assert got.scalar_term == want.scalar_term
        assert np.array_equal(got.one_body, want.one_body) and np.array_equal(got.two_body, want.two_body)

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        one, two = random_symmetric_tensors(3, Symmetry.EIGHT_FOLD, rng)
        tset = TensorSet(1.0, Kind.BARE, 3, 0.25, one, two)
        p1, p2 = tmp_path / "a.tensor", tmp_path / "b.tensor"
        save_canonical(p1, tset)
        save_canonical(p2, tset)
        assert p1.read_bytes() == p2.read_bytes()


class TestGeometrySeries:
    def build(self, geometries, kinds=(Kind.BARE,), n_orb=2):
        sets = tuple(
            TensorSet.zeros(g, k, n_orb, system="toy") for g in geometries for k in kinds
        )
        return GeometrySeries(system="toy", tensor_sets=sets)

    def test_sorted_and_queryable(self):
        series = self.build([2.0, 1.0, 3.0], kinds=(Kind.BARE, Kind.EFFECTIVE))
        assert list(series.geometries()) == [1.0, 2.0, 3.0]
        assert series.get(2.0, Kind.EFFECTIVE).kind is Kind.EFFECTIVE
        assert series.get(1.0, Kind.BARE).geometry == 1.0
        with pytest.raises(KeyError):
            series.get(1.5, Kind.BARE)
        assert len(series.of_kind(Kind.BARE)) == 3

    def test_duplicate_geometry_kind_rejected(self):
        with pytest.raises(ValueError):
            self.build([1.0, 1.0])

    def test_inconsistent_n_orb_rejected(self):
        sets = (TensorSet.zeros(1.0, Kind.BARE, 2), TensorSet.zeros(2.0, Kind.BARE, 3))
        with pytest.raises(ValueError):
            GeometrySeries(system="toy", tensor_sets=sets)

    def test_series_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        sets = []
        for g in (1.0, 1.5):
            one, two = random_symmetric_tensors(2, Symmetry.EIGHT_FOLD, rng)
            sets.append(TensorSet(g, Kind.BARE, 2, 0.0, one, two, system="toy"))
            one, two = random_symmetric_tensors(2, Symmetry.FOUR_FOLD, rng)
            sets.append(TensorSet(g, Kind.EFFECTIVE, 2, 0.0, one, two, system="toy"))
        series = GeometrySeries(system="toy", tensor_sets=tuple(sets))
        save_series(series, tmp_path / "data")
        back = load_series(tmp_path / "data")
        assert back.system == "toy"
        assert list(back.geometries()) == [1.0, 1.5]
        for t in series.tensor_sets:
            b = back.get(t.geometry, t.kind)
            assert np.array_equal(b.two_body, t.two_body)
            assert np.array_equal(b.one_body, t.one_body)

    def test_series_of_one_kind(self, tmp_path):
        sets = tuple(TensorSet.zeros(g, Kind.BARE, 2, system="toy") for g in (1.0, 2.0))
        save_series(GeometrySeries(system="toy", tensor_sets=sets), tmp_path)
        assert len(load_series(tmp_path, kind=Kind.BARE).tensor_sets) == 2
        with pytest.raises(TensorFormatError, match=re.escape(f"{tmp_path}: no effective .tensor files")):
            load_series(tmp_path, kind=Kind.EFFECTIVE)

    def test_interrupted_save_leaves_no_file(self, tmp_path, monkeypatch):
        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(atomic.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            save_canonical(tmp_path / "set.tensor", TensorSet.zeros(1.0, Kind.BARE, 2))
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------------
# The batched reader against the reference reader
# ----------------------------------------------------------------------------

#: the HF-like plant of the data-hf benchmark: n_orb 8, ell 300, six geometries
HF8 = dataclasses.replace(
    plant_preset("desk"), n_orb=8, ell=300, geometries=(0.85, 0.95, 1.35, 1.65, 1.95, 2.0),
    rate=1.0e-2, amplitude=2.0e-4, center=149.4, spectrum_lo=0.05, eta=0.01, target_rms=0.5,
    fourier_scale=1.0, system="planted-hf",
)


@pytest.fixture(scope="module", params=["desk", "hf8"])
def plant_dir(request, tmp_path_factory):
    spec = plant_preset("desk") if request.param == "desk" else HF8
    directory = tmp_path_factory.mktemp(request.param)
    save_series(plant_series(spec).series, directory)
    return directory


def _small_series(directory, n_sets=3):
    """Bare sets of n_orb 2 at geometries 1, 2, ...: bodies of 3 + 6 lines."""
    rng = np.random.default_rng(1)
    sets = []
    for g in range(1, n_sets + 1):
        one, two = random_symmetric_tensors(2, Symmetry.EIGHT_FOLD, rng)
        sets.append(TensorSet(float(g), Kind.BARE, 2, 0.5, one, two, system="toy"))
    save_series(GeometrySeries(system="toy", tensor_sets=tuple(sets)), directory)
    return sorted(directory.glob("*.tensor"))


def _edit(path, change):
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(change(lines)) + "\n", encoding="utf-8")


def reference_save_canonical(path, tset):
    """The per-line writer the body template replaced: one f-string per
    orbit line."""
    lines = [
        f"# {FORMAT_TAG}",
        f"# system: {tset.system}",
        f"# geometry: {format(tset.geometry, '.17g')}",
        f"# kind: {tset.kind.value}",
        f"# n_orb: {tset.n_orb}",
        f"# scalar_term: {format(tset.scalar_term, '.17g')}",
    ]
    one = orbit_table(tset.n_orb, None)
    for (p, q), v in zip((one.reps + 1).tolist(), tset.one_body.ravel()[one.rep_flat].tolist()):
        lines.append(f"{v:.17g} {p} {q} 0 0")
    two = orbit_table(tset.n_orb, tset.symmetry)
    for (p, q, r, s), v in zip((two.reps + 1).tolist(), tset.two_body.ravel()[two.rep_flat].tolist()):
        lines.append(f"{v:.17g} {p} {q} {r} {s}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.fixture(scope="module", params=[*sorted(PLANT_PRESETS), "hf8"])
def planted_series(request):
    return plant_series(HF8 if request.param == "hf8" else plant_preset(request.param)).series


#: finite doubles whose text is easy to get wrong: signed zero, the smallest
#: subnormal, the extremes, an integral value and a non-terminating fraction
EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 2.0, 0.1]


class TestTemplateWriter:
    def test_plant_bytes_match_per_line_writer(self, planted_series, tmp_path):
        kinds = {t.kind for t in planted_series.tensor_sets}
        assert kinds == set(Kind)
        for tset in planted_series.tensor_sets:
            got, want = tmp_path / "got.tensor", tmp_path / "want.tensor"
            save_canonical(got, tset)
            reference_save_canonical(want, tset)
            assert got.read_bytes() == want.read_bytes(), (tset.geometry, tset.kind)

    @pytest.mark.parametrize("n_orb", [1, 2, 5])
    @pytest.mark.parametrize("kind", list(Kind))
    def test_edge_values_match_per_line_writer_and_roundtrip(self, kind, n_orb, tmp_path):
        # a TensorSet stores -0.0 entries as +0.0, so the signed zero is
        # the scalar term's
        tables = orbit_table(n_orb, None), orbit_table(n_orb, _ref_symmetry(kind))
        one, two = (t.expand(np.resize(EDGE_FLOATS, len(t.reps))) for t in tables)
        tset = TensorSet(EDGE_FLOATS[1], kind, n_orb, -0.0, one, two, system="edge")
        got, want = tmp_path / "got.tensor", tmp_path / "want.tensor"
        save_canonical(got, tset)
        reference_save_canonical(want, tset)
        assert got.read_bytes() == want.read_bytes()
        assert b"\n# scalar_term: -0\n" in got.read_bytes()
        back = load_canonical(got)
        assert_same_bits(back, tset)
        assert back.geometry == tset.geometry and back.scalar_term == tset.scalar_term

    def test_template_is_cached_per_shape(self):
        from tanfold.tensors import _body_template

        a = _body_template(3, Symmetry.EIGHT_FOLD)
        assert _body_template(3, Symmetry.EIGHT_FOLD) is a
        assert _body_template(3, Symmetry.FOUR_FOLD) != a
        assert a.count("%.17g") == 6 + len(orbit_table(3, Symmetry.EIGHT_FOLD).reps)


class TestBatchedReader:
    def test_series_matches_reference_bitwise(self, plant_dir):
        series = load_series(plant_dir)
        paths = sorted(plant_dir.glob("*.tensor"))
        assert len(series.tensor_sets) == len(paths)
        for path in paths:
            want = reference_canonical(path)
            assert_same_bits(series.get(want.geometry, want.kind), want)

    @pytest.mark.parametrize("kind", list(Kind))
    def test_kind_reads_the_subset_of_that_kind(self, plant_dir, kind):
        full = load_series(plant_dir)
        part = load_series(plant_dir, kind=kind)
        assert part.system == full.system
        assert len(part.tensor_sets) == len(full.of_kind(kind))
        for got, want in zip(part.tensor_sets, full.of_kind(kind)):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("change", [
        lambda body: ["nan 1 1 0 0"] + body,
        lambda body: body + ["2 1 1 0 0"],
        lambda body: body + ["1 1 3 0 0"],
        lambda body: body + ["1 1 0 1 0"],
        lambda body: body + ["1 -1 1 0 0"],
        lambda body: ["1 1 1 0"] + body,
        lambda body: body[:3] + ["1 1 1 0 0 0"] + body[3:],
        lambda body: body + ["abc 1 1 0 0"],
        lambda body: body + ["1 1 1.0 0 0"],
        lambda body: body + ["1 1 x 0 0"],
        lambda body: body + ["-0.5 0 0 0 0"],
        lambda body: body + ["0.75 0 0 0 0", "0.5 0 0 0 0"],
        lambda body: body[:2] + ["", "# note", "inf 1 1 0 0"] + body[2:],
        lambda body: body[:-1],
        lambda body: body[1:],
        lambda body: body[:-1] + ["1 1 x 0 0"],
        lambda body: body[:-1] + ["nan 1 1 0 0", "1 1 x 0 0"],
        lambda body: ["2 1 2 0 0", "1 1 9 0 0"] + body,
        lambda body: body + ["1 1 99999999999999999999 0 0"],
        lambda body: body + ["1 -99999999999999999999 1 0 0"],
        lambda body: body + ["nan 1_0 1 0 0"],
        lambda body: body + ["1e999 1 1 0 0"],
        lambda body: body + ["1 1 1 0 0\x00"],
    ])
    def test_same_message_as_reference(self, tmp_path, change):
        path = tmp_path / "set.tensor"
        save_canonical(path, TensorSet(1.0, Kind.BARE, 2, 0.75, np.eye(2), np.ones((2,) * 4)))
        _edit(path, lambda lines: lines[:6] + change(lines[6:]))
        assert raised(load_canonical, path) == raised(reference_canonical, path)
        assert raised(load_series, tmp_path) == raised(reference_canonical, path)

    @pytest.mark.parametrize("body", [
        "0.5 1 1 1 2\n0.6 2 1 1 1\n",
        "0.3 1 2 1 2\n0.4 1 2 2 1\n",
        "-1.5 0 0 0 0\n-1.25 0 0 0 0\n",
        "0.5 1 1 1\n",
        "0.5 1 3 0 0\n",
        "0.5 1 1 1 2\n-inf 1 2 0 0\n",
    ])
    def test_fcidump_message_as_reference(self, tmp_path, body):
        path = tmp_path / "dump.txt"
        path.write_text(f"&FCI NORB=2,NELEC=2\n&END\n{body}", encoding="utf-8")
        assert raised(load_fcidump, path, Kind.BARE) == raised(reference_fcidump, path, Kind.BARE)

    def test_fcidump_matches_reference_bitwise(self, tmp_path):
        rng = np.random.default_rng(4)
        lines = ["&FCI NORB=3", "&END", "# c", ""]
        lines += [f"{v!r} {p} {q} {r} {s}" for v, (p, q, r, s) in
                  zip(rng.normal(size=60), rng.integers(1, 4, size=(60, 4)).tolist())]
        lines += ["0.25 1 2 0 0", "0.25 2 1 0 0", "-3.5 0 0 0 0"]
        path = tmp_path / "dump.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for kind in Kind:
            try:
                want = reference_fcidump(path, kind)
            except TensorFormatError as exc:
                assert raised(load_fcidump, path, kind) == str(exc)
            else:
                assert_same_bits(load_fcidump(path, kind), want)

    def test_earliest_file_and_line_wins(self, tmp_path):
        paths = _small_series(tmp_path)
        clean = [path.read_text(encoding="utf-8") for path in paths]
        first, second, third = paths
        _edit(first, lambda lines: lines + ["1 1 9 0 0"])
        _edit(second, lambda lines: lines[:6] + ["nan 1 1 0 0"] + lines[6:])
        _edit(third, lambda lines: lines[:1] + ["# n_orb: two"] + lines[1:])
        assert raised(load_series, tmp_path) == f"{first}:16: index 9 out of range for n_orb=2"
        first.write_text(clean[0], encoding="utf-8")
        _edit(first, lambda lines: lines[:-1])
        assert raised(load_series, tmp_path).startswith(f"{first}: truncated file")
        first.write_text(clean[0], encoding="utf-8")
        assert raised(load_series, tmp_path) == f"{second}:7: non-finite value 'nan'"
        second.write_text(clean[1], encoding="utf-8")
        assert raised(load_series, tmp_path) == f"{third}:6: repeated header field 'n_orb'"

    @pytest.mark.parametrize("field", ["system", "geometry", "kind", "n_orb", "scalar_term"])
    def test_repeated_header_field_rejected(self, tmp_path, field):
        path = tmp_path / "set.tensor"
        save_canonical(path, TensorSet.zeros(1.0, Kind.BARE, 2))
        _edit(path, lambda lines: lines[:6] + [next(ln for ln in lines if ln.startswith(f"# {field}:"))] + lines[6:])
        assert raised(load_canonical, path) == f"{path}:7: repeated header field {field!r}"

    def test_index_written_as_float_rejected(self, tmp_path):
        path = tmp_path / "set.tensor"
        save_canonical(path, TensorSet.zeros(1.0, Kind.BARE, 2))
        _edit(path, lambda lines: lines + ["1 1.0 1 0 0"])
        assert raised(load_canonical, path) == f"{path}:16: invalid literal for int() with base 10: '1.0'"

    def test_index_written_as_float_rejected_by_warning_numpy(self, tmp_path, monkeypatch):
        # numpy releases that read "1.0" as an integer warned instead of raising
        real = np.loadtxt

        def warning_loadtxt(rows, **kwargs):
            if any(" 1.0 " in row for row in rows):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return real([row.replace(" 1.0 ", " 1 ") for row in rows], **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        self.test_index_written_as_float_rejected(tmp_path)

    @pytest.mark.parametrize("line", ["1_0 1 1 0 0", "1 1_0 1 0 0", "\uff11 1 1 0 0"])
    def test_non_ascii_decimal_rejected(self, tmp_path, line):
        # Python's float and int read these; the body grammar does not
        path = tmp_path / "set.tensor"
        save_canonical(path, TensorSet.zeros(1.0, Kind.BARE, 2))
        _edit(path, lambda lines: lines + [line])
        assert raised(load_canonical, path) == (
            f"{path}:16: expected an ASCII decimal value and four integers, got {line!r}")
