"""Unit tests for repro._util."""

import numpy as np
import pytest

from repro._util import (
    atomic_write_text,
    check_choice,
    check_positive,
    check_range,
    clamp,
    format_table,
    geometric_mean,
    percentile,
    rng_for,
    stable_seed,
    truthy,
)


class TestValidation:
    def test_check_range_accepts_bounds(self):
        check_range("x", 0, 0, 10)
        check_range("x", 10, 0, 10)

    def test_check_range_rejects_outside(self):
        with pytest.raises(ValueError, match="x must be in"):
            check_range("x", 11, 0, 10)
        with pytest.raises(ValueError):
            check_range("x", -1, 0, 10)

    def test_check_positive(self):
        check_positive("n", 1e-9)
        with pytest.raises(ValueError):
            check_positive("n", 0)
        with pytest.raises(ValueError):
            check_positive("n", -3)

    def test_check_choice(self):
        check_choice("mode", "a", ("a", "b"))
        with pytest.raises(ValueError, match="mode must be one of"):
            check_choice("mode", "c", ("a", "b"))


class TestSeeding:
    def test_stable_seed_deterministic(self):
        assert stable_seed("a", 1, "b") == stable_seed("a", 1, "b")

    def test_stable_seed_distinguishes_parts(self):
        assert stable_seed("a", 1) != stable_seed("a", 2)
        assert stable_seed("ab") != stable_seed("a", "b")

    def test_stable_seed_is_63_bit(self):
        for parts in (("x",), ("y", 2), (1, 2, 3)):
            s = stable_seed(*parts)
            assert 0 <= s < (1 << 63)

    def test_rng_for_reproducible_streams(self):
        a = rng_for("scene", 1).random(8)
        b = rng_for("scene", 1).random(8)
        assert np.array_equal(a, b)

    def test_rng_for_independent_streams(self):
        a = rng_for("scene", 1).random(8)
        b = rng_for("scene", 2).random(8)
        assert not np.array_equal(a, b)


class TestClamp:
    def test_inside(self):
        assert clamp(5, 0, 10) == 5

    def test_edges(self):
        assert clamp(-1, 0, 10) == 0
        assert clamp(11, 0, 10) == 10


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_single(self):
        assert geometric_mean([7.0]) == pytest.approx(7.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0
        assert percentile((), 50) == 0.0

    def test_matches_numpy_bit_for_bit(self):
        values = [0.31, 0.07, 2.5, 1.125, 0.9]
        for q in (50, 90, 99):
            result = percentile(values, q)
            assert type(result) is float
            assert result == float(np.percentile(values, q))

    def test_interpolates_linearly(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([5.0], 99) == 5.0


class TestFormatTable:
    def test_basic_shape(self):
        out = format_table(["a", "bb"], [[1, 2.5], [3, 4.25]])
        lines = out.splitlines()
        assert len(lines) == 4  # header, separator, 2 rows
        assert "a" in lines[0] and "bb" in lines[0]
        assert "2.500" in out and "4.250" in out

    def test_floatfmt(self):
        out = format_table(["v"], [[1.23456]], floatfmt=".1f")
        assert "1.2" in out and "1.23" not in out

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="row length"):
            format_table(["a", "b"], [[1]])

    def test_column_alignment(self):
        out = format_table(["name", "v"], [["long-name", 1], ["x", 2]])
        lines = out.splitlines()
        # All rows should have equal width.
        assert len({len(l) for l in lines}) == 1


class TestTruthy:
    @pytest.mark.parametrize("value", ["1", "true", "YES", " on ", True, 1])
    def test_true_spellings(self, value):
        assert truthy(value) is True

    @pytest.mark.parametrize("value", ["0", "false", "no", "", "2", False, 0])
    def test_everything_else_is_false(self, value):
        assert truthy(value) is False


class TestAtomicWriteText:
    def test_content_lands_and_parents_are_created(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.json"
        assert atomic_write_text(target, "hello\n") == target
        assert target.read_text(encoding="utf-8") == "hello\n"

    def test_existing_file_is_replaced_whole(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("a much longer previous payload\n")
        atomic_write_text(target, "new\n")
        assert target.read_text() == "new\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_write_keeps_old_content_and_no_tmp(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old\n")
        # A lone surrogate cannot be encoded as UTF-8: the write raises
        # after the temp file was created and opened.
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(target, "partial \ud800")
        assert target.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [target]
