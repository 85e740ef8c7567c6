"""Tests for the Trace container and CSV round-tripping (repro.traces)."""

import numpy as np
import pytest

from repro.traces import (
    Trace,
    TraceFormatError,
    iter_trace_chunks,
    read_csv_trace,
    write_csv_trace,
)


def make_trace(**meta):
    return Trace(
        times=[0.0, 1.0, 2.5, 2.5, 10.0],
        lbns=[100, 200, 100, 300, 50],
        sectors=[8, 16, 8, 32, 8],
        is_write=[False, True, False, False, True],
        **meta,
    )


class TestTrace:
    def test_len_and_duration(self):
        trace = make_trace()
        assert len(trace) == 5
        assert trace.duration == 10.0

    def test_empty_trace(self):
        trace = Trace(np.zeros(0), np.zeros(0, int), np.ones(0, int), np.zeros(0, bool))
        assert len(trace) == 0
        assert trace.duration == 0.0

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            Trace([1.0, 0.5], [0, 0], [8, 8], [False, False])

    def test_rejects_bad_sectors_and_lbns(self):
        with pytest.raises(ValueError):
            Trace([0.0], [0], [0], [False])
        with pytest.raises(ValueError):
            Trace([0.0], [-1], [8], [False])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Trace([0.0, 1.0], [0], [8], [False])

    def test_columns_are_read_only(self):
        trace = make_trace()
        for column in ("lbns", "is_write"):
            with pytest.raises(AttributeError):
                setattr(trace, column, np.zeros(5))

    def test_a_pending_draw_runs_once_on_first_read(self):
        calls = []

        def draw():
            calls.append(1)
            return [1, 2], [True, False]

        trace = Trace([0.0, 1.0], None, [8, 8], None, draw=draw)
        assert calls == [] and len(trace) == 2
        assert trace.is_write.tolist() == [True, False]
        assert trace.lbns.dtype == np.int64 and trace.lbns.tolist() == [1, 2]
        assert calls == [1]

    @pytest.mark.parametrize("columns", [
        ([1], [True, False]),  # a short address column
        ([1, 2], [True]),  # a short write-flag column
        ([1, -2], [True, False]),  # a negative LBN
    ])
    def test_drawn_columns_get_the_constructor_checks(self, columns):
        trace = Trace([0.0, 1.0], None, [8, 8], None, draw=lambda: columns)
        with pytest.raises(ValueError):
            trace.lbns
        unchecked = Trace(
            [0.0, 1.0], None, [8, 8], None, validate=False, draw=lambda: columns
        )
        assert unchecked.lbns.tolist() == columns[0]

    def test_window_rebases_times(self):
        trace = make_trace()
        sub = trace.window(1.0, 3.0)
        assert len(sub) == 3
        assert sub.times[0] == 0.0
        assert np.allclose(sub.times, [0.0, 1.5, 1.5])

    def test_window_invalid(self):
        with pytest.raises(ValueError):
            make_trace().window(5.0, 1.0)

    @staticmethod
    def assert_window_is_the_mask(trace, start, end):
        """``window`` slices between two binary searches; the mask over
        the whole column it replaced is the reference."""
        mask = (trace.times >= start) & (trace.times < end)
        sub = trace.window(start, end)
        assert sub.times.tobytes() == (trace.times[mask] - start).tobytes()
        assert sub.lbns.tobytes() == trace.lbns[mask].tobytes()
        assert sub.sectors.tobytes() == trace.sectors[mask].tobytes()
        assert sub.is_write.tobytes() == trace.is_write[mask].tobytes()
        assert (sub.name, sub.capacity_sectors) == (trace.name, trace.capacity_sectors)
        for column in (sub.times, sub.lbns, sub.sectors, sub.is_write):
            assert column.base is None  # a copy: the parent can be freed
        return sub

    def test_window_equals_the_mask_it_replaced(self):
        rng = np.random.default_rng(5)
        # Quarter-second grid: plenty of duplicate times, so windows
        # start and end inside runs of equal arrivals.
        times = np.sort(rng.integers(0, 400, size=2000) / 4.0)
        trace = Trace(
            times, rng.integers(0, 10**6, size=2000),
            rng.integers(1, 129, size=2000), rng.random(2000) < 0.3,
            name="w", capacity_sectors=10**7,
        )
        for _ in range(200):
            start, end = np.sort(rng.integers(-8, 420, size=2) / 4.0)
            self.assert_window_is_the_mask(trace, float(start), float(end))
        first, last = float(times[0]), float(times[-1])
        assert len(self.assert_window_is_the_mask(trace, first, last)) < len(trace)
        whole = self.assert_window_is_the_mask(trace, first, last + 0.25)
        assert len(whole) == len(trace)
        assert len(self.assert_window_is_the_mask(trace, 50.0, 50.0)) == 0
        assert len(self.assert_window_is_the_mask(trace, 50.1, 50.2)) == 0
        assert len(self.assert_window_is_the_mask(trace, last + 1, last + 9)) == 0
        assert len(self.assert_window_is_the_mask(trace, -9.0, first)) == 0

    def test_window_of_an_unvalidated_chunk_view(self):
        parent = make_trace(name="chunked", capacity_sectors=4096)
        view = Trace(
            parent.times[1:], parent.lbns[1:], parent.sectors[1:],
            parent.is_write[1:], name=parent.name,
            capacity_sectors=parent.capacity_sectors, validate=False,
        )
        sub = self.assert_window_is_the_mask(view, 2.5, 10.0)
        assert sub.lbns.tolist() == [100, 300]
        assert len(self.assert_window_is_the_mask(view, 0.0, 99.0)) == 4

    def test_requests_per_bin(self):
        trace = make_trace()
        counts = trace.requests_per_bin(bin_seconds=5.0)
        assert counts.tolist() == [4, 1]

    def test_requests_per_bin_invalid(self):
        with pytest.raises(ValueError):
            make_trace().requests_per_bin(0)


class TestCsvIO:
    def test_roundtrip(self, tmp_path):
        trace = make_trace(
            name="unit", description="round trip", capacity_sectors=1000
        )
        path = tmp_path / "trace.csv"
        write_csv_trace(trace, path)
        loaded = read_csv_trace(path)
        assert loaded.name == "unit"
        assert loaded.description == "round trip"
        assert loaded.capacity_sectors == 1000
        assert np.allclose(loaded.times, trace.times)
        assert np.array_equal(loaded.lbns, trace.lbns)
        assert np.array_equal(loaded.is_write, trace.is_write)

    def test_roundtrip_gzip(self, tmp_path):
        trace = make_trace(name="zipped")
        path = tmp_path / "trace.csv.gz"
        write_csv_trace(trace, path)
        loaded = read_csv_trace(path)
        assert len(loaded) == len(trace)

    def test_msr_dialect(self, tmp_path):
        path = tmp_path / "msr.csv"
        ticks = 10_000_000
        path.write_text(
            f"128166372003061629,src1,1,Read,{512 * 1000},4096,1500\n"
            f"{128166372003061629 + ticks},src1,1,Write,{512 * 2000},8192,800\n"
        )
        trace = read_csv_trace(path)
        assert len(trace) == 2
        assert trace.times[0] == 0.0
        assert trace.times[1] == pytest.approx(1.0)
        assert trace.lbns.tolist() == [1000, 2000]
        assert trace.sectors.tolist() == [8, 16]
        assert trace.is_write.tolist() == [False, True]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# name: nothing\n")
        trace = read_csv_trace(path)
        assert len(trace) == 0
        assert trace.name == "nothing"

    def test_unrecognised_dialect(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError, match="dialect"):
            read_csv_trace(path)

    def test_unsorted_canonical_is_sorted(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        path.write_text(
            "time,lbn,sectors,op\n5.0,10,8,R\n1.0,20,8,W\n"
        )
        trace = read_csv_trace(path)
        assert trace.times.tolist() == [1.0, 5.0]
        assert trace.lbns.tolist() == [20, 10]


class TestTraceFormatError:
    """Malformed rows fail with the offending line number in the message."""

    CANONICAL = "# name: t\ntime,lbn,sectors,op\n0.5,100,8,R\n"

    def test_is_a_value_error(self):
        assert issubclass(TraceFormatError, ValueError)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(self.CANONICAL + "1.0,200,8\n")
        with pytest.raises(TraceFormatError, match=r"t\.csv:4: malformed row"):
            read_csv_trace(path)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(self.CANONICAL + "1.0,200,8,W\n2.0,oops,8,R\n")
        with pytest.raises(
            TraceFormatError, match=r"t\.csv:5: non-numeric lbn: 'oops'"
        ):
            read_csv_trace(path)

    def test_negative_offset_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(self.CANONICAL + "1.0,-200,8,W\n")
        with pytest.raises(TraceFormatError, match=r"t\.csv:4: negative lbn"):
            read_csv_trace(path)

    def test_non_positive_sectors_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(self.CANONICAL + "1.0,200,0,W\n")
        with pytest.raises(
            TraceFormatError, match=r"t\.csv:4: non-positive sectors"
        ):
            read_csv_trace(path)

    def test_unknown_op_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(self.CANONICAL + "1.0,200,8,X\n")
        with pytest.raises(
            TraceFormatError, match=r"t\.csv:4: unknown operation"
        ):
            read_csv_trace(path)

    def test_missing_column_names_header_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,lbn,op\n1.0,200,R\n")
        with pytest.raises(
            TraceFormatError, match=r"t\.csv:1: .*missing column 'sectors'"
        ):
            read_csv_trace(path)

    def test_bad_capacity_metadata_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# capacity_sectors: lots\ntime,lbn,sectors,op\n")
        with pytest.raises(
            TraceFormatError, match=r"t\.csv:1: non-numeric capacity_sectors"
        ):
            read_csv_trace(path)

    def test_msr_negative_offset_names_line(self, tmp_path):
        path = tmp_path / "msr.csv"
        path.write_text(
            "128166372003061629,src1,1,Read,512000,4096,1500\n"
            "128166372013061629,src1,1,Write,-512,8192,800\n"
        )
        with pytest.raises(
            TraceFormatError, match=r"msr\.csv:2: negative offset_bytes"
        ):
            read_csv_trace(path)

    def test_msr_non_numeric_timestamp_names_line(self, tmp_path):
        path = tmp_path / "msr.csv"
        path.write_text(
            "128166372003061629,src1,1,Read,512000,4096,1500\n"
            "tick,src1,1,Read,512000,4096,1500\n"
        )
        with pytest.raises(
            TraceFormatError, match=r"msr\.csv:2: non-numeric timestamp"
        ):
            read_csv_trace(path)

    def test_good_files_still_parse(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(self.CANONICAL + "1.0,200,8,W\n")
        trace = read_csv_trace(path)
        assert len(trace) == 2
        assert trace.is_write.tolist() == [False, True]


class TestReadLimits:
    def _write(self, tmp_path, n=50, gz=False):
        trace = Trace(
            times=np.arange(n, dtype=float) * 0.5,
            lbns=np.arange(n) * 8,
            sectors=np.full(n, 8),
            is_write=np.arange(n) % 2 == 0,
            name="limits",
        )
        path = tmp_path / ("t.csv.gz" if gz else "t.csv")
        write_csv_trace(trace, path)
        return trace, path

    def test_max_requests_prefix(self, tmp_path):
        trace, path = self._write(tmp_path)
        loaded = read_csv_trace(path, max_requests=10)
        assert len(loaded) == 10
        assert np.array_equal(loaded.times, trace.times[:10])
        assert np.array_equal(loaded.lbns, trace.lbns[:10])

    def test_max_requests_zero_and_overshoot(self, tmp_path):
        trace, path = self._write(tmp_path)
        assert len(read_csv_trace(path, max_requests=0)) == 0
        assert len(read_csv_trace(path, max_requests=10_000)) == len(trace)

    def test_max_requests_negative_rejected(self, tmp_path):
        _, path = self._write(tmp_path)
        with pytest.raises(ValueError, match="max_requests"):
            read_csv_trace(path, max_requests=-1)

    def test_max_requests_on_gzip(self, tmp_path):
        trace, path = self._write(tmp_path, gz=True)
        loaded = read_csv_trace(path, max_requests=7)
        assert np.array_equal(loaded.times, trace.times[:7])


class TestIterTraceChunks:
    def test_chunked_equals_whole_canonical(self, tmp_path):
        n = 37
        trace = Trace(
            times=np.arange(n, dtype=float) * 0.25,
            lbns=np.arange(n) * 16,
            sectors=np.full(n, 8),
            is_write=np.zeros(n, bool),
        )
        path = tmp_path / "t.csv"
        write_csv_trace(trace, path)
        chunks = list(iter_trace_chunks(path, chunk_requests=10))
        assert [len(c) for c in chunks] == [10, 10, 10, 7]
        assert np.array_equal(
            np.concatenate([c.times for c in chunks]), trace.times
        )
        assert np.array_equal(
            np.concatenate([c.lbns for c in chunks]), trace.lbns
        )

    def test_chunked_equals_whole_msr(self, tmp_path):
        path = tmp_path / "msr.csv"
        base = 128166372003061629
        rows = [
            f"{base + i * 2_500_000},src1,1,{'Write' if i % 3 else 'Read'},"
            f"{512 * (100 + i)},4096,800"
            for i in range(25)
        ]
        path.write_text("\n".join(rows) + "\n")
        whole = read_csv_trace(path)
        chunks = list(iter_trace_chunks(path, chunk_requests=8))
        assert np.array_equal(
            np.concatenate([c.times for c in chunks]), whole.times
        )
        assert np.array_equal(
            np.concatenate([c.lbns for c in chunks]), whole.lbns
        )
        assert np.array_equal(
            np.concatenate([c.is_write for c in chunks]), whole.is_write
        )

    def test_chunked_gzip(self, tmp_path):
        n = 30
        trace = Trace(
            times=np.arange(n, dtype=float),
            lbns=np.arange(n),
            sectors=np.full(n, 8),
            is_write=np.zeros(n, bool),
        )
        path = tmp_path / "t.csv.gz"
        write_csv_trace(trace, path)
        chunks = list(iter_trace_chunks(path, chunk_requests=8))
        assert [len(c) for c in chunks] == [8, 8, 8, 6]
        assert np.array_equal(
            np.concatenate([c.times for c in chunks]), trace.times
        )

    def test_empty_file_yields_nothing(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# name: nothing\n")
        assert list(iter_trace_chunks(path)) == []
