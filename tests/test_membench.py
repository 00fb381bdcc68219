"""Access-class offset planning and the timing report shape."""

import numpy as np
import pytest

from ruma import membench
from ruma.membench import (
    AccessClass,
    BenchError,
    BenchSpec,
    full_report,
    plan_offsets,
    run_bench,
    run_copy_bench,
    validate_offset,
)

import oracles

TINY = dict(iterations=20_000)


def test_planned_offsets_default_geometry():
    offsets = plan_offsets(BenchSpec(width=8, **TINY))
    assert offsets[AccessClass.A] == 0
    assert offsets[AccessClass.BC] % 64 == 60  # bytes 60..68 span two lines
    assert offsets[AccessClass.BP] % 4096 == 4092


@pytest.mark.parametrize("width", [2, 4, 8])
def test_planned_offsets_realize_their_classes(width):
    offsets = plan_offsets(BenchSpec(width=width, **TINY))
    line, page = 64, 4096
    a, u = offsets[AccessClass.A], offsets[AccessClass.U]
    bc, bp = offsets[AccessClass.BC], offsets[AccessClass.BP]
    assert a % width == 0 and not oracles.spans_border(a, width, line)
    assert u % width != 0 and not oracles.spans_border(u, width, line)
    assert oracles.spans_border(bc, width, line)
    assert not oracles.spans_border(bc, width, page)
    assert oracles.spans_border(bp, width, page)


@pytest.mark.parametrize("width", [2, 4, 8])
def test_timed_views_realize_their_classes_at_absolute_addresses(width, monkeypatch):
    # The CPU sees addresses, not offsets: a buffer that does not start a
    # page moves every border out from under the BC and BP views.
    addresses = []

    def record(op_fn, target, repeats):
        addresses.append(target.ctypes.data)
        return 1.0

    monkeypatch.setattr(membench, "_time_cell", record)
    run_bench(BenchSpec(width=width, **TINY))
    a, u, bc, bp = addresses
    line, page = 64, 4096
    assert a % width == 0 and not oracles.spans_border(a, width, line)
    assert u % width != 0 and not oracles.spans_border(u, width, line)
    assert oracles.spans_border(bc, width, line)
    assert not oracles.spans_border(bc, width, page)
    assert oracles.spans_border(bp, width, page)


def test_validate_offset_rejects_wrong_class():
    with pytest.raises(BenchError):
        validate_offset(AccessClass.A, 1, 8)
    with pytest.raises(BenchError):
        validate_offset(AccessClass.BC, 0, 8)
    with pytest.raises(BenchError):
        validate_offset(AccessClass.BP, 60, 8)


def test_spec_errors():
    with pytest.raises(BenchError):
        plan_offsets(BenchSpec(width=128, **TINY))
    with pytest.raises(BenchError):
        plan_offsets(BenchSpec(width=3, **TINY))
    with pytest.raises(BenchError):
        plan_offsets(BenchSpec(width=8, iterations=0))
    with pytest.raises(BenchError):
        plan_offsets(BenchSpec(width=8, op="fma", **TINY))
    with pytest.raises(BenchError):
        plan_offsets(BenchSpec(width=64, **TINY))


@pytest.mark.parametrize("op", ["load", "store", "load-store"])
def test_run_bench_reports_all_four_classes(op):
    report = run_bench(BenchSpec(width=8, op=op, **TINY))
    classes = [c.access_class for c in report.cells]
    assert classes == ["A", "U", "BC", "BP"]
    for cell in report.cells:
        assert cell.seconds > 0
        assert cell.ratio > 0
        assert cell.op == op
    a_cell = next(c for c in report.cells if c.access_class == "A")
    assert a_cell.ratio == 1.0 and a_cell.penalty_pct == 0.0


def test_ordering_lines_are_pass_or_warn_never_raise():
    report = run_bench(BenchSpec(width=8, **TINY))
    assert len(report.orderings) == 3
    for entry in report.orderings:
        assert entry["status"] in ("pass", "warn")
        assert entry["expectation"]
    assert any("no CPU pinning" in n for n in report.notes)


def test_copy_bench_pair():
    cells = run_copy_bench(scale=0.001)  # 100 copies of 1 MiB
    assert [c.access_class for c in cells] == ["A", "U"]
    assert all(c.op == "copy" for c in cells)
    assert cells[0].ratio == 1.0


def test_timed_copy_misaligns_destination_against_source(monkeypatch):
    # Shifting both sides by the same byte leaves them aligned with each
    # other after a one-byte head; only a one-sided shift misaligns the copy.
    targets = []

    def record(op_fn, target, repeats):
        targets.append(target)
        return 1.0

    monkeypatch.setattr(membench, "_time_cell", record)
    run_copy_bench(scale=0.001)
    (a_dst, a_src), (u_dst, u_src) = [
        [np.frombuffer(view, dtype=np.uint8).ctypes.data for view in pair]
        for pair in targets
    ]
    assert all(view.nbytes == 1 << 20 for pair in targets for view in pair)
    assert a_dst % 4096 == 0 and a_src % 4096 == 0
    assert u_src % 4096 == 0 and u_dst % 4096 == 1


def test_full_report_merges_ops_and_copy():
    report = full_report(width=8, iterations=20_000, scale=0.0005)
    ops = {(c.op, c.access_class) for c in report.cells}
    for op in ("load", "store", "load-store"):
        for cls in ("A", "U", "BC", "BP"):
            assert (op, cls) in ops
    assert ("copy", "A") in ops and ("copy", "U") in ops
    assert len(report.orderings) == 9


def test_full_report_checks_scale_before_timing(monkeypatch):
    def no_timing(spec):
        raise AssertionError("a cell was timed before the scale was checked")

    monkeypatch.setattr(membench, "run_bench", no_timing)
    with pytest.raises(BenchError):
        full_report(width=8, iterations=1 << 27, scale=2)


def test_csv_rows_shape():
    report = run_bench(BenchSpec(width=8, **TINY))
    rows = report.csv_rows()
    assert rows[0] == "class,width,op,seconds,ratio"
    assert len(rows) == 5
    assert rows[1].startswith("A,8,load,")
