import json

import numpy as np
import pytest

from dcsam.errors import EmptyReport, FrameCountMismatch, ShapeMismatch
from dcsam.metrics import (
    MetricReport,
    boundary_f,
    boundary_pixels,
    default_boundary_tol,
    iou,
    jf_score,
    mask_scores,
    miou,
    report_csv_text,
    write_report,
)


def iou_loops(a, b):
    inter = union = 0
    for x, y in zip(a.reshape(-1), b.reshape(-1)):
        inter += int(x == 1 and y == 1)
        union += int(x == 1 or y == 1)
    return 1.0 if union == 0 else inter / union


def test_iou_hand_case():
    a = np.zeros((4, 4))
    b = np.zeros((4, 4))
    a[:2, :2] = 1  # 4 px
    b[:2, 1:3] = 1  # 4 px, overlap 2
    assert iou(a, b) == pytest.approx(2 / 6, abs=0)


def test_iou_both_empty_is_one():
    z = np.zeros((5, 5))
    assert iou(z, z) == 1.0


def test_iou_disjoint_is_zero():
    a = np.zeros((4, 4))
    b = np.zeros((4, 4))
    a[0, 0] = 1
    b[3, 3] = 1
    assert iou(a, b) == 0.0


def test_iou_matches_loop_reference(rng):
    for _ in range(25):
        a = (rng.random((6, 6)) > 0.5).astype(float)
        b = (rng.random((6, 6)) > 0.5).astype(float)
        assert iou(a, b) == pytest.approx(iou_loops(a, b), abs=1e-15)


def test_iou_rejects_nonbinary():
    with pytest.raises(ValueError):
        iou(np.full((3, 3), 0.5), np.zeros((3, 3)))


def test_iou_rejects_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        iou(np.zeros((3, 3)), np.zeros((4, 4)))


def test_miou_mean_and_empty():
    assert miou({0: 0.2, 1: 0.4, 2: 0.6}) == pytest.approx(0.4)
    with pytest.raises(EmptyReport):
        miou({})


def test_default_boundary_tol():
    assert default_boundary_tol((16, 16)) == 1
    assert default_boundary_tol((480, 854)) == 8


def test_boundary_pixels_square():
    m = np.zeros((6, 6))
    m[1:5, 1:5] = 1
    border = boundary_pixels(m)
    # interior 2x2 block is fully surrounded, everything else on the square rim
    want = m.copy()
    want[2:4, 2:4] = 0
    assert np.array_equal(border, want.astype(bool))


def test_boundary_f_identical_is_one():
    m = np.zeros((8, 8))
    m[2:6, 2:6] = 1
    assert boundary_f(m, m) == 1.0


def test_boundary_f_both_empty_is_one_single_empty_zero():
    z = np.zeros((8, 8))
    m = z.copy()
    m[2:5, 2:5] = 1
    assert boundary_f(z, z) == 1.0
    assert boundary_f(m, z) == 0.0
    assert boundary_f(z, m) == 0.0


def test_boundary_f_one_pixel_shift_within_tol():
    a = np.zeros((16, 16))
    b = np.zeros((16, 16))
    a[4:9, 4:9] = 1
    b[5:10, 4:9] = 1  # shifted one row, tol for 16x16 is 1
    assert boundary_f(a, b) == 1.0


def test_boundary_f_symmetry(rng):
    for _ in range(50):
        a = (rng.random((10, 10)) > 0.6).astype(float)
        b = (rng.random((10, 10)) > 0.6).astype(float)
        assert boundary_f(a, b) == pytest.approx(boundary_f(b, a), abs=1e-12)


def test_jf_score_hand_case():
    # one frame: J = IoU = 1/3, F = 1 (boundaries within tol), J&F = their mean
    a = np.zeros((16, 16))
    b = np.zeros((16, 16))
    a[4:8, 4:8] = 1
    b[4:8, 4:8] = 1
    rep_same = jf_score([a], [b])
    assert rep_same.j == 1.0 and rep_same.f == 1.0 and rep_same.jf == 1.0
    assert rep_same.miou == rep_same.j  # tube report mirrors J

    c = np.zeros((16, 16))
    c[6:10, 4:8] = 1  # half-overlap with a: inter 8, union 24
    rep = jf_score([a, a], [a, c])
    assert rep.j == pytest.approx((1.0 + 8 / 24) / 2, abs=1e-12)
    assert rep.jf == pytest.approx(0.5 * (rep.j + rep.f), abs=1e-12)


def test_jf_score_frame_count_and_empty():
    m = np.zeros((8, 8))
    with pytest.raises(FrameCountMismatch):
        jf_score([m, m], [m])
    with pytest.raises(EmptyReport):
        jf_score([], [])
    # shapes are checked frame by frame, before the masks are stacked
    with pytest.raises(ShapeMismatch):
        jf_score([m, np.zeros((9, 9))], [m, m])
    with pytest.raises(ShapeMismatch):
        jf_score([m, m], [m, np.zeros((8, 9))])
    with pytest.raises(ShapeMismatch):
        jf_score([m, m], [np.zeros((9, 9)), np.zeros((9, 9))])
    with pytest.raises(ShapeMismatch):
        jf_score([np.zeros((2, 8, 8))], [m])
    with pytest.raises(ValueError):
        jf_score([m, np.full((8, 8), 0.5)], [m, m])


def random_mask_pairs(rng, count=40, shape=(12, 12)):
    """Random masks of varied density, plus empty (boundary-free), full and
    single-pixel masks against empty and non-empty partners."""
    def mask(density):
        return (rng.random(shape) < density).astype(float)

    preds = [mask(rng.random()) for _ in range(count)]
    gts = [mask(rng.random()) for _ in range(count)]
    empty, full, dot = np.zeros(shape), np.ones(shape), np.zeros(shape)
    dot[5, 7] = 1.0
    preds += [empty, empty, gts[0], full, dot, dot, empty]
    gts += [empty, preds[0], empty, full, dot, empty, full]
    return preds, gts


def test_mask_scores_equal_per_mask_metrics(rng):
    preds, gts = random_mask_pairs(rng)
    js, fs = mask_scores(preds, gts)
    assert js.tolist() == [iou(p, g) for p, g in zip(preds, gts)]
    assert fs.tolist() == [boundary_f(p, g) for p, g in zip(preds, gts)]
    assert js.tolist() == [iou_loops(p, g) for p, g in zip(preds, gts)]
    rep = jf_score(preds, gts)
    assert rep.j == float(np.mean([iou(p, g) for p, g in zip(preds, gts)]))
    assert rep.f == float(np.mean([boundary_f(p, g) for p, g in zip(preds, gts)]))


def test_boundary_pixels_of_a_stack_are_per_mask(rng):
    preds, _ = random_mask_pairs(rng)
    stacked = boundary_pixels(np.stack(preds))
    for mask, border in zip(preds, stacked):
        assert np.array_equal(border, boundary_pixels(mask))
    with pytest.raises(ShapeMismatch):
        boundary_pixels(np.zeros(5))


def test_report_from_classes():
    rep = MetricReport.from_classes({3: 0.4, 5: 0.8}, j=0.6, f=0.5)
    assert rep.miou == pytest.approx(0.6)
    assert rep.jf == pytest.approx(0.55)


def test_report_csv_text_layout():
    rep = MetricReport.from_classes({1: 0.25, 2: 0.75}, j=0.5, f=0.5)
    text = report_csv_text(0, rep)
    lines = text.strip().splitlines()
    assert lines[0] == "fold,class_id,iou"
    assert lines[1].startswith("0,1,")
    assert float(lines[1].split(",")[2]) == 0.25
    assert lines[-1].startswith("# summary")
    assert "miou=0.5" in lines[-1]


def test_write_report_csv_and_sidecar(tmp_path):
    rep = MetricReport.from_classes({0: 0.5, 1: 1.0}, j=0.75, f=0.9)
    out = tmp_path / "report.csv"
    write_report(out, 2, rep)
    assert out.read_text() == report_csv_text(2, rep)
    sidecar = json.loads(out.with_suffix(".json").read_text())
    assert sidecar["fold"] == 2
    assert sidecar["miou"] == pytest.approx(0.75)


def test_write_report_rejects_empty(tmp_path):
    rep = MetricReport.from_tube(j=0.5, f=0.5)
    with pytest.raises(EmptyReport):
        write_report(tmp_path / "r.csv", 0, rep)
