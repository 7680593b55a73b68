import numpy as np
import pytest

from lcftraffic.baselines import EMPTY_VEH, fit_lr, region_mean_speeds
from lcftraffic.harness import make_predictor
from lcftraffic.partition import PartitionAssignment, PartitionParams


def make_partition(labels: dict, k: int) -> PartitionAssignment:
    return PartitionAssignment(labels=labels, centroids=np.zeros((k, 3)),
                               params=PartitionParams(k=k))


def fake_record(speeds, accumulation=None, mean_speed=None):
    from lcftraffic.simulate import SimRecord
    speeds = np.asarray(speeds, dtype=float)
    if accumulation is None:
        accumulation = np.ones_like(speeds)
    w, z = speeds.shape
    return SimRecord(link_ids=tuple(range(z)), window_s=180.0, step_s=5.0,
                     speeds=speeds, accumulation=accumulation,
                     outflow=np.ones_like(speeds),
                     mean_speed=speeds.mean(axis=1) if mean_speed is None
                     else np.asarray(mean_speed, dtype=float),
                     production=np.ones(w), total_accumulation=np.ones(w))


def mfd(rec):
    return make_predictor("MFD", None, {})(None, rec)


def mfd_p(rec, part):
    return make_predictor("MFD-P", part, {})(None, rec)


def test_mfd_baseline_definition():
    rec = fake_record([[10.0, 20.0, 30.0]])
    assert mfd(rec).tolist() == [[20.0, 20.0, 20.0]]


def test_mfd_baseline_error_mean_identity():
    rng = np.random.default_rng(0)
    truth = rng.uniform(5, 25, size=200)
    v_mean = 14.2
    err = mfd(fake_record([truth], mean_speed=[v_mean]))[0] - truth
    assert err.mean() == pytest.approx(v_mean - truth.mean(), abs=1e-12)


def test_mfd_p_single_region_equals_mfd():
    rec = fake_record([[10.0, 20.0, 30.0]])
    part = make_partition({0: 0, 1: 0, 2: 0}, k=1)
    out = mfd_p(rec, part)[0]
    assert np.allclose(out, 20.0)


def test_mfd_p_two_regions():
    rec = fake_record([[10.0, 10.0, 30.0, 30.0]])
    part = make_partition({0: 0, 1: 0, 2: 1, 3: 1}, k=2)
    out = mfd_p(rec, part)[0]
    assert out.tolist() == [10.0, 10.0, 30.0, 30.0]


def test_mfd_p_accumulation_weighting():
    rec = fake_record([[10.0, 30.0]], accumulation=np.array([[3.0, 1.0]]))
    part = make_partition({0: 0, 1: 0}, k=1)
    weighted = mfd_p(rec, part)[0]
    assert weighted[0] == pytest.approx((10.0 * 3 + 30.0) / 4)
    # unit accumulations give the arithmetic mean
    arith = region_mean_speeds(rec.speeds[0], np.ones(2),
                               np.zeros(2, dtype=int), 1)
    assert arith[0] == pytest.approx(20.0)


def test_region_means_bounded_with_degenerate_weights():
    # residual or negative accumulations must never push the regional
    # estimate outside the observed speed range
    speeds = np.array([1.0, 25.0, 25.0, 25.0])
    acc = np.array([-1e-14, 1e-16, 0.0, 0.0])
    out = region_mean_speeds(speeds, acc, np.zeros(4, dtype=int), 1)
    assert speeds.min() <= out[0] <= speeds.max()


def test_region_means_are_clipped_into_the_regions_speed_range():
    # 25 * 0.1 + 25 * 0.7 over 0.8 rounds to 25.000000000000004
    speeds, acc = np.array([25.0, 25.0]), np.array([0.1, 0.7])
    assert (speeds * acc).sum() / acc.sum() > 25.0
    out = region_mean_speeds(speeds, acc, np.zeros(2, dtype=int), 1)
    assert out.tolist() == [25.0, 25.0]


def test_region_holding_less_than_empty_veh_takes_the_arithmetic_mean():
    speeds = np.array([10.0, 20.0, 5.0, 25.0])
    labels = np.array([0, 0, 1, 1])
    acc = np.array([0.9 * EMPTY_VEH, 0.0, 3.0, 1.0])
    out = region_mean_speeds(speeds, acc, labels, 2)
    assert out.tolist() == [15.0, 15.0, 10.0, 10.0]


def test_region_means_of_all_windows_equal_one_window_at_a_time():
    rng = np.random.default_rng(5)
    speeds = rng.uniform(1.0, 25.0, size=(30, 40))
    acc = rng.uniform(0.0, 5.0, size=(30, 40)) * (rng.random((30, 40)) < 0.5)
    acc[3] = 0.0
    labels = rng.integers(0, 5, size=40)
    labels[labels == 4] = 3                      # region 4 holds no link
    for weights in (acc, np.ones_like(acc)):
        every = region_mean_speeds(speeds, weights, labels, 5)
        one = np.array([region_mean_speeds(speeds[t], weights[t], labels, 5)
                        for t in range(30)])
        assert every.tobytes() == one.tobytes()


def test_mfd_is_mfd_p_with_one_region_bit_for_bit():
    from lcftraffic.network import generate_grid_network
    from lcftraffic.scenarios import Scenario, random_base_od
    from lcftraffic.simulate import SimConfig, simulate
    net = generate_grid_network(3, 3, 100.0, 2, vff_kmh=25.0)
    sc = Scenario(id=0, od=random_base_od(net, 6, 900.0, seed=2), scale=1.0,
                  bus_links=(), seed=0)
    rec = simulate(net, sc, SimConfig(warmup_s=300.0, peak_s=1200.0,
                                      total_s=2400.0, window_s=60.0))
    assert (rec.accumulation < EMPTY_VEH).any() and (rec.speeds < 25.0).any()
    part = make_partition({lid: 0 for lid in rec.link_ids}, k=1)
    assert mfd(rec).tobytes() == mfd_p(rec, part).tobytes()


def test_region_arithmetic_means_never_worse_than_global_mean():
    """Refinement property: per-group means minimize within-group SSE."""
    rng = np.random.default_rng(3)
    for _ in range(30):
        speeds = rng.uniform(1, 25, size=60)
        labels = rng.integers(0, 4, size=60)
        acc = rng.uniform(0, 10, size=60)
        # unit accumulations: the regions' arithmetic means
        regional = region_mean_speeds(speeds, np.ones_like(acc), labels, 4)
        sse_regional = float(((speeds - regional) ** 2).sum())
        sse_global = float(((speeds - speeds.mean()) ** 2).sum())
        assert sse_regional <= sse_global * (1 + 1e-12) + 1e-12


def with_ones(x):
    """``x`` with the ones column of the bias appended: fit_lr's design."""
    return np.column_stack([x, np.ones(len(x))])


def test_fit_lr_exact_line():
    x = np.array([[1.0], [2.0]])
    y = np.array([2.0, 4.0])
    model = fit_lr(with_ones(x), y)
    assert model.weights[0] == pytest.approx(2.0, abs=1e-6)
    assert model.bias == pytest.approx(0.0, abs=1e-6)


def test_fit_lr_zero_residual_on_linear_target():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 4))
    w = np.array([1.5, -2.0, 0.3, 4.0])
    y = x @ w + 7.0
    model = fit_lr(with_ones(x), y)
    assert np.max(np.abs(model.predict(x) - y)) < 1e-6


def test_fit_lr_matches_hand_solved_system():
    # 3 samples, 2 features; normal equations solved independently
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    y = np.array([1.0, 2.0, 2.5])
    xb = np.column_stack([x, np.ones(3)])
    hand = np.linalg.solve(xb.T @ xb + 1e-8 * np.eye(3), xb.T @ y)
    model = fit_lr(xb, y)
    assert np.allclose(model.weights, hand[:2], atol=1e-12)
    assert model.bias == pytest.approx(hand[2], abs=1e-12)


def test_fit_lr_needs_enough_samples():
    with pytest.raises(ValueError, match="as many samples as features"):
        fit_lr(with_ones(np.zeros((2, 5))), np.zeros(2))


def test_fit_lr_needs_the_ones_column_last():
    x = np.random.default_rng(2).normal(size=(6, 2))
    for design in (x, np.column_stack([np.ones(6), x]), np.ones(6)):
        with pytest.raises(ValueError, match="last column of ones"):
            fit_lr(design, np.zeros(6))
