import math
import tracemalloc

import numpy as np
import pytest
from oracles import efficient_adam_step, finite_difference_grads, leafwise_adam_step

from fedad.rng import substream
from fedad.scenario import ScenarioConfig
from fedad.slp import (
    AdamState,
    SlpParams,
    adam_step,
    backward,
    bce_loss,
    forward,
    init_adam,
    init_params,
)


def tiny_config(v=3, k=2, pilot_len=1, antennas=2):
    return ScenarioConfig(
        num_aps=1, antennas_per_ap=antennas, num_devices=k, pilot_len=pilot_len,
        hidden_units=v, cluster_size=1,
    )


def desk_config():
    """One AP of configs/desk.json: V=512, F=80, K=40."""
    return tiny_config(v=512, k=40, pilot_len=20)


def loop_forward(params, x):
    """Independent oracle: the same network evaluated with explicit loops."""
    v = params.w1.shape[0]
    k = params.w2.shape[0]
    hidden = np.zeros(v)
    for i in range(v):
        acc = params.b1[i]
        for j in range(len(x)):
            acc += params.w1[i, j] * x[j]
        hidden[i] = max(acc, 0.0)
    out = np.zeros(k)
    for i in range(k):
        acc = params.b2[i]
        for j in range(v):
            acc += params.w2[i, j] * hidden[j]
        out[i] = 1.0 / (1.0 + math.exp(-acc))
    return out


def random_well_conditioned_instance(rng, v, k, f):
    """Random params and input kept away from the ReLU kink and sigmoid
    saturation so finite differences are trustworthy."""
    cfg = ScenarioConfig(
        num_aps=1, antennas_per_ap=1, num_devices=k, pilot_len=max(1, f // 2),
        hidden_units=v, cluster_size=1,
    )
    template = init_params(cfg, rng)
    w1 = rng.normal(0, 0.5, size=(v, f))
    b1 = rng.normal(0, 0.2, size=v)
    w2 = rng.normal(0, 0.5, size=(k, v))
    b2 = rng.normal(0, 0.2, size=k)
    params = SlpParams(w1=w1, b1=b1, w2=w2, b2=b2)
    for _ in range(50):
        x = rng.normal(0, 1.0, size=f)
        z1 = w1 @ x + b1
        if np.min(np.abs(z1)) > 1e-3:
            break
    labels = (rng.random(k) < 0.4).astype(np.int8)
    del template
    return params, x, labels


class TestInit:
    def test_zero_biases_and_bound(self):
        cfg = ScenarioConfig()  # V=512, F=160, K=100
        p = init_params(cfg, substream(0, "init"))
        assert not p.b1.any() and not p.b2.any()
        assert np.max(np.abs(p.w1)) <= np.sqrt(6.0 / (160 + 512))
        assert np.max(np.abs(p.w2)) <= np.sqrt(6.0 / (512 + 100))

    def test_determinism(self):
        cfg = tiny_config()
        a = init_params(cfg, substream(4, "init"))
        b = init_params(cfg, substream(4, "init"))
        assert np.array_equal(a.flat, b.flat)


class TestForward:
    def test_zero_params_give_half(self):
        cfg = tiny_config()
        template = init_params(cfg, substream(0, "init"))
        zeros = template.like(np.zeros_like(template.flat))
        scores, _ = forward(zeros, np.ones((1, cfg.feature_dim)))
        assert np.all(scores == 0.5)

    def test_saturated_bias(self):
        cfg = tiny_config()
        p = init_params(cfg, substream(0, "init"))
        p = p.like(np.zeros_like(p.flat))
        b2 = p.b2.copy()
        b2[1] = 20.0
        p = SlpParams(w1=p.w1, b1=p.b1, w2=p.w2, b2=b2)
        scores, _ = forward(p, np.zeros((1, cfg.feature_dim)))
        assert scores[0, 1] > 0.9999

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(123)
        params, x, _ = random_well_conditioned_instance(rng, v=3, k=2, f=4)
        scores, _ = forward(params, x[None])
        assert np.allclose(scores[0], loop_forward(params, x), rtol=1e-12, atol=0)

    def test_scores_in_open_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            params, x, _ = random_well_conditioned_instance(rng, v=5, k=4, f=6)
            scores, _ = forward(params, x[None])
            assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_dimension_mismatch_raises(self):
        cfg = tiny_config()
        p = init_params(cfg, substream(0, "init"))
        with pytest.raises(ValueError, match="feature length"):
            forward(p, np.zeros((1, cfg.feature_dim + 1)))


class TestBceLoss:
    def test_half_scores(self):
        scores = np.full(4, 0.5)
        labels = np.array([1, 0, 1, 1])
        assert bce_loss(scores, labels) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_perfect_prediction(self):
        scores = np.array([1.0, 0.0, 1.0])
        labels = np.array([1, 0, 1])
        assert bce_loss(scores, labels) <= 1e-11

    def test_hand_value(self):
        expected = (-math.log(0.9) - math.log(0.8)) / 2.0
        assert expected == pytest.approx(0.164252, abs=1e-6)
        assert bce_loss(np.array([0.9, 0.2]), np.array([1, 0])) == pytest.approx(
            expected, rel=1e-12
        )


class TestBackward:
    def test_zero_params_all_zero_labels(self):
        cfg = tiny_config(v=4, k=5)
        template = init_params(cfg, substream(0, "init"))
        zeros = template.like(np.zeros_like(template.flat))
        grads = backward(zeros, np.ones((1, cfg.feature_dim)), np.zeros((1, 5), dtype=np.int8))
        # Fused delta (0.5 - 0) / K lands directly on the output bias.
        assert np.allclose(grads.b2, 0.5 / 5, rtol=1e-15)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(10):
            v = int(rng.integers(2, 6))
            k = int(rng.integers(1, 5))
            f = int(rng.integers(2, 7))
            params, x, labels = random_well_conditioned_instance(rng, v, k, f)
            analytic = backward(params, x[None], labels[None]).flat
            numeric = finite_difference_grads(params, x[None], labels[None])
            scale = np.maximum(np.abs(numeric), 1e-6)
            worst = max(worst, np.max(np.abs(analytic - numeric) / scale))
        assert worst < 1e-4

    def test_duplicate_batch_equals_single(self):
        rng = np.random.default_rng(5)
        params, x, labels = random_well_conditioned_instance(rng, 3, 2, 4)
        single = backward(params, x[None], labels[None])
        batch = backward(params, np.tile(x, (4, 1)), np.tile(labels, (4, 1)))
        assert np.allclose(single.flat, batch.flat, rtol=1e-12)

    def test_float32_in_float32_out(self):
        # Float32 parameters and features keep scores, cached activations
        # and gradients in float32, within float32 rounding of float64.
        rng = np.random.default_rng(12)
        p = init_params(desk_config(), substream(8, "init"))
        x = rng.normal(size=(32, p.dims[1]))
        labels = (rng.random((32, p.dims[2])) < 0.1).astype(np.int8)
        p32 = p.like(p.flat.astype(np.float32))
        scores, hidden = forward(p32, x.astype(np.float32))
        assert scores.dtype == np.float32
        assert hidden.dtype == np.float32
        grads = backward(p32, x.astype(np.float32), labels)
        assert grads.flat.dtype == np.float32
        reference = backward(p, x, labels).flat
        gap = np.linalg.norm(grads.flat - reference)
        assert gap <= 1e-5 * np.linalg.norm(reference)


class TestAdam:
    def test_zero_grad_is_noop(self):
        cfg = tiny_config()
        p = init_params(cfg, substream(1, "init"))
        before = p.flat.copy()
        state = init_adam(p)
        p2, state2 = adam_step(p, p.like(np.zeros_like(p.flat)), state)
        assert np.array_equal(p2.flat, before)
        assert state2.step_count == 1

    def test_first_step_magnitude(self):
        p = SlpParams(
            w1=np.array([[0.0]]), b1=np.zeros(1), w2=np.array([[0.0]]), b2=np.zeros(1)
        )
        grads = SlpParams(
            w1=np.array([[0.1]]), b1=np.zeros(1), w2=np.zeros((1, 1)), b2=np.zeros(1)
        )
        p2, _ = adam_step(p, grads, init_adam(p, lr=1e-3))
        # First bias-corrected step moves by lr within epsilon rounding.
        assert p2.w1[0, 0] == pytest.approx(-1e-3, rel=1e-6)

    def test_deterministic_trajectories(self):
        cfg = tiny_config()
        rng = np.random.default_rng(0)
        p0 = init_params(cfg, substream(0, "init"))
        grads_seq = [
            SlpParams(*(rng.normal(size=leaf.shape) for leaf in (p0.w1, p0.b1, p0.w2, p0.b2)))
            for _ in range(5)
        ]

        def run():
            p = init_params(cfg, substream(0, "init"))
            st = init_adam(p)
            for g in grads_seq:
                p, st = adam_step(p, g, st)
            return p

        a, b = run(), run()
        assert np.array_equal(a.flat, b.flat)


    @staticmethod
    def _desk_trajectory(oracle, dtype=np.float64):
        """40 Adam steps at desk shapes (V=512, F=80, K=40) in `dtype`, in
        place and through `oracle`, on gradients of very different scales
        per step, as in training; yields both sides after each step,
        flattened."""
        rng = np.random.default_rng(8)
        p = init_params(desk_config(), substream(8, "init"))
        p = p.like(p.flat.astype(dtype))
        state = init_adam(p, lr=0.02)
        leaves = [leaf.copy() for leaf in (p.w1, p.b1, p.w2, p.b2)]
        first = [np.zeros_like(leaf) for leaf in leaves]
        second = [np.zeros_like(leaf) for leaf in leaves]
        flat = lambda arrays: np.concatenate([x.ravel() for x in arrays])
        for step in range(1, 41):
            grads = p.like(
                (rng.normal(size=p.flat.size) * 10.0 ** rng.integers(-6, 1)).astype(dtype)
            )
            p, state = adam_step(p, grads, state)
            leaves, first, second = oracle(
                leaves, (grads.w1, grads.b1, grads.w2, grads.b2), first, second,
                step, 0.02, 0.9, 0.999, 1e-8,
            )
            yield step, (p.flat, state), (flat(leaves), flat(first), flat(second))
        assert state.step_count == 40

    def test_in_place_step_matches_efficient_form_oracle(self):
        # The flat in-place update must follow the out-of-place,
        # layer-by-layer efficient-form trajectory bit for bit.
        for _, (p, state), (leaves, first, second) in self._desk_trajectory(
            efficient_adam_step
        ):
            assert np.array_equal(p, leaves)
            assert np.array_equal(state.first_moment, first)
            assert np.array_equal(state.second_moment, second)

    def test_float32_step_matches_efficient_form_oracle(self):
        # Local training runs Adam on float32 vectors: every pass must stay
        # in float32 and follow the oracle run in float32 bit for bit.
        for _, (p, state), (leaves, first, second) in self._desk_trajectory(
            efficient_adam_step, np.float32
        ):
            assert p.dtype == leaves.dtype == state.first_moment.dtype == np.float32
            assert state.second_moment.dtype == np.float32
            assert np.array_equal(p, leaves)
            assert np.array_equal(state.first_moment, first)
            assert np.array_equal(state.second_moment, second)

    def test_in_place_step_within_rounding_of_textbook_oracle(self):
        # The efficient form is the textbook update rearranged, so only
        # rounding separates them. The moments are formed the same way and
        # stay bit-identical. Each step may round the move (about lr in
        # size) and the parameter it lands on differently, so after t steps
        # the gap may reach 4 * eps64 * (max|p| + lr) * t. Measured: at
        # most 0.87 * eps64 * (max|p| + lr) * t, over gradient seeds 0-15.
        eps64 = np.finfo(np.float64).eps
        for step, (p, state), (leaves, first, second) in self._desk_trajectory(
            leafwise_adam_step
        ):
            assert np.array_equal(state.first_moment, first)
            assert np.array_equal(state.second_moment, second)
            bound = 4 * eps64 * (np.max(np.abs(leaves)) + 0.02) * step
            assert np.max(np.abs(p - leaves)) <= bound

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_step_allocates_at_most_one_parameter_vector(self, dtype):
        # The step's one scratch vector is its only full-size allocation.
        p = init_params(desk_config(), substream(8, "init"))
        p = p.like(p.flat.astype(dtype))
        grads = p.like(np.random.default_rng(8).normal(size=p.flat.size).astype(dtype))
        state = init_adam(p, lr=0.02)
        adam_step(p, grads, state)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            adam_step(p, grads, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= p.flat.nbytes + 4096


class TestTrainingSanity:
    def test_bce_halves_on_fixed_batch(self):
        # 200 Adam steps on one fixed 32-sample batch must cut the loss
        # by at least half from initialization.
        cfg = ScenarioConfig(
            num_aps=1, antennas_per_ap=2, num_devices=8, pilot_len=6,
            hidden_units=32, cluster_size=1,
        )
        rng = np.random.default_rng(99)
        x = rng.normal(0, 1, size=(32, cfg.feature_dim))
        labels = (rng.random((32, 8)) < 0.2).astype(np.int8)
        params = init_params(cfg, substream(3, "init"))
        state = init_adam(params, lr=1e-3)
        initial = bce_loss(forward(params, x)[0], labels)
        for _ in range(200):
            grads = backward(params, x, labels)
            params, state = adam_step(params, grads, state)
        final = bce_loss(forward(params, x)[0], labels)
        assert final < 0.5 * initial


class TestVectorRoundTrip:
    def test_round_trip(self):
        cfg = tiny_config()
        p = init_params(cfg, substream(2, "init"))
        vec = p.flat.copy()
        layers = (p.w1, p.b1, p.w2, p.b2)
        assert np.array_equal(vec, np.concatenate([layer.ravel() for layer in layers]))
        back = SlpParams.from_flat(vec, p.dims)
        for a, b in zip(layers, (back.w1, back.b1, back.w2, back.b2)):
            assert np.array_equal(a, b)
        # The layers are views: writing one writes the flat vector.
        back.b2[0] = 7.0
        assert vec[-cfg.num_devices] == 7.0

    def test_length_mismatch(self):
        cfg = tiny_config()
        p = init_params(cfg, substream(2, "init"))
        with pytest.raises(ValueError):
            SlpParams.from_flat(np.zeros(3), p.dims)
        with pytest.raises(ValueError):
            p.like(np.zeros(3))
