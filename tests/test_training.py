"""Learning-rate schedule, Adam updates, elastic net, and full training runs."""

import json
import statistics
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sinecast import training
from sinecast.autodiff import Parameter, Tensor, backward
from sinecast.data import TimeSeriesTable, make_windows
from sinecast.errors import ConfigError, NumericError
from sinecast.models import Forecaster, ModelConfig
from sinecast.training import (
    AdamState,
    LrSchedule,
    TrainConfig,
    adam_step,
    elastic_net_penalty,
    lr_at_epoch,
    train_model,
)


class TestLrSchedule:
    def test_endpoints_exact(self):
        sched = LrSchedule(lr_start=1e-3, lr_end=1e-6, n_epochs=50)
        assert lr_at_epoch(sched, 0) == 1e-3
        assert lr_at_epoch(sched, 49) == 1e-6

    def test_closed_form_interior_point(self):
        sched = LrSchedule(1e-3, 1e-6, 50)
        expected = 1e-3 * 10 ** (-3.0 * 7 / 49)
        assert abs(lr_at_epoch(sched, 7) - expected) < 1e-18

    def test_strictly_decreasing(self):
        sched = LrSchedule(1e-3, 1e-6, 50)
        lrs = [lr_at_epoch(sched, e) for e in range(50)]
        assert all(a > b for a, b in zip(lrs, lrs[1:]))

    def test_geometric_mirror_products_constant(self):
        # for a geometric sequence, lr(e) * lr(last - e) is constant
        sched = LrSchedule(1e-3, 1e-6, 50)
        products = [lr_at_epoch(sched, e) * lr_at_epoch(sched, 49 - e) for e in range(50)]
        assert max(products) / min(products) < 1 + 1e-9

    def test_epoch_out_of_range(self):
        sched = LrSchedule(1e-3, 1e-6, 50)
        with pytest.raises(ConfigError):
            lr_at_epoch(sched, 50)
        with pytest.raises(ConfigError):
            lr_at_epoch(sched, -1)

    def test_invalid_schedule(self):
        with pytest.raises(ConfigError):
            LrSchedule(lr_start=1e-6, lr_end=1e-3)
        with pytest.raises(ConfigError):
            LrSchedule(n_epochs=1)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = Parameter(np.array([1.0, -2.0]), "p")
        state = AdamState([p])
        p.grad = np.zeros(2)
        adam_step(state, lr=0.1)
        assert np.array_equal(p.data, [1.0, -2.0])
        assert state.t == 1

    def test_hand_computed_first_step(self):
        # p=0, g=1: m_hat = v_hat = 1, so the update is exactly lr / (1 + eps)
        p = Parameter(np.array([0.0]), "p")
        state = AdamState([p])
        p.grad = np.array([1.0])
        adam_step(state, lr=0.1)
        expected = -0.1 / (1.0 + 1e-8)
        assert abs(p.data[0] - expected) < 1e-12

    def test_two_steps_match_reference_trace(self):
        # independent step-by-step recomputation of the update recurrences
        g1, g2 = 3.0, -1.0
        lr = 0.01
        b1, b2, eps = 0.9, 0.999, 1e-8
        p_ref, m, v = 0.5, 0.0, 0.0
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            p_ref -= lr * m_hat / (np.sqrt(v_hat) + eps)

        p = Parameter(np.array([0.5]), "p")
        state = AdamState([p])
        for g in (g1, g2):
            p.grad = np.array([g])
            adam_step(state, lr=lr)
        assert abs(p.data[0] - p_ref) < 1e-12

    def test_reads_grads_from_parameters_when_not_given(self):
        p = Parameter(np.array([2.0]), "p")
        loss = (p * p).sum()
        backward(loss)
        state = AdamState([p])
        adam_step(state, lr=0.1)
        assert p.data[0] < 2.0

    def test_non_finite_gradient_rejected(self):
        p = Parameter(np.array([0.0]), "p")
        state = AdamState([p])
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError):
            adam_step(state, lr=0.1)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0]), "p")
        state = AdamState([p])
        for _ in range(2000):
            backward((p * p).sum())
            adam_step(state, lr=0.01)
        assert abs(p.data[0]) < 1e-2

    def test_rejected_step_changes_nothing(self):
        # the second gradient is checked before the first parameter is written
        a = Parameter(np.array([1.0, 2.0]), "a")
        b = Parameter(np.array([3.0]), "b")
        state = AdamState([a, b])
        a.grad, b.grad = np.array([0.5, -0.5]), np.array([1.0])
        adam_step(state, lr=0.1)
        before = (a.data.copy(), state.m[0].copy(), state.v[0].copy(), state.t)
        a.grad, b.grad = np.array([0.5, -0.5]), np.array([np.nan])
        with pytest.raises(NumericError):
            adam_step(state, lr=0.1)
        assert np.array_equal(a.data, before[0])
        assert np.array_equal(state.m[0], before[1])
        assert np.array_equal(state.v[0], before[2])
        assert state.t == before[3]
        b.grad = np.zeros((2,))
        with pytest.raises(ConfigError, match="grad shape"):
            adam_step(state, lr=0.1)
        assert np.array_equal(a.data, before[0]) and state.t == before[3]

    def test_rejects_data_it_cannot_update_in_place(self):
        p = Parameter(np.ones((3, 4)), "w")
        state = AdamState([p])
        p.grad = np.ones((3, 4))
        p.data = np.ones((4, 3)).T
        with pytest.raises(ConfigError, match="C-contiguous"):
            adam_step(state, lr=0.1)
        assert state.t == 0

    def test_non_finite_value_in_a_later_block_rejected(self, monkeypatch):
        # the finiteness check walks the gradient block by block: a NaN in
        # the last, partial block of the second parameter still stops the step
        monkeypatch.setattr(training, "_ADAM_BLOCK", 8)
        a = Parameter(np.ones((5, 4)), "a")
        b = Parameter(np.ones((7, 3)), "b")
        state = AdamState([a, b])
        a.grad, b.grad = np.ones((5, 4)), np.ones((7, 3))
        b.grad[6, 2] = np.inf
        with pytest.raises(NumericError, match="for b"):
            adam_step(state, lr=0.1)
        assert np.array_equal(a.data, np.ones((5, 4))) and not state.m[0].any() and state.t == 0


def _reference_adam(p, m, v, g, t, lr):
    """The out-of-place update, one array per operation."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * (g * g)
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class TestAdamInPlace:
    SHAPES = {"w_c": (13, 3), "w_f": (9, 17), "b": (23,), "frozen": (4, 5)}

    def _grads(self, rng):
        return {
            "w_c": rng.normal(size=self.SHAPES["w_c"]),
            "w_f": np.asfortranarray(rng.normal(size=self.SHAPES["w_f"])),
            "b": rng.normal(size=self.SHAPES["b"]),
            "frozen": None,
        }

    @pytest.mark.parametrize("block", [None, 7, 1], ids=["default", "block7", "block1"])
    def test_bit_identical_to_out_of_place_reference(self, monkeypatch, block):
        # block 7: w_c walks 2-row blocks and b 7-row blocks, each ending in
        # a partial block, and w_f's rows of 17 are wider than a block
        if block is not None:
            monkeypatch.setattr(training, "_ADAM_BLOCK", block)
        rng = np.random.default_rng(11)
        params = [Parameter(rng.normal(size=shape), name) for name, shape in self.SHAPES.items()]
        state = AdamState(params)
        ref = {p.name: (p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)) for p in params}
        for t in range(1, 6):
            lr = 1e-2 * 0.5 ** (t - 1)
            grads = self._grads(rng)
            assert grads["w_f"].flags.f_contiguous and not grads["w_f"].flags.c_contiguous
            buffers = [(p.data, m, v) for p, m, v in zip(params, state.m, state.v)]
            for p in params:
                p.grad = grads[p.name]
            adam_step(state, lr)
            for p, m, v, (p_buf, m_buf, v_buf) in zip(params, state.m, state.v, buffers):
                g = np.zeros(p.shape) if grads[p.name] is None else grads[p.name]
                ref[p.name] = _reference_adam(*ref[p.name], g, t, lr)
                assert p.data is p_buf and m is m_buf and v is v_buf
                assert np.array_equal(p.data, ref[p.name][0]), (p.name, t)
                assert np.array_equal(m, ref[p.name][1]), (p.name, t)
                assert np.array_equal(v, ref[p.name][2]), (p.name, t)

    def test_step_allocates_less_than_one_parameter(self):
        # guard against parameter-sized temporaries: the old out-of-place
        # update peaked at about six parameters (24.9 MB here)
        rng = np.random.default_rng(0)
        p = Parameter(rng.normal(size=(720, 720)), "w")
        state = AdamState([p])
        p.grad = np.asfortranarray(rng.normal(size=(720, 720)))
        tracemalloc.start()
        try:
            adam_step(state, lr=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.data.nbytes, f"adam_step peak {peak / 1e6:.2f} MB"

    def test_scratch_stays_within_a_few_blocks(self, monkeypatch):
        # the finiteness check reuses one block-sized mask: a one-byte mask
        # of the whole gradient (16 blocks here) would take the peak past four
        monkeypatch.setattr(training, "_ADAM_BLOCK", 1 << 12)
        rng = np.random.default_rng(1)
        p = Parameter(rng.normal(size=(512, 1024)), "w")
        state = AdamState([p])
        p.grad = rng.normal(size=(512, 1024))
        block_bytes = 8 * training._ADAM_BLOCK
        tracemalloc.start()
        try:
            adam_step(state, lr=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * block_bytes, f"adam_step peak {peak / 1e6:.2f} MB"


class TestParameterBuffer:
    def test_does_not_alias_callers_array(self):
        a = np.arange(6.0).reshape(2, 3)
        p = Parameter(a, "w")
        state = AdamState([p])
        p.grad = np.ones((2, 3))
        adam_step(state, lr=0.1)
        assert np.array_equal(a, np.arange(6.0).reshape(2, 3))
        assert not np.array_equal(p.data, a)

    def test_transposed_input_trains_like_contiguous_copy(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 4))
        finals = []
        for data in (a.T, np.ascontiguousarray(a.T)):
            p = Parameter(data, "w")
            assert p.data.flags.c_contiguous and p.data.flags.writeable
            state = AdamState([p])
            grad_rng = np.random.default_rng(6)
            for _ in range(3):
                p.grad = grad_rng.normal(size=(4, 6))
                adam_step(state, lr=1e-2)
            finals.append((p.data, state.m[0], state.v[0]))
        for x, y in zip(*finals):
            assert np.array_equal(x, y)


class TestElasticNet:
    def test_zero_weights_zero_penalty(self):
        w = Parameter(np.zeros((3, 3)), "w")
        assert elastic_net_penalty([w], 1e-5, 1e-4).item() == 0.0

    def test_single_weight_formula(self):
        w = Parameter(np.array([[2.0]]), "w")
        got = elastic_net_penalty([w], 1e-5, 1e-4).item()
        assert abs(got - (2e-5 + 4e-4)) < 1e-18

    def test_biases_excluded(self):
        w = Parameter(np.array([[1.0]]), "w")
        b = Parameter(np.array([100.0]), "b")
        with_bias = elastic_net_penalty([w, b], 1e-5, 1e-4).item()
        without = elastic_net_penalty([w], 1e-5, 1e-4).item()
        assert with_bias == without

    def test_gradient_matches_calculus(self):
        l1, l2 = 1e-5, 1e-4
        w = Parameter(np.array([[3.0]]), "w")
        backward(elastic_net_penalty([w], l1, l2))
        expected = l1 * np.sign(3.0) + 2 * l2 * 3.0
        assert abs(w.grad[0, 0] - expected) < 1e-15

    def test_negative_strengths_rejected(self):
        with pytest.raises(ConfigError):
            elastic_net_penalty([], -1e-5, 0.0)

    @staticmethod
    def _chain(params, l1, l2):
        """The penalty as a chain of abs, square, sum, scale and add nodes."""
        total = None
        for p in params:
            if p.ndim < 2:
                continue
            term = p.abs().sum() * l1 + (p * p).sum() * l2
            total = term if total is None else total + term
        return total

    @pytest.mark.parametrize("upstream", [1.0, 0.37])
    @pytest.mark.parametrize("prior", ["none", "mlp"])
    def test_matches_the_chain_bit_for_bit(self, prior, upstream):
        # "mlp": each weight already holds its dense gradient when the
        # penalty's backward runs; "none": the penalty is the whole loss
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(16, 24, 1)), rng.normal(size=(16, 24, 1))

        def run(penalty):
            model = Forecaster(ModelConfig("MLP", 24, 24, 1, seed=4))
            model.params["w1"].data[0, :3] = 0.0  # sign(0) is 0
            pen = penalty(model.parameters(), 1e-3, 2e-2)
            if upstream != 1.0:
                pen = pen * upstream
            loss = pen if prior == "none" else (model(Tensor(x)) - Tensor(y)).abs().mean() + pen
            backward(loss)
            return [loss.data] + [p.grad for p in model.parameters()]

        for got, want in zip(run(elastic_net_penalty), run(self._chain)):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got, want)

    def test_copies_a_gradient_it_does_not_own(self):
        # the sum's backward runs first and leaves the weight a read-only
        # broadcast of its adjoint, which the penalty must not add into
        def run(penalty):
            w = Parameter(np.random.default_rng(9).normal(size=(4, 5)), "w")
            w.data[0, 0] = 0.0
            backward(w.sum() + penalty([w], 1e-3, 2e-2))
            return w.grad

        assert np.array_equal(run(elastic_net_penalty), run(self._chain))

    def test_adds_one_node(self, monkeypatch):
        made = []
        original = Tensor.__dict__["_from_op"].__func__

        def counting(cls, data, parents, backward_fn, op):
            made.append(op)
            return original(cls, data, parents, backward_fn, op)

        monkeypatch.setattr(Tensor, "_from_op", classmethod(counting))
        w1, w2 = Parameter(np.ones((3, 2)), "w1"), Parameter(np.ones((2, 3)), "w2")
        b = Parameter(np.ones(3), "b")
        out = elastic_net_penalty([w1, b, w2], 1e-5, 1e-4)
        assert made == ["elastic_net"]
        assert out.shape == () and out._parents == (w1, w2)


def _mlp_step_peak_in_parameter_sets():
    """tracemalloc peak of one MLP-360 step as train_model takes it (forward,
    MAE plus elastic net, backward, Adam), with the moments allocated
    before tracing, in parameter sets."""
    cfg = ModelConfig("MLP", 360, 360, 1)
    model = Forecaster(cfg)
    state = AdamState(model.parameters())
    rng = np.random.default_rng(0)
    x, y = Tensor(rng.normal(size=(64, 360, 1))), Tensor(rng.normal(size=(64, 360, 1)))
    tracemalloc.start()
    try:
        loss = (model(x) - y).abs().mean() + elastic_net_penalty(model.parameters(), training.MLP_L1, training.MLP_L2)
        backward(loss)
        adam_step(state, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * model.n_parameters())


def test_mlp_training_step_peak_stays_within_four_parameter_sets():
    # With a three-node dense layer and the penalty as a chain of nine nodes
    # per weight it peaked at 5.6 parameter sets here.
    sets = _mlp_step_peak_in_parameter_sets()
    assert sets < 4, f"step peak {sets:.2f} parameter sets"


def test_mlp_training_step_peak_stays_within_two_parameter_sets():
    # one gradient set and the graph: a new array per gradient sum, and the
    # penalty's sign(w) and weight-sized scratch, took it to 2.08 sets
    sets = _mlp_step_peak_in_parameter_sets()
    assert sets < 2, f"step peak {sets:.2f} parameter sets"


@pytest.mark.parametrize("variant", ["SLP", "MLP"])
def test_train_model_peak_is_one_set_per_role(monkeypatch, variant):
    # beyond the parameters, a whole run holds Adam's two moments, one
    # gradient set, one best-epoch snapshot and one step's graph (a third of
    # a set at L=720, B=64); validation is stubbed so that epochs 0 and 2 are
    # new bests and the snapshot is refilled. A gradient set kept through
    # validation and a second snapshot made at each new best took it to 5.06
    # parameter sets.
    values = np.sin(np.arange(1567.0) * 2 * np.pi / 24).reshape(-1, 1)
    train = make_windows(TimeSeriesTable(name="tr", values=values), 720, 720)
    val = make_windows(TimeSeriesTable(name="va", values=values[:1440]), 720, 720)
    model = Forecaster(ModelConfig(variant, 720, 720, 1))
    param_bytes = 8 * model.n_parameters()
    maes = iter([1.0, 2.0, 0.5])
    monkeypatch.setattr(training, "evaluate", lambda *a, **k: SimpleNamespace(mae=next(maes)))
    cfg = TrainConfig(schedule=LrSchedule(1e-3, 1e-6, 3), batch_size=64, seed=0)
    tracemalloc.start()
    try:
        report = train_model(model, train, val, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.best_epoch == 2
    assert all(p.grad is None for p in model.parameters())
    assert peak < 4.5 * param_bytes, f"peak {peak / param_bytes:.2f} parameter sets beyond the parameters"


def sine_table(n=400, period=24.0, amplitude=1.0, noise=0.0, seed=0, name="sine"):
    t = np.arange(n, dtype=float)
    values = amplitude * np.sin(2 * np.pi * (t % period) / period)
    if noise > 0:
        values = values + np.random.default_rng(seed).normal(0.0, noise, size=n)
    return TimeSeriesTable(name=name, values=values.reshape(n, 1))


class TestTrainModel:
    def _datasets(self, input_len=24, horizon=12):
        table = sine_table(400)
        train = make_windows(
            TimeSeriesTable(name="tr", values=table.values[:300]), input_len, horizon
        )
        val = make_windows(
            TimeSeriesTable(name="va", values=table.values[300:]), input_len, horizon
        )
        return train, val

    def _config(self, n_epochs=4, seed=0):
        return TrainConfig(
            schedule=LrSchedule(1e-3, 1e-6, n_epochs), batch_size=32, seed=seed
        )

    @pytest.mark.parametrize("eval_batch_size", [0, -1])
    def test_eval_batch_size_below_one_rejected(self, eval_batch_size):
        with pytest.raises(ConfigError, match="eval_batch_size"):
            TrainConfig(eval_batch_size=eval_batch_size)

    @pytest.mark.parametrize("variant", ["Linear", "Sencoder"])
    def test_last_step_graph_freed_before_validation(self, monkeypatch, variant):
        train, val = self._datasets(input_len=8, horizon=8)
        model = Forecaster(ModelConfig(variant=variant, input_len=8, horizon=8, channels=1,
                                       d_model=8, n_heads=2, ffn_dim=8, seed=2))
        losses, alive_at_validation, alive_at_forward = [], [], []
        real_backward, real_evaluate, real_forward = training.backward, training.evaluate, Forecaster.__call__
        validating = False

        def recording_backward(loss):
            losses.append(weakref.ref(loss))
            real_backward(loss)

        def checking_evaluate(*args, **kwargs):
            nonlocal validating
            alive_at_validation.append(losses[-1]() is not None)
            validating = True
            try:
                return real_evaluate(*args, **kwargs)
            finally:
                validating = False

        def checking_forward(self, x):
            # a step's forward: the previous step's graph must be gone already
            if not validating and losses:
                alive_at_forward.append(losses[-1]() is not None)
            return real_forward(self, x)

        monkeypatch.setattr(training, "backward", recording_backward)
        monkeypatch.setattr(training, "evaluate", checking_evaluate)
        monkeypatch.setattr(Forecaster, "__call__", checking_forward)
        train_model(model, train, val, self._config(n_epochs=2))
        assert alive_at_validation == [False, False]
        assert len(alive_at_forward) == len(losses) - 1 > 2
        assert not any(alive_at_forward)

    def test_attention_step_holds_one_set_of_probabilities(self, monkeypatch):
        # every later step peaks within a quarter of one probability set of
        # the first; a previous graph kept alive through the next forward
        # would add a whole set
        train, val = self._datasets(input_len=8, horizon=48)
        model = Forecaster(ModelConfig(variant="Sencoder", input_len=8, horizon=48, channels=1,
                                       d_model=4, n_heads=2, ffn_dim=4, seed=3))
        probs_bytes = 2 * 32 * 48 * 48 * 8  # two heads of [batch, L, L]
        real_adam = training.adam_step
        peaks = []

        def recording_adam(state, lr):
            real_adam(state, lr)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()

        monkeypatch.setattr(training, "adam_step", recording_adam)
        tracemalloc.start()
        try:
            train_model(model, train, val, self._config(n_epochs=2))
        finally:
            tracemalloc.stop()
        assert len(peaks) > 4
        assert max(peaks) - peaks[0] < probs_bytes / 4, [p - peaks[0] for p in peaks]

    # Trains a Sencoder in a fresh process, whose heap no earlier test has
    # shaped, and prints the minor page faults of each second-epoch step.
    _FAULTS_SCRIPT = """
import json, resource, sys
import numpy as np
from sinecast import training
from sinecast.data import TimeSeriesTable, make_windows
from sinecast.models import Forecaster, ModelConfig
values = np.sin(2 * np.pi * np.arange(1400.0) / 24).reshape(-1, 1)
train = make_windows(TimeSeriesTable(name="tr", values=values[:1000]), 48, 48)
val = make_windows(TimeSeriesTable(name="va", values=values[1000:]), 48, 48)
model = Forecaster(ModelConfig(variant="Sencoder", input_len=48, horizon=48, channels=1,
                               d_model=8, n_heads=2, ffn_dim=8, seed=0))
counts, real_adam = [], training.adam_step
def counting_adam(state, lr):
    real_adam(state, lr)
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
training.adam_step = counting_adam
training.train_model(model, train, val, training.TrainConfig(
    schedule=training.LrSchedule(1e-3, 1e-6, 2), batch_size=32, seed=0))
steps = -(-len(train) // 32)
print(json.dumps(np.diff(counts)[steps:].tolist()))
"""

    def test_freed_step_graph_is_not_faulted_in_again(self):
        # every step frees its graph before the next forward; under glibc's
        # dynamic thresholds the heap top is trimmed and each step faults it
        # back in (about 360 pages a step here)
        if not training._pin_malloc_thresholds():
            pytest.skip("the C library has no mallopt")
        src = str(Path(training.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", self._FAULTS_SCRIPT], capture_output=True, text=True,
                             env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}, timeout=120)
        assert run.returncode == 0, run.stderr
        faults = json.loads(run.stdout)
        assert len(faults) > 20
        assert statistics.median(faults) < 16, faults

    _ATTENTION = "dense dense dense multi_head_attention dense add layer_norm"
    _ENCODER = f"{_ATTENTION} dense relu dense add layer_norm"
    _EMBED = "dense dense sin add reshape dense"
    _STEP_OPS = {
        "Linear": "dense",
        "NLinear": "dense add",
        "DLinear": "dense dense add add",
        "SLP": "dense dense sin add dense sin",
        "MLP": "dense relu dense relu dense",
        "Sencoder": f"{_EMBED} {_ENCODER} dense reshape sin",
        "Sinformer": f"{_EMBED} {_ENCODER} {_ATTENTION} {_ATTENTION} dense relu dense add layer_norm"
                     " dense reshape sin",
    }

    @pytest.mark.parametrize("variant", list(_STEP_OPS))
    def test_training_step_op_sequence(self, monkeypatch, variant):
        # one MAE step of train_model, batch to loss: the channels are folded
        # and unfolded around the variant's ops, the MLP adds its penalty
        train, val = self._datasets(input_len=8, horizon=8)
        model = Forecaster(ModelConfig(variant=variant, input_len=8, horizon=8, channels=1,
                                       d_model=8, n_heads=2, ffn_dim=8, ma_kernel=3))
        nodes = []
        original = Tensor.__dict__["_from_op"].__func__

        def recording(cls, data, parents, backward_fn, op):
            nodes.append(original(cls, data, parents, backward_fn, op))
            return nodes[-1]

        class FirstStep(Exception):
            pass

        def stop(loss):
            raise FirstStep

        monkeypatch.setattr(Tensor, "_from_op", classmethod(recording))
        monkeypatch.setattr(training, "backward", stop)
        with pytest.raises(FirstStep):
            train_model(model, train, val, self._config(n_epochs=2))
        loss = " elastic_net add" if variant == "MLP" else ""
        expected = f"transpose reshape {self._STEP_OPS[variant]} reshape transpose sub abs mean{loss}"
        assert [n.op for n in nodes] == expected.split()
        taped = [n for n in nodes if n.requires_grad]
        assert taped and all(n._backward is not None for n in taped)

    def test_persistence_is_not_trainable(self):
        train, val = self._datasets()
        model = Forecaster(ModelConfig(variant="Persistence", input_len=24, horizon=12, channels=1))
        with pytest.raises(ConfigError, match="non-trainable"):
            train_model(model, train, val, self._config())

    def test_empty_dataset_rejected(self):
        train, val = self._datasets()
        empty = make_windows(sine_table(30), input_len=24, horizon=12)
        assert len(empty) == 0
        model = Forecaster(ModelConfig(variant="Linear", input_len=24, horizon=12, channels=1))
        with pytest.raises(ConfigError, match="empty"):
            train_model(model, empty, val, self._config())

    def test_slp_fits_clean_sine(self):
        # the sinusoidal head can represent the target exactly, so a short
        # full-schedule run should reach a small training loss
        table = sine_table(1200, period=24.0)
        train = make_windows(TimeSeriesTable(name="tr", values=table.values[:900]), 96, 96)
        val = make_windows(TimeSeriesTable(name="va", values=table.values[900:]), 96, 96)
        model = Forecaster(ModelConfig(variant="SLP", input_len=96, horizon=96, channels=1, seed=1))
        report = train_model(model, train, val, TrainConfig(schedule=LrSchedule(1e-3, 1e-6, 15), batch_size=64, seed=1))
        assert report.train_losses[-1] < 0.05

    def test_same_seed_bitwise_identical(self):
        train, val = self._datasets()
        reports = []
        for _ in range(2):
            model = Forecaster(ModelConfig(variant="Linear", input_len=24, horizon=12, channels=1, seed=3))
            reports.append(train_model(model, train, val, self._config(seed=5)))
        assert reports[0].train_losses == reports[1].train_losses
        assert reports[0].val_maes == reports[1].val_maes

    def test_best_epoch_is_argmin_first_occurrence(self):
        train, val = self._datasets()
        model = Forecaster(ModelConfig(variant="Linear", input_len=24, horizon=12, channels=1, seed=4))
        report = train_model(model, train, val, self._config(n_epochs=6))
        maes = np.array(report.val_maes)
        assert report.best_epoch == int(np.argmin(maes))
        assert report.best_val_mae == maes.min()

    def test_best_epoch_parameters_are_restored(self):
        train, val = self._datasets()
        model = Forecaster(ModelConfig(variant="Linear", input_len=24, horizon=12, channels=1, seed=5))
        report = train_model(model, train, val, self._config(n_epochs=6))
        from sinecast.evaluation import evaluate

        rerun = evaluate(model, val, dataset_name="va").mae
        assert abs(rerun - report.best_val_mae) < 1e-12

    def test_restores_a_copy_of_the_best_epochs_parameters(self, monkeypatch):
        # the best epoch is neither the first nor the last, and later in-place
        # steps must not have reached the snapshot taken at it
        train, val = self._datasets()
        model = Forecaster(ModelConfig(variant="Linear", input_len=24, horizon=12, channels=1, seed=8))
        maes = iter([0.5, 0.2, 0.3, 0.4])
        seen = []

        def fake_evaluate(m, dataset, dataset_name, batch_size):
            seen.append({name: p.data.copy() for name, p in m.params.items()})
            return SimpleNamespace(mae=next(maes))

        monkeypatch.setattr(training, "evaluate", fake_evaluate)
        report = train_model(model, train, val, self._config(n_epochs=4))
        assert report.best_epoch == 1 and len(seen) == 4
        for name, p in model.params.items():
            assert np.array_equal(p.data, seen[1][name])
            assert not np.array_equal(p.data, seen[3][name])

    def test_training_log_csv(self, tmp_path):
        train, val = self._datasets()
        model = Forecaster(ModelConfig(variant="Linear", input_len=24, horizon=12, channels=1, seed=6))
        log = tmp_path / "log.csv"
        report = train_model(model, train, val, self._config(n_epochs=3), log_path=log)
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,train_loss,val_mae"
        assert len(lines) == 1 + 3
        first = lines[1].split(",")
        assert float(first[1]) == report.lrs[0]

    def test_mlp_uses_elastic_net_by_default(self, monkeypatch):
        # the MLP's penalty must change its training: the same run with the
        # penalty strengths patched to zero ends at different weights
        train, val = self._datasets(input_len=12, horizon=6)
        norms = {}
        for tag in ("default", "off"):
            if tag == "off":
                monkeypatch.setattr(training, "MLP_L1", 0.0)
                monkeypatch.setattr(training, "MLP_L2", 0.0)
            model = Forecaster(ModelConfig(variant="MLP", input_len=12, horizon=6, channels=1, seed=7))
            cfg = TrainConfig(schedule=LrSchedule(1e-3, 1e-6, 5), batch_size=32, seed=7)
            train_model(model, train, val, cfg)
            norms[tag] = sum(float(np.abs(p.data).sum()) for p in model.parameters())
        assert norms["default"] != norms["off"]
