"""Tests for optimizers and learning-rate schedules."""

import numpy as np
import pytest

from repro.core.optimizer import (
    Adam,
    ConstantSchedule,
    MomentumSGD,
    SGD,
    StepSchedule,
    clip_gradients,
    get_optimizer,
    paper_output_schedule,
    paper_reservoir_schedule,
)


class TestSchedules:
    def test_paper_reservoir_schedule_values(self):
        """Sec. 4: start at 1, x0.1 at epochs 5, 10, 15, 20."""
        sched = paper_reservoir_schedule()
        expected = {1: 1.0, 4: 1.0, 5: 0.1, 9: 0.1, 10: 0.01, 14: 0.01,
                    15: 1e-3, 19: 1e-3, 20: 1e-4, 25: 1e-4}
        for epoch, lr in expected.items():
            assert sched.lr_at(epoch) == pytest.approx(lr)

    def test_paper_output_schedule_values(self):
        """Sec. 4: output layer decays at epochs 10, 15, 20 only."""
        sched = paper_output_schedule()
        assert sched.lr_at(9) == pytest.approx(1.0)
        assert sched.lr_at(10) == pytest.approx(0.1)
        assert sched.lr_at(25) == pytest.approx(1e-3)

    def test_constant_schedule(self):
        sched = ConstantSchedule(0.5)
        assert sched.lr_at(1) == sched.lr_at(100) == 0.5

    def test_step_schedule_validation(self):
        with pytest.raises(ValueError):
            StepSchedule(0.0, (5,))
        with pytest.raises(ValueError):
            StepSchedule(1.0, (5, 3))  # not increasing
        with pytest.raises(ValueError):
            StepSchedule(1.0, (0,))  # epochs are 1-indexed
        with pytest.raises(ValueError):
            StepSchedule(1.0, (5,), gamma=0.0)
        with pytest.raises(ValueError):
            StepSchedule(1.0, (5,)).lr_at(0)


class TestClipGradients:
    def test_no_clip_below_threshold(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_gradients(grads, 10.0)
        assert norm == pytest.approx(5.0)
        assert grads["a"][0] == 3.0

    def test_clips_to_max_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        clip_gradients(grads, 1.0)
        total = np.sqrt(grads["a"][0] ** 2 + grads["b"][0] ** 2)
        assert total == pytest.approx(1.0)
        # direction preserved
        assert grads["a"][0] / grads["b"][0] == pytest.approx(0.75)

    def test_none_disables(self):
        grads = {"a": np.array([100.0])}
        clip_gradients(grads, None)
        assert grads["a"][0] == 100.0

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_gradients({"a": np.array([1.0])}, -1.0)
        with pytest.raises(ValueError):
            clip_gradients({"a": np.array([[1.0]])}, -1.0, stacked=True)

    def test_stacked_returns_per_candidate_norms(self):
        """Regression: stacked grads yield (K,) norms, not one global norm.

        A global norm over the whole stack would both report the wrong
        magnitude and couple the candidates' clips; each row must see
        exactly the scalar-path arithmetic of its own gradients.
        """
        rng = np.random.default_rng(0)
        stacked = {
            "A": rng.normal(size=4),
            "W": rng.normal(size=(4, 3, 5)) * 3.0,
        }
        # np.array(...) keeps scalar rows as (mutable) 0-d arrays, the form
        # the trainer feeds the scalar path
        per_row = [{name: np.array(g[k]) for name, g in stacked.items()}
                   for k in range(4)]
        norms = clip_gradients(stacked, 2.0, stacked=True)
        assert norms.shape == (4,)
        for k in range(4):
            ref_norm = clip_gradients(per_row[k], 2.0)
            assert norms[k] == ref_norm  # bitwise
            for name in stacked:
                np.testing.assert_array_equal(stacked[name][k],
                                              per_row[k][name])

    def test_stacked_clips_only_oversized_rows(self):
        grads = {"a": np.array([[3.0, 4.0], [0.3, 0.4]])}
        norms = clip_gradients(grads, 1.0, stacked=True)
        np.testing.assert_allclose(norms, [5.0, 0.5])
        np.testing.assert_allclose(np.linalg.norm(grads["a"][0]), 1.0)
        np.testing.assert_array_equal(grads["a"][1], [0.3, 0.4])  # untouched

    def test_stacked_none_disables(self):
        grads = {"a": np.array([[100.0], [1.0]])}
        norms = clip_gradients(grads, None, stacked=True)
        np.testing.assert_array_equal(norms, [100.0, 1.0])
        assert grads["a"][0, 0] == 100.0

    def test_stacked_rejects_scalar_grads(self):
        with pytest.raises(ValueError, match="candidate axis"):
            clip_gradients({"a": np.array(1.0)}, 1.0, stacked=True)


class TestOptimizers:
    def _params(self):
        return {"w": np.array([1.0, 2.0]), "s": np.array(0.5)}

    def test_sgd_step(self):
        params = self._params()
        grads = {"w": np.array([0.1, -0.1]), "s": np.array(0.2)}
        SGD().step(params, grads, {"w": 1.0, "s": 0.5})
        np.testing.assert_allclose(params["w"], [0.9, 2.1])
        assert params["s"] == pytest.approx(0.4)

    def test_momentum_accumulates(self):
        params = {"w": np.array([0.0])}
        grads = {"w": np.array([1.0])}
        opt = MomentumSGD(momentum=0.5)
        opt.step(params, grads, {"w": 1.0})   # v = -1    -> w = -1
        opt.step(params, grads, {"w": 1.0})   # v = -1.5  -> w = -2.5
        assert params["w"][0] == pytest.approx(-2.5)
        opt.reset()
        opt.step(params, grads, {"w": 1.0})
        assert params["w"][0] == pytest.approx(-3.5)

    def test_adam_first_step_is_lr_sized(self):
        params = {"w": np.array([0.0])}
        grads = {"w": np.array([7.0])}
        Adam().step(params, grads, {"w": 0.1})
        # bias-corrected first step magnitude ~ lr regardless of grad scale
        assert params["w"][0] == pytest.approx(-0.1, rel=1e-6)

    def test_optimizers_reduce_quadratic_loss(self):
        for opt in (SGD(), MomentumSGD(), Adam()):
            params = {"w": np.array([5.0, -3.0])}
            for _ in range(200):
                grads = {"w": 2 * params["w"]}
                opt.step(params, grads, {"w": 0.05})
            assert np.linalg.norm(params["w"]) < 0.5, repr(opt)

    def test_get_optimizer(self):
        assert isinstance(get_optimizer("sgd"), SGD)
        assert isinstance(get_optimizer("momentum"), MomentumSGD)
        assert isinstance(get_optimizer("adam"), Adam)
        inst = Adam()
        assert get_optimizer(inst) is inst
        with pytest.raises(ValueError):
            get_optimizer("lbfgs")
        with pytest.raises(TypeError):
            get_optimizer(3.14)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MomentumSGD(momentum=1.0)
        with pytest.raises(ValueError):
            Adam(beta1=1.5)
        with pytest.raises(ValueError):
            ConstantSchedule(-1.0)


class TestStackedOptimizers:
    """Stacked (K, ...) optimizer state == K independent scalar optimizers.

    This is the invariant the population trainer rests on: row ``k`` of a
    stacked optimizer must be bit-identical to an independent instance
    driving that candidate alone, through masked steps (a member skipping
    a minibatch) too.
    """

    K = 3

    def _stacked_params(self, rng):
        return {
            "A": rng.normal(size=self.K),
            "W": rng.normal(size=(self.K, 2, 4)),
        }

    def _grad_stream(self, seed, n_steps):
        rng = np.random.default_rng(seed)
        return [{"A": rng.normal(size=self.K),
                 "W": rng.normal(size=(self.K, 2, 4))}
                for _ in range(n_steps)]

    @pytest.mark.parametrize("make_opt", [SGD, MomentumSGD, Adam],
                             ids=["sgd", "momentum", "adam"])
    def test_rows_match_independent_instances(self, make_opt):
        rng = np.random.default_rng(1)
        stacked_params = self._stacked_params(rng)
        solo_params = [{name: np.array(p[k])  # 0-d arrays stay mutable
                        for name, p in stacked_params.items()}
                       for k in range(self.K)]
        stacked = make_opt()
        stacked.reset(n_rows=self.K)
        solos = [make_opt() for _ in range(self.K)]
        for opt in solos:
            opt.reset()
        lrs = {"A": 0.5, "W": 0.15}
        for grads in self._grad_stream(2, 8):
            stacked.step(stacked_params, grads, lrs)
            for k, opt in enumerate(solos):
                opt.step(solo_params[k],
                         {name: g[k].copy() for name, g in grads.items()},
                         lrs)
        for k in range(self.K):
            for name in stacked_params:
                np.testing.assert_array_equal(stacked_params[name][k],
                                              solo_params[k][name])

    @pytest.mark.parametrize("make_opt", [SGD, MomentumSGD, Adam],
                             ids=["sgd", "momentum", "adam"])
    def test_masked_rows_stay_untouched(self, make_opt):
        """A masked-out row neither moves nor advances its state.

        For Adam this pins the per-row step count: the skipping member's
        bias correction must stay one step behind, exactly like an
        independent instance that was never stepped.
        """
        rng = np.random.default_rng(3)
        stacked_params = self._stacked_params(rng)
        solo_params = [{name: np.array(p[k])  # 0-d arrays stay mutable
                        for name, p in stacked_params.items()}
                       for k in range(self.K)]
        stacked = make_opt()
        stacked.reset(n_rows=self.K)
        solos = [make_opt() for _ in range(self.K)]
        mask_stream = [np.array([True, True, True]),
                       np.array([True, False, True]),
                       np.array([False, False, True]),
                       np.array([True, True, True])]
        for grads, mask in zip(self._grad_stream(4, 4), mask_stream):
            stacked.step(stacked_params, grads, {"A": 0.5, "W": 0.1},
                         mask=mask)
            for k, opt in enumerate(solos):
                if mask[k]:
                    opt.step(solo_params[k],
                             {name: g[k].copy()
                              for name, g in grads.items()},
                             {"A": 0.5, "W": 0.1})
        for k in range(self.K):
            for name in stacked_params:
                np.testing.assert_array_equal(stacked_params[name][k],
                                              solo_params[k][name])

    @pytest.mark.parametrize("make_opt", [SGD, MomentumSGD, Adam],
                             ids=["sgd", "momentum", "adam"])
    def test_mask_requires_stacked_mode(self, make_opt):
        # in scalar mode a mask would boolean-index the first *parameter*
        # axis (a silent misupdate), so every optimizer rejects it
        opt = make_opt()
        opt.reset()
        with pytest.raises(ValueError, match="stacked"):
            opt.step({"w": np.array([0.0])}, {"w": np.array([1.0])},
                     {"w": 0.1}, mask=np.array([True]))

    @pytest.mark.parametrize("make_opt", [SGD, MomentumSGD, Adam],
                             ids=["sgd", "momentum", "adam"])
    def test_mask_must_be_boolean(self, make_opt):
        # an integer index array would silently corrupt Adam's per-row
        # step counts (t += mask adds the index *values*), so every
        # optimizer rejects non-boolean masks
        opt = make_opt()
        opt.reset(n_rows=2)
        with pytest.raises(ValueError, match="boolean"):
            opt.step({"w": np.zeros(2)}, {"w": np.ones(2)},
                     {"w": 0.1}, mask=np.array([0, 1]))
