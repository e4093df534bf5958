"""Tests for population gradient descent (fused K-restart BP+GD).

The contract under test is *bit-parity on NumPy*: member ``k`` of a fused
K-member :class:`~repro.core.population.PopulationTrainer` run must
reproduce a sequential :meth:`~repro.core.trainer.BackpropTrainer.fit`
started from that member's ``(A, B)`` with the same seed — final
parameters, readout, and the complete per-epoch history, for every
optimizer (so momenta/moments and schedule state are transitively pinned).
On top sit the :class:`PopulationDescent` search (executor parity,
chunking invariance), the ``DFRClassifier`` wiring, and the
``REPRO_POPULATION`` resolution.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.hyperopt import DescentOutcome, PopulationDescent
from repro.core.pipeline import DFRClassifier, DFRFeatureExtractor
from repro.core.population import (
    DEFAULT_POPULATION,
    PopulationTrainer,
    draw_starting_points,
    resolve_population,
)
from repro.core.selection import best_evaluation
from repro.core.trainer import BackpropTrainer, TrainerConfig
from repro.data.loaders import make_toy_dataset
from repro.data.preprocessing import ChannelStandardizer
from repro.exec import MultiprocessExecutor, SerialExecutor, VectorizedExecutor
from repro.reservoir.masking import InputMask
from repro.reservoir.modular import ModularDFR

A0 = np.array([0.01, 0.12, 0.30])
B0 = np.array([0.01, 0.05, 0.20])


@pytest.fixture(scope="module")
def toy():
    data = make_toy_dataset(n_classes=3, n_channels=2, length=30,
                            n_train=45, n_test=45, noise=0.25, seed=7)
    std = ChannelStandardizer().fit(data.u_train)
    return data, std.transform(data.u_train), std.transform(data.u_test)


def _mask(n_nodes=8, seed=0):
    return InputMask.binary(n_nodes, 2, seed=seed)


def _assert_same_training(member_result, reference):
    """Member trajectory == sequential trajectory, bit for bit."""
    assert member_result.A == reference.A
    assert member_result.B == reference.B
    np.testing.assert_array_equal(member_result.readout.weights,
                                  reference.readout.weights)
    np.testing.assert_array_equal(member_result.readout.bias,
                                  reference.readout.bias)
    assert len(member_result.history) == len(reference.history)
    for got, want in zip(member_result.history, reference.history):
        assert got.epoch == want.epoch
        assert got.mean_loss == want.mean_loss
        assert got.accuracy == want.accuracy
        assert got.lr_reservoir == want.lr_reservoir
        assert got.lr_output == want.lr_output
        assert got.A == want.A
        assert got.B == want.B
        assert got.n_skipped == want.n_skipped


class TestPopulationTrainerParity:
    """Fused descent == sequential BackpropTrainer runs, bit for bit."""

    def test_population_of_one_per_sample_is_the_paper_reference(self, toy):
        """K=1 at batch_size=1 IS BackpropTrainer.fit (the pinned seed SGD)."""
        data, u_train, _ = toy
        cfg = TrainerConfig(epochs=5)
        pop = PopulationTrainer(ModularDFR(_mask()), 3, config=cfg, seed=3)
        result = pop.fit(u_train, data.y_train)
        ref = BackpropTrainer(ModularDFR(_mask()), 3, config=cfg,
                              seed=3).fit(u_train, data.y_train)
        assert result.population == 1
        _assert_same_training(result.members[0].result, ref)

    @pytest.mark.parametrize("optimizer", ["sgd", "momentum", "adam"])
    def test_fused_members_match_sequential_runs(self, toy, optimizer):
        """Every member of a fused K=3 run == its own sequential fit.

        Momentum and Adam make the pin transitive over the stacked
        optimizer state: one diverging velocity or moment entry (or a
        per-row Adam step count off by one) would break the trajectories.
        """
        data, u_train, _ = toy
        cfg = TrainerConfig(epochs=6, batch_size=4, optimizer=optimizer)
        fused = PopulationTrainer(ModularDFR(_mask()), 3, config=cfg,
                                  seed=11).fit(u_train, data.y_train, A0, B0)
        assert fused.population == 3
        assert all(len(m.result.history) == 6 for m in fused.members)
        for k in range(3):
            ref = BackpropTrainer(
                ModularDFR(_mask()), 3,
                config=replace(cfg, init_A=float(A0[k]), init_B=float(B0[k])),
                seed=11,
            ).fit(u_train, data.y_train)
            _assert_same_training(fused.members[k].result, ref)

    def test_divergent_members_match_sequential_pull_backs(self):
        """Mixed clean/diverging minibatches keep row-wise parity.

        Members 0/1 start in the unstable region (some samples diverge and
        trigger pull-backs mid-epoch, exercising the per-member fallback
        inside the fused sweep); member 2 stays clean and fused throughout.
        """
        rng = np.random.default_rng(0)
        u = rng.normal(size=(12, 250, 1))
        y = rng.integers(0, 2, size=12)
        mask = InputMask.binary(6, 1, seed=0)
        cfg = TrainerConfig(epochs=3, batch_size=4, init_A=1.2, init_B=0.9,
                            param_max=2.0, divergence_shrink=0.85)
        a0 = np.array([1.2, 1.8, 0.2])
        b0 = np.array([0.9, 0.9, 0.1])
        fused = PopulationTrainer(ModularDFR(mask), 2, config=cfg,
                                  seed=0).fit(u, y, a0, b0)
        skipped = [sum(h.n_skipped for h in m.result.history)
                   for m in fused.members]
        assert skipped[0] > 0 and skipped[1] > 0  # divergence really hit
        assert skipped[2] == 0
        for k in range(3):
            ref = BackpropTrainer(
                ModularDFR(mask), 2,
                config=replace(cfg, init_A=float(a0[k]), init_B=float(b0[k])),
                seed=0,
            ).fit(u, y)
            _assert_same_training(fused.members[k].result, ref)

    def test_scalar_init_broadcasts(self, toy):
        data, u_train, _ = toy
        cfg = TrainerConfig(epochs=2, batch_size=8)
        result = PopulationTrainer(ModularDFR(_mask()), 3, config=cfg,
                                   seed=1).fit(u_train, data.y_train,
                                               0.05, np.array([0.01, 0.2]))
        assert result.population == 2
        assert [m.init_A for m in result.members] == [0.05, 0.05]

    def test_validation(self, toy):
        data, u_train, _ = toy
        trainer = PopulationTrainer(ModularDFR(_mask()), 3, seed=0)
        with pytest.raises(ValueError):
            trainer.fit(u_train, data.y_train, [0.1, 0.2], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            trainer.fit(u_train, data.y_train, [0.1, np.nan], [0.1, 0.2])


class TestResolvePopulation:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_POPULATION", "5")
        assert resolve_population(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_POPULATION", "5")
        assert resolve_population(None) == 5

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_POPULATION", raising=False)
        assert resolve_population(None) == DEFAULT_POPULATION

    def test_invalid_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_POPULATION", "many")
        assert resolve_population(None) == DEFAULT_POPULATION
        monkeypatch.setenv("REPRO_POPULATION", "0")
        assert resolve_population(None) == DEFAULT_POPULATION

    def test_explicit_invalid_raises(self):
        with pytest.raises(ValueError):
            resolve_population(0)

    def test_draw_starting_points(self):
        rng = np.random.default_rng(0)
        a0, b0 = draw_starting_points(rng, 4, (-3.75, -0.25), (-2.75, -0.25),
                                      init_A=0.01, init_B=0.01)
        assert a0[0] == 0.01 and b0[0] == 0.01  # the paper's init, no draw
        assert np.all((a0[1:] >= 10**-3.75) & (a0[1:] <= 10**-0.25))
        assert np.all((b0[1:] >= 10**-2.75) & (b0[1:] <= 10**-0.25))
        # a population of one consumes no randomness at all
        rng1 = np.random.default_rng(0)
        draw_starting_points(rng1, 1, (-3.75, -0.25), (-2.75, -0.25),
                             init_A=0.01, init_B=0.01)
        rng2 = np.random.default_rng(0)
        assert rng1.integers(2**31) == rng2.integers(2**31)


class TestPopulationDescentSearch:
    @pytest.fixture(scope="class")
    def search_setup(self):
        data = make_toy_dataset(n_classes=3, n_channels=2, length=20,
                                n_train=30, n_test=30, noise=0.3, seed=7)
        ext = DFRFeatureExtractor(n_nodes=5, seed=0).fit(data.u_train)
        return data, ext, TrainerConfig(epochs=3, batch_size=8)

    def _search(self, data, ext, cfg, **kwargs):
        return PopulationDescent(ext, trainer_config=cfg, seed=4,
                                 **kwargs).search(
            data.u_train, data.y_train, data.u_test, data.y_test,
            population=5, n_classes=3,
        )

    def test_outcome_shape(self, search_setup):
        data, ext, cfg = search_setup
        outcome = self._search(data, ext, cfg, executor=SerialExecutor())
        assert isinstance(outcome, DescentOutcome)
        assert outcome.population == 5
        assert outcome.n_evaluations == 5
        assert outcome.best == best_evaluation(outcome.evaluations)
        assert outcome.training_seconds > 0
        assert outcome.total_seconds >= outcome.training_seconds
        assert all(len(m.result.history) == cfg.epochs
                   for m in outcome.members)
        # member 0 is the paper's initialization
        assert outcome.members[0].init_A == cfg.init_A
        assert [m.index for m in outcome.members] == [0, 1, 2, 3, 4]
        # endpoint scoring scores the descent endpoints, in member order
        for member, ev in zip(outcome.members, outcome.evaluations):
            assert ev.A == member.result.A
            assert ev.B == member.result.B

    def test_executor_parity(self, search_setup):
        """Serial, vectorized, and two-level scoring are bit-identical."""
        data, ext, cfg = search_setup
        serial = self._search(data, ext, cfg, executor=SerialExecutor())
        fused = self._search(data, ext, cfg,
                             executor=VectorizedExecutor(block_size=2))
        assert fused.evaluations == serial.evaluations
        assert fused.best == serial.best
        two_level = MultiprocessExecutor(2, vectorized_block_size=2)
        try:
            sharded = self._search(data, ext, cfg, executor=two_level)
        finally:
            two_level.close()
        assert sharded.evaluations == serial.evaluations

    def test_chunked_descent_matches_unchunked(self, search_setup):
        """Training-chunk size never changes any member trajectory."""
        data, ext, cfg = search_setup
        whole = self._search(data, ext, cfg, executor=SerialExecutor())
        chunked = self._search(data, ext, cfg, executor=SerialExecutor(),
                               candidate_block_size=2)
        assert chunked.evaluations == whole.evaluations
        for a, b in zip(chunked.members, whole.members):
            _assert_same_training(a.result, b.result)

    def test_chunked_descent_per_sample_batches(self, search_setup):
        """Regression: a trailing chunk of ONE member at batch_size=1 must
        not slip into the per-sample delegation path — every chunk of one
        logical population trains through the same fused arithmetic, so
        chunking stays invisible even at the paper's update granularity."""
        data, ext, _ = search_setup
        cfg = TrainerConfig(epochs=2)          # batch_size=1
        whole = PopulationDescent(
            ext, trainer_config=cfg, seed=4, executor=SerialExecutor(),
        ).descend(data.u_train, data.y_train, population=3, n_classes=3)
        chunked = PopulationDescent(
            ext, trainer_config=cfg, seed=4, executor=SerialExecutor(),
            candidate_block_size=2,            # trailing chunk holds 1 member
        ).descend(data.u_train, data.y_train, population=3, n_classes=3)
        for a, b in zip(chunked.members, whole.members):
            _assert_same_training(a.result, b.result)

    def test_unfitted_extractor_raises(self, search_setup):
        data, _, cfg = search_setup
        fresh = DFRFeatureExtractor(n_nodes=5, seed=0)
        with pytest.raises(RuntimeError, match="fitted"):
            PopulationDescent(fresh, trainer_config=cfg, seed=0).descend(
                data.u_train, data.y_train, population=2)


class TestClassifierDescent:
    @pytest.fixture(scope="class")
    def data(self):
        return make_toy_dataset(n_classes=3, n_channels=2, length=20,
                                n_train=40, n_test=40, noise=0.3, seed=7)

    def test_population_one_is_bit_identical_to_backprop(self, data):
        cfg = TrainerConfig(epochs=3)
        plain = DFRClassifier(n_nodes=5, config=cfg, seed=0).fit(
            data.u_train, data.y_train)
        descent = DFRClassifier(n_nodes=5, config=cfg, search="descent",
                                population=1, seed=0).fit(
            data.u_train, data.y_train)
        assert descent.A_ == plain.A_
        assert descent.B_ == plain.B_
        assert descent.beta_ == plain.beta_
        np.testing.assert_array_equal(descent.predict(data.u_test),
                                      plain.predict(data.u_test))

    def test_population_selects_by_validation(self, data):
        cfg = TrainerConfig(epochs=3, batch_size=8)
        clf = DFRClassifier(n_nodes=5, config=cfg, search="descent",
                            population=4, seed=0).fit(
            data.u_train, data.y_train)
        assert clf.population_.population == 4
        # the winner is one of the members
        endpoints = {(m.result.A, m.result.B) for m in clf.population_.members}
        assert (clf.A_, clf.B_) in endpoints
        assert clf.score(data.u_test, data.y_test) > 0.5

    def test_classifier_descent_chunks_by_block_size(self, data, monkeypatch):
        """Regression: classifier training is chunked by the candidate
        block size (bounded memory at any population) without changing the
        winner — chunking is trajectory-invariant."""
        cfg = TrainerConfig(epochs=3, batch_size=8)

        def fit_with_block(block):
            if block is None:
                monkeypatch.delenv("REPRO_CANDIDATE_BLOCK_SIZE",
                                   raising=False)
            else:
                monkeypatch.setenv("REPRO_CANDIDATE_BLOCK_SIZE", str(block))
            return DFRClassifier(n_nodes=5, config=cfg, search="descent",
                                 population=5, seed=0).fit(
                data.u_train, data.y_train)

        whole = fit_with_block(None)
        chunked = fit_with_block(2)   # 5 members -> chunks of 2, 2, 1
        assert chunked.A_ == whole.A_
        assert chunked.B_ == whole.B_
        assert chunked.beta_ == whole.beta_
        for a, b in zip(chunked.population_.members,
                        whole.population_.members):
            _assert_same_training(a.result, b.result)

    def test_env_population_resolution(self, data, monkeypatch):
        cfg = TrainerConfig(epochs=2, batch_size=8)
        monkeypatch.setenv("REPRO_POPULATION", "3")
        clf = DFRClassifier(n_nodes=5, config=cfg, search="descent",
                            seed=0).fit(data.u_train, data.y_train)
        assert clf.population_.population == 3

    def test_backprop_path_untouched(self, data):
        clf = DFRClassifier(n_nodes=5, config=TrainerConfig(epochs=2),
                            seed=0).fit(data.u_train, data.y_train)
        assert clf.population_ is None

    def test_invalid_search_rejected(self):
        with pytest.raises(ValueError, match="search"):
            DFRClassifier(search="quantum")
