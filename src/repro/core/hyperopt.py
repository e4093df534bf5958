"""Alternative hyperparameter optimizers for the (A, B, beta) search.

The paper argues grid search is the *de facto* DFR tuning method and
replaces it with backpropagation.  Besides the paper's single gradient run
(:class:`~repro.core.trainer.BackpropTrainer` inside the classifier), the
library ships the black-box baselines a practitioner would reach for — and
a population form of the paper's own method:

* :class:`RandomSearch` — log-uniform sampling of the paper's search box
  (Bergstra & Bengio's argument: beats grids of the same budget when the
  landscape's effective dimensionality is low);
* :class:`SimulatedAnnealing` — local log-space perturbations with a
  geometric temperature schedule; a cheap trajectory-based baseline that,
  unlike recursive grid zooming, can escape a misleading basin;
* :class:`PopulationDescent` — the fifth search: K restarts of the paper's
  BP+GD descended *concurrently* through the candidate-axis-vectorized
  engine (:mod:`repro.core.population`), then scored as one batch through
  the shared execution layer — multi-start robustness at roughly the cost
  of one fused run.

All of them operate through the identical
:func:`~repro.core.pipeline.evaluate_fixed_params` protocol used by the
grid search and by the classifier, so results are directly comparable, and
all submit their candidates through the shared execution layer
(:mod:`repro.exec`).  Random search fans its whole sample budget out in one
submission; annealing is inherently sequential, but its speculative mode
(``speculative > 1``) proposes a batch of candidates from the current point
each round, evaluates them concurrently, and accepts the first of them by
Metropolis order — trading some wasted evaluations for wall-clock when
workers are available.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from repro.core.grid_search import CandidateSearch
from repro.core.pipeline import DFRFeatureExtractor, FixedParamsEvaluation
from repro.core.population import (
    MemberResult,
    PopulationResult,
    chunked_population_fit,
    draw_starting_points,
    resolve_population,
)
from repro.core.selection import best_evaluation, better_evaluation
from repro.core.trainer import TrainerConfig
from repro.exec import Candidate, resolve_candidate_block_size

__all__ = [
    "SearchOutcome",
    "RandomSearch",
    "SimulatedAnnealing",
    "DescentOutcome",
    "PopulationDescent",
]


@dataclass
class SearchOutcome:
    """Result of a black-box (A, B, beta) search.

    ``total_seconds`` is the wall-clock of the whole search (including
    executor overhead); ``compute_seconds`` sums the per-candidate
    evaluation times across workers, so speedup under parallel execution is
    measurable.  ``n_wasted`` counts speculative annealing proposals that
    were evaluated but discarded because an earlier proposal of the same
    batch was accepted — real evaluations paid for, so it is per-executor:
    lazily-fed executors (serial) never waste any, eagerly-fed ones
    (multiprocess, vectorized) report the actual discarded count.
    """

    best: FixedParamsEvaluation
    evaluations: List[FixedParamsEvaluation] = field(default_factory=list)
    total_seconds: float = 0.0
    compute_seconds: float = 0.0
    n_wasted: int = 0

    @property
    def n_evaluations(self) -> int:
        return len(self.evaluations)


class RandomSearch(CandidateSearch):
    """Log-uniform random sampling over the paper's search box."""

    def search(
        self, u_train, y_train, u_test, y_test, *, n_samples: int = 25,
        n_classes: Optional[int] = None,
    ) -> SearchOutcome:
        """Draw ``n_samples`` points and return the incumbent best.

        All points are drawn up front (the draw order matches the historical
        serial implementation) and submitted as one batch, so the whole
        sample budget fans out across workers.
        """
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        start = time.perf_counter()
        split_seed = int(self._rng.integers(2**31 - 1))
        candidates = []
        for i in range(n_samples):
            log_a = self._rng.uniform(*self.a_range)
            log_b = self._rng.uniform(*self.b_range)
            candidates.append(Candidate(
                index=i, A=float(10.0**log_a), B=float(10.0**log_b),
                seed=split_seed,
            ))
        context = self._make_context(u_train, y_train, u_test, y_test, n_classes)
        report = self.executor.run(context, candidates)
        evaluations = report.evaluations()
        best = None
        for ev in evaluations:
            if better_evaluation(ev, best):
                best = ev
        return SearchOutcome(
            best=best,
            evaluations=evaluations,
            total_seconds=time.perf_counter() - start,
            compute_seconds=report.compute_seconds,
        )


class SimulatedAnnealing(CandidateSearch):
    """Annealed local search in log-parameter space.

    Proposals perturb ``(log A, log B)`` with Gaussian steps whose scale
    and acceptance temperature decay geometrically; acceptance uses the
    validation-loss criterion (lower is better), with the usual Metropolis
    rule for uphill moves.
    """

    def search(
        self, u_train, y_train, u_test, y_test, *, n_steps: int = 30,
        initial_temperature: float = 0.5, cooling: float = 0.9,
        step_scale: float = 0.5, speculative: int = 1,
        n_classes: Optional[int] = None,
    ) -> SearchOutcome:
        """Run ``n_steps`` of annealing from the center of the box.

        ``speculative`` proposes that many candidates per round, all from
        the current point, with the step scale and Metropolis temperature
        each proposal *would* have seen serially.  The batch is evaluated
        concurrently, then scanned in proposal order: the first accepted
        proposal ends the round and later (now invalid) evaluations of the
        batch are discarded as waste.  ``speculative=1`` reproduces the
        serial trajectory exactly; larger values change the trajectory only
        through which proposals are drawn, never the acceptance rule.

        With an executor that evaluates candidates one at a time anyway
        (serial, or a single-worker pool) up-front evaluation of the batch
        would be pure waste, so proposals are then evaluated lazily one by
        one during the scan — same trajectory, no discarded work, and
        ``n_wasted`` stays 0.  Batch-preferring executors (multiprocess
        with real workers, vectorized candidate fusion) evaluate the whole
        batch eagerly; the proposals invalidated by an earlier acceptance
        were then genuinely computed, and ``n_wasted`` counts exactly
        those.
        """
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        if not 0.0 < cooling < 1.0:
            raise ValueError(f"cooling must lie in (0, 1), got {cooling}")
        if speculative < 1:
            raise ValueError(f"speculative must be >= 1, got {speculative}")
        start = time.perf_counter()
        split_seed = int(self._rng.integers(2**31 - 1))
        context = self._make_context(u_train, y_train, u_test, y_test, n_classes)

        log_a = 0.5 * (self.a_range[0] + self.a_range[1])
        log_b = 0.5 * (self.b_range[0] + self.b_range[1])
        report = self.executor.run(context, [
            Candidate(index=0, A=float(10.0**log_a), B=float(10.0**log_b),
                      seed=split_seed),
        ])
        compute_seconds = report.compute_seconds
        current = report.evaluations()[0]
        evaluations = [current]
        best = current
        temperature = float(initial_temperature)
        scale = float(step_scale)
        steps_done = 0
        next_index = 1
        n_wasted = 0
        while steps_done < n_steps:
            k = min(speculative, n_steps - steps_done)
            # propose k candidates from the current point, each with the
            # scale (and remembered temperature) of the serial step it
            # speculates for
            proposals = []
            temps = []
            scale_j, temp_j = scale, temperature
            for _ in range(k):
                cand_a = float(np.clip(log_a + self._rng.normal(scale=scale_j),
                                       *self.a_range))
                cand_b = float(np.clip(log_b + self._rng.normal(scale=scale_j),
                                       *self.b_range))
                proposals.append((cand_a, cand_b))
                temps.append(temp_j)
                scale_j *= cooling
                temp_j *= cooling
            candidates = [
                Candidate(index=next_index + j, A=float(10.0**a), B=float(10.0**b),
                          seed=split_seed)
                for j, (a, b) in enumerate(proposals)
            ]
            next_index += k
            # speculation only pays off when a batch submission buys the
            # executor something — process-level overlap (multiprocess) or
            # candidate-axis fusion (vectorized).  Executors that evaluate
            # one candidate at a time anyway (serial, backend) are handed
            # proposals lazily during the scan instead, so proposals past
            # an acceptance are never computed at all and n_wasted stays
            # zero; batch-preferring executors evaluate the whole batch
            # eagerly and the discarded tail counts as real waste.
            lazy = not getattr(self.executor, "prefers_batch", False)
            if lazy:
                batch = None
            else:
                report = self.executor.run(context, candidates)
                compute_seconds += report.compute_seconds
                batch = report.evaluations()
            # Metropolis scan in proposal order; the first acceptance
            # invalidates the rest of the batch
            for j in range(k):
                if lazy:
                    report = self.executor.run(context, [candidates[j]])
                    compute_seconds += report.compute_seconds
                    candidate = report.evaluations()[0]
                else:
                    candidate = batch[j]
                evaluations.append(candidate)
                steps_done += 1
                delta = candidate.val_loss - current.val_loss
                accept = delta <= 0 or (
                    np.isfinite(delta)
                    and self._rng.random() < np.exp(-delta / max(temps[j], 1e-12))
                )
                if better_evaluation(candidate, best):
                    best = candidate
                temperature *= cooling
                scale *= cooling
                if accept:
                    log_a, log_b = proposals[j]
                    current = candidate
                    if not lazy:
                        n_wasted += k - (j + 1)
                    break
        return SearchOutcome(
            best=best,
            evaluations=evaluations,
            total_seconds=time.perf_counter() - start,
            compute_seconds=compute_seconds,
            n_wasted=n_wasted,
        )


@dataclass
class DescentOutcome(SearchOutcome):
    """Outcome of a population gradient-descent search.

    Extends :class:`SearchOutcome` with the fused training record:
    ``descent`` is the merged
    :class:`~repro.core.population.PopulationResult` of all chunks, and
    ``evaluations[i]`` scores the *endpoint* of ``members[i]``'s descent
    through the identical fixed-params protocol every other search uses.
    ``training_seconds`` is the wall-clock of the fused descent itself
    (``total_seconds`` additionally includes the endpoint scoring).
    """

    descent: Optional[PopulationResult] = None
    training_seconds: float = 0.0

    @property
    def members(self) -> List[MemberResult]:
        return self.descent.members if self.descent is not None else []

    @property
    def population(self) -> int:
        return self.descent.population if self.descent is not None else 0


class PopulationDescent(CandidateSearch):
    """The fifth search: K fused restarts of the paper's BP+GD.

    Draws K starting points (member 0 at the paper's ``(0.01, 0.01)``
    initialization, the rest log-uniform over the search box), descends all
    of them concurrently through the candidate-axis-vectorized training
    engine (:class:`~repro.core.population.PopulationTrainer` — one fused
    ``(K, N, ...)`` forward/backward per minibatch instead of K sequential
    :meth:`~repro.core.trainer.BackpropTrainer.fit` loops), then submits
    the K descent *endpoints* through the shared execution layer for the
    usual ridge/beta scoring, ranked by the shared selection rule.

    The fused training stack is chunked by ``candidate_block_size``
    (``REPRO_CANDIDATE_BLOCK_SIZE``) when the population exceeds it, so
    peak trace memory is bounded exactly like a vectorized evaluation
    block; every chunk shares one shuffle seed, so results are independent
    of the chunking (and, on NumPy, bit-identical to sequential per-member
    training — pinned by ``tests/test_population.py``).  Endpoint scoring
    goes through ``self.executor`` as one submission — batch-preferring
    executors (vectorized, multiprocess) consume it whole — with one shared
    holdout split for the whole population (the sibling searches'
    convention: comparable criterion, executor-independent records).

    Parameters (beyond the shared ``CandidateSearch`` ones)
    ----------
    trainer_config:
        :class:`~repro.core.trainer.TrainerConfig` for the descent
        (defaults to the paper's protocol with ``batch_size=8`` — restarts
        are about endpoint quality, not the paper's per-sample update
        granularity, and fused minibatches are what make K restarts cheap).
    population:
        Default restart count for :meth:`search`; ``None`` defers to
        ``REPRO_POPULATION`` (default 8).
    """

    def __init__(
        self,
        extractor: DFRFeatureExtractor,
        *,
        trainer_config: Optional[TrainerConfig] = None,
        population: Optional[int] = None,
        **kwargs,
    ):
        super().__init__(extractor, **kwargs)
        if trainer_config is None:
            trainer_config = TrainerConfig(batch_size=8)
        if self.backend is not None and trainer_config.backend is None:
            trainer_config = replace(trainer_config, backend=self.backend)
        self.trainer_config = trainer_config
        self.population = population

    def descend(self, u_train, y_train, *, population: Optional[int] = None,
                n_classes: Optional[int] = None) -> PopulationResult:
        """Run only the fused descent phase (no endpoint scoring).

        Returns the merged :class:`~repro.core.population.PopulationResult`
        over all chunks; members keep their population-wide indices.
        """
        if self.extractor.reservoir is None:
            raise RuntimeError("extractor must be fitted before descent")
        if n_classes is None:
            n_classes = int(np.asarray(y_train).max()) + 1
        k = resolve_population(
            population if population is not None else self.population)
        a0, b0 = draw_starting_points(
            self._rng, k, self.a_range, self.b_range,
            init_A=self.trainer_config.init_A,
            init_B=self.trainer_config.init_B,
        )
        shuffle_seed = int(self._rng.integers(2**31 - 1))
        u_std = self.extractor.standardizer.transform(u_train)
        return chunked_population_fit(
            self.extractor.reservoir,
            n_classes,
            u_std,
            y_train,
            a0,
            b0,
            dprr=self.extractor.dprr,
            config=self.trainer_config,
            shuffle_seed=shuffle_seed,
            block_size=resolve_candidate_block_size(self.candidate_block_size),
        )

    def search(
        self, u_train, y_train, u_test, y_test, *,
        population: Optional[int] = None,
        n_classes: Optional[int] = None,
    ) -> DescentOutcome:
        """Descend ``population`` restarts, then score every endpoint.

        The endpoint scoring pays the identical per-candidate protocol as
        grid/random/annealing (beta selection on a holdout, then a test
        score), submitted through the shared executor, so a
        :class:`DescentOutcome` is directly comparable to every other
        :class:`SearchOutcome` of this module.
        """
        start = time.perf_counter()
        y_train = np.asarray(y_train)
        if n_classes is None:
            n_classes = int(max(y_train.max(), np.asarray(y_test).max())) + 1
        split_seed = int(self._rng.integers(2**31 - 1))
        descent = self.descend(u_train, y_train, population=population,
                               n_classes=n_classes)
        training_seconds = descent.elapsed_seconds
        # endpoint scoring: one submission of all K endpoints sharing ONE
        # holdout split — the same convention as every sibling search (one
        # fixed split per grid level / random budget) — so members are
        # ranked by endpoint quality, not split luck, and the records are
        # identical under any executor
        context = self._make_context(u_train, y_train, u_test, y_test,
                                     n_classes)
        candidates = [
            Candidate(index=m.index, A=m.result.A, B=m.result.B,
                      seed=split_seed)
            for m in descent.members
        ]
        report = self.executor.run(context, candidates)
        evaluations = report.evaluations()
        return DescentOutcome(
            best=best_evaluation(evaluations),
            evaluations=evaluations,
            total_seconds=time.perf_counter() - start,
            compute_seconds=report.compute_seconds,
            descent=descent,
            training_seconds=training_seconds,
        )
