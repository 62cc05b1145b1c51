"""The benchmark's workloads: set-up from a seed, timed rounds, and checks.

Constructing a workload is the set-up that ``setup_s`` times.  A round then
runs the workload once with each decoder; every round repeats the same
inputs, so each round does the same work and the traced counts per round
repeat exactly.  A round returns its timings and every correctness check it
found broken.  Call the library only through ``ic.<name>`` so that the
tracer's wrappers are seen.
"""

from __future__ import annotations

import dataclasses
import math
from time import perf_counter

import irscollab as ic
import numpy as np

# Captured before any tracer wraps the method, so the uncoded reference
# product is timed as its own span and not counted as a field.matmul call.
_DIRECT_MATMUL = ic.PrimeField.matmul


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, stream))))


@dataclasses.dataclass
class Round:
    trials: int  # decodes per decoder
    cpda_s: float  # wall seconds of the cpda path
    mssr_s: float  # wall seconds of the mssr path
    wrong: int  # decodes, both decoders, that did not return the transmitted word
    failed: int  # decodes whose outcome contradicts what the workload expects
    problems: list  # broken correctness checks


class MatmulDeep:
    """One coded A^T B over GF(257), decoded from a 16384-deep interleaved word.

    A and B are 512 x 512, split m = n = 4 ways (K = 16), on N = 40 workers
    at primitive points; 20 workers return uniform nonzero errors
    (t_max = 23, while a row-by-row decoder stops at 12).  The cpda path is
    encode -> 40 worker products -> assemble -> inject -> cpda -> recover;
    the mssr path shares everything up to inject and then runs mssr ->
    recover on the same word.
    """

    name = "matmul-deep"
    P, SIZE, SPLIT, WORKERS, FAULTY = 257, 512, 4, 40, 20

    def __init__(self, seed: int):
        self.seed = seed
        self.field = ic.PrimeField(self.P)
        rng = _rng(seed, 0)
        self.a = self.field.rand_elements(rng, (self.SIZE, self.SIZE))
        self.b = self.field.rand_elements(rng, (self.SIZE, self.SIZE))
        xs = ic.make_alphas(self.field, self.WORKERS, "primitive")
        self.params = ic.PolyCodeParams(field=self.field, m=self.SPLIT, n=self.SPLIT,
                                        num_workers=self.WORKERS, xs=xs)
        self.spec = ic.ErrorModelSpec(kind="uref", t=self.FAULTY)
        self._truth = None

    def truth(self) -> np.ndarray:
        """A^T B mod p by float64 BLAS, independent of the library.

        Exact: each entry sums 512 products below 257^2, under 2^53.
        """
        if self._truth is None:
            prod = self.a.astype(np.float64).T @ self.b.astype(np.float64)
            self._truth = np.fmod(prod, self.P).astype(np.int64)
        return self._truth

    def warm_up(self) -> None:
        """Nothing: an untimed repetition would cost a third of a run, and the
        median over repetitions already absorbs a slow first one."""

    def _recover(self, outcome, word):
        """The product from a decoded word, or None when there is none."""
        if not outcome.success:
            return None
        try:
            return ic.recover_product(self.params, dataclasses.replace(word, d=outcome.corrected))
        except ic.NotACodeword:
            return None

    def run_round(self, tracer=None) -> Round:
        fld, params = self.field, self.params
        start = perf_counter()
        tasks = ic.encode_tasks(params, self.a, self.b)
        outputs = [ic.worker_compute(task) for task in tasks]
        word = ic.assemble_irs(params, outputs)
        err = ic.sample_error(self.spec, fld, word.d.shape[0], params.num_workers,
                              _rng(self.seed, 1))
        word = dataclasses.replace(word, d=ic.inject(word.d, err.e, fld))
        shared = perf_counter()
        cpda = ic.cpda_decode(word.code, word.d)
        product = self._recover(cpda, word)
        cpda_done = perf_counter()
        mssr = ic.mssr_decode(word.code, word.d)
        product_mssr = self._recover(mssr, word)
        mssr_done = perf_counter()
        if tracer is not None:
            with tracer.span("field.direct_product"):
                _DIRECT_MATMUL(fld, self.a.T, self.b)

        truth = self.truth()
        problems = []
        wrong = 0
        for label, prod in (("cpda", product), ("mssr", product_mssr)):
            if prod is None or not np.array_equal(prod, truth):
                wrong += 1
                problems.append(f"{label}: recovered product is not A^T B mod {self.P}")
        if cpda.locations != err.support:
            problems.append(f"cpda located {cpda.locations}, planted {err.support}")
        if not ic.outcomes_equal(fld, cpda, mssr):
            problems.append("cpda and mssr outcomes differ")
        return Round(trials=1, cpda_s=cpda_done - start,
                     mssr_s=(shared - start) + (mssr_done - cpda_done),
                     wrong=wrong, failed=wrong, problems=problems)


class MonteCarlo:
    """One Monte Carlo cell grid, run once with each decoder per round."""

    name = ""
    TRIALS = 0  # per (L, t) cell and round

    def __init__(self, seed: int, **config):
        base = ic.ExperimentConfig(trials=self.TRIALS, seed=seed, **config)
        self.configs = {dec: dataclasses.replace(base, decoder=dec) for dec in ("cpda", "mssr")}
        self.code = base.code()
        self.trials = self.TRIALS * len(base.l_values) * len(base.t_values)
        self._first = None

    def decodable(self, cell) -> bool:
        """Whether every trial of the cell is expected to return the word."""
        raise NotImplementedError

    def cell_problem(self, cell):
        """A broken rule for one cell of one decoder's report, or None."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """One small untimed pass per decoder, so lazy set-up is not timed."""
        for cfg in self.configs.values():
            ic.run_monte_carlo(dataclasses.replace(cfg, trials=2))

    def run_round(self, tracer=None) -> Round:
        start = perf_counter()
        cpda = ic.run_monte_carlo(self.configs["cpda"])
        mid = perf_counter()
        mssr = ic.run_monte_carlo(self.configs["mssr"])
        end = perf_counter()

        counts = [(c.l, c.t, c.failures, c.undetected) for c in cpda.cells]
        problems = []
        if counts != [(c.l, c.t, c.failures, c.undetected) for c in mssr.cells]:
            problems.append("cpda and mssr give different per-cell counts")
        if self._first is None:
            self._first = counts
        elif counts != self._first:
            problems.append("a repeated round at the same seed gave different counts")
        wrong = failed = 0
        for report in (cpda, mssr):
            for cell in report.cells:
                problem = self.cell_problem(cell)
                if problem:
                    problems.append(f"L={cell.l} t={cell.t}: {problem}")
                wrong += cell.failures + cell.undetected
                failed += cell.undetected + (cell.failures if self.decodable(cell) else 0)
        return Round(trials=self.trials, cpda_s=mid - start, mssr_s=end - mid,
                     wrong=wrong, failed=failed, problems=problems)


class McGf257(MonteCarlo):
    """Criterion 3's cell: GF(257), N = 16, K = 4, L = 4, t in {7, 8, 9}."""

    name = "mc-gf257"
    TRIALS = 100

    def __init__(self, seed: int):
        super().__init__(seed, field=ic.PrimeField(257), n=16, k=4, l_values=(4,),
                         t_values=(7, 8, 9), model="uref", alphas="primitive")

    def decodable(self, cell) -> bool:
        return True

    def cell_problem(self, cell):
        # Criterion 3: no undetected errors, and P_F within the analytic
        # bound plus three standard deviations and one trial.
        if cell.undetected:
            return f"{cell.undetected} undetected errors (P_ML must be 0)"
        bound = ic.pf_bound(257, self.code.n, self.code.k, cell.l, cell.t)
        limit = bound + 3 * math.sqrt(bound * (1 - bound) / cell.trials) + 1 / cell.trials
        if cell.p_f > limit:
            return f"P_F = {cell.p_f} exceeds {limit}"
        return None


class McReal(MonteCarlo):
    """Criterion 1's grid: reals, N = 8, K = 2, L in {1, 6}, t = 1..6, pow:0.9."""

    name = "mc-real"
    TRIALS = 40

    def __init__(self, seed: int):
        super().__init__(seed, field=ic.RealField(), n=8, k=2, l_values=(1, 6),
                         t_values=(1, 2, 3, 4, 5, 6), model="gre", alphas="pow:0.9")

    def decodable(self, cell) -> bool:
        return cell.t <= ic.t_max(self.code.n, self.code.k, cell.l)

    def cell_problem(self, cell):
        # Criterion 1: P_e is exactly 0 inside the radius and exactly 1 beyond.
        want = 0.0 if self.decodable(cell) else 1.0
        return None if cell.p_e == want else f"P_e = {cell.p_e}, expected {want}"


WORKLOADS = {cls.name: cls for cls in (MatmulDeep, McGf257, McReal)}
