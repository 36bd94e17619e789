"""Monte Carlo oracles for the random-matrix inequalities the convergence
analysis relies on: eigenvalue/singular-value sums, their pairwise-product
variant, the compression bound sigma_i(Y^T G) <= sigma_i(G), and the
norm-gap bound behind the per-step descent guarantee.
"""

from dataclasses import dataclass, field
from io import StringIO

import numpy as np
from conftest import random_stiefel

from blocksdp import sym_coupling


class LemmaViolation(AssertionError):
    """A random-matrix inequality failed; message embeds the witnesses."""


@dataclass
class LemmaOracleSummary:
    trials: int
    seed: int
    checks: dict = field(default_factory=dict)

    @property
    def total_checks(self) -> int:
        return sum(self.checks.values())


def _serialize_matrix(name: str, M: np.ndarray) -> str:
    buf = StringIO()
    buf.write(f"{name} {M.shape[0]} {M.shape[1]}\n")
    for row in np.atleast_2d(M):
        buf.write(" ".join(repr(float(v)) for v in row) + "\n")
    return buf.getvalue()


def lemma_oracles(seed: int, trials: int, slack: float = 1e-9) -> LemmaOracleSummary:
    """Monte Carlo check of the spectral inequalities the rate analysis rests on.

    Per trial: a random square M for the eigenvalue/singular-value sums
    (p in {1, 2}) and their pairwise-product variant, plus random G and a
    random orthonormal-column Y for the compression and norm-gap bounds.
    Every inequality is asserted with slack * (1 + |RHS|); a violation
    raises LemmaViolation with the offending matrices serialized row-major.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    counts = {"eig_sv_p1": 0, "eig_sv_p2": 0, "pairwise": 0, "compression": 0, "norm_gap": 0}

    def fail(name, lhs, rhs, **mats):
        dump = "\n".join(_serialize_matrix(k, v) for k, v in mats.items())
        raise LemmaViolation(f"{name}: lhs={lhs!r} > rhs={rhs!r} + slack\n{dump}")

    for _ in range(trials):
        m = int(rng.integers(2, 7))
        M = rng.standard_normal((m, m))
        lam = np.abs(np.linalg.eigvals(M))
        sig = np.linalg.svd(M, compute_uv=False)
        for p, key in ((1, "eig_sv_p1"), (2, "eig_sv_p2")):
            lhs, rhs = float(np.sum(lam ** p)), float(np.sum(sig ** p))
            if lhs > rhs + slack * (1.0 + abs(rhs)):
                fail(f"sum |lambda|^{p} <= sum sigma^{p}", lhs, rhs, M=M)
            counts[key] += 1
        lhs = 0.5 * (float(np.sum(lam)) ** 2 - float(np.sum(lam ** 2)))
        rhs = 0.5 * (float(np.sum(sig)) ** 2 - float(np.sum(sig ** 2)))
        if lhs > rhs + slack * (1.0 + abs(rhs)):
            fail("sum_{i<j} |l_i l_j| <= sum_{i<j} s_i s_j", lhs, rhs, M=M)
        counts["pairwise"] += 1

        d = int(rng.integers(1, 4))
        r = int(rng.integers(d, 7))
        G = rng.standard_normal((r, d))
        Y = random_stiefel(r, d, rng)
        sG = np.linalg.svd(G, compute_uv=False)
        sYG = np.linalg.svd(Y.T @ G, compute_uv=False)
        if np.any(sYG > sG + slack * (1.0 + np.abs(sG))):
            fail("sigma_i(Y^T G) <= sigma_i(G)", sYG.tolist(), sG.tolist(), G=G, Y=Y)
        counts["compression"] += 1
        A = sym_coupling(Y, G)
        lhs = float(np.trace(A)) ** 2 - float(np.sum(A * A))
        rhs = float(sG.sum()) ** 2 - float(np.sum(sG ** 2))
        if lhs > rhs + slack * (1.0 + abs(rhs)):
            fail("tr(A)^2 - ||A||_F^2 <= ||G||_*^2 - ||G||_F^2", lhs, rhs, G=G, Y=Y)
        counts["norm_gap"] += 1

    return LemmaOracleSummary(trials=trials, seed=seed, checks=counts)
