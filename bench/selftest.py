"""Show that every output check of the benchmark rejects a result perturbed
by a small amount (about ten times the check's tolerance; a sign flip for
the sign checks).

    python3 bench/selftest.py

For each op kind of each workload the first op of the round is run once; its
true result must pass the check, and every perturbed copy must fail it.
Exits 0 when all of that holds.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def _bump(arr, k: int, delta: float):
    out = np.array(arr, dtype=float, copy=True)
    out[k] += delta
    return out


def _flip_one(gamma):
    out = np.array(gamma, dtype=float, copy=True)
    out[0] = -out[0] if out[0] != 0.0 else 1.0
    return out


CORRESPONDENCE = [
    ("R_opt + 1e-5", lambda r: replace(r, optimal_phi_risk=r.optimal_phi_risk + 1e-5)),
    ("I_f + 1e-8", lambda r: replace(r, divergence_value=r.divergence_value + 1e-8)),
    ("risk of argmin + 1e-5", lambda r: replace(r, phi_risk=r.phi_risk + 1e-5)),
    ("Bayes risk + 1e-11", lambda r: replace(r, bayes_risk_of_q=r.bayes_risk_of_q + 1e-11)),
]
SIGN_ONLY = [
    ("0-1 risk of sign(gamma) + 1e-11",
     lambda r: replace(r, bayes_risk_of_pair=r.bayes_risk_of_pair + 1e-11)),
]

PERTURBATIONS = {
    "psi_numeric": [
        ("Psi + 1e-3", lambda r: (r[0], _bump(r[1], 3, 1e-3), r[2])),
        ("Psi(Psi) + 1e-3", lambda r: (r[0], r[1], _bump(r[2], 3, 1e-3))),
        ("u* + 1e-5", lambda r: (r[0] + 1e-5, r[1], r[2])),
    ],
    "table_conjugate": [
        ("f* + 1e-11 (1 + |f*|)", lambda r: _bump(r, 7, 1e-11 * (1.0 + abs(r[7])))),
    ],
    "recipe": [("phi + 1e-5", lambda r: _bump(r, 5, 1e-5))],
    "replicate": [
        ("excess + 1e-11", lambda r: (r[0], replace(r[1], excess_bayes=r[1].excess_bayes + 1e-11))),
        ("excess = -1e-11", lambda r: (r[0], replace(r[1], excess_bayes=-1e-11))),
        ("empirical risk + 1e-11", lambda r: (r[0], replace(r[1], empirical_risk=r[1].empirical_risk + 1e-11))),
        ("gamma* sign flip", lambda r: (r[0], replace(r[1], gamma_star=_flip_one(r[1].gamma_star)))),
    ],
    "table_erm": [
        ("excess + 1e-11", lambda r: (r[0], replace(r[1], excess_bayes=r[1].excess_bayes + 1e-11))),
        ("empirical risk + 1e-11", lambda r: (r[0], replace(r[1], empirical_risk=r[1].empirical_risk + 1e-11))),
        ("trace rises by 1e-11", lambda r: (r[0], replace(r[1], objective_trace=r[1].objective_trace + (r[1].objective_trace[-1] + 1e-11,)))),
    ],
    "lemma2": [
        ("lhs + 1e-8", lambda r: (r[0] + 1e-8, r[1])),
        ("rhs - 1e-5", lambda r: (r[0], r[1] - 1e-5)),
    ],
    "dominance": [
        ("Bayes risk at one prior + 1e-11", lambda r: replace(r, bayes_1=_bump(r.bayes_1, 4, 1e-11))),
        ("clipped divergence + 1e-11", lambda r: replace(r, div_2=_bump(r.div_2, 4, 1e-11))),
        ("verdict by prior flipped", lambda r: replace(r, dominance_by_prior=tuple(not v for v in r.dominance_by_prior))),
    ],
    "mismatch": [
        ("thresholds coincide", lambda r: replace(r, t_opt_2=r.t_opt_1)),
        ("Bayes gap + 1e-11", lambda r: replace(r, bayes_gap=r.bayes_gap + 1e-11)),
        ("Bayes gap negated", lambda r: replace(r, bayes_gap=-r.bayes_gap)),
    ],
}


SEED = 0


def main() -> int:
    from fdual import losses, measures, risk

    rows, ok = [], True

    def record(workload, kind, label, problems, want_problems):
        nonlocal ok
        good = bool(problems) == want_problems
        ok &= good
        verdict = ("rejected" if problems else "accepted")
        rows.append((workload, kind, label, verdict, "ok" if good else "FAIL"))

    for workload in workloads.WORKLOADS:
        ops = workloads.WORKLOADS[workload](SEED)
        seen = set()
        for op in ops:
            if op.kind in seen:
                continue
            seen.add(op.kind)
            result = op.run()
            record(workload, op.kind, "true result", op.check(result), False)
            if workload == "correspondence":
                cases = CORRESPONDENCE + (SIGN_ONLY if op.kind in checks.SIGN_LOSSES else [])
            else:
                cases = PERTURBATIONS[op.kind]
            for label, perturb in cases:
                record(workload, op.kind, label, op.check(perturb(result)), True)

    # discriminant checks (the audit of the correspondence ops)
    rng = np.random.default_rng((SEED, 77))
    m = measures.random_measure(rng, 5)
    for name in workloads.CORRESPONDENCE_LOSSES:
        _, gamma = risk.optimal_phi_risk(losses.catalog_loss(name), m)
        record("correspondence", name, "true discriminant",
               checks.check_discriminant(name, m.mu, m.pi, gamma), False)
        if name in checks.SIGN_LOSSES:
            label, bad = "one sign flipped", _flip_one(gamma)
        else:
            label, bad = "gamma + 1e-3", _bump(gamma, 0, 1e-3)
        record("correspondence", name, label,
               checks.check_discriminant(name, m.mu, m.pi, bad), True)

    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)) + "  " + r[4])
    print(f"self-test: {'every check rejects its perturbed results' if ok else 'FAILED'}"
          f" ({len(rows)} cases)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
