"""Margin losses and f-divergences: conjugate duality, risk identities,
universal equivalence, and joint discriminant/quantizer ERM."""

from .duality import (ConditionReport, Generator, PsiFunction,
                      check_theorem1_conditions, conjugate, phi_inverse,
                      psi_from_f, psi_tilde_from_loss)
from .equivalence import (DominanceReport, EquivalenceReport, affine_fit,
                          coercivity_check, dominance_check, symmetry_check,
                          variational_family_check)
from .erm import (ConsistencyTable, ErmResult, FunctionClassSpec,
                  MismatchWitness, SampleSet, consistency_sweep,
                  empirical_phi_risk, excess_bayes_risk, generate_samples,
                  joint_erm, lemma2_gap, quantizer_mismatch, threshold_grid)
from .losses import (GLink, SurrogateLoss, catalog_generator, catalog_link,
                     catalog_loss, check_A3, check_calibration_convex,
                     check_calibration_general, f_from_loss,
                     induced_generator, loss_from_f)
from .measures import (BinnedSource, JointMeasure, Priors, TableQuantizer,
                       ThresholdQuantizer, UniformPairSource, bayes_risk,
                       f_divergence, induce_measures, named_divergence,
                       random_measure)
from .risk import (RiskReport, closed_form_discriminant, optimal_phi_risk,
                   phi_risk, verify_correspondence, zero_one_risk)

__version__ = "0.1.0"

__all__ = [
    "BinnedSource", "ConditionReport", "ConsistencyTable", "DominanceReport",
    "EquivalenceReport", "ErmResult", "FunctionClassSpec", "GLink",
    "Generator", "JointMeasure", "MismatchWitness", "PsiFunction",
    "Priors", "RiskReport", "SampleSet", "SurrogateLoss", "TableQuantizer",
    "ThresholdQuantizer", "UniformPairSource", "affine_fit", "bayes_risk",
    "catalog_generator", "catalog_link", "catalog_loss", "check_A3",
    "check_calibration_convex", "check_calibration_general",
    "check_theorem1_conditions", "closed_form_discriminant",
    "coercivity_check", "conjugate", "consistency_sweep", "dominance_check",
    "empirical_phi_risk", "excess_bayes_risk", "f_divergence", "f_from_loss",
    "generate_samples", "induce_measures", "induced_generator", "joint_erm",
    "lemma2_gap", "loss_from_f", "named_divergence", "optimal_phi_risk",
    "phi_inverse", "phi_risk", "psi_from_f", "psi_tilde_from_loss",
    "quantizer_mismatch", "random_measure", "symmetry_check",
    "threshold_grid", "variational_family_check", "verify_correspondence",
    "zero_one_risk",
]
