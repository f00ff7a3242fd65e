//! Varying-parallelism profiles — the paper's first future-work item.
//!
//! "Models in the future should attempt to incorporate varying degrees
//! of parallelism in an application, in order to capture how 'suitable'
//! certain types of U-cores might be under a given parallelism profile."
//!
//! A [`ParallelismProfile`] describes an application as a mixture of
//! phases, each with its own parallel fraction and share of the original
//! execution time. Total speedup follows from per-phase speedups by
//! time-weighted harmonic composition: if phase `i` holds fraction `w_i`
//! of the baseline time and is sped up by `s_i`, the new time is
//! `Σ w_i / s_i`.
//!
//! A structural consequence worth knowing: because the modeled execution
//! time of a *fixed* design is linear in `f`, its profile speedup equals
//! its speedup at the profile's **mean** `f`. The profile machinery pays
//! off when phases run on different fabrics ([`crate::PortfolioChip`])
//! or when designs are compared/re-optimized per profile — not for a
//! single fixed design.

use crate::budget::Budgets;
use crate::chip::ChipSpec;
use crate::error::ModelError;
use crate::optimize::Optimizer;
use crate::units::{ParallelFraction, Speedup};
use serde::{Deserialize, Serialize};

/// One phase of an application: a parallel fraction and the share of
/// baseline execution time spent in it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// The phase's parallel fraction.
    pub f: ParallelFraction,
    /// Share of baseline (single-BCE) execution time, `Σ = 1`.
    pub weight: f64,
}

/// A mixture of phases with different degrees of parallelism.
///
/// ```
/// use ucore_core::{ParallelismProfile, ParallelFraction};
/// let profile = ParallelismProfile::new(vec![
///     (ParallelFraction::new(0.999)?, 0.6),
///     (ParallelFraction::new(0.5)?, 0.4),
/// ])?;
/// assert!((profile.mean_f() - 0.7994).abs() < 1e-9);
/// # Ok::<(), ucore_core::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParallelismProfile {
    phases: Vec<Phase>,
}

impl ParallelismProfile {
    /// Creates a profile from `(f, weight)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPartition`] unless the weights are
    /// positive and sum to 1 (within 1e-6), or
    /// [`ModelError::Infeasible`] for an empty profile.
    pub fn new(phases: Vec<(ParallelFraction, f64)>) -> Result<Self, ModelError> {
        if phases.is_empty() {
            return Err(ModelError::Infeasible {
                reason: "a parallelism profile needs at least one phase".into(),
            });
        }
        let mut sum = 0.0;
        for &(_, w) in &phases {
            crate::error::ensure_positive("phase weight", w)?;
            sum += w;
        }
        if (sum - 1.0).abs() > 1e-6 {
            return Err(ModelError::InvalidPartition { share_sum: sum });
        }
        Ok(ParallelismProfile {
            phases: phases
                .into_iter()
                .map(|(f, weight)| Phase { f, weight })
                .collect(),
        })
    }

    /// A single-phase profile — the classic fixed-`f` model.
    pub fn uniform(f: ParallelFraction) -> Self {
        ParallelismProfile { phases: vec![Phase { f, weight: 1.0 }] }
    }

    /// The phases.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// The time-weighted mean parallel fraction.
    pub fn mean_f(&self) -> f64 {
        self.phases.iter().map(|p| p.weight * p.f.get()).sum()
    }

    /// Speedup of a fixed design `(n, r)` under this profile.
    ///
    /// # Errors
    ///
    /// Propagates per-phase model errors.
    pub fn speedup(&self, spec: &ChipSpec, n: f64, r: f64) -> Result<Speedup, ModelError> {
        let mut new_time = 0.0;
        for phase in &self.phases {
            let s = spec.speedup(phase.f, n, r)?;
            new_time += phase.weight / s.get();
        }
        Speedup::new(1.0 / new_time)
    }

    /// The best design for this profile under budgets: sweeps `r` like
    /// the paper's optimizer, but scores whole-profile speedup.
    ///
    /// The sized `n` must satisfy every phase's bounds simultaneously
    /// (the chip is built once), so the tightest phase governs.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Infeasible`] if no swept `r` is feasible.
    pub fn optimize(
        &self,
        spec: &ChipSpec,
        budgets: &Budgets,
        optimizer: &Optimizer,
    ) -> Result<ProfileOptimum, ModelError> {
        let mut best: Option<ProfileOptimum> = None;
        for r in optimizer.candidates() {
            let Ok(bounds) = crate::bounds::BoundSet::compute(spec, budgets, r) else {
                continue;
            };
            let n = bounds.n_max().max(r);
            let Ok(speedup) = self.speedup(spec, n, r) else {
                continue;
            };
            if best.as_ref().is_none_or(|b| speedup > b.speedup) {
                best = Some(ProfileOptimum { speedup, n, r, limiter: bounds.limiter() });
            }
        }
        best.ok_or_else(|| ModelError::Infeasible {
            reason: format!("no feasible design for the profile under {budgets}"),
        })
    }
}

/// The best design found for a profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfileOptimum {
    /// Whole-profile speedup.
    pub speedup: Speedup,
    /// Total resources used.
    pub n: f64,
    /// Sequential-core size.
    pub r: f64,
    /// The binding resource at the optimum's `r`.
    pub limiter: crate::bounds::Limiter,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ucore::UCore;

    fn f(v: f64) -> ParallelFraction {
        ParallelFraction::new(v).unwrap()
    }

    #[test]
    fn uniform_profile_matches_plain_speedup() {
        let spec = ChipSpec::heterogeneous(UCore::new(5.0, 0.5).unwrap());
        let profile = ParallelismProfile::uniform(f(0.9));
        let via_profile = profile.speedup(&spec, 19.0, 2.0).unwrap();
        let direct = spec.speedup(f(0.9), 19.0, 2.0).unwrap();
        assert!((via_profile.get() - direct.get()).abs() < 1e-12);
    }

    #[test]
    fn weights_must_sum_to_one() {
        assert!(ParallelismProfile::new(vec![(f(0.9), 0.5), (f(0.5), 0.4)]).is_err());
        assert!(ParallelismProfile::new(vec![]).is_err());
        assert!(ParallelismProfile::new(vec![(f(0.9), -1.0), (f(0.5), 2.0)]).is_err());
    }

    #[test]
    fn mixture_is_harmonic_not_arithmetic() {
        // A profile half serial-ish, half highly parallel, is dominated
        // by its slow phase — the mixture speedup is far below the
        // arithmetic mean of phase speedups.
        let spec = ChipSpec::heterogeneous(UCore::new(100.0, 1.0).unwrap());
        let profile =
            ParallelismProfile::new(vec![(f(0.0), 0.5), (f(1.0), 0.5)]).unwrap();
        let s = profile.speedup(&spec, 100.0, 4.0).unwrap().get();
        let slow = spec.speedup(f(0.0), 100.0, 4.0).unwrap().get();
        let fast = spec.speedup(f(1.0), 100.0, 4.0).unwrap().get();
        assert!(s < (slow + fast) / 8.0, "s = {s}, phases = {slow}/{fast}");
        // And bounded by twice the slow phase (it holds half the time).
        assert!(s <= 2.0 * slow + 1e-9);
    }

    #[test]
    fn profile_optimum_balances_phases() {
        // With a serial phase in the mix, the best r is larger than the
        // pure-parallel optimum (r = 1).
        let spec = ChipSpec::heterogeneous(UCore::new(10.0, 1.0).unwrap());
        let budgets = Budgets::new(64.0, 1000.0, 1e6).unwrap();
        let opt = Optimizer::paper_default();
        let mixed = ParallelismProfile::new(vec![(f(0.5), 0.5), (f(0.999), 0.5)])
            .unwrap()
            .optimize(&spec, &budgets, &opt)
            .unwrap();
        let pure = ParallelismProfile::uniform(f(0.999))
            .optimize(&spec, &budgets, &opt)
            .unwrap();
        assert!(mixed.r >= pure.r);
    }

    #[test]
    fn mean_f_is_weighted() {
        let p = ParallelismProfile::new(vec![(f(1.0), 0.25), (f(0.0), 0.75)]).unwrap();
        assert!((p.mean_f() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fixed_design_profile_equals_mean_f() {
        // Because the modeled execution time is *linear* in f, a fixed
        // design's profile speedup collapses exactly to the mean-f
        // speedup. (Profiles earn their keep with per-phase fabrics —
        // see `PortfolioChip` — or per-phase design re-optimization.)
        let spec = ChipSpec::heterogeneous(UCore::new(20.0, 1.0).unwrap());
        let profile =
            ParallelismProfile::new(vec![(f(0.5), 0.5), (f(1.0), 0.5)]).unwrap();
        let mixture = profile.speedup(&spec, 64.0, 4.0).unwrap().get();
        let averaged = spec
            .speedup(ParallelFraction::new(profile.mean_f()).unwrap(), 64.0, 4.0)
            .unwrap()
            .get();
        assert!((averaged - mixture).abs() < 1e-9 * averaged);
    }

    #[test]
    fn infeasible_budgets_reported() {
        let spec = ChipSpec::symmetric();
        let budgets = Budgets::new(64.0, 0.5, 1e6).unwrap(); // P < 1 BCE
        let opt = Optimizer::paper_default();
        let err = ParallelismProfile::uniform(f(0.9))
            .optimize(&spec, &budgets, &opt)
            .unwrap_err();
        assert!(matches!(err, ModelError::Infeasible { .. }));
    }
}
