//! Property-based tests over the model's core invariants.

use proptest::prelude::*;
use ucore_core::{
    amdahl, asymmetric, asymmetric_offload, dynamic, heterogeneous, symmetric,
    BoundSet, Budgets, ChipSpec, EnergyModel, Optimizer, ParallelFraction,
    PollackLaw, PortfolioChip, Segment, SegmentedWorkload, UCore,
};

fn fraction() -> impl Strategy<Value = ParallelFraction> {
    (0.0..=1.0f64).prop_map(|f| ParallelFraction::new(f).unwrap())
}

fn positive(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    lo..hi
}

proptest! {
    #[test]
    fn amdahl_never_exceeds_serial_bound(f in fraction(), s in positive(1.0, 1e6)) {
        let speedup = amdahl(f, s).unwrap().get();
        // Bounded above by both the acceleration and the serial Amdahl limit.
        prop_assert!(speedup <= s + 1e-9);
        if f.get() < 1.0 {
            prop_assert!(speedup <= 1.0 / f.serial() + 1e-9);
        }
        prop_assert!(speedup >= 1.0 - 1e-12);
    }

    #[test]
    fn amdahl_monotone_in_s(f in fraction(), s in positive(1.0, 1e5)) {
        let lo = amdahl(f, s).unwrap().get();
        let hi = amdahl(f, s * 2.0).unwrap().get();
        prop_assert!(hi + 1e-12 >= lo);
    }

    #[test]
    fn all_models_monotone_in_n(
        f in fraction(),
        r in positive(1.0, 8.0),
        n in positive(16.0, 1e4),
        mu in positive(0.1, 100.0),
        phi in positive(0.1, 10.0),
    ) {
        let law = PollackLaw::default();
        let u = UCore::new(mu, phi).unwrap();
        let bigger = n * 1.5;
        prop_assert!(
            symmetric(f, bigger, r, &law).unwrap().get() + 1e-9
                >= symmetric(f, n, r, &law).unwrap().get()
        );
        prop_assert!(
            asymmetric(f, bigger, r, &law).unwrap().get() + 1e-9
                >= asymmetric(f, n, r, &law).unwrap().get()
        );
        prop_assert!(
            asymmetric_offload(f, bigger, r, &law).unwrap().get() + 1e-9
                >= asymmetric_offload(f, n, r, &law).unwrap().get()
        );
        prop_assert!(
            dynamic(f, bigger, r, &law).unwrap().get() + 1e-9
                >= dynamic(f, n, r, &law).unwrap().get()
        );
        prop_assert!(
            heterogeneous(f, bigger, r, &u, &law).unwrap().get() + 1e-9
                >= heterogeneous(f, n, r, &u, &law).unwrap().get()
        );
    }

    #[test]
    fn heterogeneous_monotone_in_mu(
        f in fraction(),
        n in positive(4.0, 1000.0),
        mu in positive(0.1, 100.0),
        phi in positive(0.1, 10.0),
    ) {
        let law = PollackLaw::default();
        let slow = UCore::new(mu, phi).unwrap();
        let fast = UCore::new(mu * 2.0, phi).unwrap();
        let s_slow = heterogeneous(f, n, 1.0, &slow, &law).unwrap().get();
        let s_fast = heterogeneous(f, n, 1.0, &fast, &law).unwrap().get();
        prop_assert!(s_fast + 1e-9 >= s_slow);
    }

    #[test]
    fn dynamic_dominates_every_other_model(
        f in fraction(),
        r in positive(1.0, 8.0),
        n in positive(16.0, 1e4),
    ) {
        let law = PollackLaw::default();
        let d = dynamic(f, n, r, &law).unwrap().get();
        prop_assert!(d + 1e-9 >= symmetric(f, n, r, &law).unwrap().get());
        prop_assert!(d + 1e-9 >= asymmetric(f, n, r, &law).unwrap().get());
        prop_assert!(d + 1e-9 >= asymmetric_offload(f, n, r, &law).unwrap().get());
    }

    #[test]
    fn bound_set_n_max_is_min_of_bounds(
        r in positive(1.0, 8.0),
        a in positive(10.0, 1000.0),
        p in positive(10.0, 1000.0),
        b in positive(10.0, 1000.0),
        mu in positive(0.5, 50.0),
        phi in positive(0.1, 5.0),
    ) {
        let budgets = Budgets::new(a, p, b).unwrap();
        let spec = ChipSpec::heterogeneous(UCore::new(mu, phi).unwrap());
        if let Ok(bounds) = BoundSet::compute(&spec, &budgets, r) {
            let n_max = bounds.n_max();
            prop_assert!(n_max <= bounds.n_area() + 1e-9);
            prop_assert!(n_max <= bounds.n_power() + 1e-9);
            prop_assert!(n_max <= bounds.n_bandwidth() + 1e-9);
            // The design the optimizer would build is within budget.
            let eval = spec.evaluate(
                ParallelFraction::new(0.9).unwrap(),
                n_max.max(r),
                r,
                &budgets,
            );
            if n_max > r {
                let eval = eval.unwrap();
                prop_assert!(eval.parallel_power <= p + 1e-6);
                prop_assert!(eval.parallel_bandwidth <= b + 1e-6);
                prop_assert!(eval.n <= a + 1e-6);
            }
        }
    }

    #[test]
    fn optimizer_result_is_feasible_and_best_of_sweep(
        a in positive(8.0, 400.0),
        p in positive(4.0, 100.0),
        b in positive(8.0, 1000.0),
        mu in positive(0.5, 50.0),
        phi in positive(0.1, 5.0),
        f in fraction(),
    ) {
        let budgets = Budgets::new(a, p, b).unwrap();
        let spec = ChipSpec::heterogeneous(UCore::new(mu, phi).unwrap());
        let opt = Optimizer::paper_default();
        if let Ok(best) = opt.optimize(&spec, &budgets, f) {
            for r in 1..=16 {
                let Ok(bounds) = BoundSet::compute(&spec, &budgets, r as f64) else {
                    continue;
                };
                let n = bounds.n_max().max(r as f64);
                let Ok(s) = spec.speedup(f, n, r as f64) else { continue };
                prop_assert!(best.evaluation.speedup.get() + 1e-9 >= s.get());
            }
        }
    }

    #[test]
    fn energy_scales_linearly_with_node(
        f in fraction(),
        scale in positive(0.1, 1.0),
        n in positive(4.0, 100.0),
    ) {
        let spec = ChipSpec::asymmetric_offload();
        let base = EnergyModel::at_reference_node()
            .breakdown(&spec, f, n, 1.0)
            .unwrap()
            .total();
        let scaled = EnergyModel::new(scale)
            .unwrap()
            .breakdown(&spec, f, n, 1.0)
            .unwrap()
            .total();
        prop_assert!((scaled - scale * base).abs() < 1e-9 * base.max(1.0));
    }

    #[test]
    fn speedup_times_time_is_unity(
        f in fraction(),
        n in positive(4.0, 100.0),
        mu in positive(0.5, 50.0),
    ) {
        let spec = ChipSpec::heterogeneous(UCore::new(mu, 1.0).unwrap());
        let s = spec.speedup(f, n, 1.0).unwrap();
        prop_assert!((s.get() * s.time() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_chip_never_beats_best_single_fabric_at_full_area(
        mu1 in positive(1.0, 50.0),
        mu2 in positive(1.0, 50.0),
        w in 0.05..0.95f64,
    ) {
        // Splitting area between two fabrics cannot beat giving the whole
        // area to a hypothetical fabric as fast as the faster of the two.
        let f = ParallelFraction::new(0.99).unwrap();
        let workload = SegmentedWorkload::new(
            f.serial(),
            vec![
                Segment::new(f.get() * w, UCore::new(mu1, 1.0).unwrap()).unwrap(),
                Segment::new(f.get() * (1.0 - w), UCore::new(mu2, 1.0).unwrap()).unwrap(),
            ],
        )
        .unwrap();
        let chip = PortfolioChip::new(20.0, 1.0, workload).unwrap();
        let half = 0.5 * chip.parallel_area();
        let split = chip.speedup_for(&[half, half]).unwrap();
        let best_mu = mu1.max(mu2);
        let ideal = heterogeneous(
            f,
            20.0,
            1.0,
            &UCore::new(best_mu, 1.0).unwrap(),
            &PollackLaw::default(),
        )
        .unwrap();
        prop_assert!(split.get() <= ideal.get() + 1e-9);
    }
}
