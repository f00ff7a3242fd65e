//! Differential tests: the closed-form KKT allocator
//! [`PortfolioChip::allocate`] against the exhaustive grid oracle
//! [`PortfolioChip::allocate_exhaustive`], plus the degenerate-case pins
//! the tentpole issue demands.
//!
//! Tolerance policy (documented here and in DESIGN.md §19): the analytic
//! allocator optimizes over a *superset* of the grid, so its speedup may
//! never fall below the oracle's (checked to 1e-9 relative, pure f64
//! noise). In the other direction, rounding the KKT point onto a
//! `G`-unit grid costs at most a factor `k/G` of speedup (each of the
//! `k` active segments keeps at least `(G−k)/G` of its optimal area), so
//! the oracle must score at least `S* · (1 − (k+1)/G)` — `k/G` from the
//! rounding argument plus `1/G` of slack for f64 noise. When the KKT
//! point lies exactly on the grid, the comparison tightens to exact f64
//! bits on both the argmax areas and the objective.

use proptest::prelude::*;
use ucore_core::{
    heterogeneous, ModelError, ParallelFraction, PollackLaw, PortfolioChip, Segment,
    SegmentedWorkload, UCore,
};

/// Grid sizes keeping the oracle's composition count (`C(G−1, k−1)`)
/// test-sized at every segment count.
fn grid_for(active: usize) -> u32 {
    match active {
        0 | 1 => 64,
        2 => 128,
        3 => 64,
        4 => 48,
        5 => 32,
        _ => 24,
    }
}

/// Builds a chip from raw proptest draws: weights are normalized to sum
/// to 1 with the serial share, and `zero_mask` knocks out segments to
/// exercise the zero-weight path.
fn build_chip(
    n: f64,
    r: f64,
    raw_weights: &[f64],
    raw_serial: f64,
    mus: &[f64],
    zero_mask: u8,
) -> PortfolioChip {
    let masked: Vec<f64> = raw_weights
        .iter()
        .enumerate()
        .map(|(k, &w)| if zero_mask & (1 << k) != 0 { 0.0 } else { w })
        .collect();
    let total: f64 = raw_serial + masked.iter().sum::<f64>();
    let segments: Vec<Segment> = masked
        .iter()
        .zip(mus)
        .map(|(&w, &mu)| Segment::new(w / total, UCore::new(mu, 1.0).unwrap()).unwrap())
        .collect();
    let workload = SegmentedWorkload::new(raw_serial / total, segments).unwrap();
    PortfolioChip::new(n, r, workload).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The load-bearing property: over random segment counts, weights,
    /// area budgets and device efficiency tables, the analytic allocator
    /// and the grid oracle agree within the documented band — and the
    /// analytic side never loses.
    #[test]
    fn allocate_matches_exhaustive_within_documented_tolerance(
        k in 1..=6usize,
        raw_weights in prop::collection::vec(0.05..1.0f64, 6),
        raw_serial in 0.01..1.0f64,
        mus in prop::collection::vec(0.5..60.0f64, 6),
        r in 1.0..4.0f64,
        extra_area in 4.0..60.0f64,
        zero_mask in 0u8..8,
    ) {
        let n = r + extra_area;
        let chip = build_chip(n, r, &raw_weights[..k], raw_serial, &mus[..k], zero_mask);
        let active = chip
            .workload()
            .segments()
            .iter()
            .filter(|s| s.weight() > 0.0)
            .count();
        let grid = grid_for(active);
        let analytic = chip.allocate().unwrap();
        let oracle = chip.allocate_exhaustive(grid).unwrap();

        // Internal consistency: the reported speedup is the objective of
        // the reported areas, and the areas spend exactly the budget.
        let replay = chip.speedup_for(&analytic.areas).unwrap();
        prop_assert_eq!(replay.get().to_bits(), analytic.speedup.get().to_bits());
        if active > 0 {
            let spent: f64 = analytic.areas.iter().sum();
            prop_assert!((spent - chip.parallel_area()).abs() < 1e-9 * chip.parallel_area());
        }

        // One side of the band: the continuous optimum dominates every
        // grid point.
        let s_star = analytic.speedup.get();
        let s_grid = oracle.speedup.get();
        prop_assert!(
            s_grid <= s_star * (1.0 + 1e-9),
            "oracle beat the analytic optimum: {s_grid} > {s_star}"
        );
        // The other side: the grid resolves the optimum to k/G.
        let band = 1.0 - (active as f64 + 1.0) / f64::from(grid);
        prop_assert!(
            s_grid >= s_star * band,
            "grid fell out of the band: {s_grid} < {s_star} * {band} (k = {active}, G = {grid})"
        );
    }

    /// KKT conditions verified directly on the analytic allocation:
    /// marginal speedup gain per area, `w_k/(µ_k·a_k²)`, is equal across
    /// uncapped segments (stationarity) and no smaller on capped ones
    /// (complementary slackness — a capped accelerator wants more area).
    #[test]
    fn kkt_conditions_hold_with_binding_caps(
        raw_weights in prop::collection::vec(0.05..1.0f64, 4),
        raw_serial in 0.01..1.0f64,
        mus in prop::collection::vec(0.5..60.0f64, 4),
        caps in prop::collection::vec(0.5..8.0f64, 4),
        r in 1.0..4.0f64,
        extra_area in 8.0..60.0f64,
    ) {
        let n = r + extra_area;
        let total: f64 = raw_serial + raw_weights.iter().sum::<f64>();
        let segments: Vec<Segment> = raw_weights
            .iter()
            .zip(&mus)
            .zip(&caps)
            .map(|((&w, &mu), &cap)| {
                Segment::new(w / total, UCore::new(mu, 1.0).unwrap())
                    .unwrap()
                    .with_max_area(cap)
                    .unwrap()
            })
            .collect();
        let workload = SegmentedWorkload::new(raw_serial / total, segments).unwrap();
        let chip = PortfolioChip::new(n, r, workload.clone()).unwrap();
        let alloc = chip.allocate().unwrap();

        // Feasibility: caps respected, budget not exceeded.
        for (seg, &a) in workload.segments().iter().zip(&alloc.areas) {
            prop_assert!(a <= seg.max_area().unwrap() * (1.0 + 1e-12));
        }
        let spent: f64 = alloc.areas.iter().sum();
        prop_assert!(spent <= chip.parallel_area() * (1.0 + 1e-12));

        // Stationarity across the free set; capped marginals dominate.
        let marginal = |seg: &Segment, a: f64| seg.weight() / (seg.ucore().mu() * a * a);
        let free: Vec<f64> = workload
            .segments()
            .iter()
            .zip(&alloc.areas)
            .filter(|(seg, &a)| a < seg.max_area().unwrap() * (1.0 - 1e-9))
            .map(|(seg, &a)| marginal(seg, a))
            .collect();
        if let (Some(min), Some(max)) = (
            free.iter().copied().reduce(f64::min),
            free.iter().copied().reduce(f64::max),
        ) {
            prop_assert!(max <= min * (1.0 + 1e-6), "free marginals diverge: {free:?}");
            for (seg, &a) in workload.segments().iter().zip(&alloc.areas) {
                if a >= seg.max_area().unwrap() * (1.0 - 1e-9) {
                    prop_assert!(
                        marginal(seg, a) >= min * (1.0 - 1e-6),
                        "capped segment wants less area than a free one"
                    );
                }
            }
        }

        // The oracle (same caps) never beats the analytic solution.
        let active = workload.segments().len();
        if let Ok(oracle) = chip.allocate_exhaustive(grid_for(active)) {
            prop_assert!(oracle.speedup.get() <= alloc.speedup.get() * (1.0 + 1e-9));
        }
    }

    /// The one-segment portfolio *is* the paper's heterogeneous model:
    /// same speedup bits, same infeasibility behaviour, across the whole
    /// `(f, n, r, µ)` space.
    #[test]
    fn one_segment_reduces_bit_exactly_to_heterogeneous(
        f in 0.0..=1.0f64,
        r in 1.0..8.0f64,
        extra_area in 0.0..50.0f64,
        mu in 0.1..60.0f64,
        phi in 0.05..6.0f64,
    ) {
        let f = ParallelFraction::new(f).unwrap();
        let n = r + extra_area;
        let ucore = UCore::new(mu, phi).unwrap();
        let law = PollackLaw::default();
        let reference = heterogeneous(f, n, r, &ucore, &law);
        let chip = PortfolioChip::new(n, r, SegmentedWorkload::from_fraction(f, ucore))
            .unwrap();
        match (chip.allocate(), reference) {
            (Ok(alloc), Ok(expected)) => {
                prop_assert_eq!(
                    alloc.speedup.get().to_bits(),
                    expected.get().to_bits(),
                    "portfolio {} != heterogeneous {}",
                    alloc.speedup,
                    expected
                );
                prop_assert_eq!(alloc.areas.len(), 1);
                if f.get() > 0.0 {
                    prop_assert_eq!(alloc.areas[0].to_bits(), (n - r).to_bits());
                }
            }
            (Err(ModelError::Infeasible { .. }), Err(ModelError::Infeasible { .. })) => {}
            (got, expected) => prop_assert!(
                false,
                "divergent results: portfolio {got:?} vs heterogeneous {expected:?}"
            ),
        }
    }
}

/// When the KKT point lies exactly on the grid (equal weights, equal µ,
/// power-of-two shares and budgets), the oracle returns the analytic
/// argmax bit for bit — areas and objective.
#[test]
fn oracle_is_bit_exact_when_grid_contains_the_kkt_point() {
    let cases: [(usize, f64, f64, f64); 2] = [
        // (k, weight per segment, mu, n): shares 1/2 and 1/4, budgets 12
        // and 16 — every intermediate value is exactly representable.
        (2, 0.3, 7.3, 13.0),
        (4, 0.2, 0.8, 17.0),
    ];
    for (k, w, mu, n) in cases {
        let segments: Vec<Segment> = (0..k)
            .map(|_| Segment::new(w, UCore::new(mu, 1.0).unwrap()).unwrap())
            .collect();
        let workload = SegmentedWorkload::new(1.0 - w * k as f64, segments).unwrap();
        let chip = PortfolioChip::new(n, 1.0, workload).unwrap();
        let analytic = chip.allocate().unwrap();
        let oracle = chip.allocate_exhaustive(64).unwrap();
        let bits = |a: &[f64]| a.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&analytic.areas), bits(&oracle.areas), "k = {k}");
        assert_eq!(
            analytic.speedup.get().to_bits(),
            oracle.speedup.get().to_bits(),
            "k = {k}"
        );
    }
}

/// Zero-weight segments are pinned: no area from either allocator, and
/// the remaining segments split the full budget.
#[test]
fn zero_weight_segments_get_nothing_from_either_side() {
    let asic = UCore::new(27.4, 0.79).unwrap();
    let fpga = UCore::new(2.02, 0.29).unwrap();
    let segments = vec![
        Segment::new(0.0, asic).unwrap(),
        Segment::new(0.45, fpga).unwrap(),
        Segment::new(0.45, asic).unwrap(),
    ];
    let workload = SegmentedWorkload::new(0.1, segments).unwrap();
    let chip = PortfolioChip::new(25.0, 1.0, workload).unwrap();
    let analytic = chip.allocate().unwrap();
    let oracle = chip.allocate_exhaustive(96).unwrap();
    assert_eq!(analytic.areas[0], 0.0);
    assert_eq!(oracle.areas[0], 0.0);
    assert!((analytic.areas[1] + analytic.areas[2] - 24.0).abs() < 1e-9);
    assert!((oracle.areas[1] + oracle.areas[2] - 24.0).abs() < 1e-9);
    assert!(oracle.speedup.get() <= analytic.speedup.get() * (1.0 + 1e-9));
}

/// A budget too small for any accelerator (`r = n` with accelerated
/// weight) is the same typed infeasibility from both allocators.
#[test]
fn budget_too_small_is_infeasible_from_both_sides() {
    let asic = UCore::new(27.4, 0.79).unwrap();
    let workload = SegmentedWorkload::new(
        0.1,
        vec![Segment::new(0.9, asic).unwrap()],
    )
    .unwrap();
    let chip = PortfolioChip::new(6.0, 6.0, workload).unwrap();
    assert!(matches!(chip.allocate(), Err(ModelError::Infeasible { .. })));
    assert!(matches!(
        chip.allocate_exhaustive(32),
        Err(ModelError::Infeasible { .. })
    ));
}

/// The optimal area split of a mixed-fabric chip (the paper's §6.3
/// "mixing and matching"), written out as the Multi-Amdahl closed form
/// `a_k ∝ √(w_k/µ_k)`, agrees with the portfolio allocator on the
/// 2-segment case.
#[test]
fn mixed_chip_optimal_shares_match_portfolio_allocator() {
    let (n, r) = (13.0, 1.0);
    let cases = [
        ((0.5, 4.0), (0.5, 1.0)),
        ((0.7, 27.4), (0.3, 2.02)),
        ((0.25, 482.0), (0.75, 5.68)),
    ];
    for ((w1, mu1), (w2, mu2)) in cases {
        // portfolio.rs: absolute areas out of the parallel area. The
        // portfolio weights are the parallel weights scaled so the
        // workload sums to 1 with a serial part; the *ratio* w/µ per
        // segment is what the rule depends on, so shares are unchanged.
        let parallel = 0.8;
        let segments = vec![
            Segment::new(w1 * parallel, UCore::new(mu1, 1.0).unwrap()).unwrap(),
            Segment::new(w2 * parallel, UCore::new(mu2, 1.0).unwrap()).unwrap(),
        ];
        let workload = SegmentedWorkload::new(1.0 - parallel, segments).unwrap();
        let chip = PortfolioChip::new(n, r, workload).unwrap();
        let alloc = chip.allocate().unwrap();

        // Multi-Amdahl closed form, written out directly.
        let s1 = (w1 / mu1).sqrt();
        let s2 = (w2 / mu2).sqrt();
        let budget = n - r;
        let closed = [budget * s1 / (s1 + s2), budget * s2 / (s1 + s2)];

        for (k, &expected) in closed.iter().enumerate() {
            assert!(
                (alloc.areas[k] - expected).abs() < 1e-9 * expected,
                "portfolio area {k}: {} vs closed form {expected}",
                alloc.areas[k]
            );
        }
    }
}
