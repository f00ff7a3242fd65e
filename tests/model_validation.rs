//! Validation of the model's foundations and extensions through the
//! facade: Hill-Marty regression anchors, parallelism profiles,
//! iso-performance power savings, calibration sensitivity, and the
//! fine-grained yearly projections.

use ucore::calibrate::{mu_ranking, table5_with_conventions, Table5, WorkloadColumn};
use ucore::model::hillmarty::{optimize as hm_optimize, HillMartyMachine};
use ucore::model::{
    min_power_for_target, Budgets, ChipSpec, Optimizer, ParallelFraction,
    ParallelismProfile, Speedup, UCore,
};
use ucore::project::{DesignId, ProjectionEngine, Scenario};
use ucore_devices::DeviceId;

fn f(v: f64) -> ParallelFraction {
    ParallelFraction::new(v).expect("valid fraction")
}

#[test]
fn hill_marty_foundations_hold() {
    // The base model this paper extends, reproduced: n = 256, f = 0.975.
    let sym = hm_optimize(HillMartyMachine::Symmetric, f(0.975), 256.0).unwrap();
    let asym = hm_optimize(HillMartyMachine::Asymmetric, f(0.975), 256.0).unwrap();
    let dynamic = hm_optimize(HillMartyMachine::Dynamic, f(0.975), 256.0).unwrap();
    assert!((sym.speedup - 51.2).abs() < 0.5);
    assert!((asym.speedup - 125.0).abs() < 1.5);
    assert!((dynamic.speedup - 186.5).abs() < 2.0);
}

#[test]
fn fixed_design_profiles_collapse_to_their_mean() {
    // A structural fact the profile extension makes visible: because the
    // model's execution *time* is linear in f, a fixed design's speedup
    // under any parallelism profile equals its speedup at the profile's
    // mean f. Profiles only change conclusions when phases run on
    // different fabrics (a PortfolioChip) or designs are re-optimized.
    let table5 = Table5::derive().unwrap();
    let profile = ParallelismProfile::new(vec![(f(0.999), 0.7), (f(0.3), 0.3)]).unwrap();
    let mean = ParallelFraction::new(profile.mean_f()).unwrap();
    for row in table5.rows() {
        let spec = ChipSpec::heterogeneous(row.ucore);
        let mixture = profile.speedup(&spec, 19.0, 2.0).unwrap().get();
        let averaged = spec.speedup(mean, 19.0, 2.0).unwrap().get();
        assert!(
            (averaged - mixture).abs() < 1e-9 * averaged,
            "{:?} {:?}: {averaged} vs {mixture}",
            row.device,
            row.column
        );
    }
}

#[test]
fn profiles_matter_for_mixed_fabric_chips() {
    // Where a profile genuinely matters: routing each phase to its own
    // fabric. A chip with an MMM ASIC and an FFT GPU fabric beats a
    // single-fabric compromise on a two-kernel profile.
    use ucore::model::{PortfolioChip, Segment, SegmentedWorkload};
    let table5 = Table5::derive().unwrap();
    let mmm_asic = table5.ucore(DeviceId::Asic, WorkloadColumn::Mmm).unwrap();
    let fft_gpu = table5
        .ucore(DeviceId::Gtx480, WorkloadColumn::Fft1024)
        .unwrap();
    let fv = f(0.99);
    let half = 0.5 * fv.get();
    let workload = SegmentedWorkload::new(
        fv.serial(),
        vec![Segment::new(half, mmm_asic).unwrap(), Segment::new(half, fft_gpu).unwrap()],
    )
    .unwrap();
    let mixed = PortfolioChip::new(75.0, 2.0, workload).unwrap().allocate().unwrap();
    // The single-fabric alternative runs both kernels on the GPU fabric.
    let gpu_only = ChipSpec::heterogeneous(fft_gpu);
    let mixed_speedup = mixed.speedup.get();
    let gpu_speedup = gpu_only.speedup(fv, 75.0, 2.0).unwrap().get();
    assert!(
        mixed_speedup > gpu_speedup,
        "mixed {mixed_speedup} should beat single-fabric {gpu_speedup}"
    );
}

#[test]
fn profile_optimizer_is_feasible_and_consistent() {
    let spec = ChipSpec::heterogeneous(UCore::new(8.47, 1.27).unwrap());
    let budgets = Budgets::new(75.0, 35.0, 1500.0).unwrap();
    let profile = ParallelismProfile::new(vec![(f(0.9), 0.5), (f(0.99), 0.5)]).unwrap();
    let best = profile
        .optimize(&spec, &budgets, &Optimizer::paper_default())
        .unwrap();
    // The profile optimum is sandwiched by the two phases' fixed-f
    // optima.
    let opt = Optimizer::paper_default();
    let lo = opt.optimize(&spec, &budgets, f(0.9)).unwrap();
    let hi = opt.optimize(&spec, &budgets, f(0.99)).unwrap();
    assert!(best.speedup.get() >= lo.evaluation.speedup.get() * 0.99);
    assert!(best.speedup.get() <= hi.evaluation.speedup.get() * 1.01);
}

#[test]
fn iso_performance_power_savings_scale_with_efficiency() {
    // The more efficient the u-core, the cheaper it is to match a fixed
    // target.
    let budgets = Budgets::new(1e4, 1e4, 1e6).unwrap();
    let target = Speedup::new(10.0).unwrap();
    let modest = min_power_for_target(
        &ChipSpec::heterogeneous(UCore::new(3.41, 0.74).unwrap()),
        &budgets,
        f(0.99),
        target,
    )
    .unwrap();
    let extreme = min_power_for_target(
        &ChipSpec::heterogeneous(UCore::new(489.0, 4.96).unwrap()),
        &budgets,
        f(0.99),
        target,
    )
    .unwrap();
    // The ASIC-class core needs dramatically less area, and despite its
    // higher phi, the tiny footprint wins on power.
    assert!(extreme.n < modest.n);
    assert!(extreme.peak_power <= modest.peak_power + 1e-6);
}

#[test]
fn calibration_conventions_do_not_flip_conclusions() {
    let strict = table5_with_conventions(0.79, 2.06, 1.75).unwrap();
    for column in WorkloadColumn::ALL {
        let ranking = mu_ranking(&strict, column);
        assert_eq!(ranking[0], DeviceId::Asic, "{column}");
    }
}

#[test]
fn yearly_projection_fills_the_node_gaps() {
    let engine = ProjectionEngine::new(Scenario::baseline()).unwrap();
    let years = engine
        .project_yearly(
            DesignId::Het(DeviceId::Gtx480),
            WorkloadColumn::Fft1024,
            f(0.99),
        )
        .unwrap();
    assert_eq!(years.len(), 12);
    assert_eq!(years.first().unwrap().year, 2011);
    assert_eq!(years.last().unwrap().year, 2022);
    // Intermediate years move smoothly: no jump exceeds the biggest
    // node-to-node step.
    let max_step = years
        .windows(2)
        .map(|p| (p[1].speedup - p[0].speedup).abs())
        .fold(0.0, f64::max);
    let total = years.last().unwrap().speedup - years.first().unwrap().speedup;
    assert!(max_step < total * 0.6, "step {max_step} of total {total}");
}

#[test]
fn gustafson_and_amdahl_disagree_as_expected() {
    use ucore::model::{amdahl, scaled_speedup};
    for fv in [0.5, 0.9, 0.99] {
        let fixed = amdahl(f(fv), 256.0).unwrap().get();
        let scaled = scaled_speedup(f(fv), 256.0).unwrap().get();
        assert!(scaled > fixed);
        // Amdahl saturates at 1/(1-f).
        assert!(fixed <= 1.0 / (1.0 - fv) + 1e-9);
    }
}
