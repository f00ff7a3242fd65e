//! Roadmap explorer: sweep every §6.2 scenario for one design and see
//! how the conclusions move — plus a mixed-fabric chip from the paper's
//! §6.3 discussion.
//!
//! Run with `cargo run --example roadmap_explorer`.

use ucore::calibrate::{Table5, WorkloadColumn};
use ucore::model::{ParallelFraction, PortfolioChip, Segment, SegmentedWorkload};
use ucore::project::{DesignId, ProjectionEngine, Scenario};
use ucore_devices::{DeviceId, TechNode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let f = ParallelFraction::new(0.99)?;
    let scenarios = [
        Scenario::baseline(),
        Scenario::s1_low_bandwidth(),
        Scenario::s2_high_bandwidth(),
        Scenario::s3_half_area(),
        Scenario::s4_high_power(),
        Scenario::s5_low_power(),
        Scenario::s6_serial_power(),
    ];

    println!("GTX480 FFT-1024 HET at 11 nm, f = 0.99, across all scenarios:\n");
    for scenario in scenarios {
        let name = scenario.name().to_string();
        let engine = ProjectionEngine::new(scenario)?;
        match engine.speedup_at(
            DesignId::Het(DeviceId::Gtx480),
            WorkloadColumn::Fft1024,
            TechNode::N11,
            f,
        ) {
            Some(s) => println!("  {name:<22} speedup {s:6.1}"),
            None => println!("  {name:<22} infeasible"),
        }
    }

    // Section 6.3's "mix and match" prospect: an MMM ASIC next to a GPU
    // fabric for bandwidth-bound FFTs, on one 75-BCE (22 nm) die.
    let table5 = Table5::derive()?;
    let mmm_asic = table5
        .ucore(DeviceId::Asic, WorkloadColumn::Mmm)
        .expect("published cell");
    let gpu_fft = table5
        .ucore(DeviceId::Gtx480, WorkloadColumn::Fft1024)
        .expect("published cell");
    let half = 0.5 * f.get();
    let workload = SegmentedWorkload::new(
        f.serial(),
        vec![Segment::new(half, mmm_asic)?, Segment::new(half, gpu_fft)?],
    )?;
    let chip = PortfolioChip::new(75.0, 2.0, workload)?;
    let even = 0.5 * chip.parallel_area();
    let tuned = chip.allocate()?;
    println!(
        "\nmixed 22nm chip (MMM ASIC + GPU FFT fabric), f = 0.99, half the parallel work each:"
    );
    println!("  naive 50/50 area split: speedup {}", chip.speedup_for(&[even, even])?);
    println!(
        "  optimal split ({}% / {}%): speedup {}",
        (tuned.areas[0] / chip.parallel_area() * 100.0).round(),
        (tuned.areas[1] / chip.parallel_area() * 100.0).round(),
        tuned.speedup
    );
    Ok(())
}
