//! §6.2 alternative-scenario renderers.
//!
//! The paper discusses these six scenarios qualitatively; the renderers
//! print the quantitative projections behind each discussion, and the
//! tests in `tests/paper_claims.rs` assert the qualitative statements.

use ucore_calibrate::WorkloadColumn;
use ucore_project::{figures::scenario_figure, FigureData, Scenario};

/// A scenario plus the workload columns and fractions its discussion
/// focuses on, and a one-line summary.
type ScenarioPlan = (Scenario, Vec<(WorkloadColumn, Vec<f64>)>, &'static str);

/// Which workloads and fractions each scenario's discussion focuses on.
fn plan(n: u8) -> Option<ScenarioPlan> {
    match n {
        1 => Some((
            Scenario::s1_low_bandwidth(),
            vec![
                (WorkloadColumn::Fft1024, vec![0.99]),
                (WorkloadColumn::Bs, vec![0.9]),
            ],
            "90 GB/s starting bandwidth: flexible U-cores converge to the ASIC even earlier",
        )),
        2 => Some((
            Scenario::s2_high_bandwidth(),
            vec![(WorkloadColumn::Fft1024, vec![0.9, 0.999])],
            "1 TB/s (eDRAM / 3D stacking): designs go power-limited; the ASIC pulls ahead",
        )),
        3 => Some((
            Scenario::s3_half_area(),
            vec![
                (WorkloadColumn::Mmm, vec![0.99]),
                (WorkloadColumn::Fft1024, vec![0.99]),
            ],
            "216 mm2 core budget: early nodes area-limited, late nodes unchanged (power-bound)",
        )),
        4 => Some((
            Scenario::s4_high_power(),
            vec![(WorkloadColumn::Fft1024, vec![0.99])],
            "200 W: CMPs close the gap on the (bandwidth-limited) HETs",
        )),
        5 => Some((
            Scenario::s5_low_power(),
            vec![(WorkloadColumn::Fft1024, vec![0.99])],
            "10 W: only ASIC-based HETs approach bandwidth-limited performance",
        )),
        6 => Some((
            Scenario::s6_serial_power(),
            vec![(WorkloadColumn::Fft1024, vec![0.5, 0.9])],
            "alpha = 2.25: serial power caps the sequential core; low-f speedups collapse",
        )),
        _ => None,
    }
}

/// The projection data behind one scenario, one figure per focused
/// workload.
///
/// # Errors
///
/// Returns an error for scenario numbers outside 1–6 or on projection
/// failure.
pub fn scenario_data(n: u8) -> Result<Vec<FigureData>, Box<dyn std::error::Error>> {
    let (scenario, focus, _) =
        plan(n).ok_or_else(|| format!("scenario {n} is not one of 1-6"))?;
    let mut out = Vec::new();
    for (column, fs) in focus {
        out.push(scenario_figure(scenario.clone(), column, &fs)?);
    }
    Ok(out)
}

/// Renders one scenario as text.
///
/// # Errors
///
/// As [`scenario_data`].
pub fn scenario(n: u8) -> Result<String, Box<dyn std::error::Error>> {
    Ok(render_scenario(n, &scenario_data(n)?))
}

/// Renders scenario `n` from the figures [`scenario_data`] returned
/// for it.
pub fn render_scenario(n: u8, figs: &[FigureData]) -> String {
    let summary = plan(n).map_or("", |(_, _, summary)| summary);
    let mut out = format!("Scenario {n}: {summary}\n");
    for fig in figs {
        out.push_str(&crate::figures::render_figure(fig));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_six_scenarios_render() {
        for n in 1..=6 {
            let s = scenario(n).unwrap();
            assert!(s.contains(&format!("Scenario {n}")));
        }
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(scenario(0).is_err());
        assert!(scenario(7).is_err());
    }

    #[test]
    fn scenario_two_uses_terabyte_roadmap() {
        let figs = scenario_data(2).unwrap();
        assert!(figs[0].id.contains("1 TB/s"));
    }
}
