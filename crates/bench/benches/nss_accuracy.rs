//! **E2** — Formula (3) accuracy (paper §3.1): "The estimates differ by at
//! most 10% from the min-area SINO solutions."
//!
//! Fits the six-coefficient model on a training grid, then evaluates the
//! relative error against fresh min-area SINO solves on a held-out grid.

use gsino_grid::sensitivity::SensitivityModel;
use gsino_sino::instance::{SegmentSpec, SinoInstance};
use gsino_sino::nss::NssModel;
use gsino_sino::solver::SinoSolver;

fn main() {
    let kth = 0.6;
    let model = NssModel::fit_grid(
        kth,
        0xF17,
        &[2, 4, 6, 8, 12, 16, 20, 26, 32],
        &[0.1, 0.3, 0.5, 0.7, 0.9],
        3,
    )
    .expect("fit");
    println!("Formula (3) coefficients (a1..a6) at Kth = {kth}:");
    println!("  {:?}", model.coefficients());

    let solver = SinoSolver;
    println!("\nheld-out comparison (truth = min-area SINO shields):");
    println!(
        "{:>5} {:>6} | {:>6} {:>9}",
        "Nns", "rate", "truth", "estimate"
    );
    let mut abs_err = 0.0;
    let mut truth_sum = 0.0;
    for &n in &[5usize, 9, 14, 18, 24, 30] {
        for &rate in &[0.25, 0.45, 0.65, 0.85] {
            let segs: Vec<SegmentSpec> =
                (0..n).map(|i| SegmentSpec { net: i as u32, kth }).collect();
            let inst =
                SinoInstance::from_model(segs, &SensitivityModel::new(rate, 0xAB ^ n as u64))
                    .expect("valid");
            let truth = solver.min_shields(&inst).expect("solves") as f64;
            let est = model.estimate_instance(&inst);
            abs_err += (truth - est).abs();
            truth_sum += truth;
            println!("{n:>5} {rate:>6.2} | {truth:>6.0} {est:>9.2}");
        }
    }
    let rel = 100.0 * abs_err / truth_sum.max(1e-9);
    println!("\naggregate |error| / total shields = {rel:.1}%");
    println!("(paper claims <= 10% against its min-area SINO implementation)");
}
