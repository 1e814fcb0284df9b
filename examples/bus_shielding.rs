//! Domain scenario: shielding a wide parallel bus.
//!
//! A 16-bit bus runs 2 mm across the chip next to a victim control signal.
//! This example works at the single-region level: it builds SINO instances
//! directly, compares net-ordering-only against full SINO, and
//! cross-checks the Keff/LSK predictions against the RLC transient
//! simulator — the workflow the paper's §2.2 table construction automates.
//!
//! ```text
//! cargo run --example bus_shielding --release
//! ```

use gsino::grid::{SensitivityModel, Technology};
use gsino::lsk::{victim_block_spec, NoiseTable};
use gsino::rlc::peak_noise;
use gsino::sino::{evaluate, greedy::order_only, instance::SegmentSpec, SinoInstance, SinoSolver};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::itrs_100nm();
    let table = NoiseTable::calibrated(&tech);
    let bus_len_um = 2000.0;
    let vth = 0.15;

    // 17 segments share the region: 16 bus bits (all mutually sensitive)
    // plus one victim control line. Budget each for the 0.15 V constraint.
    let kth = table.lsk_for_voltage(vth) / bus_len_um;
    let segments: Vec<SegmentSpec> = (0..17).map(|i| SegmentSpec { net: i, kth }).collect();
    let instance = SinoInstance::from_model(segments, &SensitivityModel::new(1.0, 7))?;
    println!("bus of 17 mutually sensitive segments, {bus_len_um} um run");
    println!("per-segment coupling budget Kth = {kth:.3}");

    // Net ordering alone cannot fix a fully sensitive bus.
    let ordered = order_only(&instance);
    let eval = evaluate(&instance, &ordered);
    let worst_k = eval.k.iter().cloned().fold(0.0_f64, f64::max);
    let worst_v = table.voltage(worst_k * bus_len_um);
    println!("\nnet ordering only:");
    println!("  tracks {} | shields {}", eval.area, eval.shields);
    println!("  worst K {worst_k:.2} -> predicted noise {worst_v:.3} V (limit {vth} V)");

    // Full SINO: shields enforce the budget.
    let layout = SinoSolver.solve(&instance)?;
    let eval = evaluate(&instance, &layout);
    let worst_k = eval.k.iter().cloned().fold(0.0_f64, f64::max);
    let worst_v = table.voltage(worst_k * bus_len_um);
    println!("\nSINO (shield insertion + net ordering):");
    println!("  tracks {} | shields {}", eval.area, eval.shields);
    println!("  worst K {worst_k:.2} -> predicted noise {worst_v:.3} V");
    assert!(eval.feasible, "SINO must satisfy the budget");

    // Cross-check the worst victim against the transient simulator.
    let victim = eval
        .k
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("17 segments");
    if let Some(spec) = victim_block_spec(&instance, &layout, victim, bus_len_um, &tech)? {
        let simulated = peak_noise(&spec)?;
        println!("\ntransient simulation of the worst victim's block:");
        println!("  simulated peak noise {simulated:.3} V (model said {worst_v:.3} V)");
    } else {
        println!("\nworst victim is fully isolated; nothing to simulate");
    }
    Ok(())
}
