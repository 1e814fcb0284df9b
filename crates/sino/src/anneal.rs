//! Simulated-annealing polish for SINO solutions.
//!
//! The SINO problem is NP-hard (paper §3); the greedy constructor is fast
//! but can over-shield. This annealer explores reorderings and shield
//! moves, keeping the best *feasible* layout seen. No flow runs it: the
//! paper solves each region with one constructive heuristic, and
//! [`crate::solver::SinoSolver`] is that heuristic alone. It stays for the
//! `sino_solvers` ablation bench (A2), which polishes greedy layouts with
//! [`improve`] to measure the area the heuristic leaves behind.
//!
//! Moves are applied to one reusable [`DeltaEval`] and **undone on
//! rejection** instead of cloning the layout per proposal (the seed
//! clone-and-rescore annealer is preserved in [`crate::reference`]).
//! The RNG consumption, cost arithmetic and acceptance tests replicate the
//! seed annealer exactly, so for any seed both produce bit-identical
//! layouts (`sino_equivalence` property suite).

use crate::delta::DeltaEval;
use crate::instance::SinoInstance;
use crate::keff::evaluate;
use crate::layout::{Layout, Slot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Total proposed moves.
    pub iters: usize,
    /// Initial temperature (in cost units).
    pub t0: f64,
    /// Final temperature.
    pub t1: f64,
    /// RNG seed (deterministic for a given seed).
    pub seed: u64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            iters: 4000,
            t0: 4.0,
            t1: 0.05,
            seed: 0xD1CE,
        }
    }
}

/// Cost: area plus steep penalties for violations, so the search may pass
/// through infeasible states but is pulled back. Identical arithmetic to
/// the seed annealer's cost function.
fn cost(instance: &SinoInstance, delta: &mut DeltaEval) -> f64 {
    delta.area() as f64
        + 25.0 * delta.cap_violations() as f64
        + 50.0 * delta.total_overflow(instance)
}

/// Anneals from a feasible starting layout; returns a layout that is never
/// worse (by area) and always feasible.
///
/// # Panics
///
/// Panics (debug assertion) if `start` is infeasible; callers obtain
/// feasible layouts from the greedy solver first.
pub fn improve(instance: &SinoInstance, start: Layout, config: &AnnealConfig) -> Layout {
    debug_assert!(
        evaluate(instance, &start).feasible,
        "annealer requires a feasible starting layout"
    );
    if instance.n() < 2 || config.iters == 0 {
        return start;
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let delta = &mut DeltaEval::new();
    delta.load(instance, &start);
    let mut current_cost = cost(instance, delta);
    let mut best_slots: Vec<Slot> = start.slots().to_vec();
    let mut best_area = start.area();
    let ratio = (config.t1 / config.t0).max(1e-9);
    for step in 0..config.iters {
        let t = config.t0 * ratio.powf(step as f64 / config.iters as f64);
        let undo = propose(instance, delta, &mut rng);
        let c = cost(instance, delta);
        let accept =
            c <= current_cost || rng.gen::<f64>() < ((current_cost - c) / t.max(1e-12)).exp();
        if accept {
            current_cost = c;
            if delta.area() < best_area && delta.feasible(instance) {
                best_slots.clear();
                best_slots.extend_from_slice(delta.slots());
                best_area = best_slots.len();
            }
        } else {
            revert(instance, delta, undo);
        }
    }
    // The move set preserves the exactly-once segment invariant.
    Layout::from_slots_trusted(best_slots)
}

/// How to revert one applied proposal.
enum Undo {
    /// Swap back the same two tracks.
    Swap(usize, usize),
    /// Remove the slot at its landing position, reinsert at its origin.
    Relocate { from: usize, applied: usize },
    /// Remove the shield inserted at this gap.
    InsertedShield(usize),
    /// Reinsert a shield at this position (`None`: the proposal was a
    /// no-op because no shield existed).
    RemovedShield(Option<usize>),
}

/// Applies a random neighbouring move to `delta`, consuming the RNG in the
/// exact sequence of the seed annealer's `propose`.
fn propose(instance: &SinoInstance, delta: &mut DeltaEval, rng: &mut StdRng) -> Undo {
    let area = delta.area();
    match rng.gen_range(0..4u8) {
        // Swap two tracks.
        0 if area >= 2 => {
            let a = rng.gen_range(0..area);
            let b = rng.gen_range(0..area);
            delta.swap(instance, a, b);
            Undo::Swap(a, b)
        }
        // Relocate a track.
        1 if area >= 2 => {
            let from = rng.gen_range(0..area);
            let to = rng.gen_range(0..area);
            delta.relocate(instance, from, to);
            Undo::Relocate {
                from,
                applied: to.min(area - 1),
            }
        }
        // Insert a shield.
        2 => {
            let gap = rng.gen_range(0..=area);
            delta.insert_shield(instance, gap);
            Undo::InsertedShield(gap)
        }
        // Remove a random shield.
        _ => {
            let shields = delta.num_shields();
            if shields > 0 {
                let idx = rng.gen_range(0..shields);
                let pos = delta
                    .slots()
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| **s == Slot::Shield)
                    .nth(idx)
                    .expect("shield count matches positions")
                    .0;
                delta.remove(instance, pos);
                Undo::RemovedShield(Some(pos))
            } else {
                Undo::RemovedShield(None)
            }
        }
    }
}

/// Reverts one applied proposal exactly.
fn revert(instance: &SinoInstance, delta: &mut DeltaEval, undo: Undo) {
    match undo {
        Undo::Swap(a, b) => delta.swap(instance, a, b),
        Undo::Relocate { from, applied } => {
            let slot = delta.remove(instance, applied);
            delta.insert(instance, from, slot);
        }
        Undo::InsertedShield(gap) => {
            delta.remove(instance, gap);
        }
        Undo::RemovedShield(Some(pos)) => delta.insert(instance, pos, Slot::Shield),
        Undo::RemovedShield(None) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::solve_greedy;
    use crate::instance::SegmentSpec;
    use gsino_grid::SensitivityModel;

    fn instance(n: usize, rate: f64, kth: f64, seed: u64) -> SinoInstance {
        let segs = (0..n).map(|i| SegmentSpec { net: i as u32, kth }).collect();
        SinoInstance::from_model(segs, &SensitivityModel::new(rate, seed)).unwrap()
    }

    #[test]
    fn result_is_feasible_and_no_larger() {
        for seed in 0..5u64 {
            let inst = instance(10, 0.5, 0.5, seed);
            let greedy = solve_greedy(&inst);
            let annealed = improve(
                &inst,
                greedy.clone(),
                &AnnealConfig {
                    iters: 2000,
                    seed,
                    ..AnnealConfig::default()
                },
            );
            assert!(evaluate(&inst, &annealed).feasible, "seed {seed}");
            assert!(
                annealed.area() <= greedy.area(),
                "seed {seed}: annealed {} > greedy {}",
                annealed.area(),
                greedy.area()
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let inst = instance(8, 0.6, 0.3, 11);
        let start = solve_greedy(&inst);
        let cfg = AnnealConfig {
            iters: 1500,
            seed: 99,
            ..AnnealConfig::default()
        };
        let a = improve(&inst, start.clone(), &cfg);
        let b = improve(&inst, start, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_iterations_is_identity() {
        let inst = instance(6, 0.4, 0.5, 3);
        let start = solve_greedy(&inst);
        let out = improve(
            &inst,
            start.clone(),
            &AnnealConfig {
                iters: 0,
                ..AnnealConfig::default()
            },
        );
        assert_eq!(out, start);
    }

    #[test]
    fn tiny_instances_pass_through() {
        let inst = instance(1, 1.0, 0.1, 5);
        let start = solve_greedy(&inst);
        let out = improve(&inst, start.clone(), &AnnealConfig::default());
        assert_eq!(out, start);
    }

    #[test]
    fn matches_reference_annealer_bitwise() {
        for seed in [3u64, 21, 77] {
            let inst = instance(9, 0.6, 0.35, seed);
            let start = solve_greedy(&inst);
            let cfg = AnnealConfig {
                iters: 1200,
                seed,
                ..AnnealConfig::default()
            };
            let fast = improve(&inst, start.clone(), &cfg);
            let slow = crate::reference::improve(&inst, start, &cfg);
            assert_eq!(fast, slow, "seed {seed}");
        }
    }
}
