//! Exact branch-and-bound SINO solver for small instances.
//!
//! SINO is NP-hard (paper §3 / reference \[4\]), so the production path uses
//! heuristics — but at region sizes (a handful of segments) the exact
//! optimum is reachable and provides ground truth: this module's tests use
//! it to certify the greedy solver's area gap. The Formula (3) fit and the
//! `nss_accuracy` bench count shields with
//! [`SinoSolver::min_shields`](crate::solver::SinoSolver::min_shields)
//! instead.
//!
//! The search appends tracks left to right: each step either places one of
//! the unplaced segments or inserts a shield. Pruning:
//!
//! * **area bound** — `placed + shields + remaining` must beat the best;
//! * **monotone coupling** — a segment's `Kᵢ` only grows while its block
//!   stays open, so any segment already over budget prunes the branch;
//! * **capacitive check** — a sensitive adjacency prunes immediately;
//! * shields are never useful at the start, the end, or doubled.

use crate::instance::SinoInstance;
use crate::keff::evaluate;
use crate::layout::{Layout, Slot};
use crate::Result;

/// Hard ceiling on search nodes; beyond it the solver reports the best
/// found so far as non-optimal.
const DEFAULT_NODE_LIMIT: u64 = 5_000_000;

/// Result of an exact solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactSolution {
    /// The best layout found (always feasible).
    pub layout: Layout,
    /// Whether the search completed (true) or hit the node limit (false).
    pub optimal: bool,
    /// Search nodes explored.
    pub nodes: u64,
}

struct Search<'a> {
    instance: &'a SinoInstance,
    /// Running best area and layout.
    best_area: usize,
    best: Option<Vec<Slot>>,
    nodes: u64,
    node_limit: u64,
    truncated: bool,
}

impl<'a> Search<'a> {
    /// DFS over track sequences.
    ///
    /// `slots` is the partial layout; `placed` is a bitmask of placed
    /// segments; `block_k` holds the running `Kᵢ` of every placed segment
    /// (already-final for closed blocks, still-growing for the open one).
    fn dfs(&mut self, slots: &mut Vec<Slot>, placed: u64, k: &mut [f64]) {
        self.nodes += 1;
        if self.nodes > self.node_limit {
            self.truncated = true;
            return;
        }
        let n = self.instance.n();
        let placed_count = placed.count_ones() as usize;
        let remaining = n - placed_count;
        // Area bound.
        if slots.len() + remaining >= self.best_area {
            return;
        }
        if remaining == 0 {
            // Complete: feasibility is maintained incrementally, so this
            // layout is valid and strictly better than the incumbent.
            self.best_area = slots.len();
            self.best = Some(slots.clone());
            return;
        }
        // Branch 1: place each unplaced segment.
        for seg in 0..n {
            if placed & (1 << seg) != 0 {
                continue;
            }
            // Capacitive check against the immediate neighbour.
            if let Some(Slot::Signal(prev)) = slots.last().copied() {
                if self.instance.is_sensitive(prev, seg) {
                    continue;
                }
            }
            // Coupling delta: distances to every open-block member. The
            // candidate lands at track `slots.len()`.
            let pos = slots.len();
            let mut delta = Vec::new();
            let mut feasible = true;
            let mut k_new = 0.0;
            for (back, slot) in slots.iter().enumerate().rev() {
                match slot {
                    Slot::Shield => break,
                    Slot::Signal(other) => {
                        if self.instance.is_sensitive(*other, seg) {
                            let d = (pos - back) as f64;
                            let kij = 1.0 / d;
                            let updated = k[*other] + kij;
                            if updated > self.instance.segment(*other).kth + 1e-12 {
                                feasible = false;
                                break;
                            }
                            delta.push((*other, kij));
                            k_new += kij;
                        }
                    }
                }
            }
            if !feasible || k_new > self.instance.segment(seg).kth + 1e-12 {
                continue;
            }
            for &(other, kij) in &delta {
                k[other] += kij;
            }
            k[seg] = k_new;
            slots.push(Slot::Signal(seg));
            self.dfs(slots, placed | (1 << seg), k);
            slots.pop();
            k[seg] = 0.0;
            for &(other, kij) in &delta {
                k[other] -= kij;
            }
        }
        // Branch 2: insert a shield (not at the start, not doubled).
        if matches!(slots.last(), Some(Slot::Signal(_))) {
            slots.push(Slot::Shield);
            self.dfs(slots, placed, k);
            slots.pop();
        }
    }
}

/// Solves an instance exactly (up to the node limit).
///
/// # Errors
///
/// Layout-validation errors only (internal invariants).
///
/// # Panics
///
/// Panics if the instance has more than 60 segments (bitmask bound);
/// exact solving is for region-sized instances.
///
/// # Example
///
/// ```
/// use gsino_grid::SensitivityModel;
/// use gsino_sino::exact::solve_exact;
/// use gsino_sino::instance::{SegmentSpec, SinoInstance};
/// use gsino_sino::keff::evaluate;
///
/// # fn main() -> Result<(), gsino_sino::SinoError> {
/// let segs = (0..5).map(|i| SegmentSpec { net: i, kth: 0.6 }).collect();
/// let inst = SinoInstance::from_model(segs, &SensitivityModel::new(0.8, 3))?;
/// let solution = solve_exact(&inst, None)?;
/// assert!(solution.optimal);
/// assert!(evaluate(&inst, &solution.layout).feasible);
/// # Ok(())
/// # }
/// ```
pub fn solve_exact(instance: &SinoInstance, node_limit: Option<u64>) -> Result<ExactSolution> {
    let n = instance.n();
    assert!(
        n <= 60,
        "exact solver is for region-sized instances (n <= 60)"
    );
    if n == 0 {
        return Ok(ExactSolution {
            layout: Layout::from_slots(Vec::new())?,
            optimal: true,
            nodes: 0,
        });
    }
    // Seed the incumbent with the greedy solution: a strong initial bound.
    let greedy = crate::greedy::solve_greedy(instance);
    let mut search = Search {
        instance,
        best_area: greedy.area(),
        best: Some(greedy.slots().to_vec()),
        nodes: 0,
        node_limit: node_limit.unwrap_or(DEFAULT_NODE_LIMIT),
        truncated: false,
    };
    let mut slots = Vec::with_capacity(2 * n);
    let mut k = vec![0.0; n];
    search.dfs(&mut slots, 0, &mut k);
    let layout = Layout::from_slots(search.best.expect("greedy seeds an incumbent"))?;
    layout.validate(n)?;
    debug_assert!(evaluate(instance, &layout).feasible);
    Ok(ExactSolution {
        layout,
        optimal: !search.truncated,
        nodes: search.nodes,
    })
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
    fn empty_and_singleton() {
        let inst = instance(0, 0.5, 1.0, 1);
        let s = solve_exact(&inst, None).unwrap();
        assert_eq!(s.layout.area(), 0);
        assert!(s.optimal);
        let inst = instance(1, 1.0, 0.01, 1);
        let s = solve_exact(&inst, None).unwrap();
        assert_eq!(s.layout.area(), 1);
    }

    #[test]
    fn insensitive_instances_need_no_shields() {
        let inst = instance(7, 0.0, 0.1, 2);
        let s = solve_exact(&inst, None).unwrap();
        assert!(s.optimal);
        assert_eq!(s.layout.area(), 7);
        assert_eq!(s.layout.num_shields(), 0);
    }

    #[test]
    fn fully_sensitive_tiny_budget_needs_full_isolation() {
        // K must be 0 for everyone: n-1 shields is provably optimal.
        let inst = instance(5, 1.0, 1e-9, 3);
        let s = solve_exact(&inst, None).unwrap();
        assert!(s.optimal);
        assert_eq!(s.layout.num_shields(), 4);
        assert_eq!(s.layout.area(), 9);
    }

    #[test]
    fn exact_never_worse_than_greedy() {
        for seed in 0..12u64 {
            for &(rate, kth) in &[(0.5, 0.5), (0.8, 0.3), (0.3, 1.0), (1.0, 0.6)] {
                let inst = instance(7, rate, kth, seed);
                let greedy = solve_greedy(&inst);
                let exact = solve_exact(&inst, None).unwrap();
                assert!(exact.optimal, "n=7 must complete");
                assert!(
                    exact.layout.area() <= greedy.area(),
                    "seed {seed} rate {rate} kth {kth}: exact {} > greedy {}",
                    exact.layout.area(),
                    greedy.area()
                );
                assert!(evaluate(&inst, &exact.layout).feasible);
            }
        }
    }

    #[test]
    fn greedy_gap_is_small_on_small_instances() {
        // Aggregate optimality gap of the production heuristic.
        let mut greedy_total = 0usize;
        let mut exact_total = 0usize;
        for seed in 0..10u64 {
            let inst = instance(8, 0.6, 0.45, 100 + seed);
            greedy_total += solve_greedy(&inst).area();
            exact_total += solve_exact(&inst, None).unwrap().layout.area();
        }
        let gap = greedy_total as f64 / exact_total as f64;
        assert!(gap < 1.15, "greedy/exact area ratio {gap}");
    }

    #[test]
    fn node_limit_reports_truncation() {
        // A permissive-but-not-trivial instance with a tiny node budget.
        let inst = instance(8, 0.5, 0.4, 9);
        let s = solve_exact(&inst, Some(10)).unwrap();
        assert!(!s.optimal);
        // Still feasible (the greedy incumbent).
        assert!(evaluate(&inst, &s.layout).feasible);
    }
}
