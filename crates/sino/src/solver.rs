//! The user-facing SINO solver facade: the one solver Phase II and Phase
//! III run.
//!
//! [`SinoSolver`] is the greedy construction of [`crate::greedy`] followed
//! by validation. The simulated-annealing polish ([`crate::anneal`]) is
//! not part of it: the `sino_solvers` ablation runs it over a greedy
//! layout itself.
//!
//! Every entry point that takes a [`DeltaEval`] scratch leaves it
//! **mirroring the layout it returns**, whatever the scratch held before:
//! its slots are the layout's, so [`DeltaEval::k_values`] (which first
//! recomputes whatever blocks the solve left stale) is bit-identical to a
//! from-scratch [`evaluate`] of the result. Callers read the couplings
//! straight from the scratch instead of re-evaluating.

use crate::delta::DeltaEval;
use crate::greedy::{resume_greedy, solve_greedy_traced, solve_greedy_with, PlacementTrace};
use crate::instance::SinoInstance;
use crate::keff::evaluate;
use crate::layout::Layout;
use crate::Result;

/// A placeholder with nothing to configure: the flow runs one solver.
/// `gsino_core`'s `phase2::solve_prepared`, `refine::refine` and
/// `GsinoConfig::solver` still name it, so it stays until they drop it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverConfig;

/// Min-area SINO solver: greedy construction, then validation.
///
/// # Example
///
/// ```
/// use gsino_grid::SensitivityModel;
/// use gsino_sino::instance::{SegmentSpec, SinoInstance};
/// use gsino_sino::solver::SinoSolver;
/// use gsino_sino::keff::evaluate;
///
/// # fn main() -> Result<(), gsino_sino::SinoError> {
/// let segs = (0..10).map(|i| SegmentSpec { net: i, kth: 0.8 }).collect();
/// let inst = SinoInstance::from_model(segs, &SensitivityModel::new(0.3, 5))?;
/// let layout = SinoSolver.solve(&inst)?;
/// assert!(evaluate(&inst, &layout).feasible);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SinoSolver;

impl SinoSolver {
    /// Solves an instance; the returned layout is feasible and validated.
    ///
    /// # Errors
    ///
    /// Layout validation errors indicate an internal bug; instances that can
    /// be constructed are always solvable (full isolation is feasible).
    pub fn solve(&self, instance: &SinoInstance) -> Result<Layout> {
        self.solve_with(instance, &mut DeltaEval::new())
    }

    /// [`SinoSolver::solve`] against caller-provided [`DeltaEval`] scratch,
    /// which mirrors the returned layout on return (module docs).
    ///
    /// Batch callers (Phase II's per-region worklist, refine's pass 1) hold
    /// one scratch per worker thread and reuse it across every instance
    /// they solve; the result is identical to [`SinoSolver::solve`] for any
    /// reuse history.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SinoSolver::solve`].
    pub fn solve_with(&self, instance: &SinoInstance, scratch: &mut DeltaEval) -> Result<Layout> {
        let layout = solve_greedy_with(instance, scratch);
        checked(instance, layout, scratch)
    }

    /// [`SinoSolver::solve_with`] that records the greedy placement's
    /// decisions in `trace`, for [`SinoSolver::resolve_after_raise`]. Same
    /// layout, and `scratch` mirrors it on return.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SinoSolver::solve`].
    pub fn solve_traced(
        &self,
        instance: &SinoInstance,
        trace: &mut PlacementTrace,
        scratch: &mut DeltaEval,
    ) -> Result<Layout> {
        let layout = solve_greedy_traced(instance, scratch, trace);
        checked(instance, layout, scratch)
    }

    /// Re-solve after segment `raised`'s budget went up: the entry point of
    /// Phase III's pass-2 trials, which raise one budget per step.
    ///
    /// `trace` must hold the trace of `instance` with `raised`'s budget at
    /// its old, lower value and every other budget as it is now (a
    /// [`SinoSolver::solve_traced`] or an earlier resume). The greedy
    /// placement replays the placements the raise cannot reach instead of
    /// probing them ([`crate::greedy`], "Resuming after a budget raise"),
    /// then repair and compaction re-run in full. The layout and the
    /// updated trace are bit-identical to a [`SinoSolver::solve_traced`] of
    /// `instance`, which debug builds run and compare at every call, and
    /// `scratch` mirrors the layout on return.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SinoSolver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `trace` does not cover `instance`'s segments.
    pub fn resolve_after_raise(
        &self,
        instance: &SinoInstance,
        raised: usize,
        trace: &mut PlacementTrace,
        scratch: &mut DeltaEval,
    ) -> Result<Layout> {
        let layout = resume_greedy(instance, scratch, trace, raised);
        let layout = checked(instance, layout, scratch)?;
        #[cfg(debug_assertions)]
        {
            let mut cold = PlacementTrace::new();
            let expect = self.solve_traced(instance, &mut cold, &mut DeltaEval::new())?;
            assert_eq!(layout, expect, "a resumed solve diverged from a cold one");
            assert!(
                trace.same_decisions(&cold),
                "a resumed trace diverged from a cold one"
            );
        }
        Ok(layout)
    }

    /// Minimum shield count for an instance (solves and counts) — the
    /// ground truth Formula (3) is fitted against.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SinoSolver::solve`].
    pub fn min_shields(&self, instance: &SinoInstance) -> Result<usize> {
        Ok(self.solve(instance)?.num_shields())
    }
}

/// Validates a greedy layout; debug builds also check that it is feasible
/// and that `scratch` mirrors it.
fn checked(instance: &SinoInstance, layout: Layout, scratch: &DeltaEval) -> Result<Layout> {
    validate_fast(instance.n(), &layout)?;
    debug_assert!(evaluate(instance, &layout).feasible);
    debug_assert_eq!(
        scratch.slots(),
        layout.slots(),
        "the scratch mirrors the layout"
    );
    Ok(layout)
}

/// Allocation-free [`Layout::validate`]: exactly-once occupancy through a
/// `u128` mask for the region-sized instances Phase II produces, falling
/// back to the full check for larger ones. Same acceptance set; kept
/// unconditional so a (hypothetical) delta-engine invariant bug surfaces
/// as an error in release builds too, not just under the debug oracle.
fn validate_fast(n: usize, layout: &Layout) -> Result<()> {
    if n > 128 {
        return layout.validate(n);
    }
    let mut seen: u128 = 0;
    let mut count = 0usize;
    for slot in layout.slots() {
        if let crate::layout::Slot::Signal(i) = *slot {
            if i >= n {
                return Err(crate::SinoError::MalformedLayout {
                    reason: "segment index range",
                });
            }
            if seen >> i & 1 == 1 {
                return Err(crate::SinoError::MalformedLayout {
                    reason: "duplicate segment",
                });
            }
            seen |= 1 << i;
            count += 1;
        }
    }
    if count != n {
        return Err(crate::SinoError::MalformedLayout {
            reason: "segment count mismatch",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::SegmentSpec;
    use gsino_grid::SensitivityModel;

    fn instance(n: usize, rate: f64, kth: f64, seed: u64) -> SinoInstance {
        let segs = (0..n).map(|i| SegmentSpec { net: i as u32, kth }).collect();
        SinoInstance::from_model(segs, &SensitivityModel::new(rate, seed)).unwrap()
    }

    #[test]
    fn validate_fast_agrees_with_full_validate() {
        use crate::layout::Layout;
        // `from_order` places arbitrary indices (including duplicates and
        // out-of-range ones) without checking, so every failure mode of
        // the full validator is constructible.
        let mut shielded = Layout::from_order(&[0, 2]);
        shielded.insert_shield(1);
        let mut shield_only = Layout::from_order(&[]);
        shield_only.insert_shield(0);
        let cases: Vec<(usize, Layout)> = vec![
            (3, Layout::from_order(&[0, 1, 2])), // ok
            (3, shielded),                       // count mismatch
            (2, Layout::from_order(&[0, 5])),    // index range
            (1, Layout::from_order(&[0, 0])),    // duplicate
            (0, shield_only),                    // ok: shields only
            (0, Layout::from_order(&[])),        // ok: empty
        ];
        for (n, layout) in cases {
            assert_eq!(
                validate_fast(n, &layout).is_ok(),
                layout.validate(n).is_ok(),
                "n {n} layout {}",
                layout.render()
            );
        }
    }

    #[test]
    fn solve_and_min_shields_consistent() {
        let inst = instance(12, 0.5, 0.4, 21);
        let layout = SinoSolver.solve(&inst).unwrap();
        assert_eq!(SinoSolver.min_shields(&inst).unwrap(), layout.num_shields());
    }

    /// One scratch reused across instances of every size, the empty one
    /// included: each solve is a fresh solve's layout, and the scratch
    /// mirrors it, slots and couplings alike.
    #[test]
    fn solve_with_reused_scratch_matches_solve() {
        let mut scratch = DeltaEval::new();
        for (n, seed) in [(10usize, 4u64), (0, 9), (11, 23), (1, 31), (0, 5)] {
            let inst = instance(n, 0.5, 0.4, seed);
            let fresh = SinoSolver.solve(&inst).unwrap();
            let reused = SinoSolver.solve_with(&inst, &mut scratch).unwrap();
            assert_eq!(fresh, reused, "n {n}");
            assert_eq!(scratch.slots(), reused.slots(), "n {n}");
            let bits = |k: &[f64]| k.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(scratch.k_values(&inst)),
                bits(&evaluate(&inst, &reused).k),
                "n {n}"
            );
        }
    }

    #[test]
    fn empty_instance_solves_empty() {
        let inst = SinoInstance::new(vec![], vec![]).unwrap();
        let layout = SinoSolver.solve(&inst).unwrap();
        assert_eq!(layout.area(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::instance::SegmentSpec;
    use gsino_grid::SensitivityModel;
    use proptest::prelude::*;

    /// One budget per segment, `budgets[i] / 20`: steps the order's
    /// budget tie-break and the solver's comparisons can tie on.
    fn mixed_instance(n: usize, rate: f64, seed: u64, budgets: &[u32]) -> SinoInstance {
        let segs = (0..n)
            .map(|i| SegmentSpec {
                net: i as u32,
                kth: f64::from(budgets[i]) / 20.0,
            })
            .collect();
        SinoInstance::from_model(segs, &SensitivityModel::new(rate, seed)).unwrap()
    }

    fn bits(k: &[f64]) -> Vec<u64> {
        k.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Chains of random raises through one trace and one scratch, as a
        /// refine trial drives them: every resumed solve returns a cold
        /// solve's layout, its scratch mirrors that layout's couplings bit
        /// for bit, and its trace holds the cold trace's decisions. Up to
        /// 72 segments, so masks span two words and the placement stage's
        /// one block grows past 64 tracks.
        #[test]
        fn resumed_raise_chains_match_cold_solves(
            n in 1usize..=72,
            rate_pct in 0u32..=100,
            seed in 0u64..5000,
            budgets in prop::collection::vec(1u32..60, 72..73),
            raises in prop::collection::vec((0usize..72, 1u32..40), 1..8),
        ) {
            let mut inst = mixed_instance(n, rate_pct as f64 / 100.0, seed, &budgets);
            let solver = SinoSolver;
            let mut trace = PlacementTrace::new();
            let mut scratch = DeltaEval::new();
            let mut layout = solver.solve_traced(&inst, &mut trace, &mut scratch).unwrap();
            for (step, &(seg, by)) in raises.iter().enumerate() {
                if step > 0 {
                    let seg = seg % n;
                    let kth = inst.segment(seg).kth + f64::from(by) / 20.0;
                    inst.set_kth(seg, kth).unwrap();
                    layout = solver
                        .resolve_after_raise(&inst, seg, &mut trace, &mut scratch)
                        .unwrap();
                }
                let mut cold_trace = PlacementTrace::new();
                let mut cold = DeltaEval::new();
                let expect = solver.solve_traced(&inst, &mut cold_trace, &mut cold).unwrap();
                prop_assert_eq!(&layout, &expect, "step {}", step);
                prop_assert_eq!(&layout, &solver.solve(&inst).unwrap(), "step {}", step);
                prop_assert_eq!(scratch.slots(), layout.slots());
                prop_assert_eq!(
                    bits(scratch.k_values(&inst)),
                    bits(cold.k_values(&inst)),
                    "step {}",
                    step
                );
                prop_assert_eq!(
                    bits(scratch.k_values(&inst)),
                    bits(&evaluate(&inst, &layout).k),
                    "step {}",
                    step
                );
                prop_assert!(trace.same_decisions(&cold_trace), "step {}", step);
            }
            // Every solve after the first probes at most what a cold one
            // would.
            prop_assert!(trace.placements_probed() <= (n * raises.len()) as u64);
        }
    }
}
