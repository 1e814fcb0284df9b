//! Equivalence properties of the incremental Phase II solvers against the
//! seed clone-and-reevaluate implementations kept in
//! `gsino_sino::reference`.
//!
//! The [`DeltaEval`]-driven greedy constructor, net-ordering baseline and
//! annealer must be observationally *identical* to the seed solvers —
//! same layouts bit for bit, and therefore the same
//! [`gsino_sino::keff::Evaluation`] values — across random instances,
//! budgets, sensitivity rates and annealing seeds. This is the Phase II
//! counterpart of `router_equivalence.rs`'s `reference::SeedIdRouter`
//! contract.

use gsino_grid::SensitivityModel;
use gsino_sino::anneal::AnnealConfig;
use gsino_sino::delta::DeltaEval;
use gsino_sino::instance::{SegmentSpec, SinoInstance};
use gsino_sino::keff::evaluate;
use gsino_sino::layout::Layout;
use gsino_sino::solver::SinoSolver;
use gsino_sino::{greedy, reference};
use proptest::prelude::*;

fn instance(n: usize, rate: f64, kth: f64, seed: u64) -> SinoInstance {
    let segs = (0..n).map(|i| SegmentSpec { net: i as u32, kth }).collect();
    SinoInstance::from_model(segs, &SensitivityModel::new(rate, seed)).expect("valid instance")
}

/// An instance with one budget per segment: `budgets[i] / 20`, so
/// `0.05..3.0` in steps the solver's comparisons can tie on.
fn mixed_instance(n: usize, rate: f64, seed: u64, budgets: &[u32]) -> SinoInstance {
    let segs = (0..n)
        .map(|i| SegmentSpec {
            net: i as u32,
            kth: f64::from(budgets[i]) / 20.0,
        })
        .collect();
    SinoInstance::from_model(segs, &SensitivityModel::new(rate, seed)).expect("valid instance")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The delta-driven greedy solver returns bit-identical layouts to the
    /// seed greedy solver, and its evaluation matches a from-scratch one.
    #[test]
    fn greedy_matches_reference(
        n in 0usize..16,
        rate_pct in 0u32..=100,
        kth_exp in -3i32..2,
        seed in 0u64..5000,
    ) {
        let inst = instance(n, rate_pct as f64 / 100.0, 10f64.powi(kth_exp), seed);
        let fast = greedy::solve_greedy(&inst);
        let slow = reference::solve_greedy(&inst);
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(evaluate(&inst, &fast), evaluate(&inst, &slow));
    }

    /// The delta-driven net-ordering baseline matches the seed one.
    #[test]
    fn order_only_matches_reference(
        n in 0usize..16,
        rate_pct in 0u32..=100,
        seed in 0u64..5000,
    ) {
        let inst = instance(n, rate_pct as f64 / 100.0, 1.0, seed);
        prop_assert_eq!(greedy::order_only(&inst), reference::order_only(&inst));
    }

    /// The apply/undo annealer consumes the RNG identically to the seed
    /// clone-and-rescore annealer and lands on the same layout.
    #[test]
    fn annealer_matches_reference(
        n in 2usize..12,
        rate_pct in 10u32..=100,
        kth_exp in -2i32..1,
        seed in 0u64..5000,
        iters in 1usize..900,
    ) {
        let inst = instance(n, rate_pct as f64 / 100.0, 10f64.powi(kth_exp), seed);
        let start = reference::solve_greedy(&inst);
        let cfg = AnnealConfig { iters, seed, ..AnnealConfig::default() };
        let fast = gsino_sino::anneal::improve(&inst, start.clone(), &cfg);
        let slow = reference::improve(&inst, start, &cfg);
        prop_assert_eq!(fast, slow);
    }

    /// The full solver facade (greedy + validation) matches
    /// `reference::solve`, including when one `DeltaEval` scratch is reused
    /// across consecutive solves.
    #[test]
    fn solver_facade_matches_reference(
        n in 0usize..14,
        rate_pct in 0u32..=100,
        seed in 0u64..5000,
    ) {
        let inst = instance(n, rate_pct as f64 / 100.0, 0.4, seed);
        let slow = reference::solve(&inst).expect("reference solve");
        let mut scratch = DeltaEval::new();
        let fast = SinoSolver
            .solve_with(&inst, &mut scratch)
            .expect("incremental solve");
        prop_assert_eq!(&fast, &slow);
        // Scratch reuse: solving again from the dirty scratch must not
        // change the answer.
        let again = SinoSolver
            .solve_with(&inst, &mut scratch)
            .expect("incremental solve, reused scratch");
        prop_assert_eq!(&again, &slow);
    }

    /// Random edit sequences on a `DeltaEval` stay bitwise-equal to a
    /// from-scratch `evaluate` at every step (the oracle that underpins
    /// all the equivalences above), including across a mid-sequence
    /// `load` retarget.
    #[test]
    fn delta_eval_matches_scratch_evaluate(
        n in 1usize..10,
        rate_pct in 0u32..=100,
        kth_exp in -2i32..2,
        seed in 0u64..5000,
        ops in prop::collection::vec((0u8..4, 0usize..64, 0usize..64), 1..48),
    ) {
        let inst = instance(n, rate_pct as f64 / 100.0, 10f64.powi(kth_exp), seed);
        let mut delta = DeltaEval::new();
        delta.load(&inst, &Layout::from_order(&(0..n).collect::<Vec<_>>()));
        for (i, (op, x, y)) in ops.into_iter().enumerate() {
            let area = delta.area();
            match op {
                0 => delta.swap(&inst, x % area, y % area),
                1 => delta.relocate(&inst, x % area, y % (area + 1)),
                2 => delta.insert_shield(&inst, x % (area + 1)),
                _ => {
                    delta.remove_shield_at(&inst, x % area);
                }
            }
            let layout = delta.to_layout();
            prop_assert_eq!(delta.evaluation(&inst), evaluate(&inst, &layout), "op {}", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Production-shaped instances: the 5k rung's refine trials average
    /// 16.6 segments, reach 35, and carry a budget per segment. `n` runs
    /// up to 72, across the 64-bit word boundary of the evaluator's
    /// overflowing set.
    #[test]
    fn solver_matches_reference_on_production_shaped_instances(
        n in 16usize..=72,
        rate_pct in 0u32..=100,
        seed in 0u64..5000,
        budgets in prop::collection::vec(1u32..60, 72..73),
    ) {
        let inst = mixed_instance(n, rate_pct as f64 / 100.0, seed, &budgets);
        let slow = reference::solve(&inst).expect("reference solve");
        let mut scratch = DeltaEval::new();
        let fast = SinoSolver
            .solve_with(&inst, &mut scratch)
            .expect("incremental solve");
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(scratch.evaluation(&inst), evaluate(&inst, &slow));
    }

    /// A raise chain through one reused scratch, as refine's pass 1
    /// re-solves: `solve_with` re-solves while one budget at a time is
    /// raised. Every step matches `reference::solve`, and the scratch
    /// mirrors the returned layout's `evaluate`.
    #[test]
    fn raise_chain_through_one_scratch_matches_reference(
        n in 16usize..=72,
        rate_pct in 0u32..=100,
        seed in 0u64..5000,
        budgets in prop::collection::vec(1u32..60, 72..73),
        raises in prop::collection::vec((0usize..72, 1u32..40), 1..5),
    ) {
        let mut inst = mixed_instance(n, rate_pct as f64 / 100.0, seed, &budgets);
        let mut scratch = DeltaEval::new();
        let mut layout = SinoSolver.solve_with(&inst, &mut scratch).expect("solve");
        for (step, &(seg, by)) in raises.iter().enumerate() {
            if step > 0 {
                let seg = seg % n;
                let kth = inst.segment(seg).kth + f64::from(by) / 20.0;
                inst.set_kth(seg, kth).expect("positive budget");
                layout = SinoSolver.solve_with(&inst, &mut scratch).expect("re-solve");
            }
            let slow = reference::solve(&inst).expect("reference solve");
            prop_assert_eq!(&layout, &slow, "step {}", step);
            prop_assert_eq!(scratch.slots(), layout.slots());
            prop_assert_eq!(scratch.evaluation(&inst), evaluate(&inst, &layout), "step {}", step);
        }
    }
}

/// One denser non-property check: a tight-budget, high-sensitivity batch
/// where repair and compaction both do real work — every layout, shield
/// count and coupling vector must agree with the reference solver.
#[test]
fn dense_batch_full_agreement() {
    let mut scratch = DeltaEval::new();
    for seed in 0..24u64 {
        let inst = instance(14, 0.7, 0.15, seed);
        let slow = reference::solve_greedy(&inst);
        let fast = greedy::solve_greedy_with(&inst, &mut scratch);
        assert_eq!(fast, slow, "seed {seed}");
        let eval = evaluate(&inst, &fast);
        assert!(eval.feasible, "seed {seed} infeasible");
        assert_eq!(eval, evaluate(&inst, &slow));
    }
}
