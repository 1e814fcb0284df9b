//! Warm-start budget check: prove that a budget (`Kth`) change cannot
//! move the solver's output, so the caller may keep the current layout
//! instead of re-solving the region.
//!
//! ECO budget edits tighten or relax a few segments' `Kth` and re-solve
//! every region whose budget vector changed. Most of those re-solves are
//! provably wasted: if the changed budgets stay *slack* — larger than any
//! coupling the segment could physically accumulate in this region — the
//! budgets never bind and the solver retraces the exact same steps.
//!
//! [`budget_swap_preserves_solution`] certifies that, for a fixed
//! instance, swapping the budget vector `old → new` leaves the output of
//! [`crate::greedy::solve_greedy`], the solver every phase runs,
//! **bit-identical**. The argument:
//!
//! 1. **Slack budgets never produce overflow.** A segment's coupling in
//!    *any* layout over this instance (including every intermediate state
//!    the solvers visit) is at most [`coupling_upper_bound`]: each of its
//!    `c` sensitive partners contributes `1/d` for a distinct per-side
//!    in-block distance `d`, so the sum is maximized by packing them on
//!    the nearest tracks (`d = 1, 1, 2, 2, …`), padded for rounding (a
//!    block adds its terms in track order, not largest first). If both
//!    the old and the new
//!    budget of every *changed* segment are ≥ that bound, the segment's
//!    overflow term `max(0, Kᵢ − Kth(i))` is identically zero in every
//!    reachable state under either budget vector. Unchanged segments
//!    contribute identical terms by definition, so every
//!    `total_overflow` and `feasible` value the solver consults is equal
//!    under old and new budgets — identical comparisons, identical
//!    choices.
//! 2. **The visiting order is unchanged.** The only other place budgets
//!    enter the solvers is the hardest-first ordering's tie-break
//!    ([`crate::greedy::placement_order`]); recomputing the order under
//!    both vectors and comparing is an exact O(n log n) check.
//!
//! Both conditions together imply the greedy construction and the repair
//! and compaction sweeps visit the same states and make the same choices,
//! so layout *and* achieved couplings are bit-identical — which the
//! session layer's runtime oracle re-verifies with the reference solver on
//! sampled commits.

use crate::greedy::{placement_order, placement_order_kth};
use crate::instance::SinoInstance;

/// An upper bound on segment `i`'s **computed** coupling `Kᵢ` over
/// **every** layout of this instance (and every subset of it, i.e. every
/// intermediate solver state): its `c` sensitive partners each contribute
/// `1/d` for distinct per-side distances, so packing them closest
/// (`d = 1, 1, 2, 2, 3, …`) dominates any real arrangement term by term.
///
/// The two sums round differently: a block adds its terms in track order,
/// the packed sum largest first, and from 33 partners up the block's f64
/// can exceed the packed one by an ulp or two. Each rounded sum of `c`
/// non-negative terms lies within a relative `(c − 1)·2⁻⁵³` of its exact
/// value, so padding the packed sum by a relative `2c·ε` covers both
/// roundings and the padding's own.
pub fn coupling_upper_bound(instance: &SinoInstance, i: usize) -> f64 {
    let c = instance.partner_count(i);
    let packed: f64 = (0..c).map(|t| 1.0 / (t / 2 + 1) as f64).sum();
    packed * (1.0 + 2.0 * c as f64 * f64::EPSILON)
}

/// Whether replacing the instance's budgets with `new_kth` provably
/// leaves the solver output bit-identical (see the [module docs](self)
/// for the argument). `new_kth[i]` is segment `i`'s hypothetical budget;
/// the instance keeps the old ones.
///
/// A `false` return means "not provable cheaply", not "the output
/// changes" — the caller re-solves as usual.
///
/// # Panics
///
/// Panics if `new_kth.len() != instance.n()`.
pub fn budget_swap_preserves_solution(instance: &SinoInstance, new_kth: &[f64]) -> bool {
    let n = instance.n();
    assert_eq!(new_kth.len(), n, "budget vector length mismatch");
    let mut any_changed = false;
    for (i, &new) in new_kth.iter().enumerate() {
        let old = instance.segment(i).kth;
        if old == new {
            continue;
        }
        any_changed = true;
        let bound = coupling_upper_bound(instance, i);
        if !(old >= bound && new >= bound) {
            return false;
        }
    }
    if !any_changed {
        return true;
    }
    // Budgets also order the construction (tie-break on equal
    // sensitivity); the orders must match element for element.
    placement_order(instance) == placement_order_kth(instance, new_kth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::SegmentSpec;
    use crate::keff::evaluate;
    use crate::layout::Layout;
    use crate::solver::SinoSolver;
    use gsino_grid::SensitivityModel;

    fn instance(n: usize, rate: f64, kth: f64, seed: u64) -> SinoInstance {
        let segs = (0..n).map(|i| SegmentSpec { net: i as u32, kth }).collect();
        SinoInstance::from_model(segs, &SensitivityModel::new(rate, seed)).unwrap()
    }

    fn with_kth(inst: &SinoInstance, new_kth: &[f64]) -> SinoInstance {
        let mut out = inst.clone();
        for (i, &k) in new_kth.iter().enumerate() {
            out.set_kth(i, k).unwrap();
        }
        out
    }

    #[test]
    fn bound_dominates_every_layout_coupling() {
        for seed in [3, 7, 21] {
            let inst = instance(9, 0.5, 0.4, seed);
            let layout = crate::greedy::solve_greedy(&inst);
            let eval = evaluate(&inst, &layout);
            for i in 0..inst.n() {
                assert!(
                    eval.k[i] <= coupling_upper_bound(&inst, i) + 1e-12,
                    "seed {seed}: K[{i}] = {} exceeds bound {}",
                    eval.k[i],
                    coupling_upper_bound(&inst, i)
                );
            }
        }
    }

    #[test]
    fn bound_covers_track_order_rounding() {
        // 34 fully sensitive segments, segment 0 at track 17: the block
        // sums its 33 terms in track order and lands above the packed
        // largest-first sum.
        let inst = instance(34, 1.0, 100.0, 1);
        let order: Vec<usize> = (1..=17).chain([0]).chain(18..34).collect();
        let k0 = evaluate(&inst, &Layout::from_order(&order)).k[0];
        let packed: f64 = (0..33).map(|t| 1.0 / (t / 2 + 1) as f64).sum();
        assert!(k0 > packed, "K₀ {k0:.17} vs packed sum {packed:.17}");
        assert!(k0 <= coupling_upper_bound(&inst, 0));
        // A swap whose old budget sits on the packed sum must not be
        // certified: that layout overflows under it.
        let mut old_kth = vec![100.0; 34];
        old_kth[0] = packed;
        let tight = with_kth(&inst, &old_kth);
        assert!(!budget_swap_preserves_solution(&tight, &[100.0; 34]));
    }

    #[test]
    fn insensitive_segment_bound_is_zero() {
        let inst = instance(6, 0.0, 1.0, 5);
        for i in 0..6 {
            assert_eq!(coupling_upper_bound(&inst, i), 0.0);
        }
        // Any positive budget change on an insensitive instance is a
        // provable no-op... as long as the ordering holds. All-zero
        // sensitivity orders purely by (kth, index), so a change that
        // reorders must be refused.
        let same_order = vec![2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let inst2 = with_kth(&inst, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert!(budget_swap_preserves_solution(&inst2, &same_order));
        let reordering = vec![9.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert!(!budget_swap_preserves_solution(&inst2, &reordering));
    }

    #[test]
    fn tight_budget_change_is_not_certified() {
        // rate 0.6, kth 0.1: budgets bind (shields are needed), so no
        // change involving them can be certified slack.
        let inst = instance(10, 0.6, 0.1, 9);
        let mut new_kth: Vec<f64> = (0..10).map(|i| inst.segment(i).kth).collect();
        new_kth[3] = 0.05;
        assert!(!budget_swap_preserves_solution(&inst, &new_kth));
    }

    #[test]
    fn certified_swaps_really_are_bit_identical() {
        // A uniform tightening with slack on both sides: every bound
        // condition holds (the max possible coupling over 7 partners is
        // < 4) and the placement order is undisturbed because kth only
        // tie-breaks equal-sensitivity segments, which stay tied.
        for seed in [11, 12, 13] {
            let inst = instance(8, 0.4, 50.0, seed);
            let new_kth = vec![35.0; 8];
            assert!(budget_swap_preserves_solution(&inst, &new_kth));
            let swapped = with_kth(&inst, &new_kth);
            let a = SinoSolver.solve(&inst).unwrap();
            let b = SinoSolver.solve(&swapped).unwrap();
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn uncertified_swap_returns_false_not_wrong() {
        // A swap the check refuses may still change nothing — the check
        // is sound, not complete. It must never certify a swap that does
        // change the output, which `certified_swaps_really_are_bit_identical`
        // and the session oracle cover; here we only pin the refusal.
        let inst = instance(7, 0.5, 0.3, 4);
        let mut new_kth: Vec<f64> = (0..7).map(|i| inst.segment(i).kth).collect();
        new_kth[0] = 0.2;
        assert!(!budget_swap_preserves_solution(&inst, &new_kth));
    }
}
