//! The seed (pre-`DeltaEval`) SINO solver, preserved verbatim as the
//! correctness and performance baseline for the incremental engine.
//!
//! Every candidate move here clones the whole [`Layout`] and re-evaluates
//! it from scratch with [`crate::keff::evaluate`] — the clone-and-rescan
//! hot path the production [`crate::greedy`] / [`crate::anneal`] solvers
//! replaced with [`crate::delta::DeltaEval`] patching. The production
//! solvers must stay **bit-identical** to this module: same layouts, same
//! [`crate::keff::Evaluation`] values, same RNG consumption. That contract
//! is enforced by the `sino_equivalence` property suite, the debug-build
//! oracle inside `DeltaEval`, and the `phase_runtime` bench (which also
//! times Phase II against [`solve`] via
//! `gsino_core::phase2::SinoEngine::Reference`).
//!
//! Nothing in this module is used by any production flow.

use crate::anneal::AnnealConfig;
use crate::instance::SinoInstance;
use crate::keff::evaluate;
use crate::layout::{Layout, Slot};
use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed greedy constructive solver; the result is always feasible.
pub fn solve_greedy(instance: &SinoInstance) -> Layout {
    let n = instance.n();
    if n == 0 {
        return Layout::from_slots(Vec::new()).expect("empty layout is well-formed");
    }
    // Hardest-first ordering: high sensitivity, then tight budget.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let sa = local_sensitivity(instance, a);
        let sb = local_sensitivity(instance, b);
        sb.partial_cmp(&sa)
            .expect("finite sensitivity")
            .then(
                instance
                    .segment(a)
                    .kth
                    .partial_cmp(&instance.segment(b).kth)
                    .expect("finite budgets"),
            )
            .then(a.cmp(&b))
    });

    let mut layout = Layout::from_slots(Vec::new()).expect("empty layout");
    for &seg in &order {
        layout = place_best(instance, &layout, seg);
    }
    repair(instance, &mut layout);
    compact(instance, &mut layout);
    layout
}

/// The seed net-ordering-only solver (the "NO" of the paper's ID+NO
/// baseline, §4): no shields, capacitive coupling minimized best-effort.
pub fn order_only(instance: &SinoInstance) -> Layout {
    let n = instance.n();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let sa = local_sensitivity(instance, a);
        let sb = local_sensitivity(instance, b);
        sb.partial_cmp(&sa)
            .expect("finite sensitivity")
            .then(a.cmp(&b))
    });
    let mut layout = Layout::from_slots(Vec::new()).expect("empty layout");
    for &seg in &order {
        // The paper's net-ordering stage knows nothing about inductive
        // coupling; it only avoids sensitive adjacency. Placing at the
        // first (not the globally K-best) cap-clean gap mirrors that.
        layout = place_first_cap_clean(instance, &layout, seg);
    }
    layout
}

/// The seed's local sensitivity `Sᵢ`: the partners of `i` counted pair by
/// pair, over the number of other segments. The same f64 as
/// [`SinoInstance::local_sensitivity`], computed the seed's way on
/// purpose: the seed solvers call it inside their sort comparators, so
/// they keep the seed's cost however the instance's own count gets
/// faster, and a bench that divides by their time measures the engine.
fn local_sensitivity(instance: &SinoInstance, i: usize) -> f64 {
    let n = instance.n();
    if n <= 1 {
        return 0.0;
    }
    let partners = (0..n)
        .filter(|&j| j != i && instance.is_sensitive(i, j))
        .count();
    partners as f64 / (n - 1) as f64
}

/// Inserts `seg` at the first gap that adds no capacitive violation (or
/// the gap adding the fewest, if none is clean).
fn place_first_cap_clean(instance: &SinoInstance, layout: &Layout, seg: usize) -> Layout {
    let mut best: Option<(usize, Layout)> = None;
    for gap in 0..=layout.area() {
        let mut slots = layout.slots().to_vec();
        slots.insert(gap, Slot::Signal(seg));
        let candidate = Layout::from_slots(slots).expect("insertion keeps uniqueness");
        let cap = crate::keff::cap_violations(instance, &candidate);
        if cap == 0 {
            return candidate;
        }
        if best.as_ref().is_none_or(|(bc, _)| cap < *bc) {
            best = Some((cap, candidate));
        }
    }
    best.expect("at least one gap exists").1
}

/// Tries every insertion gap for `seg` and keeps the best.
fn place_best(instance: &SinoInstance, layout: &Layout, seg: usize) -> Layout {
    let mut best: Option<(usize, f64, Layout)> = None;
    for gap in 0..=layout.area() {
        let mut slots = layout.slots().to_vec();
        slots.insert(gap, Slot::Signal(seg));
        let candidate = Layout::from_slots(slots).expect("insertion keeps uniqueness");
        let eval = evaluate(instance, &candidate);
        let key = (eval.cap_violations, eval.total_overflow());
        let better = match &best {
            None => true,
            Some((bc, bo, _)) => key.0 < *bc || (key.0 == *bc && key.1 < *bo - 1e-12),
        };
        if better {
            best = Some((key.0, key.1, candidate));
        }
    }
    best.expect("at least one gap exists").2
}

/// Inserts shields until the layout is feasible (seed repair stage).
fn repair(instance: &SinoInstance, layout: &mut Layout) {
    // Bounded by the number of insertable gaps (full isolation).
    let max_iters = 4 * instance.n() + 4;
    for _ in 0..max_iters {
        let eval = evaluate(instance, layout);
        if eval.feasible {
            return;
        }
        if eval.cap_violations > 0 {
            // Split the first adjacent sensitive pair.
            let slots = layout.slots().to_vec();
            let mut inserted = false;
            for (i, w) in slots.windows(2).enumerate() {
                if let (Slot::Signal(a), Slot::Signal(b)) = (w[0], w[1]) {
                    if instance.is_sensitive(a, b) {
                        layout.insert_shield(i + 1);
                        inserted = true;
                        break;
                    }
                }
            }
            debug_assert!(inserted, "cap violation implies an adjacent pair");
            continue;
        }
        // Inductive overflow: split the worst segment's block at the gap
        // that minimizes (total overflow, worst segment's K).
        let (worst, _) = eval
            .worst_overflow()
            .expect("infeasible without cap violations");
        let pos = layout.position_of(worst).expect("segment is placed");
        let (block_start, block_len) = enclosing_block(layout, pos);
        let mut best: Option<(f64, f64, usize)> = None;
        for gap in (block_start + 1)..(block_start + block_len) {
            let mut candidate = layout.clone();
            candidate.insert_shield(gap);
            let e = evaluate(instance, &candidate);
            let key = (e.total_overflow(), e.k[worst]);
            let better = match &best {
                None => true,
                Some((bo, bk, _)) => {
                    key.0 < *bo - 1e-12 || ((key.0 - *bo).abs() <= 1e-12 && key.1 < *bk - 1e-12)
                }
            };
            if better {
                best = Some((key.0, key.1, gap));
            }
        }
        match best {
            Some((_, _, gap)) => layout.insert_shield(gap),
            // Single-segment block cannot overflow; defensive fallback.
            None => return,
        }
    }
    debug_assert!(
        evaluate(instance, layout).feasible,
        "repair must reach feasibility within its iteration bound"
    );
}

/// `(start, len)` of the maximal signal run containing track `pos`.
fn enclosing_block(layout: &Layout, pos: usize) -> (usize, usize) {
    let slots = layout.slots();
    let mut start = pos;
    while start > 0 && matches!(slots[start - 1], Slot::Signal(_)) {
        start -= 1;
    }
    let mut end = pos;
    while end + 1 < slots.len() && matches!(slots[end + 1], Slot::Signal(_)) {
        end += 1;
    }
    (start, end - start + 1)
}

/// Removes every shield whose removal keeps the layout feasible (seed
/// compaction stage).
fn compact(instance: &SinoInstance, layout: &mut Layout) {
    let mut pos = layout.area();
    while pos > 0 {
        pos -= 1;
        if matches!(layout.slots().get(pos), Some(Slot::Shield)) {
            let mut candidate = layout.clone();
            candidate.remove_shield_at(pos);
            if evaluate(instance, &candidate).feasible {
                *layout = candidate;
            }
        }
    }
}

/// Cost: area plus steep penalties for violations, so the search may pass
/// through infeasible states but is pulled back.
fn cost(instance: &SinoInstance, layout: &Layout) -> f64 {
    let eval = evaluate(instance, layout);
    layout.area() as f64 + 25.0 * eval.cap_violations as f64 + 50.0 * eval.total_overflow()
}

/// The seed annealer: clones the layout per proposed move and re-scores it
/// from scratch. Deterministic for a fixed seed.
///
/// # Panics
///
/// Panics (debug assertion) if `start` is infeasible.
pub fn improve(instance: &SinoInstance, start: Layout, config: &AnnealConfig) -> Layout {
    debug_assert!(
        evaluate(instance, &start).feasible,
        "annealer requires a feasible starting layout"
    );
    if instance.n() < 2 || config.iters == 0 {
        return start;
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut current = start.clone();
    let mut current_cost = cost(instance, &current);
    let mut best = start;
    let mut best_area = best.area();
    let ratio = (config.t1 / config.t0).max(1e-9);
    for step in 0..config.iters {
        let t = config.t0 * ratio.powf(step as f64 / config.iters as f64);
        let candidate = propose(&current, &mut rng);
        let c = cost(instance, &candidate);
        let accept =
            c <= current_cost || rng.gen::<f64>() < ((current_cost - c) / t.max(1e-12)).exp();
        if accept {
            current = candidate;
            current_cost = c;
            if current.area() < best_area && evaluate(instance, &current).feasible {
                best = current.clone();
                best_area = best.area();
            }
        }
    }
    best
}

/// Proposes a random neighbouring layout.
fn propose(layout: &Layout, rng: &mut StdRng) -> Layout {
    let mut next = layout.clone();
    let area = next.area();
    match rng.gen_range(0..4u8) {
        // Swap two tracks.
        0 if area >= 2 => {
            let a = rng.gen_range(0..area);
            let b = rng.gen_range(0..area);
            next.swap(a, b);
        }
        // Relocate a track.
        1 if area >= 2 => {
            let from = rng.gen_range(0..area);
            let to = rng.gen_range(0..area);
            next.relocate(from, to);
        }
        // Insert a shield.
        2 => {
            let gap = rng.gen_range(0..=area);
            next.insert_shield(gap);
        }
        // Remove a random shield.
        _ => {
            let shields = next.shield_positions();
            if !shields.is_empty() {
                let pos = shields[rng.gen_range(0..shields.len())];
                next.remove_shield_at(pos);
            }
        }
    }
    next
}

/// The seed solver facade: greedy construction, then validation — the
/// exact pipeline of [`crate::solver::SinoSolver::solve`] before the delta
/// engine.
///
/// # Errors
///
/// Layout validation errors indicate an internal bug; constructible
/// instances are always solvable (full isolation is feasible).
pub fn solve(instance: &SinoInstance) -> Result<Layout> {
    let layout = solve_greedy(instance);
    layout.validate(instance.n())?;
    debug_assert!(evaluate(instance, &layout).feasible);
    Ok(layout)
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
    fn reference_greedy_is_feasible() {
        for n in [0usize, 1, 7, 13] {
            let inst = instance(n, 0.5, 0.4, 17 + n as u64);
            let l = solve_greedy(&inst);
            assert!(evaluate(&inst, &l).feasible, "n {n}");
            assert!(l.validate(n).is_ok());
        }
    }

    #[test]
    fn seed_local_sensitivity_matches_the_instance_bitwise() {
        for n in [0usize, 1, 2, 9, 70] {
            let inst = instance(n, 0.45, 0.4, 3 + n as u64);
            for i in 0..n {
                assert_eq!(
                    local_sensitivity(&inst, i).to_bits(),
                    inst.local_sensitivity(i).to_bits(),
                    "n {n} segment {i}"
                );
            }
        }
    }
}
