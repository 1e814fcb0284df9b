//! Greedy constructive SINO solver, driven by the incremental
//! [`DeltaEval`] engine.
//!
//! Three stages, mirroring how the min-area SINO heuristics of the paper's
//! reference \[4\] are organized:
//!
//! 1. **Ordering/placement** — segments are placed one at a time (hardest
//!    first: highest sensitivity, tightest budget) into the gap that
//!    minimizes capacitive violations, then inductive overflow.
//! 2. **Repair** — while constraints are violated, insert the shield that
//!    best reduces the violation (between the offending adjacent pair for
//!    capacitive problems; at the best split point of the worst-overflow
//!    segment's block for inductive ones). Full isolation is always
//!    feasible, so this terminates.
//! 3. **Compaction** — drop every shield whose removal keeps feasibility,
//!    right to left, minimizing area.
//!
//! Every candidate is a trial edit against one reusable [`DeltaEval`]
//! (apply, read the key, undo) instead of the seed's clone + full
//! re-evaluate (preserved in [`crate::reference`]). An edit itself is
//! O(1) plus a memmove of the slots; the couplings of the blocks it
//! touched are recomputed, in O(block²), only when the candidate's key
//! reads them. Placement compares keys capacitive count first, and that
//! count is exact after every edit, so a gap whose count already loses to
//! the best so far is skipped without recomputing anything. The keys
//! that are read are bit-identical to the seed's, so the produced layouts
//! are too (`sino_equivalence` property suite).
//!
//! # Resuming after a budget raise
//!
//! A traced solve ([`solve_greedy_traced`]) records a [`PlacementTrace`]:
//! the placement order, each placement's chosen gap, and the OR of the
//! overflowing sets its overflow reads saw. After one segment `i`'s
//! budget goes up, [`resume_greedy`] re-solves from that trace, and the
//! result is the cold solve's bit for bit:
//!
//! * **The prefix replays.** Raising `Kth(i)` can only move `i` later in
//!   the hardest-first order, so the placements before `i`'s old position
//!   place the same segments. None of them can read `i`'s budget: an
//!   unplaced segment has `K = 0` and adds `0.0` to every overflow sum. So
//!   their states, reads and choices are unchanged, and each is replayed
//!   by a plain insert at its recorded gap, with no probes.
//! * **Later placements replay up to the first that saw `i` overflow.**
//!   If `i` keeps its position, a later placement whose reads never saw
//!   `i` overflowing under the old budget also sees it at `0.0` under the
//!   higher one (same state, same `Kᵢ`), so every value it reads and the
//!   gap it picks are unchanged. The solve probes again from the first
//!   placement whose mask holds `i`, or from `i`'s old position if `i`
//!   moved.
//!
//! Repair and compaction always re-run in full. The replayed entries of
//! the trace are also the cold solve's: the overflowing sets they saw did
//! not hold `i` under either budget.

use crate::delta::DeltaEval;
use crate::instance::SinoInstance;
use crate::layout::{Layout, Slot};
use std::cmp::Ordering;

/// The placement decisions of one greedy solve, recorded so that a
/// re-solve after one budget raise replays what the raise cannot reach
/// (see the [module docs](self)). A default trace is empty; a traced
/// solve fills it and a resumed one updates it to the new instance's cold
/// trace.
#[derive(Debug, Clone, Default)]
pub struct PlacementTrace {
    /// The segments in placement order.
    order: Vec<usize>,
    /// `gaps[t]`: the track `order[t]` was inserted at.
    gaps: Vec<usize>,
    /// Words per mask: `n.div_ceil(64)`.
    words: usize,
    /// Placement `t`'s mask, `masks[t * words..(t + 1) * words]`: the OR
    /// of the overflowing sets its overflow reads saw.
    masks: Vec<u64>,
    /// Placements probed rather than replayed, over this trace's lifetime.
    probed: u64,
}

impl PlacementTrace {
    /// An empty trace.
    pub fn new() -> Self {
        PlacementTrace::default()
    }

    /// Placements that solves through this trace probed gap by gap rather
    /// than replayed — a deterministic count of the placement work.
    pub fn placements_probed(&self) -> u64 {
        self.probed
    }

    /// Whether the recorded decisions (order, gaps and masks) are
    /// `other`'s.
    pub fn same_decisions(&self, other: &PlacementTrace) -> bool {
        self.order == other.order && self.gaps == other.gaps && self.masks == other.masks
    }

    /// Whether placement `t`'s reads saw `seg` overflowing.
    fn saw(&self, t: usize, seg: usize) -> bool {
        self.masks[t * self.words + seg / 64] >> (seg % 64) & 1 == 1
    }
}

/// Runs the greedy constructive solver; the result is always feasible.
pub fn solve_greedy(instance: &SinoInstance) -> Layout {
    solve_greedy_with(instance, &mut DeltaEval::new())
}

/// The hardest-first placement order the constructive solver uses: high
/// sensitivity first, then tight budget, then index. Exposed so the
/// warm-start check ([`crate::warm`]) can prove that a budget change
/// leaves the visiting order — and therefore the construction — intact.
pub fn placement_order(instance: &SinoInstance) -> Vec<usize> {
    let kth: Vec<f64> = (0..instance.n()).map(|i| instance.segment(i).kth).collect();
    placement_order_kth(instance, &kth)
}

/// [`placement_order`] under a hypothetical budget vector (`kth[i]`
/// replaces segment `i`'s stored budget in the comparator).
pub fn placement_order_kth(instance: &SinoInstance, kth: &[f64]) -> Vec<usize> {
    let n = instance.n();
    // `local_sensitivity` is cached per segment instead of being
    // recomputed inside the comparator; the compared values are the same
    // f64s, so the order is identical to the seed solver's.
    let sens: Vec<f64> = (0..n).map(|i| instance.local_sensitivity(i)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| hardest_first((sens[a], kth[a], a), (sens[b], kth[b], b)));
    order
}

/// The placement comparator on `(sensitivity, budget, index)` keys: high
/// sensitivity first, then tight budget, then index. A total order.
fn hardest_first(a: (f64, f64, usize), b: (f64, f64, usize)) -> Ordering {
    b.0.partial_cmp(&a.0)
        .expect("finite sensitivity")
        .then(a.1.partial_cmp(&b.1).expect("finite budgets"))
        .then(a.2.cmp(&b.2))
}

/// Segment `i`'s [`hardest_first`] key under the instance's budgets.
fn order_key(instance: &SinoInstance, i: usize) -> (f64, f64, usize) {
    (instance.local_sensitivity(i), instance.segment(i).kth, i)
}

/// [`solve_greedy`] against caller-provided scratch, so batch drivers
/// (Phase II's per-region worklist) reuse one allocation across instances.
pub fn solve_greedy_with(instance: &SinoInstance, delta: &mut DeltaEval) -> Layout {
    let n = instance.n();
    if n == 0 {
        return Layout::from_slots(Vec::new()).expect("empty layout is well-formed");
    }
    // Hardest-first ordering: high sensitivity, then tight budget.
    let order = placement_order(instance);

    delta.reset(instance);
    for &seg in &order {
        place_best(instance, delta, seg, &mut []);
    }
    finish(instance, delta)
}

/// [`solve_greedy_with`] that records its placement decisions in `trace`
/// for a later [`resume_greedy`]. Same layout.
pub fn solve_greedy_traced(
    instance: &SinoInstance,
    delta: &mut DeltaEval,
    trace: &mut PlacementTrace,
) -> Layout {
    let n = instance.n();
    trace.order = placement_order(instance);
    trace.words = n.div_ceil(64);
    trace.gaps.clear();
    trace.gaps.resize(n, 0);
    trace.masks.clear();
    trace.masks.resize(n * trace.words, 0);
    delta.reset(instance);
    place_traced(instance, delta, trace, 0);
    finish(instance, delta)
}

/// Re-solves after segment `raised`'s budget went up, replaying the
/// placements of `trace` that the raise cannot reach (see the
/// [module docs](self)), and updates `trace` to this solve's. Same layout
/// and same trace decisions as [`solve_greedy_traced`] on `instance`.
///
/// `trace` must be the trace of `instance` with `raised`'s budget at some
/// lower value and every other budget as it is now.
///
/// # Panics
///
/// Panics if `trace` does not cover `instance`'s segments.
pub fn resume_greedy(
    instance: &SinoInstance,
    delta: &mut DeltaEval,
    trace: &mut PlacementTrace,
    raised: usize,
) -> Layout {
    let n = instance.n();
    assert_eq!(trace.order.len(), n, "the trace covers another instance");
    let p = trace
        .order
        .iter()
        .position(|&s| s == raised)
        .expect("the raised segment is traced");
    // The raise can only move `raised` later: past each successor that now
    // sorts before it.
    let key = order_key(instance, raised);
    let mut q = p;
    while q + 1 < n && hardest_first(order_key(instance, trace.order[q + 1]), key).is_lt() {
        q += 1;
    }
    let from = if q == p {
        (p..n).find(|&t| trace.saw(t, raised)).unwrap_or(n)
    } else {
        trace.order[p..=q].rotate_left(1);
        p
    };
    debug_assert_eq!(trace.order, placement_order(instance));
    delta.reset(instance);
    for t in 0..from {
        delta.insert(instance, trace.gaps[t], Slot::Signal(trace.order[t]));
    }
    place_traced(instance, delta, trace, from);
    finish(instance, delta)
}

/// Probes placements `from..` of `trace.order`, recording each gap and
/// mask.
fn place_traced(
    instance: &SinoInstance,
    delta: &mut DeltaEval,
    trace: &mut PlacementTrace,
    from: usize,
) {
    let words = trace.words;
    for t in from..trace.order.len() {
        let seen = &mut trace.masks[t * words..(t + 1) * words];
        seen.fill(0);
        trace.gaps[t] = place_best(instance, delta, trace.order[t], seen);
    }
    trace.probed += (trace.order.len() - from) as u64;
}

/// Repair and compaction after the placements.
fn finish(instance: &SinoInstance, delta: &mut DeltaEval) -> Layout {
    repair(instance, delta);
    compact(instance, delta);
    delta.to_layout()
}

/// Net ordering only — the "NO" of the paper's ID+NO baseline (§4):
/// greedily orders segments "to eliminate as much capacitive coupling as
/// possible" but inserts **no shields**, so inductive (and possibly
/// residual capacitive) violations remain. Used to measure how many nets
/// violate when routing ignores RLC crosstalk (Table 1).
pub fn order_only(instance: &SinoInstance) -> Layout {
    order_only_with(instance, &mut DeltaEval::new())
}

/// [`order_only`] against caller-provided scratch.
pub fn order_only_with(instance: &SinoInstance, delta: &mut DeltaEval) -> Layout {
    let n = instance.n();
    let sens: Vec<f64> = (0..n).map(|i| instance.local_sensitivity(i)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        sens[b]
            .partial_cmp(&sens[a])
            .expect("finite sensitivity")
            .then(a.cmp(&b))
    });
    delta.reset(instance);
    for &seg in &order {
        // The paper's net-ordering stage knows nothing about inductive
        // coupling; it only avoids sensitive adjacency. Placing at the
        // first (not the globally K-best) cap-clean gap mirrors that.
        place_first_cap_clean(instance, delta, seg);
    }
    delta.to_layout()
}

/// Inserts `seg` at the first gap that adds no capacitive violation (or
/// the gap adding the fewest, if none is clean).
///
/// Consecutive gap trials differ by one adjacent transposition, so the
/// candidate **slides** right via `swap` instead of paying an
/// insert/remove pair (and its memmoves) per gap. The visited states are
/// exactly the per-gap insertions, so the decisions match the seed solver.
fn place_first_cap_clean(instance: &SinoInstance, delta: &mut DeltaEval, seg: usize) {
    let last = delta.area();
    delta.insert(instance, 0, Slot::Signal(seg));
    let mut best_cap = delta.cap_violations();
    if best_cap == 0 {
        return;
    }
    let mut best_gap = 0;
    for gap in 1..=last {
        delta.swap(instance, gap - 1, gap);
        let cap = delta.cap_violations();
        if cap == 0 {
            return;
        }
        if cap < best_cap {
            best_cap = cap;
            best_gap = gap;
        }
    }
    // `seg` ended at the last gap; move it to the winner.
    if best_gap != last {
        delta.relocate(instance, last, best_gap);
    }
}

/// Tries every insertion gap for `seg` (sliding, see
/// [`place_first_cap_clean`]) and keeps the best by `(capacitive count,
/// total overflow)`. A gap whose capacitive count exceeds the best so far
/// loses whatever its overflow, so its overflow is never read. Every
/// overflow read ORs the overflowing set it summed into `seen` (empty for
/// an untraced solve). Returns the chosen gap.
fn place_best(
    instance: &SinoInstance,
    delta: &mut DeltaEval,
    seg: usize,
    seen: &mut [u64],
) -> usize {
    let last = delta.area();
    delta.insert(instance, 0, Slot::Signal(seg));
    let mut best_cap = delta.cap_violations();
    let mut best_overflow = delta.total_overflow(instance);
    delta.or_overflowing(seen);
    let mut best_gap = 0;
    for gap in 1..=last {
        delta.swap(instance, gap - 1, gap);
        let cap = delta.cap_violations();
        if cap > best_cap {
            continue;
        }
        let overflow = delta.total_overflow(instance);
        delta.or_overflowing(seen);
        if cap < best_cap || overflow < best_overflow - 1e-12 {
            best_cap = cap;
            best_overflow = overflow;
            best_gap = gap;
        }
    }
    if best_gap != last {
        delta.relocate(instance, last, best_gap);
    }
    best_gap
}

/// Inserts shields until the layout is feasible.
pub(crate) fn repair(instance: &SinoInstance, delta: &mut DeltaEval) {
    // Bounded by the number of insertable gaps (full isolation).
    let max_iters = 4 * instance.n() + 4;
    for _ in 0..max_iters {
        if delta.feasible(instance) {
            return;
        }
        if delta.cap_violations() > 0 {
            // Split the first adjacent sensitive pair.
            let mut split = None;
            for (i, w) in delta.slots().windows(2).enumerate() {
                if let (Slot::Signal(a), Slot::Signal(b)) = (w[0], w[1]) {
                    if instance.is_sensitive(a, b) {
                        split = Some(i + 1);
                        break;
                    }
                }
            }
            match split {
                Some(gap) => delta.insert_shield(instance, gap),
                None => debug_assert!(false, "cap violation implies an adjacent pair"),
            }
            continue;
        }
        // Inductive overflow: split the worst segment's block at the gap
        // that minimizes (total overflow, worst segment's K).
        let (worst, _) = delta
            .worst_overflow(instance)
            .expect("infeasible without cap violations");
        let pos = delta.position_of(worst).expect("segment is placed");
        let (block_start, block_len) = enclosing_block(delta.slots(), pos);
        let mut best: Option<(f64, f64, usize)> = None;
        for gap in (block_start + 1)..(block_start + block_len) {
            delta.insert_shield(instance, gap);
            let key = (delta.total_overflow(instance), delta.k(instance, worst));
            let better = match &best {
                None => true,
                Some((bo, bk, _)) => {
                    key.0 < *bo - 1e-12 || ((key.0 - *bo).abs() <= 1e-12 && key.1 < *bk - 1e-12)
                }
            };
            if better {
                best = Some((key.0, key.1, gap));
            }
            delta.remove_shield_at(instance, gap);
        }
        match best {
            Some((_, _, gap)) => delta.insert_shield(instance, gap),
            // Single-segment block cannot overflow; defensive fallback.
            None => return,
        }
    }
    debug_assert!(
        delta.feasible(instance),
        "repair must reach feasibility within its iteration bound"
    );
}

/// `(start, len)` of the maximal signal run containing track `pos`.
fn enclosing_block(slots: &[Slot], pos: usize) -> (usize, usize) {
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

/// Removes every shield whose removal keeps the layout feasible.
pub(crate) fn compact(instance: &SinoInstance, delta: &mut DeltaEval) {
    let mut pos = delta.area();
    while pos > 0 {
        pos -= 1;
        if matches!(delta.slots().get(pos), Some(Slot::Shield)) {
            delta.remove_shield_at(instance, pos);
            if !delta.feasible(instance) {
                delta.insert_shield(instance, pos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::SegmentSpec;
    use crate::keff::evaluate;
    use gsino_grid::SensitivityModel;

    fn instance(n: usize, rate: f64, kth: f64, seed: u64) -> SinoInstance {
        let segs = (0..n).map(|i| SegmentSpec { net: i as u32, kth }).collect();
        SinoInstance::from_model(segs, &SensitivityModel::new(rate, seed)).unwrap()
    }

    #[test]
    fn empty_instance() {
        let inst = SinoInstance::new(vec![], vec![]).unwrap();
        let l = solve_greedy(&inst);
        assert_eq!(l.area(), 0);
    }

    #[test]
    fn singleton_needs_no_shields() {
        let inst = instance(1, 1.0, 0.01, 1);
        let l = solve_greedy(&inst);
        assert_eq!(l.area(), 1);
        assert_eq!(l.num_shields(), 0);
        assert!(evaluate(&inst, &l).feasible);
    }

    #[test]
    fn always_feasible_across_rates_and_budgets() {
        for &rate in &[0.0, 0.3, 0.5, 1.0] {
            for &kth in &[0.05, 0.5, 2.0] {
                for n in [2, 5, 9, 16] {
                    let inst = instance(n, rate, kth, 42 + n as u64);
                    let l = solve_greedy(&inst);
                    let eval = evaluate(&inst, &l);
                    assert!(
                        eval.feasible,
                        "rate {rate} kth {kth} n {n}: cap {}, overflow {}",
                        eval.cap_violations,
                        eval.total_overflow()
                    );
                    assert!(l.validate(n).is_ok());
                }
            }
        }
    }

    #[test]
    fn insensitive_nets_need_no_shields() {
        let inst = instance(10, 0.0, 0.01, 5);
        let l = solve_greedy(&inst);
        assert_eq!(l.num_shields(), 0);
        assert_eq!(l.area(), 10);
    }

    #[test]
    fn tight_budget_needs_more_shields_than_loose() {
        let tight = instance(12, 0.6, 0.1, 9);
        let loose = instance(12, 0.6, 3.0, 9);
        let st = solve_greedy(&tight).num_shields();
        let sl = solve_greedy(&loose).num_shields();
        assert!(st >= sl, "tight {st} >= loose {sl}");
        assert!(st > 0, "rate 0.6 with kth 0.1 must need shields");
    }

    #[test]
    fn fully_sensitive_tiny_budget_isolates_everyone() {
        let inst = instance(5, 1.0, 1e-6, 2);
        let l = solve_greedy(&inst);
        assert!(evaluate(&inst, &l).feasible);
        // Every neighbouring pair must be separated: n−1 shields.
        assert_eq!(l.num_shields(), 4);
    }

    #[test]
    fn compaction_leaves_no_removable_shield() {
        let inst = instance(10, 0.5, 0.4, 77);
        let l = solve_greedy(&inst);
        for pos in l.shield_positions() {
            let mut candidate = l.clone();
            candidate.remove_shield_at(pos);
            assert!(
                !evaluate(&inst, &candidate).feasible,
                "shield at {pos} is removable — compaction missed it"
            );
        }
    }

    #[test]
    fn reused_scratch_is_deterministic() {
        let inst_a = instance(11, 0.5, 0.3, 13);
        let inst_b = instance(4, 1.0, 0.2, 14);
        let mut scratch = DeltaEval::new();
        let first = solve_greedy_with(&inst_a, &mut scratch);
        let _ = solve_greedy_with(&inst_b, &mut scratch);
        let again = solve_greedy_with(&inst_a, &mut scratch);
        assert_eq!(first, again);
        assert_eq!(first, solve_greedy(&inst_a));
    }

    #[test]
    fn order_only_places_everyone_without_shields() {
        let inst = instance(12, 0.5, 0.1, 3);
        let l = order_only(&inst);
        assert_eq!(l.area(), 12);
        assert_eq!(l.num_shields(), 0);
        assert!(l.validate(12).is_ok());
    }

    #[test]
    fn order_only_beats_identity_order_on_cap_violations() {
        // With a moderate sensitivity rate, greedy ordering should leave no
        // more adjacent sensitive pairs than the identity order.
        let inst = instance(14, 0.4, 1e9, 8);
        let ordered = order_only(&inst);
        let identity = Layout::from_order(&(0..14).collect::<Vec<_>>());
        let co = evaluate(&inst, &ordered).cap_violations;
        let ci = evaluate(&inst, &identity).cap_violations;
        assert!(co <= ci, "ordered {co} > identity {ci}");
    }

    #[test]
    fn enclosing_block_bounds() {
        let l = Layout::from_slots(vec![
            Slot::Signal(0),
            Slot::Shield,
            Slot::Signal(1),
            Slot::Signal(2),
            Slot::Shield,
        ])
        .unwrap();
        assert_eq!(enclosing_block(l.slots(), 0), (0, 1));
        assert_eq!(enclosing_block(l.slots(), 2), (2, 2));
        assert_eq!(enclosing_block(l.slots(), 3), (2, 2));
    }
}
