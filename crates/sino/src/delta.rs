//! Incremental SINO evaluation: [`DeltaEval`] re-scores single-track edits
//! by patching only the affected track neighbourhood.
//!
//! The seed solvers ([`crate::reference`]) clone the whole [`Layout`] per
//! candidate move and rescan every track pair from scratch, making one
//! greedy placement O(instance²) and Phase II the last clone-and-reevaluate
//! hot path in the pipeline. Under the block Keff model, though, a
//! single-slot edit only disturbs the blocks touching it:
//!
//! * inserting/removing a **signal** changes the couplings of its enclosing
//!   block only;
//! * inserting/removing a **shield** splits/merges the two blocks beside
//!   it;
//! * a **swap** touches the blocks around both positions;
//! * capacitive violations change only at the edited track adjacencies.
//!
//! `DeltaEval` therefore keeps the slot sequence plus per-segment `Kᵢ`,
//! per-segment overflow, the capacitive-violation count and the shield
//! count, and patches them in O(affected block²) per edit instead of
//! O(instance²).
//!
//! # Bitwise-equality contract
//!
//! Every cached value is **bit-identical** to a from-scratch
//! [`crate::keff::evaluate`] of the current slots, not merely close:
//! affected blocks are recomputed with the exact pair order of
//! [`crate::keff::coupling`] (each segment's `Kᵢ` accumulates only within
//! its own block, so a per-block recompute reproduces the global f64
//! rounding exactly), and [`DeltaEval::total_overflow`] sums the overflow
//! vector in the same index order as
//! [`Evaluation::total_overflow`](crate::keff::Evaluation::total_overflow).
//! This is what lets the rewritten [`crate::greedy`] and [`crate::anneal`]
//! solvers reproduce the seed solvers' decisions — and layouts — bit for
//! bit. In debug builds every mutation checks itself against a full
//! `evaluate` oracle; the `proptests` module drives random edit sequences
//! against the same oracle in any build.

use crate::instance::SinoInstance;
use crate::keff::Evaluation;
use crate::layout::{Layout, Slot};

/// Incremental evaluation state for one layout under one instance.
///
/// The structure is a reusable scratch: [`DeltaEval::reset`] and
/// [`DeltaEval::load`] retarget it to a new instance/layout while keeping
/// the allocations, which is how Phase II's worklist reuses one `DeltaEval`
/// per worker thread across all its regions.
///
/// # Example
///
/// ```
/// use gsino_sino::delta::DeltaEval;
/// use gsino_sino::instance::{SegmentSpec, SinoInstance};
/// use gsino_sino::layout::{Layout, Slot};
/// use gsino_sino::keff::evaluate;
///
/// # fn main() -> Result<(), gsino_sino::SinoError> {
/// let inst = SinoInstance::new(
///     vec![SegmentSpec { net: 0, kth: 0.5 }, SegmentSpec { net: 1, kth: 0.5 }],
///     vec![false, true, true, false],
/// )?;
/// let mut delta = DeltaEval::new();
/// delta.load(&inst, &Layout::from_order(&[0, 1]));
/// assert_eq!(delta.cap_violations(), 1);
///
/// // Trial move: a shield between them fixes both violations...
/// delta.insert_shield(&inst, 1);
/// assert!(delta.feasible());
/// // ...and the cached state always equals a from-scratch evaluate.
/// assert_eq!(delta.evaluation(), evaluate(&inst, &delta.to_layout()));
///
/// // Undo restores the previous state exactly.
/// delta.remove_shield_at(&inst, 1);
/// assert_eq!(delta.cap_violations(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DeltaEval {
    /// The current track contents (mirrors a [`Layout`]).
    slots: Vec<Slot>,
    /// Per-segment coupling `Kᵢ`, bit-identical to [`crate::keff::coupling`].
    k: Vec<f64>,
    /// Per-segment overflow `max(0, Kᵢ − Kth(i))`.
    overflow: Vec<f64>,
    /// Adjacent sensitive pairs.
    cap: usize,
    /// Shield slots.
    shields: usize,
    /// Segments with positive overflow (feasibility counter).
    overflowing: usize,
}

impl DeltaEval {
    /// An empty evaluator; call [`DeltaEval::reset`] or [`DeltaEval::load`]
    /// before editing.
    pub fn new() -> Self {
        DeltaEval::default()
    }

    /// Retargets the evaluator to `instance` with an empty layout, keeping
    /// allocations.
    pub fn reset(&mut self, instance: &SinoInstance) {
        self.slots.clear();
        self.k.clear();
        self.k.resize(instance.n(), 0.0);
        self.overflow.clear();
        self.overflow.resize(instance.n(), 0.0);
        self.cap = 0;
        self.shields = 0;
        self.overflowing = 0;
    }

    /// Retargets the evaluator to `instance` holding `layout`, rebuilding
    /// every cached aggregate from scratch (the only O(instance) entry
    /// point — everything after is incremental).
    ///
    /// # Panics
    ///
    /// Panics if the layout references segments outside the instance.
    pub fn load(&mut self, instance: &SinoInstance, layout: &Layout) {
        self.reset(instance);
        self.slots.extend_from_slice(layout.slots());
        self.shields = layout.num_shields();
        let len = self.slots.len();
        let mut pos = 0;
        while pos < len {
            if matches!(self.slots[pos], Slot::Signal(_)) {
                let start = pos;
                while pos < len && matches!(self.slots[pos], Slot::Signal(_)) {
                    pos += 1;
                }
                self.recompute_block(instance, start);
            } else {
                pos += 1;
            }
        }
        for p in 0..len.saturating_sub(1) {
            if self.sens_pair(instance, p) {
                self.cap += 1;
            }
        }
        self.oracle_check(instance);
    }

    /// Occupied tracks.
    pub fn area(&self) -> usize {
        self.slots.len()
    }

    /// Shield count.
    pub fn num_shields(&self) -> usize {
        self.shields
    }

    /// The slots in track order.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Adjacent sensitive pairs.
    pub fn cap_violations(&self) -> usize {
        self.cap
    }

    /// Coupling `Kᵢ` of one segment.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn k(&self, i: usize) -> f64 {
        self.k[i]
    }

    /// All per-segment couplings (indexed by segment).
    pub fn k_values(&self) -> &[f64] {
        &self.k
    }

    /// Sum of inductive overflows, bit-identical to
    /// [`Evaluation::total_overflow`] on the same layout (same summation
    /// order over identical per-segment values; summing all-zero entries
    /// yields exactly `0.0`, so the feasible case short-circuits).
    pub fn total_overflow(&self) -> f64 {
        if self.overflowing == 0 {
            return 0.0;
        }
        self.overflow.iter().sum()
    }

    /// Index and magnitude of the worst inductive overflow, if any —
    /// identical tie-breaking to [`Evaluation::worst_overflow`].
    pub fn worst_overflow(&self) -> Option<(usize, f64)> {
        self.overflow
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0.0)
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite overflow"))
            .map(|(i, &v)| (i, v))
    }

    /// Whether the layout satisfies all RLC constraints (O(1)).
    pub fn feasible(&self) -> bool {
        self.cap == 0 && self.overflowing == 0
    }

    /// Track position of a segment, if present.
    pub fn position_of(&self, segment: usize) -> Option<usize> {
        self.slots.iter().position(|s| *s == Slot::Signal(segment))
    }

    /// A full [`Evaluation`], bit-identical to
    /// [`crate::keff::evaluate`] on [`DeltaEval::to_layout`].
    pub fn evaluation(&self) -> Evaluation {
        Evaluation {
            k: self.k.clone(),
            cap_violations: self.cap,
            overflow: self.overflow.clone(),
            area: self.slots.len(),
            shields: self.shields,
            feasible: self.feasible(),
        }
    }

    /// Materializes the current slots as a [`Layout`]. The editing API
    /// preserves the exactly-once segment invariant, so no re-validation
    /// is needed (debug builds re-check it).
    pub fn to_layout(&self) -> Layout {
        Layout::from_slots_trusted(self.slots.clone())
    }

    /// Inserts `slot` before track `pos` (`pos == area()` appends),
    /// patching couplings of the touched blocks only.
    ///
    /// # Panics
    ///
    /// Panics if `pos > area()` or (debug) if a duplicate segment is
    /// inserted.
    pub fn insert(&mut self, instance: &SinoInstance, pos: usize, slot: Slot) {
        assert!(
            pos <= self.slots.len(),
            "insert position {pos} out of range"
        );
        debug_assert!(
            match slot {
                Slot::Signal(s) => self.position_of(s).is_none(),
                Slot::Shield => true,
            },
            "segment inserted twice"
        );
        // The adjacency across the gap is broken by the insertion.
        if pos > 0 && self.sens_pair(instance, pos - 1) {
            self.cap -= 1;
        }
        self.slots.insert(pos, slot);
        if slot == Slot::Shield {
            self.shields += 1;
        }
        if pos > 0 && self.sens_pair(instance, pos - 1) {
            self.cap += 1;
        }
        if self.sens_pair(instance, pos) {
            self.cap += 1;
        }
        match slot {
            // The (possibly extended) block containing `pos` covers every
            // segment whose coupling changed.
            Slot::Signal(_) => self.recompute_around(instance, &[pos]),
            // A shield splits its enclosing block: both sides change.
            Slot::Shield => self.recompute_around(instance, &[pos.wrapping_sub(1), pos + 1]),
        }
        self.oracle_check(instance);
    }

    /// Removes and returns the slot at `pos`, patching the touched blocks.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= area()`.
    pub fn remove(&mut self, instance: &SinoInstance, pos: usize) -> Slot {
        assert!(pos < self.slots.len(), "remove position {pos} out of range");
        if pos > 0 && self.sens_pair(instance, pos - 1) {
            self.cap -= 1;
        }
        if self.sens_pair(instance, pos) {
            self.cap -= 1;
        }
        let slot = self.slots.remove(pos);
        if pos > 0 && self.sens_pair(instance, pos - 1) {
            self.cap += 1;
        }
        match slot {
            Slot::Signal(s) => {
                // The removed segment no longer couples at all; its former
                // block (still contiguous around `pos`) is recomputed.
                if self.overflow[s] > 0.0 {
                    self.overflowing -= 1;
                }
                self.k[s] = 0.0;
                self.overflow[s] = 0.0;
            }
            Slot::Shield => self.shields -= 1,
        }
        self.recompute_around(instance, &[pos.wrapping_sub(1), pos]);
        self.oracle_check(instance);
        slot
    }

    /// Swaps the contents of two tracks.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn swap(&mut self, instance: &SinoInstance, a: usize, b: usize) {
        if a == b {
            assert!(a < self.slots.len(), "swap index {a} out of range");
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        // Pair indices whose adjacency can change: around both positions,
        // deduplicated (they overlap when the tracks are adjacent).
        let mut pairs = [usize::MAX; 4];
        let mut np = 0;
        for p in [lo.wrapping_sub(1), lo, hi.wrapping_sub(1), hi] {
            if p.checked_add(1).is_some_and(|q| q < self.slots.len()) && !pairs[..np].contains(&p) {
                pairs[np] = p;
                np += 1;
            }
        }
        for &p in &pairs[..np] {
            if self.sens_pair(instance, p) {
                self.cap -= 1;
            }
        }
        self.slots.swap(a, b);
        for &p in &pairs[..np] {
            if self.sens_pair(instance, p) {
                self.cap += 1;
            }
        }
        self.recompute_around(
            instance,
            &[
                lo.wrapping_sub(1),
                lo,
                lo + 1,
                hi.wrapping_sub(1),
                hi,
                hi + 1,
            ],
        );
        self.oracle_check(instance);
    }

    /// Moves the slot at `from` so it ends up at position `to` — identical
    /// semantics to [`Layout::relocate`] (remove, then insert at
    /// `to.min(len)`).
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn relocate(&mut self, instance: &SinoInstance, from: usize, to: usize) {
        let slot = self.remove(instance, from);
        let pos = to.min(self.slots.len());
        self.insert(instance, pos, slot);
    }

    /// Inserts a shield before track `gap` (`gap == area()` appends).
    ///
    /// # Panics
    ///
    /// Panics if `gap > area()`.
    pub fn insert_shield(&mut self, instance: &SinoInstance, gap: usize) {
        self.insert(instance, gap, Slot::Shield);
    }

    /// Re-syncs one segment's overflow bookkeeping after its budget was
    /// changed externally ([`SinoInstance::set_kth`]) — the O(1) warm-start
    /// entry point Phase III uses to keep a persistent evaluator valid
    /// across budget edits without reloading the layout. Couplings are
    /// untouched (a budget edit cannot change any `Kᵢ`).
    ///
    /// # Panics
    ///
    /// Panics if `seg` is out of range of the tracked instance.
    pub fn rebudget(&mut self, instance: &SinoInstance, seg: usize) {
        let was = self.overflow[seg] > 0.0;
        let of = (self.k[seg] - instance.segment(seg).kth).max(0.0);
        self.overflow[seg] = of;
        match (was, of > 0.0) {
            (true, false) => self.overflowing -= 1,
            (false, true) => self.overflowing += 1,
            _ => {}
        }
        self.oracle_check(instance);
    }

    /// Removes the shield at track `pos`, returning whether one was there.
    pub fn remove_shield_at(&mut self, instance: &SinoInstance, pos: usize) -> bool {
        if pos < self.slots.len() && self.slots[pos] == Slot::Shield {
            self.remove(instance, pos);
            true
        } else {
            false
        }
    }

    /// Whether the adjacency `(p, p+1)` is a sensitive signal pair.
    fn sens_pair(&self, instance: &SinoInstance, p: usize) -> bool {
        match p.checked_add(1) {
            Some(q) if q < self.slots.len() => {
                if let (Slot::Signal(a), Slot::Signal(b)) = (self.slots[p], self.slots[q]) {
                    instance.is_sensitive(a, b)
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    /// Recomputes every block containing one of `positions` (post-edit
    /// indices; out-of-range and shield positions are skipped, blocks are
    /// deduplicated by start).
    fn recompute_around(&mut self, instance: &SinoInstance, positions: &[usize]) {
        let mut starts = [usize::MAX; 6];
        let mut ns = 0;
        for &p in positions {
            if p >= self.slots.len() || !matches!(self.slots[p], Slot::Signal(_)) {
                continue;
            }
            let mut start = p;
            while start > 0 && matches!(self.slots[start - 1], Slot::Signal(_)) {
                start -= 1;
            }
            if !starts[..ns].contains(&start) {
                starts[ns] = start;
                ns += 1;
            }
        }
        for &start in &starts[..ns] {
            self.recompute_block(instance, start);
        }
    }

    /// Recomputes the couplings of the block starting at `start` with the
    /// exact pair order of [`crate::keff::coupling`], then refreshes the
    /// members' overflow bookkeeping.
    fn recompute_block(&mut self, instance: &SinoInstance, start: usize) {
        debug_assert!(matches!(self.slots[start], Slot::Signal(_)));
        let mut end = start;
        while end + 1 < self.slots.len() && matches!(self.slots[end + 1], Slot::Signal(_)) {
            end += 1;
        }
        for p in start..=end {
            if let Slot::Signal(s) = self.slots[p] {
                if self.overflow[s] > 0.0 {
                    self.overflowing -= 1;
                }
                self.k[s] = 0.0;
            }
        }
        // Contiguous signal run: pair distance is the position difference,
        // and the i<j accumulation order matches `coupling` bit for bit.
        for i in start..=end {
            let Slot::Signal(a) = self.slots[i] else {
                unreachable!("block members are signals")
            };
            for j in (i + 1)..=end {
                let Slot::Signal(b) = self.slots[j] else {
                    unreachable!("block members are signals")
                };
                if instance.is_sensitive(a, b) {
                    let d = (j - i) as f64;
                    let kij = 1.0 / d;
                    self.k[a] += kij;
                    self.k[b] += kij;
                }
            }
        }
        for p in start..=end {
            if let Slot::Signal(s) = self.slots[p] {
                let of = (self.k[s] - instance.segment(s).kth).max(0.0);
                self.overflow[s] = of;
                if of > 0.0 {
                    self.overflowing += 1;
                }
            }
        }
    }

    /// Debug-build oracle: every mutation must leave the cached state
    /// bit-identical to a from-scratch [`crate::keff::evaluate`].
    #[cfg(debug_assertions)]
    fn oracle_check(&self, instance: &SinoInstance) {
        let eval = crate::keff::evaluate(instance, &self.to_layout());
        debug_assert_eq!(self.evaluation(), eval, "DeltaEval diverged from evaluate");
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn oracle_check(&self, _instance: &SinoInstance) {}
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
    fn load_matches_full_evaluate() {
        let inst = instance(6, 0.7, 0.4, 9);
        let mut layout = Layout::from_order(&[3, 1, 5, 0, 4, 2]);
        layout.insert_shield(2);
        layout.insert_shield(5);
        let mut delta = DeltaEval::new();
        delta.load(&inst, &layout);
        assert_eq!(delta.evaluation(), evaluate(&inst, &layout));
        assert_eq!(delta.to_layout(), layout);
    }

    #[test]
    fn insert_remove_roundtrip_restores_state() {
        let inst = instance(5, 1.0, 0.3, 4);
        let mut delta = DeltaEval::new();
        delta.load(&inst, &Layout::from_order(&[0, 1, 2, 3, 4]));
        let before = delta.evaluation();
        for gap in 0..=delta.area() {
            delta.insert_shield(&inst, gap);
            delta.remove_shield_at(&inst, gap);
            assert_eq!(delta.evaluation(), before, "gap {gap}");
        }
    }

    #[test]
    fn partial_layouts_supported() {
        let inst = instance(4, 1.0, 10.0, 2);
        let mut delta = DeltaEval::new();
        delta.reset(&inst);
        delta.insert(&inst, 0, Slot::Signal(2));
        delta.insert(&inst, 1, Slot::Signal(0));
        assert_eq!(delta.area(), 2);
        assert!(delta.k(2) > 0.0, "adjacent sensitive pair couples");
        let removed = delta.remove(&inst, 0);
        assert_eq!(removed, Slot::Signal(2));
        assert_eq!(delta.k(2), 0.0);
    }

    #[test]
    fn relocate_matches_layout_semantics() {
        let inst = instance(4, 0.6, 0.5, 7);
        let mut layout = Layout::from_order(&[0, 1, 2, 3]);
        layout.insert_shield(2);
        let mut delta = DeltaEval::new();
        delta.load(&inst, &layout);
        for (from, to) in [(0, 3), (4, 0), (2, 99), (1, 1)] {
            let mut expect = delta.to_layout();
            expect.relocate(from, to);
            delta.relocate(&inst, from, to);
            assert_eq!(delta.to_layout(), expect, "relocate {from}->{to}");
            assert_eq!(delta.evaluation(), evaluate(&inst, &expect));
        }
    }

    #[test]
    fn reset_reuses_across_instances() {
        let mut delta = DeltaEval::new();
        let big = instance(9, 0.5, 0.4, 1);
        delta.load(&big, &Layout::from_order(&(0..9).collect::<Vec<_>>()));
        let small = instance(3, 1.0, 0.2, 2);
        delta.load(&small, &Layout::from_order(&[2, 1, 0]));
        assert_eq!(delta.k_values().len(), 3);
        assert_eq!(
            delta.evaluation(),
            evaluate(&small, &Layout::from_order(&[2, 1, 0]))
        );
    }

    #[test]
    fn rebudget_resyncs_overflow_after_external_set_kth() {
        let mut inst = instance(3, 1.0, 0.4, 6);
        let mut delta = DeltaEval::new();
        delta.load(&inst, &Layout::from_order(&[0, 1, 2]));
        assert!(delta.worst_overflow().is_some());
        // Loosen every budget: rebudget must drain the overflow counter
        // segment by segment, staying oracle-clean throughout.
        for seg in 0..3 {
            inst.set_kth(seg, 10.0).unwrap();
            delta.rebudget(&inst, seg);
            assert_eq!(delta.evaluation(), evaluate(&inst, &delta.to_layout()));
        }
        assert!(delta.worst_overflow().is_none());
        assert_eq!(delta.total_overflow(), 0.0);
        // Tighten one again: overflow returns.
        inst.set_kth(1, 1e-6).unwrap();
        delta.rebudget(&inst, 1);
        assert!(delta.worst_overflow().is_some());
        assert_eq!(delta.evaluation(), evaluate(&inst, &delta.to_layout()));
    }

    #[test]
    fn feasibility_counter_tracks_transitions() {
        let inst = instance(2, 1.0, 0.4, 3);
        let mut delta = DeltaEval::new();
        delta.load(&inst, &Layout::from_order(&[0, 1]));
        assert!(!delta.feasible());
        delta.insert_shield(&inst, 1);
        assert!(delta.feasible());
        assert!(delta.worst_overflow().is_none());
        delta.remove_shield_at(&inst, 1);
        assert!(!delta.feasible());
        let (_, worst) = delta.worst_overflow().unwrap();
        assert!((worst - 0.6).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::instance::SegmentSpec;
    use crate::keff::evaluate;
    use gsino_grid::SensitivityModel;
    use proptest::prelude::*;

    fn instance(n: usize, rate: f64, kth: f64, seed: u64) -> SinoInstance {
        let segs = (0..n).map(|i| SegmentSpec { net: i as u32, kth }).collect();
        SinoInstance::from_model(segs, &SensitivityModel::new(rate, seed)).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random move/swap/shield sequences keep every `DeltaEval`
        /// aggregate bitwise-equal to a from-scratch `evaluate` — the
        /// contract the rewritten Phase II solvers rely on.
        #[test]
        fn random_edit_sequences_match_scratch_evaluate(
            n in 1usize..9,
            rate_pct in 0u32..=100,
            kth_exp in -3i32..2,
            seed in 0u64..1000,
            ops in prop::collection::vec((0u8..4, 0usize..64, 0usize..64), 1..40),
        ) {
            let inst = instance(n, rate_pct as f64 / 100.0, 10f64.powi(kth_exp), seed);
            let mut delta = DeltaEval::new();
            delta.load(&inst, &Layout::from_order(&(0..n).collect::<Vec<_>>()));
            for (op, x, y) in ops {
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
                prop_assert_eq!(delta.evaluation(), evaluate(&inst, &layout));
            }
        }
    }
}
