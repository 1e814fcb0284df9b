//! Incremental SINO evaluation: [`DeltaEval`] re-scores single-track edits
//! by patching only the affected track neighbourhood, and only when a
//! caller reads a value that depends on it.
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
//! per-segment overflow, the set of overflowing segments, the
//! capacitive-violation count and the shield count.
//!
//! # Deferred recomputes
//!
//! An edit keeps the capacitive and shield counts exact in O(1) and only
//! **marks** the blocks it touched as stale. Every read of a value that
//! depends on couplings — [`DeltaEval::k`], [`DeltaEval::k_values`],
//! [`DeltaEval::total_overflow`], [`DeltaEval::worst_overflow`],
//! [`DeltaEval::feasible`] (once the capacitive count is zero) and
//! [`DeltaEval::evaluation`] — first recomputes each stale block once.
//! Those readers take `&mut self` and the instance, so a stale value
//! cannot be read in any build. A run of edits between two reads pays for
//! the blocks it left changed, not for every intermediate state, and a
//! caller that decides on the capacitive count alone (the greedy
//! placement, see [`crate::greedy`]) never pays for couplings it does not
//! read.
//!
//! # The block kernel
//!
//! [`SinoInstance`] keeps its sensitivity as bit rows. A recompute lists
//! the block's segments in track order, as a segment bitset and with each
//! member's block position. ANDing a member's row with that bitset gives
//! its partners inside the block; visiting each pair once, from the member
//! with the smaller segment index, fills every member's **partner mask by
//! block position**: bit `j` is set iff the member at position `j` is
//! sensitive to it. Each member then visits its mask's set bits in
//! ascending position and adds `1.0 / d` from a table for each partner's
//! distance `d`. Masks have `len.div_ceil(64)` words, so one code path
//! serves every block width. The work is one step per sensitive pair in
//! the block, not one per pair of members.
//!
//! That sum is [`crate::keff::coupling`]'s, term for term. The pair loop
//! there runs `i < j` in block order, so member `i` first receives one
//! term from each left partner, as the outer loop passes it, in ascending
//! position, and then, in its own outer iteration, one from each right
//! partner in ascending position. Ascending mask bits visit exactly those
//! partners in exactly that order; the table holds the quotient `1.0 / d`
//! the pair loop computes; and both sums start from `0.0`. So each `Kᵢ` is
//! the same sequence of f64 additions.
//!
//! # Bitwise-equality contract
//!
//! Every value a reader returns is **bit-identical** to a from-scratch
//! [`crate::keff::evaluate`] of the current slots, not merely close:
//! stale blocks are recomputed with the addends and order of
//! [`crate::keff::coupling`] (see above; each segment's `Kᵢ` accumulates
//! only within its own block, and a block's couplings are a pure function
//! of its slots, so when a recompute runs cannot change its bits), and
//! [`DeltaEval::total_overflow`] adds the overflowing entries in index
//! order — the entries it skips are `+0.0`, and adding `+0.0` to a
//! non-negative partial sum leaves its bits unchanged, so it equals
//! [`Evaluation::total_overflow`](crate::keff::Evaluation::total_overflow).
//! This is what lets the rewritten [`crate::greedy`] and [`crate::anneal`]
//! solvers reproduce the seed solvers' decisions — and layouts — bit for
//! bit. In debug builds every flush checks the whole state against a full
//! `evaluate` oracle; the `proptests` module drives random edit sequences,
//! with reads interleaved between deferred edits, against `evaluate` in
//! any build.

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
/// Every method that takes an `instance` must be given the instance the
/// evaluator was last reset or loaded with.
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
/// assert!(delta.feasible(&inst));
/// // ...and every read equals a from-scratch evaluate.
/// assert_eq!(delta.evaluation(&inst), evaluate(&inst, &delta.to_layout()));
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
    /// Per-segment coupling `Kᵢ`; exact for every segment outside a stale
    /// block.
    k: Vec<f64>,
    /// Per-segment overflow `max(0, Kᵢ − Kth(i))`, as exact as `k`.
    overflow: Vec<f64>,
    /// Bit `i` is set iff `overflow[i] > 0`.
    overflowing: Vec<u64>,
    /// Adjacent sensitive pairs (always exact).
    cap: usize,
    /// Shield slots (always exact).
    shields: usize,
    /// Per-segment stale marks: the block holding a marked segment must be
    /// recomputed before any coupling is read.
    stale: Vec<bool>,
    /// Track range `stale_lo..stale_end` holding every marked segment
    /// (empty when `stale_lo >= stale_end`).
    stale_lo: usize,
    stale_end: usize,
    /// Blocks recomputed over this evaluator's lifetime.
    recomputes: u64,
    /// The segments of the block being recomputed, in track order.
    block: Vec<usize>,
    /// That block as a segment bitset.
    members: Vec<u64>,
    /// `position[s]`: the block position of segment `s` (read only for
    /// the block's members).
    position: Vec<usize>,
    /// Each member's partner mask by block position, `len.div_ceil(64)`
    /// words per member.
    partners: Vec<u64>,
    /// `inv_dist[d] == 1.0 / d as f64`, the pair coupling at distance `d`
    /// (index 0 unused), grown to the widest block seen.
    inv_dist: Vec<f64>,
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
        let n = instance.n();
        self.slots.clear();
        self.k.clear();
        self.k.resize(n, 0.0);
        self.overflow.clear();
        self.overflow.resize(n, 0.0);
        self.overflowing.clear();
        self.overflowing.resize(n.div_ceil(64), 0);
        self.stale.clear();
        self.stale.resize(n, false);
        if self.position.len() < n {
            self.position.resize(n, 0);
        }
        self.stale_lo = 0;
        self.stale_end = 0;
        self.cap = 0;
        self.shields = 0;
    }

    /// Retargets the evaluator to `instance` holding `layout`. Every block
    /// starts stale, so the couplings are computed by the first read.
    ///
    /// # Panics
    ///
    /// Panics if the layout references segments outside the instance.
    pub fn load(&mut self, instance: &SinoInstance, layout: &Layout) {
        self.reset(instance);
        self.slots.extend_from_slice(layout.slots());
        self.shields = layout.num_shields();
        for p in 0..self.slots.len() {
            self.mark(p);
            if self.sens_pair(instance, p) {
                self.cap += 1;
            }
        }
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

    /// Adjacent sensitive pairs (O(1), never needs a recompute).
    pub fn cap_violations(&self) -> usize {
        self.cap
    }

    /// Blocks recomputed since this evaluator was created — a
    /// deterministic count of the coupling work its reads cost.
    pub fn block_recomputes(&self) -> u64 {
        self.recomputes
    }

    /// Coupling `Kᵢ` of one segment.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn k(&mut self, instance: &SinoInstance, i: usize) -> f64 {
        self.flush(instance);
        self.k[i]
    }

    /// All per-segment couplings (indexed by segment).
    pub fn k_values(&mut self, instance: &SinoInstance) -> &[f64] {
        self.flush(instance);
        &self.k
    }

    /// Sum of inductive overflows, bit-identical to
    /// [`Evaluation::total_overflow`] on the same layout: the overflowing
    /// entries are added in index order, and the `+0.0` entries it skips
    /// would not change the sum's bits.
    pub fn total_overflow(&mut self, instance: &SinoInstance) -> f64 {
        self.flush(instance);
        self.overflowing_segments()
            .fold(0.0, |sum, i| sum + self.overflow[i])
    }

    /// Index and magnitude of the worst inductive overflow, if any —
    /// identical tie-breaking to [`Evaluation::worst_overflow`].
    pub fn worst_overflow(&mut self, instance: &SinoInstance) -> Option<(usize, f64)> {
        self.flush(instance);
        self.overflowing_segments()
            .map(|i| (i, self.overflow[i]))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite overflow"))
    }

    /// Whether the layout satisfies all RLC constraints. A capacitive
    /// violation answers `false` without recomputing anything.
    pub fn feasible(&mut self, instance: &SinoInstance) -> bool {
        if self.cap > 0 {
            return false;
        }
        self.flush(instance);
        self.overflowing.iter().all(|&w| w == 0)
    }

    /// ORs the overflowing set into `into` (bit `i % 64` of word `i / 64`
    /// for segment `i`; extra words are left alone). The set is exact
    /// right after a read that recomputed the stale blocks, such as
    /// [`DeltaEval::total_overflow`].
    pub(crate) fn or_overflowing(&self, into: &mut [u64]) {
        debug_assert!(
            into.is_empty() || self.stale_lo >= self.stale_end,
            "the overflowing set is read while a block is stale"
        );
        for (dst, &word) in into.iter_mut().zip(&self.overflowing) {
            *dst |= word;
        }
    }

    /// Track position of a segment, if present.
    pub fn position_of(&self, segment: usize) -> Option<usize> {
        self.slots.iter().position(|s| *s == Slot::Signal(segment))
    }

    /// A full [`Evaluation`], bit-identical to
    /// [`crate::keff::evaluate`] on [`DeltaEval::to_layout`].
    pub fn evaluation(&mut self, instance: &SinoInstance) -> Evaluation {
        self.flush(instance);
        self.snapshot()
    }

    /// Materializes the current slots as a [`Layout`]. The editing API
    /// preserves the exactly-once segment invariant, so no re-validation
    /// is needed (debug builds re-check it).
    pub fn to_layout(&self) -> Layout {
        Layout::from_slots_trusted(self.slots.clone())
    }

    /// Inserts `slot` before track `pos` (`pos == area()` appends),
    /// marking the touched blocks stale.
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
        if self.stale_lo < self.stale_end {
            if pos <= self.stale_lo {
                self.stale_lo += 1;
            }
            if pos < self.stale_end {
                self.stale_end += 1;
            }
        }
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
            Slot::Signal(_) => self.mark(pos),
            // A shield splits its enclosing block: both sides change.
            Slot::Shield => {
                self.mark(pos.wrapping_sub(1));
                self.mark(pos + 1);
            }
        }
    }

    /// Removes and returns the slot at `pos`, marking the touched blocks
    /// stale.
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
        if self.stale_lo < self.stale_end {
            if pos < self.stale_lo {
                self.stale_lo -= 1;
            }
            if pos < self.stale_end {
                self.stale_end -= 1;
            }
        }
        if pos > 0 && self.sens_pair(instance, pos - 1) {
            self.cap += 1;
        }
        match slot {
            // The removed segment no longer couples at all.
            Slot::Signal(s) => {
                self.stale[s] = false;
                self.k[s] = 0.0;
                self.set_overflow(s, 0.0);
            }
            Slot::Shield => self.shields -= 1,
        }
        // Its former block (still contiguous around `pos`), or the two
        // blocks a removed shield merged.
        self.mark(pos.wrapping_sub(1));
        self.mark(pos);
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
        for p in [
            lo.wrapping_sub(1),
            lo,
            lo + 1,
            hi.wrapping_sub(1),
            hi,
            hi + 1,
        ] {
            self.mark(p);
        }
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

    /// Marks the block holding track `p` stale (post-edit index;
    /// out-of-range and shield positions are ignored).
    fn mark(&mut self, p: usize) {
        let Some(&Slot::Signal(s)) = self.slots.get(p) else {
            return;
        };
        self.stale[s] = true;
        if self.stale_lo < self.stale_end {
            self.stale_lo = self.stale_lo.min(p);
            self.stale_end = self.stale_end.max(p + 1);
        } else {
            self.stale_lo = p;
            self.stale_end = p + 1;
        }
    }

    /// Recomputes every stale block once, in track order.
    fn flush(&mut self, instance: &SinoInstance) {
        let mut p = self.stale_lo;
        while p < self.stale_end {
            match self.slots[p] {
                Slot::Signal(s) if self.stale[s] => {
                    let mut start = p;
                    while start > 0 && matches!(self.slots[start - 1], Slot::Signal(_)) {
                        start -= 1;
                    }
                    p = self.recompute_block(instance, start) + 1;
                }
                _ => p += 1,
            }
        }
        self.stale_lo = 0;
        self.stale_end = 0;
        self.oracle_check(instance);
    }

    /// Recomputes the couplings of the block starting at `start` with the
    /// addends and order of [`crate::keff::coupling`], refreshes the
    /// members' overflow and clears their stale marks. Returns the block's
    /// last track.
    ///
    /// Every member gets a partner mask by block position (bit `j` set iff
    /// the member at position `j` is sensitive to it), filled one pair at
    /// a time from the members' sensitivity rows restricted to the block.
    /// Each member then sums its mask's set bits in ascending position,
    /// adding `1.0 / d` from a table — the terms and the order of
    /// `coupling`'s pair loop (see the [module docs](self)).
    fn recompute_block(&mut self, instance: &SinoInstance, start: usize) -> usize {
        debug_assert!(matches!(self.slots[start], Slot::Signal(_)));
        self.recomputes += 1;
        let mut block = std::mem::take(&mut self.block);
        block.clear();
        for slot in &self.slots[start..] {
            match *slot {
                Slot::Signal(s) => block.push(s),
                Slot::Shield => break,
            }
        }
        let len = block.len();
        while self.inv_dist.len() < len {
            let d = self.inv_dist.len();
            self.inv_dist.push(1.0 / d as f64);
        }
        // The block as a segment bitset, and each member's position.
        let seg_words = instance.n().div_ceil(64);
        self.members.clear();
        self.members.resize(seg_words, 0);
        for (j, &b) in block.iter().enumerate() {
            self.position[b] = j;
            self.members[b / 64] |= 1 << (b % 64);
        }
        // Partner masks by position, each pair visited once: from the
        // member with the smaller segment index.
        let words = len.div_ceil(64);
        self.partners.clear();
        self.partners.resize(len * words, 0);
        for (i, &a) in block.iter().enumerate() {
            let row = instance.sensitivity_row(a);
            let pairs = row.iter().zip(&self.members).enumerate().skip(a / 64);
            for (w, (&r, &m)) in pairs {
                let mut bits = r & m;
                if w == a / 64 {
                    bits &= (!0 << (a % 64)) << 1;
                }
                while bits != 0 {
                    let j = self.position[w * 64 + bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                    self.partners[i * words + j / 64] |= 1 << (j % 64);
                    self.partners[j * words + i / 64] |= 1 << (i % 64);
                }
            }
        }
        for (i, &a) in block.iter().enumerate() {
            let mut k = 0.0;
            for (w, &word) in self.partners[i * words..(i + 1) * words].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let j = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    k += self.inv_dist[j.abs_diff(i)];
                }
            }
            self.k[a] = k;
            self.stale[a] = false;
            self.set_overflow(a, (k - instance.segment(a).kth).max(0.0));
        }
        self.block = block;
        start + len - 1
    }

    /// Stores one segment's overflow and its bit in the overflowing set.
    fn set_overflow(&mut self, s: usize, of: f64) {
        self.overflow[s] = of;
        let bit = 1u64 << (s % 64);
        if of > 0.0 {
            self.overflowing[s / 64] |= bit;
        } else {
            self.overflowing[s / 64] &= !bit;
        }
    }

    /// The overflowing segments in index order.
    fn overflowing_segments(&self) -> impl Iterator<Item = usize> + '_ {
        self.overflowing.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }

    /// The cached state as an [`Evaluation`] (exact only when nothing is
    /// stale).
    fn snapshot(&self) -> Evaluation {
        Evaluation {
            k: self.k.clone(),
            cap_violations: self.cap,
            overflow: self.overflow.clone(),
            area: self.slots.len(),
            shields: self.shields,
            feasible: self.cap == 0 && self.overflowing.iter().all(|&w| w == 0),
        }
    }

    /// Debug-build oracle: every flush must leave the cached state
    /// bit-identical to a from-scratch [`crate::keff::evaluate`].
    #[cfg(debug_assertions)]
    fn oracle_check(&self, instance: &SinoInstance) {
        debug_assert!(!self.stale.contains(&true), "flush left a stale mark");
        let eval = crate::keff::evaluate(instance, &self.to_layout());
        debug_assert_eq!(self.snapshot(), eval, "DeltaEval diverged from evaluate");
        debug_assert!(
            (0..instance.n()).all(
                |i| (eval.overflow[i] > 0.0) == (self.overflowing[i / 64] >> (i % 64) & 1 == 1)
            ),
            "overflowing set diverged from the overflow vector"
        );
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
        assert_eq!(delta.evaluation(&inst), evaluate(&inst, &layout));
        assert_eq!(delta.to_layout(), layout);
    }

    #[test]
    fn insert_remove_roundtrip_restores_state() {
        let inst = instance(5, 1.0, 0.3, 4);
        let mut delta = DeltaEval::new();
        delta.load(&inst, &Layout::from_order(&[0, 1, 2, 3, 4]));
        let before = delta.evaluation(&inst);
        for gap in 0..=delta.area() {
            delta.insert_shield(&inst, gap);
            delta.remove_shield_at(&inst, gap);
            assert_eq!(delta.evaluation(&inst), before, "gap {gap}");
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
        assert!(delta.k(&inst, 2) > 0.0, "adjacent sensitive pair couples");
        let removed = delta.remove(&inst, 0);
        assert_eq!(removed, Slot::Signal(2));
        assert_eq!(delta.k(&inst, 2), 0.0);
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
            assert_eq!(delta.evaluation(&inst), evaluate(&inst, &expect));
        }
    }

    #[test]
    fn reset_reuses_across_instances() {
        let mut delta = DeltaEval::new();
        let big = instance(9, 0.5, 0.4, 1);
        delta.load(&big, &Layout::from_order(&(0..9).collect::<Vec<_>>()));
        let small = instance(3, 1.0, 0.2, 2);
        delta.load(&small, &Layout::from_order(&[2, 1, 0]));
        assert_eq!(delta.k_values(&small).len(), 3);
        assert_eq!(
            delta.evaluation(&small),
            evaluate(&small, &Layout::from_order(&[2, 1, 0]))
        );
    }

    #[test]
    fn feasibility_counter_tracks_transitions() {
        let inst = instance(2, 1.0, 0.4, 3);
        let mut delta = DeltaEval::new();
        delta.load(&inst, &Layout::from_order(&[0, 1]));
        assert!(!delta.feasible(&inst));
        delta.insert_shield(&inst, 1);
        assert!(delta.feasible(&inst));
        assert!(delta.worst_overflow(&inst).is_none());
        delta.remove_shield_at(&inst, 1);
        assert!(!delta.feasible(&inst));
        let (_, worst) = delta.worst_overflow(&inst).unwrap();
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

        /// Random move/swap/shield/budget sequences, with reads of every
        /// kind interleaved at random between runs of deferred edits, keep
        /// every `DeltaEval` read bitwise-equal to a from-scratch
        /// `evaluate` — the contract the rewritten Phase II solvers rely
        /// on, checked here in release builds too, where the flush oracle
        /// is off. `n` runs to 72, so sensitivity rows, partner masks and
        /// the overflowing set span two words and blocks grow past 64
        /// tracks.
        #[test]
        fn random_edit_sequences_match_scratch_evaluate(
            n in 1usize..=72,
            rate_pct in 0u32..=100,
            kth_exp in -3i32..2,
            seed in 0u64..1000,
            ops in prop::collection::vec((0u8..10, 0usize..160, 0usize..160), 1..40),
        ) {
            let mut inst = instance(n, rate_pct as f64 / 100.0, 10f64.powi(kth_exp), seed);
            let mut delta = DeltaEval::new();
            delta.load(&inst, &Layout::from_order(&(0..n).collect::<Vec<_>>()));
            for (op, x, y) in ops {
                let area = delta.area();
                let layout = delta.to_layout();
                match op {
                    0 => delta.swap(&inst, x % area, y % area),
                    1 => delta.relocate(&inst, x % area, y % (area + 1)),
                    2 => delta.insert_shield(&inst, x % (area + 1)),
                    3 => {
                        delta.remove_shield_at(&inst, x % area);
                    }
                    4 => {
                        // A budget edit retargets the evaluator, as every
                        // solve's reset does.
                        inst.set_kth(x % n, [1e-3, 0.3, 1.0, 2.5][y % 4]).unwrap();
                        delta.load(&inst, &layout);
                    }
                    5 => prop_assert_eq!(delta.evaluation(&inst), evaluate(&inst, &layout)),
                    6 => prop_assert_eq!(
                        delta.k(&inst, x % n).to_bits(),
                        evaluate(&inst, &layout).k[x % n].to_bits()
                    ),
                    7 => prop_assert_eq!(
                        delta.total_overflow(&inst).to_bits(),
                        evaluate(&inst, &layout).total_overflow().to_bits()
                    ),
                    8 => prop_assert_eq!(
                        delta.worst_overflow(&inst),
                        evaluate(&inst, &layout).worst_overflow()
                    ),
                    _ => prop_assert_eq!(delta.feasible(&inst), evaluate(&inst, &layout).feasible),
                }
                // The capacitive count is exact between reads too.
                let layout = delta.to_layout();
                prop_assert_eq!(delta.cap_violations(), evaluate(&inst, &layout).cap_violations);
            }
            let layout = delta.to_layout();
            prop_assert_eq!(delta.evaluation(&inst), evaluate(&inst, &layout));
        }
    }
}
