//! Cached LSK violation tracking for the incremental Phase III pass.
//!
//! The seed pass re-derives everything per recheck: [`check_net`] walks
//! the route tree (BFS region path), re-scans the edge list for per-region
//! lengths and re-resolves every coupling through two hash lookups — per
//! sink, per region, per edit. But the region paths, the per-region
//! lengths and the set of segments each sink's LSK sum draws from depend
//! only on the routes and the regions' occupant lists, which Phase III
//! never changes. So the tracker is split in two:
//!
//! * **[`LskIndex`]: what the routes fix.** Per sink its net, sink index
//!   and term range; per term the length `lⱼ`, in the exact order
//!   [`sink_lsk`] iterates paper Eq. (1); and the reverse index
//!   `(region, dir) → (sink, term, segment)`, which says which term a
//!   region's coupling vector feeds. It is stored flat: one sorted key
//!   array and offsets into one array of references. A net's sinks are
//!   contiguous, in circuit order.
//! * **[`LskTracker`]: what a solution state adds.** The index behind an
//!   [`Arc`], each term's coupling `Kᵢʲ`, each sink's LSK and voltage,
//!   and each violating net's worst voltage.
//!
//! [`LskTracker::new`] builds the index with the one full route walk and
//! then fills it. [`LskTracker::fill`] reads the couplings of any
//! [`RegionSino`] with the same routes and occupant lists through an
//! existing index, in O(terms) with no route walk. The ECO session keeps
//! its index across budget commits this way. A region re-solve then
//! patches only the crossing nets' sums: [`LskTracker::region_updated`]
//! overwrites the affected `K` entries and re-sums only the dirtied sinks
//! — O(crossing segments + dirty-sink path terms), with no tree walks.
//!
//! # Bitwise-equality contract
//!
//! Every cached value is **bit-identical** to the from-scratch
//! [`check`]/[`check_net`] walks, not merely close: sinks are summed over
//! the cached term list in the exact iteration order of [`sink_lsk`] (no
//! running-delta float updates, which would drift), so the f64 rounding
//! sequence — and therefore every looked-up voltage and every severity
//! comparison downstream — reproduces the seed pass exactly. A fill over
//! a kept index is bitwise the tracker `new` builds, because the index is
//! a pure function of the circuit, the grid, the routes and the occupant
//! lists. `cfg(debug_assertions)` builds verify the full tracker state
//! against a fresh [`check`] via [`LskTracker::oracle_check`] after every
//! region edit of the incremental pass; the `refine_equivalence` property
//! suite drives random edit sequences and random coupling fills against
//! the same oracle in any build.
//!
//! [`check`]: crate::violations::check
//! [`check_net`]: crate::violations::check_net
//! [`sink_lsk`]: crate::violations::sink_lsk

use crate::phase2::RegionSino;
use crate::violations::{sink_terms, terms_lsk, SinkViolation, ViolationReport};
use gsino_grid::net::{Circuit, Net, NetId};
use gsino_grid::region::{RegionGrid, RegionIdx};
use gsino_grid::route::{Dir, RouteSet, RouteTree};
use gsino_lsk::table::NoiseTable;
use std::collections::{BinaryHeap, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// One indexed sink: its net, its index within the net and its terms.
#[derive(Debug, Clone, Copy)]
struct IndexedSink {
    net: NetId,
    /// Sink index within the net (0 = first sink).
    sink: u32,
    /// `(offset, len)` into the term arrays.
    terms: (u32, u32),
}

/// One entry of the `(region, dir)` reverse index: which term of which
/// sink a region re-solve patches, and from which segment of the region's
/// coupling vector the new value is read.
#[derive(Debug, Clone, Copy)]
struct SegmentRef {
    /// Index into the sinks.
    sink: u32,
    /// Index into the term arrays.
    term: u32,
    /// Segment index within the region's `k` vector.
    seg: u32,
}

/// The route-derived half of the tracker: which terms each sink's Eq. (1)
/// sum has, their lengths, and which region segment feeds each coupling.
/// See the [module docs](self).
#[derive(Debug, Clone)]
pub struct LskIndex {
    /// Every tracked sink, in `check`'s iteration order (circuit net
    /// order, then sink order).
    sinks: Vec<IndexedSink>,
    /// Per-term lengths `lⱼ`.
    term_len: Vec<f64>,
    /// The `(region, dir)` keys some term reads, ascending in
    /// [`RegionSino::keys`] order.
    keys: Vec<(RegionIdx, Dir)>,
    /// The references of `keys[i]` are `refs[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// References grouped by key, in term order within a key.
    refs: Vec<SegmentRef>,
}

impl LskIndex {
    /// Walks every routed net's source→sink paths once.
    ///
    /// Nets without a route, or with a trivial (edge-free) route, have no
    /// segments and can never violate; they are not indexed, mirroring
    /// [`check_net`](crate::violations::check_net)'s empty-route shortcut.
    /// A term reads a coupling only where the net owns a segment of the
    /// region in `sino`; every other term's coupling stays 0.0, exactly
    /// like `sink_lsk`'s `unwrap_or(0.0)`.
    pub(crate) fn new(
        circuit: &Circuit,
        grid: &RegionGrid,
        routes: &RouteSet,
        sino: &RegionSino,
    ) -> Self {
        let mut sinks = Vec::new();
        let mut term_len = Vec::new();
        let mut keyed: Vec<((RegionIdx, Dir), SegmentRef)> = Vec::new();
        for net in circuit.nets() {
            let route = match routes.get(net.id()) {
                Some(r) if !r.edges().is_empty() => r,
                _ => continue,
            };
            for sink_index in 0..net.sinks().len() {
                let offset = term_len.len() as u32;
                for (r, dir, len) in sink_terms(grid, route, net, sink_index) {
                    if let Some(seg) = sino.solution(r, dir).and_then(|s| s.index_of(net.id())) {
                        keyed.push((
                            (r, dir),
                            SegmentRef {
                                sink: sinks.len() as u32,
                                term: term_len.len() as u32,
                                seg: seg as u32,
                            },
                        ));
                    }
                    term_len.push(len);
                }
                sinks.push(IndexedSink {
                    net: net.id(),
                    sink: sink_index as u32,
                    terms: (offset, term_len.len() as u32 - offset),
                });
            }
        }
        // Terms are unique, so this order is total.
        keyed.sort_unstable_by_key(|&(key, e)| (key, e.term));
        let mut keys = Vec::new();
        let mut offsets = Vec::new();
        let mut refs = Vec::with_capacity(keyed.len());
        for (key, e) in keyed {
            if keys.last() != Some(&key) {
                keys.push(key);
                offsets.push(refs.len() as u32);
            }
            refs.push(e);
        }
        offsets.push(refs.len() as u32);
        sinks.shrink_to_fit();
        term_len.shrink_to_fit();
        keys.shrink_to_fit();
        offsets.shrink_to_fit();
        LskIndex {
            sinks,
            term_len,
            keys,
            offsets,
            refs,
        }
    }

    /// The references a `(region, dir)` re-solve patches (empty if no
    /// indexed term reads it).
    fn refs_of(&self, key: (RegionIdx, Dir)) -> &[SegmentRef] {
        match self.keys.binary_search(&key) {
            Ok(i) => &self.refs[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            Err(_) => &[],
        }
    }

    /// The first sink of the net that owns sink `s` (a net's sinks are
    /// contiguous).
    fn net_start(&self, mut s: usize) -> usize {
        let net = self.sinks[s].net;
        while s > 0 && self.sinks[s - 1].net == net {
            s -= 1;
        }
        s
    }

    /// The first term of `net`'s first sink, or of the first indexed sink
    /// for `None`.
    pub(crate) fn first_term(&self, net: Option<NetId>) -> Option<usize> {
        self.sinks
            .iter()
            .find(|s| net.is_none_or(|n| n == s.net))
            .map(|s| s.terms.0 as usize)
    }

    /// One term's length, for fault injection.
    pub(crate) fn term_len_mut(&mut self, term: usize) -> &mut f64 {
        &mut self.term_len[term]
    }
}

/// Incrementally maintained per-sink LSK values and per-net violation
/// severities of one routing solution — the ground-truth mirror of
/// [`check`](crate::violations::check) under region re-solves.
#[derive(Debug, Clone)]
pub struct LskTracker {
    index: Arc<LskIndex>,
    vth: f64,
    /// Per-term couplings `Kᵢʲ` (patched per region re-solve).
    term_k: Vec<f64>,
    /// Per-sink `(LSK, voltage)`.
    values: Vec<(f64, f64)>,
    /// Ground truth: worst violating voltage per net (bit-identical to
    /// `check`'s per-net map).
    worst: HashMap<NetId, f64>,
    /// Scratch: sinks dirtied by the update in flight.
    dirty: Vec<u32>,
    /// Scratch: first sinks of the nets owning dirtied sinks.
    dirty_nets: Vec<u32>,
}

impl LskTracker {
    /// Builds the index from the current solution state — the only
    /// full-circuit walk — and fills it from `sino`.
    pub fn new(
        circuit: &Circuit,
        grid: &RegionGrid,
        routes: &RouteSet,
        sino: &RegionSino,
        table: &NoiseTable,
        vth: f64,
    ) -> Self {
        let index = LskIndex::new(circuit, grid, routes, sino);
        Self::fill(Arc::new(index), sino, table, vth)
    }

    /// Fills a kept index with the couplings of `sino`: O(terms), no
    /// route walk. `sino` must have the routes and occupant lists the
    /// index was built on; then the result is bitwise the tracker
    /// [`Self::new`] builds.
    pub fn fill(index: Arc<LskIndex>, sino: &RegionSino, table: &NoiseTable, vth: f64) -> Self {
        let mut term_k = vec![0.0; index.term_len.len()];
        for (i, &(r, dir)) in index.keys.iter().enumerate() {
            // invariant: the index was built on these occupant lists, so
            // every key it reads is solved.
            let Some(sol) = sino.solution(r, dir) else {
                debug_assert!(false, "indexed key ({r}, {dir:?}) has no region solution");
                continue;
            };
            for e in &index.refs[index.offsets[i] as usize..index.offsets[i + 1] as usize] {
                term_k[e.term as usize] = sol.k[e.seg as usize];
            }
        }
        let values = index
            .sinks
            .iter()
            .map(|s| {
                let lsk = sum_terms(&index.term_len, &term_k, s.terms);
                (lsk, table.voltage(lsk))
            })
            .collect();
        let mut t = LskTracker {
            index,
            vth,
            term_k,
            values,
            worst: HashMap::new(),
            dirty: Vec::new(),
            dirty_nets: Vec::new(),
        };
        for s in 0..t.index.sinks.len() {
            if s == 0 || t.index.sinks[s - 1].net != t.index.sinks[s].net {
                t.refresh_net(s);
            }
        }
        t
    }

    /// The route-derived index this tracker fills.
    pub fn index(&self) -> &Arc<LskIndex> {
        &self.index
    }

    /// The constraint voltage the tracker flags against.
    pub fn vth(&self) -> f64 {
        self.vth
    }

    /// Per-term couplings `Kᵢʲ`, in index term order.
    pub fn couplings(&self) -> &[f64] {
        &self.term_k
    }

    /// Per-sink `(LSK, voltage)`, in `check`'s sink order.
    pub fn sink_values(&self) -> &[(f64, f64)] {
        &self.values
    }

    /// The first tracked sink at or after `start` that `net` does not
    /// own. Tracked sinks follow circuit net order, so a walk over the
    /// circuit's nets advances through them with this cursor.
    pub(crate) fn skip_net(&self, start: usize, net: NetId) -> usize {
        let sinks = &self.index.sinks;
        (start..sinks.len())
            .find(|&s| sinks[s].net != net)
            .unwrap_or(sinks.len())
    }

    /// Checks `net`'s tracked sinks, `start..skip_net(start, net)`, against
    /// a fresh walk of `route` on the `sino` this tracker was filled from:
    /// every term length must be what the route gives now, and every
    /// sink's LSK must equal [`sink_lsk`](crate::violations::sink_lsk)'s,
    /// computed from the same walk, bitwise. The lengths are compared on
    /// their own because a term whose coupling is zero today adds nothing
    /// to any sum.
    pub(crate) fn net_matches(
        &self,
        sinks: Range<usize>,
        grid: &RegionGrid,
        route: Option<&RouteTree>,
        sino: &RegionSino,
        net: &Net,
    ) -> bool {
        let Some(route) = route.filter(|r| !r.edges().is_empty()) else {
            return sinks.is_empty();
        };
        if sinks.len() != net.sinks().len() {
            return false;
        }
        sinks.enumerate().all(|(i, s)| {
            let tracked = &self.index.sinks[s];
            let (offset, len) = tracked.terms;
            let mut lens = self.index.term_len[offset as usize..(offset + len) as usize].iter();
            let mut same = tracked.sink as usize == i;
            let terms = sink_terms(grid, route, net, i).inspect(|&(_, _, l)| {
                same &= lens
                    .next()
                    .is_some_and(|kept| kept.to_bits() == l.to_bits());
            });
            let lsk = terms_lsk(sino, net.id(), terms);
            same && lens.next().is_none() && self.values[s].0.to_bits() == lsk.to_bits()
        })
    }

    /// Patches every cached term the re-solved `(region, dir)` feeds and
    /// re-sums the dirtied sinks. `k` is the region's refreshed coupling
    /// vector (`RegionSolution::k`), indexed by segment.
    pub fn region_updated(&mut self, region: RegionIdx, dir: Dir, k: &[f64], table: &NoiseTable) {
        self.dirty.clear();
        self.dirty_nets.clear();
        let index = &*self.index;
        for e in index.refs_of((region, dir)) {
            let nk = k[e.seg as usize];
            // Bitwise-unchanged couplings cannot change any sum; skipping
            // them is exact, not approximate.
            if self.term_k[e.term as usize].to_bits() != nk.to_bits() {
                self.term_k[e.term as usize] = nk;
                self.dirty.push(e.sink);
            }
        }
        for &s in &self.dirty {
            let s = s as usize;
            // Full re-sum in `sink_lsk`'s term order — never a running
            // delta, so the f64 rounding matches a fresh walk bit for bit.
            let lsk = sum_terms(&index.term_len, &self.term_k, index.sinks[s].terms);
            self.values[s] = (lsk, table.voltage(lsk));
            let start = index.net_start(s) as u32;
            if !self.dirty_nets.contains(&start) {
                self.dirty_nets.push(start);
            }
        }
        for i in 0..self.dirty_nets.len() {
            self.refresh_net(self.dirty_nets[i] as usize);
        }
    }

    /// Recomputes the worst violating voltage of the net whose sinks start
    /// at `start` (the same max-fold as `check`'s per-net accumulation).
    fn refresh_net(&mut self, start: usize) {
        let sinks = &self.index.sinks;
        let net = sinks[start].net;
        let mut worst: Option<f64> = None;
        for s in (start..sinks.len()).take_while(|&s| sinks[s].net == net) {
            let v = self.values[s].1;
            if v > self.vth + 1e-9 {
                worst = Some(worst.map_or(v, |w| w.max(v)));
            }
        }
        match worst {
            Some(w) => {
                self.worst.insert(net, w);
            }
            None => {
                self.worst.remove(&net);
            }
        }
    }

    /// Whether no tracked net violates — bit-identical to
    /// [`check`](crate::violations::check)`.is_clean()`.
    pub fn is_clean(&self) -> bool {
        self.worst.is_empty()
    }

    /// Whether one net is violation-free — the cached equivalent of
    /// [`check_net`](crate::violations::check_net)`.is_empty()`.
    pub fn net_is_clean(&self, net: NetId) -> bool {
        !self.worst.contains_key(&net)
    }

    /// The worst violating voltage of a net, if it violates.
    pub fn net_worst(&self, net: NetId) -> Option<f64> {
        self.worst.get(&net).copied()
    }

    /// Number of violating nets.
    pub fn violating_nets(&self) -> usize {
        self.worst.len()
    }

    /// Violating nets, most severe first, ties broken by ascending net id —
    /// the exact order of
    /// [`ViolationReport::nets_by_severity`](crate::violations::ViolationReport::nets_by_severity).
    pub fn nets_by_severity(&self) -> Vec<(NetId, f64)> {
        let mut v: Vec<(NetId, f64)> = self.worst.iter().map(|(&n, &x)| (n, x)).collect();
        v.sort_by(|a, b| {
            // invariant: tracked voltages come from the noise table, which
            // is finite for finite LSK inputs.
            b.1.partial_cmp(&a.1)
                .expect("finite voltages")
                .then_with(|| a.0.cmp(&b.0))
        });
        v
    }

    /// All violating sinks in `check`'s report order (circuit net order,
    /// then sink order) — for oracle comparison against
    /// [`check`](crate::violations::check)`.sinks`.
    pub fn sink_violations(&self) -> Vec<SinkViolation> {
        self.index
            .sinks
            .iter()
            .zip(&self.values)
            .filter(|(_, &(_, voltage))| voltage > self.vth + 1e-9)
            .map(|(s, &(lsk, voltage))| SinkViolation {
                net: s.net,
                sink: s.sink as usize,
                lsk,
                voltage,
            })
            .collect()
    }

    /// The violation report of the tracked state: bitwise the
    /// [`check`](crate::violations::check) of the same solution (see the
    /// module docs).
    pub fn report(&self) -> ViolationReport {
        ViolationReport::from_parts(self.vth, self.sink_violations(), self.worst.clone())
    }

    /// Debug oracle: the full tracker state must be bit-identical to a
    /// from-scratch [`check`](crate::violations::check) of the current
    /// solution.
    ///
    /// # Panics
    ///
    /// Panics if any cached value diverged.
    pub fn oracle_check(
        &self,
        circuit: &Circuit,
        grid: &RegionGrid,
        routes: &RouteSet,
        sino: &RegionSino,
        table: &NoiseTable,
    ) {
        let report = crate::violations::check(circuit, grid, routes, sino, table, self.vth);
        assert_eq!(
            self.nets_by_severity(),
            report.nets_by_severity(),
            "LskTracker severity diverged from check"
        );
        assert_eq!(
            self.sink_violations(),
            report.sinks,
            "LskTracker sink violations diverged from check"
        );
    }
}

/// Eq. (1) over one sink's terms, in term order.
fn sum_terms(len: &[f64], k: &[f64], (offset, n): (u32, u32)) -> f64 {
    let range = offset as usize..(offset + n) as usize;
    len[range.clone()]
        .iter()
        .zip(&k[range])
        .map(|(l, k)| l * k)
        .sum()
}

/// Pass 1's work queue: the severity map plus a lazy-deletion max-heap
/// replacing the seed pass's O(violating nets) full-map scan per pick.
///
/// Ordering: highest voltage first, ties broken by **ascending net id** —
/// the exact tie-break of the seed pass's `max_by` scan (and of
/// [`ViolationReport::nets_by_severity`]), so both engines pick the same
/// net when voltages are equal. See `severity_ordering` in the module
/// tests.
///
/// Note the queue is *not* ground truth: like the seed pass's severity
/// map, a net dropped via [`SeverityQueue::remove`] (fixed or given up on)
/// stays out until a later region edit touches it again through
/// [`SeverityQueue::set`].
///
/// [`ViolationReport::nets_by_severity`]: crate::violations::ViolationReport::nets_by_severity
#[derive(Debug, Default)]
pub struct SeverityQueue {
    map: HashMap<NetId, f64>,
    heap: BinaryHeap<SeverityEntry>,
}

#[derive(Debug, Clone, Copy)]
struct SeverityEntry {
    voltage: f64,
    net: NetId,
}

impl Ord for SeverityEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // invariant: severity-queue voltages are finite (noise table).
        self.voltage
            .partial_cmp(&other.voltage)
            .expect("finite voltages")
            .then_with(|| other.net.cmp(&self.net))
    }
}

impl PartialOrd for SeverityEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for SeverityEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for SeverityEntry {}

impl SeverityQueue {
    /// Seeds the queue (typically from [`LskTracker::nets_by_severity`]).
    pub fn new(initial: &[(NetId, f64)]) -> Self {
        let mut q = SeverityQueue::default();
        for &(net, voltage) in initial {
            q.set(net, Some(voltage));
        }
        q
    }

    /// Updates one net's severity: `Some` (re-)enqueues it, `None` drops
    /// it — mirroring the seed pass's per-affected-net insert/remove.
    pub fn set(&mut self, net: NetId, worst: Option<f64>) {
        match worst {
            Some(voltage) => {
                self.map.insert(net, voltage);
                self.heap.push(SeverityEntry { voltage, net });
            }
            None => {
                self.map.remove(&net);
            }
        }
    }

    /// Drops a net from the queue (processed, fixed or given up on).
    pub fn remove(&mut self, net: NetId) {
        self.map.remove(&net);
    }

    /// The most severe queued net (highest voltage, then smallest id), or
    /// `None` when the queue is empty. Stale heap entries are discarded
    /// lazily; a returned entry always matches the live map bitwise.
    pub fn pick(&mut self) -> Option<NetId> {
        while let Some(top) = self.heap.peek() {
            match self.map.get(&top.net) {
                Some(v) if v.to_bits() == top.voltage.to_bits() => return Some(top.net),
                _ => {
                    self.heap.pop();
                }
            }
        }
        None
    }

    /// Number of queued nets.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_orders_by_voltage_then_ascending_net_id() {
        let mut q = SeverityQueue::new(&[(7, 0.5), (3, 0.5), (9, 0.75), (1, 0.25)]);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pick(), Some(9));
        q.remove(9);
        // Equal voltages: the smaller net id wins, exactly like
        // `nets_by_severity`'s (desc voltage, asc id) order.
        assert_eq!(q.pick(), Some(3));
        q.remove(3);
        assert_eq!(q.pick(), Some(7));
        q.remove(7);
        assert_eq!(q.pick(), Some(1));
        q.remove(1);
        assert_eq!(q.pick(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn stale_entries_are_skipped_and_reinsertion_works() {
        let mut q = SeverityQueue::new(&[(2, 0.9), (5, 0.4)]);
        // Net 2's severity drops below net 5's: the stale 0.9 entry must
        // not win.
        q.set(2, Some(0.3));
        assert_eq!(q.pick(), Some(5));
        // Dropping and re-adding with the old voltage revalidates the old
        // heap entry — still correct, because it matches the map again.
        q.set(2, None);
        assert_eq!(q.pick(), Some(5));
        q.set(2, Some(0.9));
        assert_eq!(q.pick(), Some(2));
    }
}
