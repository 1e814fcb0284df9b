//! Reusable, allocation-free search state for the routing hot paths.
//!
//! Routing grids are small dense index spaces (`RegionIdx` is `cy·nx+cx`),
//! so every per-search map the seed implementation kept in a `HashMap` is
//! held here as a flat array indexed by region, stamped with a search
//! *epoch*: an entry is live only if its stamp equals the current epoch,
//! which makes resetting the whole scratch an O(1) counter bump instead of
//! an O(regions) clear.
//!
//! The same epoch-stamping idiom recurs across the routing core: BFS
//! adjacency in [`super::CorridorScratch`] and the Tarjan/BFS buffers of
//! [`super::connectivity::ConnectivityScratch`] reset the same way, so any
//! of them can be reused across corridors and circuits of any size.
//!
//! The open list is a *monotone bucket heap*: entries are binned by
//! quantized f-cost, and because the Manhattan-center heuristic is
//! consistent (every step costs at least its length term), popped f-costs
//! never decrease, so the bucket cursor only moves forward. Each bucket
//! stores exact `(f, region)` pairs and pops the minimum by scan, so the
//! pop order is *identical* to a comparison heap ordered by
//! `(f, region)` — the property that keeps this implementation
//! byte-for-byte compatible with the seed `BinaryHeap` router (see
//! `router::reference` and the `router_equivalence` suite).

use gsino_grid::region::RegionIdx;

/// Quantized f-cost range of the bucket heap; costlier entries share the
/// last bucket (still exactly ordered — see [`SearchScratch`] internals).
const MAX_BUCKETS: usize = 4096;

/// The search could not reach the target (exhausted the open list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unreachable;

/// Counters one search leaves behind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// Heap entries skipped because their region was already expanded
    /// (closed-set / stale-entry skips).
    pub stale_skips: usize,
    /// Regions expanded.
    pub expansions: usize,
}

/// Flat-array A* state, reusable across searches and circuits.
///
/// One scratch serves any number of sequential searches. Arrays grow on
/// demand, so a scratch built for one grid can be reused on a larger one.
#[derive(Debug, Default)]
pub struct SearchScratch {
    epoch: u32,
    /// Stamp for `g`/`prev` validity.
    stamp: Vec<u32>,
    /// Best known cost from the source.
    g: Vec<f64>,
    /// Predecessor on the best known path.
    prev: Vec<RegionIdx>,
    /// Stamp marking regions already expanded (closed set).
    closed: Vec<u32>,
    /// Bucket heap: `(exact f, region)` binned by `floor(f / width)`,
    /// clamped into the last (overflow) bucket past [`MAX_BUCKETS`].
    buckets: Vec<Vec<(f64, RegionIdx)>>,
    /// First possibly non-empty bucket.
    cursor: usize,
    /// Buckets that received entries this search (bounds the
    /// end-of-search sweep to what was actually touched).
    used: Vec<u32>,
    /// Bucket quantum (µm-equivalent cost units).
    width: f64,
    /// Reconstructed path, reused between searches.
    path: Vec<RegionIdx>,
    /// Counters accumulated across searches (reset by the caller).
    pub counters: SearchCounters,
}

impl SearchScratch {
    /// Creates an empty scratch with a default bucket quantum.
    pub fn new() -> Self {
        SearchScratch {
            width: 1.0,
            ..Default::default()
        }
    }

    /// Creates a scratch whose bucket quantum matches the smallest step
    /// cost of the grid (`alpha · min(tile_w, tile_h)`), so each bucket
    /// holds roughly one wavefront ring.
    pub fn with_bucket_width(width: f64) -> Self {
        let width = if width.is_finite() && width > 0.0 {
            width
        } else {
            1.0
        };
        SearchScratch {
            width,
            ..Default::default()
        }
    }

    /// Grows the flat arrays to cover `n` regions.
    fn ensure(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.g.resize(n, 0.0);
            self.prev.resize(n, 0);
            self.closed.resize(n, 0);
        }
    }

    /// Starts a new search epoch; O(1) unless the u32 epoch wraps.
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One clear every 2^32 searches keeps stamps unambiguous.
            self.stamp.fill(0);
            self.closed.fill(0);
            self.epoch = 1;
        }
        // Drain only the buckets this search actually touched; a heavily
        // congested search can spread f-costs across a huge range, and
        // sweeping the whole bucket array per search would dwarf the
        // search itself.
        while let Some(b) = self.used.pop() {
            self.buckets[b as usize].clear();
        }
        self.cursor = 0;
    }

    #[inline]
    fn push(&mut self, f: f64, region: RegionIdx) {
        // Entries past the quantized range share the last bucket; every
        // bucket is an exact (f, region) min-heap, so ordering stays
        // exact — the overflow bucket just degrades to plain heap cost.
        let b = ((f / self.width) as usize).min(MAX_BUCKETS - 1);
        if b >= self.buckets.len() {
            self.buckets.resize_with(b + 1, Vec::new);
        }
        if self.buckets[b].is_empty() {
            self.used.push(b as u32);
        }
        bucket_sift_up(&mut self.buckets[b], (f, region));
        // A consistent heuristic keeps pops monotone, but floating-point
        // slack is cheap to tolerate: step the cursor back if needed.
        if b < self.cursor {
            self.cursor = b;
        }
    }

    /// Pops the entry with the globally smallest `(f, region)`.
    ///
    /// Buckets partition f-space into disjoint ascending intervals, so the
    /// heap-minimum of the first non-empty bucket is the global minimum —
    /// exactly the order a `BinaryHeap<(f, region)>` min-heap would pop.
    /// Each bucket is itself a small binary min-heap: an exact Manhattan
    /// heuristic on a uniform grid makes every node of the shortest-path
    /// plateau share one f value (one bucket), so the within-bucket
    /// structure has to pop in O(log n), not by scan.
    #[inline]
    fn pop(&mut self) -> Option<(f64, RegionIdx)> {
        while self.cursor < self.buckets.len() {
            let bucket = &mut self.buckets[self.cursor];
            if bucket.is_empty() {
                self.cursor += 1;
                continue;
            }
            return Some(bucket_pop_min(bucket));
        }
        None
    }

    /// Congestion-aware A* from `from` to `to` over a dense region graph.
    ///
    /// `neighbors(r)` yields up to four adjacent regions (west, east,
    /// south, north — the [`gsino_grid::region::RegionGrid::neighbor_array`]
    /// order); `step_cost(a, b)` prices crossing one boundary;
    /// `heuristic(r)` is an admissible, consistent estimate to `to`.
    ///
    /// Semantics match the seed implementation exactly: relaxation uses a
    /// `1e-12` improvement margin, the pop order is `(f, region)`, and the
    /// search stops the first time `to` pops. The closed-set skip is new
    /// but invisible in the output: a re-expanded region would relax with
    /// the same best-known `g`, so every one of its updates is a no-op.
    ///
    /// # Errors
    ///
    /// [`Unreachable`] if the open list drains before `to` pops.
    pub fn astar<N, C, H>(
        &mut self,
        num_regions: usize,
        from: RegionIdx,
        to: RegionIdx,
        neighbors: N,
        step_cost: C,
        heuristic: H,
    ) -> Result<&[RegionIdx], Unreachable>
    where
        N: Fn(RegionIdx) -> [Option<RegionIdx>; 4],
        C: Fn(RegionIdx, RegionIdx) -> f64,
        H: Fn(RegionIdx) -> f64,
    {
        // Region counts are guaranteed to fit u32 by the checked
        // `RegionGrid` constructors; the cast in the unreachable check
        // below relies on it.
        debug_assert!(num_regions <= u32::MAX as usize);
        self.ensure(num_regions);
        self.next_epoch();
        let epoch = self.epoch;
        self.stamp[from as usize] = epoch;
        self.g[from as usize] = 0.0;
        self.prev[from as usize] = from;
        self.push(heuristic(from), from);
        let mut reached = false;
        while let Some((_, region)) = self.pop() {
            if region == to {
                reached = true;
                break;
            }
            if self.closed[region as usize] == epoch {
                self.counters.stale_skips += 1;
                continue;
            }
            self.closed[region as usize] = epoch;
            self.counters.expansions += 1;
            let g_here = self.g[region as usize];
            for n in neighbors(region).into_iter().flatten() {
                let tentative = g_here + step_cost(region, n);
                let ni = n as usize;
                if self.stamp[ni] != epoch || tentative < self.g[ni] - 1e-12 {
                    self.stamp[ni] = epoch;
                    self.g[ni] = tentative;
                    self.prev[ni] = region;
                    self.push(tentative + heuristic(n), n);
                }
            }
        }
        if !reached && (to >= num_regions as u32 || self.stamp[to as usize] != epoch) {
            return Err(Unreachable);
        }
        self.path.clear();
        let mut cur = to;
        self.path.push(cur);
        while cur != from {
            cur = self.prev[cur as usize];
            self.path.push(cur);
        }
        self.path.reverse();
        Ok(&self.path)
    }
}

/// Min-heap ordering on `(f, region)` — smaller f first, region breaks
/// ties, matching the seed `BinaryHeap`'s reversed `OpenEntry` order.
#[inline]
fn entry_less(a: (f64, RegionIdx), b: (f64, RegionIdx)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Pushes onto a vec-backed binary min-heap.
#[inline]
fn bucket_sift_up(bucket: &mut Vec<(f64, RegionIdx)>, e: (f64, RegionIdx)) {
    bucket.push(e);
    let mut i = bucket.len() - 1;
    while i > 0 {
        let p = (i - 1) / 2;
        if entry_less(bucket[i], bucket[p]) {
            bucket.swap(i, p);
            i = p;
        } else {
            break;
        }
    }
}

/// Pops the minimum from a vec-backed binary min-heap.
#[inline]
fn bucket_pop_min(bucket: &mut Vec<(f64, RegionIdx)>) -> (f64, RegionIdx) {
    let min = bucket.swap_remove(0);
    let len = bucket.len();
    let mut i = 0;
    loop {
        let l = 2 * i + 1;
        if l >= len {
            break;
        }
        let r = l + 1;
        let smallest = if r < len && entry_less(bucket[r], bucket[l]) {
            r
        } else {
            l
        };
        if entry_less(bucket[smallest], bucket[i]) {
            bucket.swap(i, smallest);
            i = smallest;
        } else {
            break;
        }
    }
    min
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-D line graph of `n` regions with unit step cost.
    fn line_neighbors(n: u32) -> impl Fn(RegionIdx) -> [Option<RegionIdx>; 4] {
        move |r| {
            [
                (r > 0).then(|| r - 1),
                (r + 1 < n).then(|| r + 1),
                None,
                None,
            ]
        }
    }

    #[test]
    fn finds_shortest_line_path() {
        let mut s = SearchScratch::new();
        let path = s
            .astar(
                8,
                1,
                6,
                line_neighbors(8),
                |_, _| 1.0,
                |r| (6i64 - r as i64).abs() as f64,
            )
            .unwrap();
        assert_eq!(path, &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn unreachable_target_is_an_error_not_a_panic() {
        let mut s = SearchScratch::new();
        // No neighbors at all: the open list drains immediately.
        let r = s.astar(4, 0, 3, |_| [None; 4], |_, _| 1.0, |_| 0.0);
        assert_eq!(r, Err(Unreachable));
    }

    #[test]
    fn trivial_same_region_search() {
        let mut s = SearchScratch::new();
        let path = s
            .astar(4, 2, 2, line_neighbors(4), |_, _| 1.0, |_| 0.0)
            .unwrap();
        assert_eq!(path, &[2]);
    }

    #[test]
    fn epoch_reset_isolates_consecutive_searches() {
        let mut s = SearchScratch::new();
        for _ in 0..100 {
            let p1 = s
                .astar(8, 0, 7, line_neighbors(8), |_, _| 1.0, |_| 0.0)
                .unwrap()
                .to_vec();
            assert_eq!(p1, vec![0, 1, 2, 3, 4, 5, 6, 7]);
            let p2 = s
                .astar(8, 7, 0, line_neighbors(8), |_, _| 1.0, |_| 0.0)
                .unwrap()
                .to_vec();
            assert_eq!(p2, vec![7, 6, 5, 4, 3, 2, 1, 0]);
        }
    }

    #[test]
    fn stale_entries_are_skipped_and_counted() {
        // A diamond where the direct edge is expensive: region 1 gets
        // queued twice (once relaxed worse, once better), so one stale
        // entry must be skipped.
        let neighbors = |r: RegionIdx| -> [Option<RegionIdx>; 4] {
            match r {
                0 => [Some(1), Some(2), None, None],
                1 => [Some(0), Some(3), None, None],
                2 => [Some(0), Some(1), None, None],
                3 => [Some(1), None, None, None],
                _ => [None; 4],
            }
        };
        let cost = |a: RegionIdx, b: RegionIdx| match (a, b) {
            (0, 1) | (1, 0) => 10.0,
            (2, 1) | (1, 2) => 1.0,
            // The goal edge is costly, so region 1's stale first entry
            // (f = 10) pops before the goal (f = 22) and must be skipped.
            (1, 3) | (3, 1) => 20.0,
            _ => 1.0,
        };
        let mut s = SearchScratch::new();
        let path = s.astar(4, 0, 3, neighbors, cost, |_| 0.0).unwrap().to_vec();
        assert_eq!(path, vec![0, 2, 1, 3]);
        assert!(s.counters.stale_skips >= 1);
    }

    #[test]
    fn bucket_order_matches_total_order() {
        // Entries pushed across buckets in scrambled order must pop in
        // ascending (f, region) order.
        let mut s = SearchScratch::with_bucket_width(2.0);
        s.ensure(16);
        s.next_epoch();
        let entries = [
            (7.5, 3u32),
            (0.5, 9),
            (7.5, 1),
            (2.0, 4),
            (0.5, 2),
            (13.0, 0),
        ];
        for (f, r) in entries {
            s.push(f, r);
        }
        let mut popped = Vec::new();
        while let Some(e) = s.pop() {
            popped.push(e);
        }
        let mut sorted = entries.to_vec();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        assert_eq!(popped, sorted);
    }
}
