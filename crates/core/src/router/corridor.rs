//! Per-connection corridor graphs.
//!
//! A two-pin connection is routed inside its *corridor*: the rectangle of
//! regions spanned by its two terminals, expanded by a one-region halo
//! (clamped to the grid). The corridor graph contains every edge between
//! adjacent corridor regions; iterative deletion whittles it down to the
//! final path.
//!
//! Alive adjacency is one 4-bit mask per region, a bit per incident edge;
//! [`Corridor::kill`] clears two bits. A traversal walks a region's set
//! bits from V-up through H-right and H-left to V-down, which is
//! descending edge index, the order of the linked arc lists the masks
//! replaced. Keep it: the connectivity analysis's witness paths, and with
//! them the gated repair and recompute counts, follow the visit order.

use gsino_grid::region::{RegionGrid, RegionIdx};
use gsino_grid::route::Dir;

/// Alive-mask bit of a region's edge to its lower (`y - 1`) neighbour.
const DOWN: u8 = 1 << 0;
/// Bit of the edge to the west (`x - 1`) neighbour.
const LEFT: u8 = 1 << 1;
/// Bit of the edge to the east (`x + 1`) neighbour.
const RIGHT: u8 = 1 << 2;
/// Bit of the edge to the upper (`y + 1`) neighbour.
const UP: u8 = 1 << 3;
/// The two bits of a region's horizontal edges, then of its vertical ones.
const DIR_BITS: [u8; 2] = [LEFT | RIGHT, DOWN | UP];

/// Sentinel for "no further arc".
const NO_ARC: i32 = -1;

/// The arc at region `r` through the highest set bit of `bits`, or
/// [`NO_ARC`]. An arc is `4·r + bit`.
#[inline]
fn arc_at(r: u32, bits: u8) -> i32 {
    if bits == 0 {
        NO_ARC
    } else {
        (r << 2 | (7 - bits.leading_zeros())) as i32
    }
}

/// A rectangular region window with its own local indexing.
#[derive(Debug, Clone, PartialEq)]
pub struct Corridor {
    /// Grid x of the corridor's west column.
    x0: u32,
    /// Grid y of the corridor's south row.
    y0: u32,
    /// Width in regions.
    w: u32,
    /// Height in regions.
    h: u32,
    /// Number of alive edges.
    alive_count: usize,
    /// Local indices of the two terminals.
    terminals: (u16, u16),
    /// Bumped by every [`Self::kill`]; connectivity caches stamp their
    /// analyses with this (see [`super::connectivity`]).
    revision: u32,
    /// Per region, one bit per alive incident edge ([`UP`], [`RIGHT`],
    /// [`LEFT`], [`DOWN`]). A traversal from a terminal reads only these
    /// bits, so it touches just the alive edges of its connected
    /// component — this is what makes the connectivity recomputes
    /// component-scoped instead of corridor-scoped.
    alive: Vec<u8>,
}

impl Corridor {
    /// Builds the corridor for terminals `t1`, `t2` with a `halo` of extra
    /// regions on every side.
    pub fn new(grid: &RegionGrid, t1: RegionIdx, t2: RegionIdx, halo: u32) -> Self {
        let (x1, y1) = grid.coords(t1);
        let (x2, y2) = grid.coords(t2);
        let x0 = x1.min(x2).saturating_sub(halo);
        let y0 = y1.min(y2).saturating_sub(halo);
        let xmax = (x1.max(x2) + halo).min(grid.nx() - 1);
        let ymax = (y1.max(y2) + halo).min(grid.ny() - 1);
        let w = xmax - x0 + 1;
        let h = ymax - y0 + 1;
        let mut alive = vec![0u8; (w * h) as usize];
        for ly in 0..h {
            for lx in 0..w {
                let a = (ly * w + lx) as usize;
                if lx + 1 < w {
                    alive[a] |= RIGHT;
                    alive[a + 1] |= LEFT;
                }
                if ly + 1 < h {
                    alive[a] |= UP;
                    alive[a + w as usize] |= DOWN;
                }
            }
        }
        let alive_count = ((w - 1) * h + w * (h - 1)) as usize;
        let lt1 = ((y1 - y0) * w + (x1 - x0)) as u16;
        let lt2 = ((y2 - y0) * w + (x2 - x0)) as u16;
        Corridor {
            x0,
            y0,
            w,
            h,
            alive_count,
            terminals: (lt1, lt2),
            revision: 0,
            alive,
        }
    }

    /// Number of regions in the corridor.
    pub fn num_regions(&self) -> usize {
        (self.w * self.h) as usize
    }

    /// Number of edges (alive or dead): `w - 1` H edges per row and `w`
    /// V edges per row but the top one.
    pub fn num_edges(&self) -> usize {
        ((self.w - 1) * self.h + self.w * (self.h - 1)) as usize
    }

    /// Number of alive edges.
    pub fn alive_edges(&self) -> usize {
        self.alive_count
    }

    /// The local terminal indices.
    pub fn terminals(&self) -> (u16, u16) {
        self.terminals
    }

    /// Edge `e` as `(local a, local b, dir)`, `a < b`. Edges are numbered
    /// row by row from the south: each region's H edge (to `a + 1`, if it
    /// has one), then its V edge (to `a + w`, if it has one). Every row
    /// but the top one thus holds `2w - 1` edges, and the top row only
    /// its `w - 1` H edges.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn edge(&self, e: usize) -> (u16, u16, Dir) {
        assert!(e < self.num_edges(), "edge {e} out of range");
        let e = e as u32;
        let per_row = 2 * self.w - 1;
        let ly = e / per_row;
        let o = e - ly * per_row;
        let (lx, dir) = if ly + 1 == self.h {
            (o, Dir::H)
        } else if o % 2 == 0 && o / 2 + 1 < self.w {
            (o / 2, Dir::H)
        } else {
            (o / 2, Dir::V)
        };
        let a = ly * self.w + lx;
        let b = match dir {
            Dir::H => a + 1,
            Dir::V => a + self.w,
        };
        (a as u16, b as u16, dir)
    }

    /// The mask bits an edge of direction `dir` sets at its endpoints `a`
    /// (the lower index) and `b`.
    #[inline]
    fn bits(dir: Dir) -> (u8, u8) {
        match dir {
            Dir::H => (RIGHT, LEFT),
            Dir::V => (UP, DOWN),
        }
    }

    /// Whether edge `e` is alive.
    pub fn is_alive(&self, e: usize) -> bool {
        let (a, _, dir) = self.edge(e);
        self.alive[a as usize] & Self::bits(dir).0 != 0
    }

    /// Whether local region `r` still has an alive edge in direction `d`
    /// (0 = H, 1 = V).
    #[inline]
    pub(crate) fn has_alive(&self, r: u16, d: usize) -> bool {
        self.alive[r as usize] & DIR_BITS[d] != 0
    }

    /// Kills edge `e` (idempotent): clears its bit at both endpoints and
    /// bumps the revision.
    pub fn kill(&mut self, e: usize) {
        let (a, b, dir) = self.edge(e);
        let (bit_a, bit_b) = Self::bits(dir);
        if self.alive[a as usize] & bit_a != 0 {
            self.alive[a as usize] &= !bit_a;
            self.alive[b as usize] &= !bit_b;
            self.alive_count -= 1;
            self.revision += 1;
        }
    }

    /// First alive arc anchored at region `r` (`-1` = none). Arcs walk the
    /// *alive* adjacency only, in descending edge index: a traversal from
    /// a terminal is bounded by that terminal's connected component, not
    /// the corridor.
    #[inline]
    pub fn first_arc(&self, r: u16) -> i32 {
        arc_at(u32::from(r), self.alive[r as usize])
    }

    /// Next alive arc after `arc` at the same region (`-1` = end).
    #[inline]
    pub fn next_arc(&self, arc: i32) -> i32 {
        let r = (arc >> 2) as u32;
        let below = (1u8 << (arc & 3)) - 1;
        arc_at(r, self.alive[r as usize] & below)
    }

    /// The edge an arc belongs to.
    #[inline]
    pub fn arc_edge(&self, arc: i32) -> usize {
        let r = (arc >> 2) as u32;
        match 1u8 << (arc & 3) {
            UP => self.up_edge(r),
            RIGHT => self.right_edge(r),
            LEFT => self.right_edge(r - 1),
            _ => self.up_edge(r - self.w),
        }
    }

    /// The region an arc points *to* (the far endpoint of its edge).
    #[inline]
    pub fn arc_to(&self, arc: i32) -> u16 {
        let r = (arc >> 2) as u32;
        (match 1u8 << (arc & 3) {
            UP => r + self.w,
            RIGHT => r + 1,
            LEFT => r - 1,
            _ => r - self.w,
        }) as u16
    }

    /// Index of the H edge from local region `r` to `r + 1`. Every row
    /// but the top one holds `w - 1` H and `w` V edges, interleaved per
    /// region; the top row holds H edges only.
    #[inline]
    fn right_edge(&self, r: u32) -> usize {
        let ly = r / self.w;
        (if ly + 1 < self.h {
            2 * r - ly
        } else {
            r + (self.h - 1) * (self.w - 1)
        }) as usize
    }

    /// Index of the V edge from local region `r` to `r + w`: right after
    /// `r`'s H edge, if it has one.
    #[inline]
    fn up_edge(&self, r: u32) -> usize {
        let ly = r / self.w;
        let lx = r - ly * self.w;
        (2 * r - ly + u32::from(lx + 1 < self.w)) as usize
    }

    /// Deletion revision: bumped once per effective [`Self::kill`].
    ///
    /// [`super::connectivity::BridgeCache`] stamps its bridge analysis with
    /// this counter and recomputes lazily when it drifts.
    pub fn revision(&self) -> u32 {
        self.revision
    }

    /// Converts a local region index to the global [`RegionIdx`].
    pub fn global(&self, grid: &RegionGrid, local: u16) -> RegionIdx {
        let lx = local as u32 % self.w;
        let ly = local as u32 / self.w;
        grid.idx(self.x0 + lx, self.y0 + ly)
    }

    /// Converts a global region inside the corridor to its local index
    /// (the inverse of [`Self::global`]).
    pub(crate) fn local(&self, grid: &RegionGrid, global: RegionIdx) -> u16 {
        let (x, y) = grid.coords(global);
        ((y - self.y0) * self.w + (x - self.x0)) as u16
    }

    /// Whether the two terminals stay connected if edge `skip` were dead.
    /// BFS over alive edges; `scratch` buffers are reused across calls.
    ///
    /// This is the reference oracle (used by the PR-1 kernel preserved in
    /// [`super::reference`] and by the equivalence suites); the production
    /// ID router answers the same question incrementally through
    /// [`super::connectivity::BridgeCache`]. The question is strictly about
    /// the *terminal pair*: once the terminals are disconnected the answer
    /// is `false` for every `skip` — including a `skip` that is the only
    /// edge touching an isolated region, which changes nothing about the
    /// pair's reachability.
    pub fn connected_without(&self, skip: usize, scratch: &mut CorridorScratch) -> bool {
        let (t1, t2) = self.terminals;
        if t1 == t2 {
            return true;
        }
        scratch.prepare(self.num_regions(), self.num_edges());
        // Build an adjacency pass on the fly: iterate edges once and record
        // neighbour lists in the scratch CSR-ish structure.
        for e in 0..self.num_edges() {
            let (a, b, dir) = self.edge(e);
            if e != skip && self.alive[a as usize] & Self::bits(dir).0 != 0 {
                scratch.push_adj(a, b);
                scratch.push_adj(b, a);
            }
        }
        scratch.bfs(t1, t2)
    }
}

/// Reusable BFS buffers for [`Corridor::connected_without`].
///
/// All per-call state is epoch-stamped the same way the router's
/// `SearchScratch` is: a `visited`/`adj_head` entry is live only when its
/// stamp matches the current epoch, so starting a new connectivity query
/// is an O(1) counter bump instead of an O(regions) clear. One scratch is
/// shared across every corridor of an ID run.
#[derive(Debug, Default)]
pub struct CorridorScratch {
    epoch: u32,
    adj_head: Vec<i32>,
    adj_stamp: Vec<u32>,
    adj_next: Vec<i32>,
    adj_to: Vec<u16>,
    adj_len: usize,
    visited: Vec<u32>,
    queue: Vec<u16>,
}

impl CorridorScratch {
    /// Creates empty scratch space.
    pub fn new() -> Self {
        CorridorScratch::default()
    }

    fn prepare(&mut self, regions: usize, edges: usize) {
        if self.adj_head.len() < regions {
            self.adj_head.resize(regions, -1);
            self.adj_stamp.resize(regions, 0);
            self.visited.resize(regions, 0);
        }
        let cap = edges * 2;
        if self.adj_next.len() < cap {
            self.adj_next.resize(cap, -1);
            self.adj_to.resize(cap, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.adj_stamp.fill(0);
            self.visited.fill(0);
            self.epoch = 1;
        }
        self.adj_len = 0;
        self.queue.clear();
    }

    #[inline]
    fn head_of(&self, r: u16) -> i32 {
        if self.adj_stamp[r as usize] == self.epoch {
            self.adj_head[r as usize]
        } else {
            -1
        }
    }

    fn push_adj(&mut self, from: u16, to: u16) {
        let slot = self.adj_len;
        self.adj_len += 1;
        self.adj_to[slot] = to;
        self.adj_next[slot] = self.head_of(from);
        self.adj_head[from as usize] = slot as i32;
        self.adj_stamp[from as usize] = self.epoch;
    }

    fn bfs(&mut self, from: u16, to: u16) -> bool {
        self.visited[from as usize] = self.epoch;
        self.queue.push(from);
        let mut head = 0;
        while head < self.queue.len() {
            let r = self.queue[head];
            head += 1;
            if r == to {
                return true;
            }
            let mut slot = self.head_of(r);
            while slot >= 0 {
                let n = self.adj_to[slot as usize];
                if self.visited[n as usize] != self.epoch {
                    self.visited[n as usize] = self.epoch;
                    self.queue.push(n);
                }
                slot = self.adj_next[slot as usize];
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsino_grid::geom::{Point, Rect};
    use gsino_grid::tech::Technology;

    fn grid() -> RegionGrid {
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(640.0, 640.0)).unwrap();
        RegionGrid::from_die(die, &Technology::itrs_100nm(), 64.0).unwrap()
    }

    #[test]
    fn corridor_covers_bbox_plus_halo() {
        let g = grid();
        let c = Corridor::new(&g, g.idx(2, 2), g.idx(5, 4), 1);
        // bbox 4x3 regions, +1 halo each side → 6x5.
        assert_eq!(c.num_regions(), 30);
        // Edge count: H: 5*5, V: 6*4.
        assert_eq!(c.num_edges(), 49);
        assert_eq!(c.alive_edges(), 49);
    }

    #[test]
    fn halo_clamps_at_grid_border() {
        let g = grid();
        let c = Corridor::new(&g, g.idx(0, 0), g.idx(1, 0), 1);
        // x: 0..=2 (clamped west), y: 0..=1 → 3x2 regions.
        assert_eq!(c.num_regions(), 6);
    }

    #[test]
    fn terminals_map_to_globals() {
        let g = grid();
        let c = Corridor::new(&g, g.idx(2, 2), g.idx(5, 4), 1);
        let (t1, t2) = c.terminals();
        assert_eq!(c.global(&g, t1), g.idx(2, 2));
        assert_eq!(c.global(&g, t2), g.idx(5, 4));
    }

    #[test]
    fn connectivity_with_deletions() {
        let g = grid();
        let mut c = Corridor::new(&g, g.idx(0, 0), g.idx(1, 0), 0);
        // Corridor is 2x1: a single H edge between the terminals.
        assert_eq!(c.num_edges(), 1);
        let mut scratch = CorridorScratch::new();
        assert!(
            !c.connected_without(0, &mut scratch),
            "only edge is a bridge"
        );
        c.kill(0);
        assert_eq!(c.alive_edges(), 0);
    }

    #[test]
    fn redundant_paths_allow_deletion() {
        let g = grid();
        let c = Corridor::new(&g, g.idx(0, 0), g.idx(1, 1), 0);
        // 2x2 corridor: 4 edges forming a cycle; any single edge removable.
        assert_eq!(c.num_edges(), 4);
        let mut scratch = CorridorScratch::new();
        for e in 0..4 {
            assert!(c.connected_without(e, &mut scratch), "edge {e}");
        }
    }

    #[test]
    fn kill_is_idempotent() {
        let g = grid();
        let mut c = Corridor::new(&g, g.idx(0, 0), g.idx(2, 0), 0);
        let before = c.alive_edges();
        c.kill(0);
        c.kill(0);
        assert_eq!(c.alive_edges(), before - 1);
        assert!(!c.is_alive(0));
    }

    #[test]
    fn same_region_terminals() {
        let g = grid();
        let c = Corridor::new(&g, g.idx(3, 3), g.idx(3, 3), 0);
        assert_eq!(c.num_regions(), 1);
        assert_eq!(c.num_edges(), 0);
        let (t1, t2) = c.terminals();
        assert_eq!(t1, t2);
    }

    #[test]
    fn revision_counts_effective_kills_only() {
        let g = grid();
        let mut c = Corridor::new(&g, g.idx(0, 0), g.idx(2, 0), 0);
        assert_eq!(c.revision(), 0);
        c.kill(0);
        c.kill(0); // idempotent: no second bump
        assert_eq!(c.revision(), 1);
        c.kill(1);
        assert_eq!(c.revision(), 2);
    }

    /// Regression: an already-disconnected terminal pair must report
    /// `false` for *every* `skip`, including when `skip` is the only edge
    /// touching an isolated region (a naive "is `skip` a separating
    /// bridge?" rewrite answers `true` here, because `skip` separates
    /// nothing that is not already separated).
    #[test]
    fn disconnected_corridor_is_never_connected_without() {
        let g = grid();
        // 3x1 corridor: regions 0 -e0- 1 -e1- 2, terminals at the ends.
        let mut c = Corridor::new(&g, g.idx(0, 0), g.idx(2, 0), 0);
        assert_eq!(c.num_edges(), 2);
        let mut scratch = CorridorScratch::new();
        c.kill(1);
        // Region 2 (terminal t2) is now isolated; e1 is the only edge that
        // touched it and it is dead.
        for skip in 0..2 {
            assert!(
                !c.connected_without(skip, &mut scratch),
                "skip {skip} on a disconnected pair must be false"
            );
        }
        // Same shape with the isolated region off the terminal path: pair
        // stays connected, the dead edge changes nothing.
        let mut c2 = Corridor::new(&g, g.idx(0, 0), g.idx(1, 0), 0);
        assert_eq!(c2.num_edges(), 1);
        assert!(
            !c2.connected_without(0, &mut scratch),
            "only edge is a bridge"
        );
        c2.kill(0);
        assert!(!c2.connected_without(0, &mut scratch));
    }

    /// Edges are numbered row-major, each region's H edge before its V
    /// edge, and the mask walk visits each region's alive edges in
    /// descending edge index — the order of the prepended arc lists it
    /// replaced — with each arc pointing across its own edge, on every
    /// corridor shape from one region up, before and after kills.
    #[test]
    fn mask_walk_visits_alive_edges_in_descending_index() {
        let g = grid();
        let walk = |c: &Corridor, r: u16| {
            let mut arcs = Vec::new();
            let mut arc = c.first_arc(r);
            while arc >= 0 {
                arcs.push((c.arc_edge(arc), c.arc_to(arc)));
                arc = c.next_arc(arc);
            }
            arcs
        };
        let check = |c: &Corridor| {
            for r in 0..c.num_regions() as u16 {
                let expected: Vec<(usize, u16)> = (0..c.num_edges())
                    .rev()
                    .filter(|&e| c.is_alive(e))
                    .filter_map(|e| match c.edge(e) {
                        (a, b, _) if a == r => Some((e, b)),
                        (a, b, _) if b == r => Some((e, a)),
                        _ => None,
                    })
                    .collect();
                assert_eq!(walk(c, r), expected, "region {r}");
            }
        };
        for w in 1..=4 {
            for h in 1..=4 {
                let mut c = Corridor::new(&g, g.idx(2, 2), g.idx(1 + w, 1 + h), 0);
                assert_eq!(c.num_regions() as u32, w * h);
                let mut layout = Vec::new();
                for a in 0..(w * h) as u16 {
                    if u32::from(a) % w + 1 < w {
                        layout.push((a, a + 1, Dir::H));
                    }
                    if u32::from(a) / w + 1 < h {
                        layout.push((a, a + w as u16, Dir::V));
                    }
                }
                let edges: Vec<_> = (0..c.num_edges()).map(|e| c.edge(e)).collect();
                assert_eq!(edges, layout, "{w}x{h}");
                check(&c);
                let mut state = u64::from(w * 7 + h);
                for _ in 0..c.num_edges() / 2 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    c.kill((state >> 33) as usize % c.num_edges());
                    check(&c);
                }
            }
        }
    }

    /// The arc walk enumerates exactly the alive incident edges and sheds
    /// killed edges in O(1).
    #[test]
    fn arc_lists_track_alive_incidence() {
        let g = grid();
        let mut c = Corridor::new(&g, g.idx(0, 0), g.idx(1, 1), 0);
        let walk = |c: &Corridor, r: u16| {
            let mut edges = Vec::new();
            let mut arc = c.first_arc(r);
            while arc >= 0 {
                edges.push(c.arc_edge(arc));
                assert_ne!(c.arc_to(arc), r, "arc points to the far endpoint");
                arc = c.next_arc(arc);
            }
            edges.sort_unstable();
            edges
        };
        // Local region 0 (corner) touches one H and one V edge.
        let before = walk(&c, 0);
        assert_eq!(before.len(), 2);
        c.kill(before[0]);
        let after = walk(&c, 0);
        assert_eq!(after, vec![before[1]]);
        c.kill(before[1]);
        assert!(walk(&c, 0).is_empty());
    }
}
