//! The iterative-deletion main loop (paper Fig. 1).
//!
//! The inner loop answers "do the terminals survive this deletion?"
//! through the incremental bridge analysis of [`super::connectivity`]
//! (O(1) for almost every query: one component-scoped Tarjan pass per
//! corridor plus localized witness-path repairs) instead of the PR-1
//! per-query BFS, and folds the two whole-corridor demand sweeps of a
//! deletion into one. Both changes are observationally invisible: the
//! route sets stay byte-identical to the preserved PR-1 kernel
//! ([`super::reference::SeedIdRouter`], enforced by the
//! `router_equivalence` suite and the `phase_runtime` bench).
//!
//! The loop's state is flat: every corridor edge has a global id (its
//! connection's first id plus the local edge, so ids ascend with
//! `(connection, edge)`), one `EdgeRec` of static terms and one
//! dead-or-kept byte per id, and demand is one interleaved array of cells
//! `2·region + dir`. A heap key is 12 bytes, `(w, gid)`, in the seed
//! kernel's `(w, conn, edge)` order.
//!
//! The deletion heap is lazy: an entry whose edge was already deleted or
//! kept (a *dead entry*) stays queued, and popping it does nothing —
//! except as a refresh's *trigger pop*, the first pop after the refresh's
//! deletion count is reached. The seed loop refreshes right after that
//! pop and processes the entry afterwards, so a dead trigger pop means
//! the live top entry is weighed after the refresh instead of before it.
//! `DeletionHeap` moves dead entries' keys to a side list whenever it
//! rebuilds itself (at every refresh, and between refreshes once they
//! make up a quarter of the heap), so live pops stop paying for them, and
//! keeps every trigger pop exact with one rule. Between refreshes popped
//! keys only fall, since a re-queued entry is lighter than the pop that
//! re-queued it. So at a trigger the unpurged heap still holds exactly
//! the side keys not above the last key popped since the last refresh:
//! it popped the others on the way down. Its trigger pop is the larger of
//! the largest such side key and the heap top, in the same order; a side
//! key is a dead trigger pop, taken from the side list without popping
//! the heap. [`RouterStats::heap_pops`] counts the pops that remain.

use super::assemble::assemble_trees;
use super::connectivity::{BridgeCache, ConnectivityScratch};
use super::corridor::Corridor;
use super::{ShieldTerm, Weights};
use crate::cancel::CancelToken;
use crate::Result;
use gsino_grid::net::{Circuit, NetId};
use gsino_grid::region::{RegionGrid, RegionIdx};
use gsino_grid::route::{Dir, GridEdge, RouteSet};
use gsino_steiner::decompose::{decompose_net, Connection};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Manhattan distance between two regions in tile steps.
fn t1x_diff(grid: &RegionGrid, a: RegionIdx, b: RegionIdx) -> u32 {
    let (ax, ay) = grid.coords(a);
    let (bx, by) = grid.coords(b);
    ax.abs_diff(bx) + ay.abs_diff(by)
}

/// Counters describing one routing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Two-pin connections after Steiner decomposition.
    pub connections: usize,
    /// Corridor edges before any deletion.
    pub edges_initial: usize,
    /// Edges deleted.
    pub deletions: usize,
    /// Edges kept because they were terminal bridges.
    pub kept: usize,
    /// Stale heap entries that were re-inserted with a fresh weight.
    pub reinserts: usize,
    /// Entries popped from the deletion heap, dead ones included (ID
    /// router only).
    pub heap_pops: usize,
    /// A* pop-loop entries skipped because their region was already
    /// expanded (closed-set / stale-entry skips; A* router only).
    pub stale_skips: usize,
    /// Connectivity queries answered in O(1) — from a revision-fresh
    /// bridge set, a monotone verdict, or through the intact witness path
    /// (ID router only).
    pub connectivity_o1_hits: usize,
    /// Localized stale-query resolutions: a component-scoped BFS repaired
    /// the witness path (healing any burst of breaks at once) or proved
    /// the queried edge separating, without recomputing the bridge
    /// analysis (ID router only).
    pub connectivity_repairs: usize,
    /// Full component-scoped Tarjan bridge recomputes (ID router only).
    pub connectivity_recomputes: usize,
}

/// One two-pin connection's routing state. Its edges' static terms and
/// dead flags live in the run's flat per-edge tables, at global ids
/// `gid0 ..= gid0 + corridor.num_edges() - 1`.
struct ConnState {
    net: NetId,
    corridor: Corridor,
    /// Global id of the corridor's edge 0.
    gid0: u32,
    /// Minimum edges the final path needs (Manhattan distance in tiles).
    needed_edges: f64,
    /// Cached bridge analysis of the corridor.
    cache: BridgeCache,
    /// Compact list of the flat demand cells (`2·region + dir`) this
    /// connection has presence in, so demand sweeps touch exactly the
    /// cells that carry demand instead of scanning the whole corridor.
    /// Shrinks as the corridor thins.
    active: Vec<u32>,
    /// Index of each (local region, direction) cell in `active`
    /// (`u32::MAX` = absent).
    active_pos: Vec<[u32; 2]>,
}

/// `active_pos` sentinel for a cell that carries no presence.
const NO_CELL: u32 = u32::MAX;

impl ConnState {
    /// Cong–Preas-style probabilistic demand: the fraction of this
    /// connection's presence expected to survive, `needed / alive`. Starts
    /// small while the corridor is full of slack and converges to 1 as the
    /// graph shrinks to the final path.
    fn phi(&self) -> f64 {
        let alive = self.corridor.alive_edges();
        if alive == 0 {
            return 1.0;
        }
        (self.needed_edges / alive as f64).min(1.0)
    }

    /// Drops the (local, d) cell from the active list (its last alive edge
    /// in direction `d` died).
    fn deactivate(&mut self, grid: &RegionGrid, local: u16, d: usize) {
        let pos = self.active_pos[local as usize][d];
        debug_assert_ne!(pos, NO_CELL, "cell was active");
        self.active_pos[local as usize][d] = NO_CELL;
        self.active.swap_remove(pos as usize);
        if let Some(&moved) = self.active.get(pos as usize) {
            let ml = self.corridor.local(grid, moved >> 1);
            self.active_pos[ml as usize][(moved & 1) as usize] = pos;
        }
    }
}

/// One corridor edge's static terms, at its global id.
#[derive(Debug, Clone, Copy)]
struct EdgeRec {
    /// Static `f(WL)` term: the wire length of the shortest route forced
    /// through the edge, normalized by the connection's Steiner
    /// (Manhattan) estimate. Edges on a shortest path score 1.0; edges
    /// that would detour the route score proportionally higher, so they
    /// are deleted first unless congestion argues otherwise.
    f_wl: f64,
    /// Flat demand cells `2·region + dir` of the two endpoints; `dir` (0 =
    /// H, 1 = V) is the edge's own.
    ca: u32,
    cb: u32,
    /// The edge's connection (index into the run's `ConnState`s).
    conn: u32,
}

/// Max-heap key: an f64 weight, then the edge's global id. Global ids
/// ascend with (connection, local edge), so this is the `(w, conn, edge)`
/// order, in 12 bytes.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Key {
    w: f64,
    gid: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        let (w, other_w) = (self.w, other.w);
        let (gid, other_gid) = (self.gid, other.gid);
        // invariant: heap weights are sums of finite coefficients
        // (`GsinoConfig::validate` rejects non-finite `Weights`) times
        // finite geometry, so the comparison is total.
        w.partial_cmp(&other_w)
            .expect("weights are finite")
            .then(gid.cmp(&other_gid))
    }
}

/// What the next pop of the unpurged heap would have been at a refresh
/// trigger (see [`DeletionHeap::pop_trigger`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// A dead entry that an earlier purge moved to the side list.
    Purged,
    /// This heap entry (it may be dead).
    Popped(Key),
}

/// Dead-or-kept bit of a [`DeletionHeap`] edge state; the low bits count
/// the edge's entries in the heap.
const DEAD: u8 = 0x80;

/// The deletion loop's max-heap of `(w, gid)` keys, with each edge's
/// dead-or-kept flag. It moves dead entries' keys to a side list once
/// they make up a quarter of the heap, and at every refresh; see the
/// module docs for why that is exact. [`Self::pop_trigger`] consults the
/// side list to pick the entry the unpurged heap would have popped.
#[derive(Debug)]
struct DeletionHeap {
    heap: BinaryHeap<Key>,
    /// Per global edge id: [`DEAD`], plus the number of its entries in
    /// `heap` (exact while the edge lives). A re-queue replaces the entry
    /// it popped, and a live edge gains one entry per refresh, which come
    /// at least `edges_initial / 8` deletions apart: the count stays
    /// below 10, far from the flag bit.
    state: Vec<u8>,
    /// Dead entries in `heap`.
    dead_in_heap: usize,
    /// Keys of purged dead entries that the unpurged heap may still hold.
    side: Vec<Key>,
    /// The last key popped from `heap` since the last refresh.
    last: Option<Key>,
    /// Entries popped from `heap`, dead ones included.
    pops: usize,
}

impl DeletionHeap {
    /// A heap holding one entry per edge of `entries`, whose gids must be
    /// exactly `0..entries.len()`.
    fn new(entries: Vec<Key>) -> Self {
        DeletionHeap {
            state: vec![1; entries.len()],
            heap: BinaryHeap::from(entries),
            dead_in_heap: 0,
            side: Vec::new(),
            last: None,
            pops: 0,
        }
    }

    fn is_dead(&self, gid: u32) -> bool {
        self.state[gid as usize] & DEAD != 0
    }

    /// Marks an edge deleted or kept: its entries still queued are dead.
    fn kill(&mut self, gid: u32) {
        let state = &mut self.state[gid as usize];
        debug_assert_eq!(*state & DEAD, 0, "edge {gid} died twice");
        self.dead_in_heap += usize::from(*state);
        *state = DEAD;
    }

    fn push(&mut self, key: Key) {
        let state = &mut self.state[key.gid as usize];
        debug_assert!(*state < DEAD - 1, "a live edge holds at most a few entries");
        *state += 1;
        self.heap.push(key);
    }

    /// Pops the largest key, dead or alive.
    fn pop(&mut self) -> Option<Key> {
        let key = self.heap.pop()?;
        self.pops += 1;
        self.last = Some(key);
        let state = &mut self.state[key.gid as usize];
        if *state & DEAD == 0 {
            *state -= 1;
        } else {
            self.dead_in_heap -= 1;
        }
        Some(key)
    }

    /// Pops until a live entry comes out; `None` once the heap is empty.
    /// Purges first if dead entries make up a quarter of the heap.
    fn pop_live(&mut self) -> Option<Key> {
        if 4 * self.dead_in_heap > self.heap.len() {
            self.prune_side();
            let live = self.take_live();
            self.heap = BinaryHeap::from(live);
        }
        loop {
            let key = self.pop()?;
            if !self.is_dead(key.gid) {
                return Some(key);
            }
        }
    }

    /// Drops the side keys the unpurged heap has already popped. Between
    /// refreshes popped keys only fall, so those are the keys above the
    /// last key popped here since the last refresh.
    fn prune_side(&mut self) {
        if let Some(last) = self.last {
            self.side.retain(|k| *k <= last);
        }
    }

    /// The trigger pop: the entry the unpurged heap would pop next, or
    /// `None` when it would be empty: the heap top or the largest side
    /// key that the unpurged heap still holds, whichever is larger.
    fn pop_trigger(&mut self) -> Option<Trigger> {
        self.prune_side();
        let side_max = (0..self.side.len()).max_by_key(|&i| self.side[i]);
        match (side_max, self.heap.peek()) {
            (Some(i), top) if top.is_none_or(|t| self.side[i] > *t) => {
                self.side.swap_remove(i);
                Some(Trigger::Purged)
            }
            _ => self.pop().map(Trigger::Popped),
        }
    }

    /// A refresh: purges the heap, then adds an entry for every live edge,
    /// weighted by `weight`, in gid order.
    fn refresh(&mut self, weight: impl Fn(u32) -> f64) {
        let mut entries = self.take_live();
        for (gid, state) in (0u32..).zip(self.state.iter_mut()) {
            if *state & DEAD == 0 {
                *state += 1;
                entries.push(Key {
                    w: weight(gid),
                    gid,
                });
            }
        }
        self.heap = BinaryHeap::from(entries);
        self.last = None;
    }

    /// Empties the heap into its live entries, moving the dead entries'
    /// keys to the side list. Rebuilding a heap from the result changes no
    /// pop: the order is total and keys that compare equal are
    /// interchangeable copies, so the layout does not matter.
    fn take_live(&mut self) -> Vec<Key> {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        let (state, side) = (&self.state, &mut self.side);
        entries.retain(|k| {
            let live = state[k.gid as usize] & DEAD == 0;
            if !live {
                side.push(*k);
            }
            live
        });
        self.dead_in_heap = 0;
        entries
    }
}

/// The ID router: routes a whole circuit at once.
///
/// # Example
///
/// ```
/// use gsino_core::router::{IdRouter, ShieldTerm, Weights};
/// use gsino_grid::{Circuit, Net, Point, Rect, RegionGrid, Technology};
///
/// # fn main() -> Result<(), gsino_core::CoreError> {
/// let die = Rect::new(Point::new(0.0, 0.0), Point::new(320.0, 320.0))?;
/// let net = Net::two_pin(0, Point::new(10.0, 10.0), Point::new(300.0, 300.0));
/// let circuit = Circuit::new("t", die, vec![net])?;
/// let grid = RegionGrid::new(&circuit, &Technology::itrs_100nm(), 64.0)?;
/// let router = IdRouter::new(&grid, Weights::default(), ShieldTerm::None);
/// let (routes, stats) = router.route(&circuit)?;
/// assert_eq!(routes.len(), 1);
/// assert!(stats.deletions > 0);
/// # Ok(())
/// # }
/// ```
pub struct IdRouter<'a> {
    grid: &'a RegionGrid,
    weights: Weights,
    shield_term: ShieldTerm,
    halo: u32,
}

impl<'a> IdRouter<'a> {
    /// Creates a router over `grid` with the given Formula (2) constants.
    pub fn new(grid: &'a RegionGrid, weights: Weights, shield_term: ShieldTerm) -> Self {
        IdRouter {
            grid,
            weights,
            shield_term,
            halo: 1,
        }
    }

    /// Decomposes every net into the two-pin connections [`Self::route`]
    /// operates on (order matters: it fixes the heap tie-break indices).
    pub fn prepare(&self, circuit: &Circuit) -> Vec<Connection> {
        let mut conns = Vec::new();
        for net in circuit.nets() {
            conns.extend(decompose_net(net));
        }
        conns
    }

    /// Routes every net of the circuit; returns the route set and counters.
    ///
    /// # Errors
    ///
    /// [`CoreError::RoutingFailed`](crate::CoreError::RoutingFailed) if a
    /// net's connections could not be assembled into a pin-spanning tree
    /// (internal invariant violation).
    pub fn route(&self, circuit: &Circuit) -> Result<(RouteSet, RouterStats)> {
        let conns = self.prepare(circuit);
        self.route_prepared(circuit, &conns)
    }

    /// Routes pre-decomposed connections (the ID loop without the shared
    /// Steiner preprocessing), so benches can compare deletion kernels
    /// without the identical decomposition cost drowning the signal —
    /// mirroring [`super::AstarRouter::route_prepared`].
    ///
    /// # Errors
    ///
    /// See [`Self::route`].
    pub fn route_prepared(
        &self,
        circuit: &Circuit,
        connections: &[Connection],
    ) -> Result<(RouteSet, RouterStats)> {
        self.route_prepared_cancel(circuit, connections, &CancelToken::never())
    }

    /// [`Self::route_prepared`] polling a [`CancelToken`] once per deletion
    /// batch (every `CANCEL_POLL_POPS` loop steps; a step takes one live
    /// heap entry, skipping the dead ones on the way, or runs one
    /// refresh): often enough that a fired deadline stops the run within a
    /// fraction of a batch, rare enough that the never-token path costs
    /// one branch per step. The partially-deleted corridor state is local
    /// to this call, so cancellation leaves nothing to undo.
    ///
    /// # Errors
    ///
    /// [`CoreError::Canceled`](crate::CoreError) once the token
    /// fires, plus the same conditions as [`Self::route`].
    pub fn route_prepared_cancel(
        &self,
        circuit: &Circuit,
        connections: &[Connection],
        cancel: &CancelToken,
    ) -> Result<(RouteSet, RouterStats)> {
        /// Loop steps between cancellation polls.
        const CANCEL_POLL_POPS: usize = 4096;
        cancel.check("phase1")?;
        let mut since_cancel_poll = 0usize;
        let mut stats = RouterStats::default();
        // 1. Build per-connection corridor state and the flat per-edge
        //    tables, indexed by global edge id. Demand cells
        //    `2·region + dir` are u32 as well.
        crate::checked_index_u32("demand cells", 2 * self.grid.num_regions() as usize)?;
        let mut conns: Vec<ConnState> = Vec::new();
        let mut edges: Vec<EdgeRec> = Vec::new();
        for c in connections {
            // The heap and the edge records address connections and
            // edges with u32; turn an over-wide workload into a typed
            // error here instead of letting the hot-loop casts wrap.
            let conn = crate::checked_index_u32("connections", conns.len())?;
            if let Some(state) = self.connection_state(c, conn, &mut edges) {
                conns.push(state);
            }
            crate::checked_index_u32("corridor edges", edges.len())?;
        }
        stats.connections = conns.len();
        stats.edges_initial = edges.len();

        // 2. Global per-region expected demand (probabilistic presence by
        //    direction, Cong–Preas style), seeded from the active cells.
        //    Cell `2·region + dir` interleaves the two directions.
        let mut demand = vec![0f64; 2 * self.grid.num_regions() as usize];
        for c in &conns {
            let phi = c.phi();
            for &cell in &c.active {
                demand[cell as usize] += phi;
            }
        }

        // 3. Seed the heap with every edge. Collect-then-heapify is O(E)
        //    instead of O(E log E) pushes; the pop sequence is unchanged
        //    because the (w, gid) order is total and every key is unique,
        //    so the popped multiset order does not depend on the heap's
        //    internal layout.
        let terms = self.all_cell_terms(&demand);
        let seed_entries = (0u32..)
            .zip(&edges)
            .map(|(gid, rec)| Key {
                w: self.weight_of(rec, terms[rec.ca as usize], terms[rec.cb as usize]),
                gid,
            })
            .collect();
        let mut heap = DeletionHeap::new(seed_entries);

        // 4. Iterative deletion with lazy weight refresh. Weights move in
        //    both directions (expected demand falls as corridors shrink,
        //    but a connection's φ rises as its alternatives are deleted, so
        //    late overflow can RAISE weights). Entries that became cheaper
        //    are re-queued on pop; entries that became more urgent are
        //    caught by periodically re-pushing all live edges.
        let mut scratch = ConnectivityScratch::new();
        #[cfg(debug_assertions)]
        let mut bfs_oracle = super::corridor::CorridorScratch::new();
        let refresh_every = (stats.edges_initial / 8).max(1000);
        let mut since_refresh = 0usize;
        loop {
            since_cancel_poll += 1;
            if since_cancel_poll >= CANCEL_POLL_POPS {
                since_cancel_poll = 0;
                cancel.check("phase1")?;
            }
            let Key { w, gid } = if since_refresh >= refresh_every {
                since_refresh = 0;
                let Some(trigger) = heap.pop_trigger() else {
                    break;
                };
                let terms = self.all_cell_terms(&demand);
                heap.refresh(|gid| {
                    let rec = &edges[gid as usize];
                    self.weight_of(rec, terms[rec.ca as usize], terms[rec.cb as usize])
                });
                match trigger {
                    Trigger::Popped(key) if !heap.is_dead(key.gid) => key,
                    _ => continue,
                }
            } else {
                match heap.pop_live() {
                    Some(key) => key,
                    None => break,
                }
            };
            let rec = edges[gid as usize];
            let current = self.weight(&rec, &demand);
            // Weights decay globally as demand drains, so almost every pop
            // is a little stale; only re-queue when the drop is material
            // (5%), otherwise deletion order degenerates into heap churn.
            if w - current > 0.05 * current.abs().max(0.1) {
                stats.reinserts += 1;
                heap.push(Key { w: current, gid });
                continue;
            }
            let c = &mut conns[rec.conn as usize];
            let e = (gid - c.gid0) as usize;
            let deletable = c.cache.connected_without(&c.corridor, e, &mut scratch);
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                deletable,
                c.corridor.connected_without(e, &mut bfs_oracle),
                "incremental connectivity diverged from the BFS oracle on edge {e}"
            );
            heap.kill(gid);
            if deletable {
                // Delete: retract the connection's old φ-weighted demand
                // and re-apply with the new φ in ONE sweep over the active
                // cells. The per-cell operation sequence (`-= phi_old`
                // then `+= phi_new`) is exactly the PR-1 kernel's, so the
                // f64 results are bit-identical; only the loop structure
                // changed. The two edge endpoints are the only cells whose
                // presence changes (in the edge's direction only); a cell
                // that lost its last alive edge leaves the active list
                // first and gets its retract in the fix-up loop below.
                let phi_old = c.phi();
                let (a, b, _) = c.corridor.edge(e);
                c.corridor.kill(e);
                c.cache.note_kill(e);
                let d = (rec.ca & 1) as usize;
                let mut dropped = [NO_CELL; 2];
                for (slot, (local, cell)) in [(a, rec.ca), (b, rec.cb)].into_iter().enumerate() {
                    if !c.corridor.has_alive(local, d) {
                        c.deactivate(self.grid, local, d);
                        dropped[slot] = cell;
                    }
                }
                let phi_new = c.phi();
                for &cell in &c.active {
                    let cell = &mut demand[cell as usize];
                    *cell -= phi_old;
                    *cell += phi_new;
                }
                for cell in dropped {
                    if cell != NO_CELL {
                        demand[cell as usize] -= phi_old;
                    }
                }
                stats.deletions += 1;
                since_refresh += 1;
            } else {
                stats.kept += 1;
            }
        }
        stats.heap_pops = heap.pops;
        stats.connectivity_o1_hits = scratch.counters.fresh_hits + scratch.counters.shortcut_hits;
        stats.connectivity_repairs = scratch.counters.repairs;
        stats.connectivity_recomputes = scratch.counters.recomputes;

        // 5. Assemble per-net routes from the surviving connection paths.
        let routes = self.assemble(circuit, &conns)?;
        Ok((routes, stats))
    }

    /// Builds connection `conn`'s corridor state, appending its edges'
    /// records to `edges`; `None` for an intra-region connection.
    fn connection_state(
        &self,
        c: &Connection,
        conn: u32,
        edges: &mut Vec<EdgeRec>,
    ) -> Option<ConnState> {
        let t1 = self.grid.region_of(c.from);
        let t2 = self.grid.region_of(c.to);
        if t1 == t2 {
            // Intra-region connection: no global routing needed.
            return None;
        }
        let corridor = Corridor::new(self.grid, t1, t2, self.halo);
        let globals: Vec<u32> = (0..corridor.num_regions())
            .map(|local| corridor.global(self.grid, local as u16))
            .collect();
        // The two-terminal Steiner estimate is the Manhattan distance,
        // floored at one tile so the normalizer is never degenerate.
        let rsmt_um = c
            .manhattan()
            .max(self.grid.tile_w().min(self.grid.tile_h()));
        let (t1l, t2l) = corridor.terminals();
        // Manhattan center distance from each corridor region to the two
        // terminals, cached so the f(WL) loop reads two rows instead of
        // calling `center_distance` four times per edge. The corridor
        // rectangle is convex in the grid graph so this equals the graph
        // distance.
        let dist_t1: Vec<f64> = (0..corridor.num_regions())
            .map(|q| self.grid.center_distance(globals[t1l as usize], globals[q]))
            .collect();
        let dist_t2: Vec<f64> = (0..corridor.num_regions())
            .map(|q| self.grid.center_distance(globals[q], globals[t2l as usize]))
            .collect();
        // `edges.len()` fits u32: the caller checked it after the previous
        // connection.
        let gid0 = edges.len() as u32;
        for e in 0..corridor.num_edges() {
            let (a, b, dir) = corridor.edge(e);
            let (d, len_e) = match dir {
                Dir::H => (0, self.grid.tile_w()),
                Dir::V => (1, self.grid.tile_h()),
            };
            let through = (dist_t1[a as usize] + len_e + dist_t2[b as usize])
                .min(dist_t1[b as usize] + len_e + dist_t2[a as usize]);
            edges.push(EdgeRec {
                f_wl: through / rsmt_um,
                ca: 2 * globals[a as usize] + d,
                cb: 2 * globals[b as usize] + d,
                conn,
            });
        }
        let needed_edges = ((t1x_diff(self.grid, t1, t2)) as f64).max(1.0);
        // Cell positions are u32 and locals are u16; corridors are bounded
        // by the t1/t2 bounding box, which the u16 local index already
        // constrains — assert rather than re-check per cell.
        debug_assert!(corridor.num_regions() <= u16::MAX as usize + 1);
        let mut active = Vec::new();
        let mut active_pos = vec![[NO_CELL; 2]; corridor.num_regions()];
        for (local, pos) in active_pos.iter_mut().enumerate() {
            for (d, slot) in pos.iter_mut().enumerate() {
                if corridor.has_alive(local as u16, d) {
                    *slot = active.len() as u32;
                    active.push(2 * globals[local] + d as u32);
                }
            }
        }
        Some(ConnState {
            net: c.net,
            corridor,
            gid0,
            needed_edges,
            cache: BridgeCache::new(),
            active,
            active_pos,
        })
    }

    /// Formula (2): `w = α·f(WL) + β·HD + γ·HOFR`, densities averaged over
    /// the edge's two regions. All per-edge lookups come from the edge's
    /// record; the arithmetic is the PR-1 kernel's, operand for operand.
    fn weight(&self, rec: &EdgeRec, demand: &[f64]) -> f64 {
        let terms = |cell: u32| self.cell_terms(cell, demand[cell as usize]);
        self.weight_of(rec, terms(rec.ca), terms(rec.cb))
    }

    /// [`Self::weight`] from its endpoint cells' [`Self::cell_terms`].
    fn weight_of(&self, rec: &EdgeRec, ta: [f64; 2], tb: [f64; 2]) -> f64 {
        let mut hd = 0.0;
        let mut hofr = 0.0;
        for [density, overflow] in [ta, tb] {
            hd += density;
            hofr += overflow;
        }
        self.weights.alpha * rec.f_wl
            + self.weights.beta * hd / 2.0
            + self.weights.gamma * hofr / 2.0
    }

    /// One demand cell's density and overflow addends, `HU / cap` and
    /// `max(Nns − cap, 0) / cap`, at demand `nns`.
    fn cell_terms(&self, cell: u32, nns: f64) -> [f64; 2] {
        let cap = match cell & 1 {
            0 => self.grid.hc(),
            _ => self.grid.vc(),
        } as f64;
        // The shield reservation enters the density term (HU = Nns +
        // Nss, paper §3.1). The overflow term watches real net demand
        // only: the reservation is a preference, and double-counting
        // speculative shields in the steep γ term was measured to
        // degrade the net distribution itself.
        let used = nns + self.shield_term.shields(nns);
        [used / cap, (nns - cap).max(0.0) / cap]
    }

    /// Every cell's [`Self::cell_terms`], for weighing many edges at one
    /// demand state.
    fn all_cell_terms(&self, demand: &[f64]) -> Vec<[f64; 2]> {
        (0u32..)
            .zip(demand)
            .map(|(cell, &nns)| self.cell_terms(cell, nns))
            .collect()
    }

    /// Builds one [`RouteTree`] per net from the surviving corridor paths
    /// via the shared flat-array assembly (`super::assemble`): union the
    /// connection edges, BFS-span from the source region, prune dangling
    /// non-pin branches with the O(E) worklist pruner.
    fn assemble(&self, circuit: &Circuit, conns: &[ConnState]) -> Result<RouteSet> {
        let mut per_net: HashMap<NetId, Vec<GridEdge>> = HashMap::new();
        for c in conns {
            let entry = per_net.entry(c.net).or_default();
            for e in 0..c.corridor.num_edges() {
                if c.corridor.is_alive(e) {
                    let (a, b, _) = c.corridor.edge(e);
                    let ga = c.corridor.global(self.grid, a);
                    let gb = c.corridor.global(self.grid, b);
                    entry.push(GridEdge::new(self.grid, ga, gb)?);
                }
            }
        }
        assemble_trees(self.grid, circuit, &mut per_net)
    }
}

/// Convenience wrapper: routes with the given weights and shield term.
///
/// # Errors
///
/// See [`IdRouter::route`].
pub fn route_all(
    grid: &RegionGrid,
    circuit: &Circuit,
    weights: Weights,
    shield_term: ShieldTerm,
) -> Result<(RouteSet, RouterStats)> {
    IdRouter::new(grid, weights, shield_term).route(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsino_grid::geom::{Point, Rect};
    use gsino_grid::net::Net;
    use gsino_grid::tech::Technology;
    use gsino_grid::usage::TrackUsage;

    fn setup(nets: Vec<Net>, side: f64) -> (Circuit, RegionGrid) {
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(side, side)).unwrap();
        let circuit = Circuit::new("t", die, nets).unwrap();
        let grid = RegionGrid::new(&circuit, &Technology::itrs_100nm(), 64.0).unwrap();
        (circuit, grid)
    }

    #[test]
    fn single_straight_net_routes_minimally() {
        let (circuit, grid) = setup(
            vec![Net::two_pin(
                0,
                Point::new(32.0, 32.0),
                Point::new(600.0, 32.0),
            )],
            640.0,
        );
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let r = routes.get(0).unwrap();
        // Pins 9 columns apart in the same row: 9 edges, all horizontal.
        assert_eq!(r.edges().len(), 9);
        assert_eq!(r.wirelength(&grid), 9.0 * 64.0);
    }

    #[test]
    fn l_shaped_net_has_manhattan_length() {
        let (circuit, grid) = setup(
            vec![Net::two_pin(
                0,
                Point::new(32.0, 32.0),
                Point::new(300.0, 500.0),
            )],
            640.0,
        );
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let r = routes.get(0).unwrap();
        // 4 columns + 7 rows apart → 11 tiles of wire.
        assert_eq!(r.wirelength(&grid), 11.0 * 64.0);
    }

    #[test]
    fn multipin_net_spans_all_pin_regions() {
        let pins = vec![
            Point::new(32.0, 32.0),
            Point::new(600.0, 32.0),
            Point::new(32.0, 600.0),
            Point::new(600.0, 600.0),
        ];
        let (circuit, grid) = setup(vec![Net::new(0, pins.clone())], 640.0);
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let r = routes.get(0).unwrap();
        let regions: std::collections::HashSet<_> = r.regions().into_iter().collect();
        for p in &pins {
            assert!(regions.contains(&grid.region_of(*p)), "pin {p} not spanned");
        }
    }

    #[test]
    fn intra_region_net_is_trivial() {
        let (circuit, grid) = setup(
            vec![Net::two_pin(
                0,
                Point::new(10.0, 10.0),
                Point::new(20.0, 20.0),
            )],
            640.0,
        );
        let (routes, stats) =
            route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        assert_eq!(routes.get(0).unwrap().edges().len(), 0);
        assert_eq!(stats.connections, 0);
    }

    #[test]
    fn single_pin_net_is_trivial() {
        let (circuit, grid) = setup(vec![Net::new(0, vec![Point::new(10.0, 10.0)])], 640.0);
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        assert_eq!(routes.get(0).unwrap().edges().len(), 0);
    }

    #[test]
    fn congestion_spreads_parallel_nets() {
        // 30 nets all crossing between the same two columns in row 0..10
        // would overload a single row; the γ term must spread them.
        let mut nets = Vec::new();
        for i in 0..30u32 {
            let y = 16.0 + (i % 3) as f64;
            nets.push(Net::two_pin(i, Point::new(16.0, y), Point::new(620.0, y)));
        }
        let (circuit, grid) = setup(nets, 640.0);
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let usage = TrackUsage::from_routes(&grid, &routes);
        // Capacity is 16 per direction; the 30 nets cannot all sit in row 0
        // without overflowing, so some must detour through other rows.
        let rows_used: Vec<u32> = (0..grid.ny())
            .filter(|&cy| (0..grid.nx()).any(|cx| usage.nets(grid.idx(cx, cy), Dir::H) > 0))
            .collect();
        assert!(
            rows_used.len() >= 2,
            "nets should spread across rows: {rows_used:?}"
        );
    }

    #[test]
    fn all_routes_are_valid_trees() {
        let mut nets = Vec::new();
        for i in 0..25u32 {
            let x = 20.0 + (i as f64 * 97.0) % 600.0;
            let y = 20.0 + (i as f64 * 61.0) % 600.0;
            let u = 20.0 + (i as f64 * 41.0) % 600.0;
            let v = 20.0 + (i as f64 * 83.0) % 600.0;
            nets.push(Net::new(
                i,
                vec![
                    Point::new(x, y),
                    Point::new(u, v),
                    Point::new((x + u) / 2.0, 610.0),
                ],
            ));
        }
        let (circuit, grid) = setup(nets, 640.0);
        let (routes, stats) =
            route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        assert_eq!(routes.len(), 25);
        assert!(stats.edges_initial > stats.deletions);
        // RouteTree::new validated tree-ness internally; spot-check paths.
        for net in circuit.nets() {
            let r = routes.get(net.id()).unwrap();
            let root = grid.region_of(net.source());
            for sink in net.sinks() {
                let sr = grid.region_of(*sink);
                assert!(
                    r.path(root, sr).is_some(),
                    "net {} sink unreachable",
                    net.id()
                );
            }
        }
    }

    #[test]
    fn connectivity_is_answered_incrementally() {
        let mut nets = Vec::new();
        for i in 0..12u32 {
            let y = 20.0 + (i as f64 * 47.0) % 580.0;
            nets.push(Net::two_pin(
                i,
                Point::new(24.0, y),
                Point::new(600.0, 620.0 - y),
            ));
        }
        let (circuit, grid) = setup(nets, 640.0);
        let (_, stats) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        // Most queries must be O(1) hits; recomputes are bounded by the
        // witness-path traffic, not by the deletion count.
        assert!(stats.connectivity_o1_hits > 0, "no O(1) connectivity hits");
        assert!(
            stats.connectivity_recomputes < stats.deletions + stats.kept,
            "recomputes ({}) should undercut queries ({})",
            stats.connectivity_recomputes,
            stats.deletions + stats.kept
        );
    }

    #[test]
    fn shield_aware_router_runs() {
        use gsino_sino::nss::NssModel;
        let mut nets = Vec::new();
        for i in 0..10u32 {
            nets.push(Net::two_pin(
                i,
                Point::new(16.0, 16.0 + i as f64),
                Point::new(620.0, 16.0 + i as f64),
            ));
        }
        let (circuit, grid) = setup(nets, 640.0);
        let model = NssModel::from_coefficients([0.6, 0.0, 0.4, 0.0, 0.1, 0.0], 0.5);
        let (routes, _) = route_all(
            &grid,
            &circuit,
            Weights::default(),
            ShieldTerm::Estimated { model, rate: 0.5 },
        )
        .unwrap();
        assert_eq!(routes.len(), 10);
    }
}

#[cfg(test)]
mod heap_tests {
    use super::*;
    use proptest::prelude::*;

    /// SplitMix64: the replay's decision stream.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        /// A weight from a small set, so distinct edges tie on `w` and an
        /// edge's fresh entry often repeats its older one bit for bit.
        fn weight(&mut self) -> f64 {
            self.below(6) as f64 * 0.5
        }
    }

    /// What one replay saw.
    #[derive(Debug, Default)]
    struct Replay {
        live_pops: usize,
        triggers: usize,
        side_triggers: usize,
        empty_heap_triggers: usize,
    }

    fn key_bits(k: Key) -> (u64, u32) {
        let (w, gid) = (k.w, k.gid);
        (w.to_bits(), gid)
    }

    /// Drives a [`DeletionHeap`] beside a plain lazy `BinaryHeap` that
    /// keeps every dead entry, the way the deletion loop drives it: every
    /// live pop is deleted, kept or re-queued lower, and the pop after
    /// every `every`-th deletion is a refresh trigger that re-pushes each
    /// live edge at a fresh weight. Both must pop the same live keys and
    /// see the same trigger outcomes.
    fn replay(seed: u64, edges: usize, every: usize) -> Replay {
        let mut mix = Mix(seed);
        let seed_keys: Vec<Key> = (0..edges as u32)
            .map(|gid| Key {
                w: mix.weight(),
                gid,
            })
            .collect();
        let mut heap = DeletionHeap::new(seed_keys.clone());
        let mut model = BinaryHeap::from(seed_keys);
        let mut dead = vec![false; edges];
        let mut seen = Replay::default();
        let mut since_refresh = 0;
        loop {
            let key = if since_refresh >= every {
                since_refresh = 0;
                seen.triggers += 1;
                if heap.heap.is_empty() {
                    seen.empty_heap_triggers += 1;
                }
                let ours = heap.pop_trigger();
                let theirs = model.pop();
                let Some(theirs) = theirs else {
                    assert_eq!(ours, None, "only the model ran dry");
                    break;
                };
                let live = !dead[theirs.gid as usize];
                match ours {
                    Some(Trigger::Purged) => {
                        seen.side_triggers += 1;
                        assert!(!live, "a purged key stood in for live {theirs:?}");
                    }
                    Some(Trigger::Popped(k)) => {
                        assert_eq!(key_bits(k), key_bits(theirs), "trigger pops differ");
                    }
                    None => panic!("the model still held {theirs:?}"),
                }
                let fresh: Vec<f64> = (0..edges).map(|_| mix.weight()).collect();
                heap.refresh(|gid| fresh[gid as usize]);
                for (gid, &w) in (0u32..).zip(&fresh) {
                    if !dead[gid as usize] {
                        model.push(Key { w, gid });
                    }
                }
                if !live {
                    continue;
                }
                theirs
            } else {
                let ours = heap.pop_live();
                let theirs = std::iter::from_fn(|| model.pop()).find(|k| !dead[k.gid as usize]);
                assert_eq!(ours.map(key_bits), theirs.map(key_bits), "live pops differ");
                match theirs {
                    Some(k) => k,
                    None => break,
                }
            };
            seen.live_pops += 1;
            match mix.below(4) {
                0 if key.w > 0.0 => {
                    let lower = Key {
                        w: key.w - 0.5 * (1 + mix.below(2)) as f64,
                        gid: key.gid,
                    };
                    heap.push(lower);
                    model.push(lower);
                }
                choice => {
                    heap.kill(key.gid);
                    dead[key.gid as usize] = true;
                    if choice != 3 {
                        since_refresh += 1;
                    }
                }
            }
        }
        assert!(heap.heap.is_empty() && model.is_empty());
        seen
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random pushes, pops, kills and refresh triggers, duplicate keys
        /// included: the purging heap pops exactly the lazy heap's live
        /// entries and trigger outcomes.
        #[test]
        fn purging_heap_matches_the_lazy_heap(
            seed in 0u64..1_000_000_000,
            edges in 1usize..48,
            every in 1usize..6,
        ) {
            let seen = replay(seed, edges, every);
            prop_assert!(seen.live_pops >= 1);
        }
    }

    /// The replays reach the branches the 0.02-scale circuits never do: a
    /// trigger pop taken from the side list, and a trigger that meets an
    /// empty heap.
    #[test]
    fn side_list_supplies_trigger_pops() {
        let total = (0..200u64).fold(Replay::default(), |acc, seed| {
            let seen = replay(seed, 4 + (seed % 40) as usize, 1 + (seed % 4) as usize);
            Replay {
                live_pops: acc.live_pops + seen.live_pops,
                triggers: acc.triggers + seen.triggers,
                side_triggers: acc.side_triggers + seen.side_triggers,
                empty_heap_triggers: acc.empty_heap_triggers + seen.empty_heap_triggers,
            }
        });
        assert!(total.triggers > 0, "{total:?}");
        assert!(total.side_triggers > 0, "{total:?}");
        assert!(total.empty_heap_triggers > 0, "{total:?}");
    }
}
