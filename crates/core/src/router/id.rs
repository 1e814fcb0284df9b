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

/// One two-pin connection's routing state.
struct ConnState {
    net: NetId,
    corridor: Corridor,
    /// Static per-edge `f(WL)` term: the wire length of the shortest route
    /// forced through the edge, normalized by the connection's Steiner
    /// (Manhattan) estimate. Edges on a shortest path score 1.0; edges that
    /// would detour the route score proportionally higher, so they are
    /// deleted first unless congestion argues otherwise.
    f_wl: Vec<f64>,
    /// Alive incident-edge counts per local region, per direction.
    presence: Vec<[u16; 2]>,
    /// Minimum edges the final path needs (Manhattan distance in tiles).
    needed_edges: f64,
    /// Alive edge count (denominator of the demand fraction φ).
    alive_edges: usize,
    /// Edges pinned as terminal bridges.
    kept: Vec<bool>,
    /// Global region index per corridor-local region, precomputed so the
    /// hot loops never pay `Corridor::global`'s div/mod.
    globals: Vec<u32>,
    /// Per-edge direction index (0 = H, 1 = V).
    edge_d: Vec<u8>,
    /// Per-edge global region indices of the two endpoints.
    edge_ga: Vec<u32>,
    edge_gb: Vec<u32>,
    /// Cached bridge analysis of the corridor.
    cache: BridgeCache,
    /// Compact list of (local region, direction) cells with presence > 0,
    /// so demand sweeps touch exactly the cells that carry demand instead
    /// of scanning the whole corridor. Shrinks as the corridor thins.
    active: Vec<(u16, u8)>,
    /// Index of each (local, direction) cell in `active`
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
        if self.alive_edges == 0 {
            return 1.0;
        }
        (self.needed_edges / self.alive_edges as f64).min(1.0)
    }

    /// Drops the (local, d) cell from the active list (presence hit zero).
    fn deactivate(&mut self, local: u16, d: usize) {
        let pos = self.active_pos[local as usize][d];
        debug_assert_ne!(pos, NO_CELL, "cell was active");
        self.active_pos[local as usize][d] = NO_CELL;
        self.active.swap_remove(pos as usize);
        if let Some(&(ml, md)) = self.active.get(pos as usize) {
            self.active_pos[ml as usize][md as usize] = pos;
        }
    }
}

/// Max-heap entry (f64 weight, connection, edge).
#[derive(Debug, PartialEq)]
struct HeapEntry {
    w: f64,
    conn: u32,
    edge: u32,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // invariant: heap weights are sums of finite coefficients
        // (`GsinoConfig::validate` rejects non-finite `Weights`) times
        // finite geometry, so the comparison is total.
        self.w
            .partial_cmp(&other.w)
            .expect("weights are finite")
            .then_with(|| self.conn.cmp(&other.conn))
            .then_with(|| self.edge.cmp(&other.edge))
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
    /// batch (every `CANCEL_POLL_POPS` heap pops): often enough that a
    /// fired deadline stops the run within a fraction of a batch, rare
    /// enough that the never-token path costs one branch per pop. The
    /// partially-deleted corridor state is local to this call, so
    /// cancellation leaves nothing to undo.
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
        /// Heap pops between cancellation polls.
        const CANCEL_POLL_POPS: usize = 4096;
        cancel.check("phase1")?;
        let mut since_cancel_poll = 0usize;
        let mut stats = RouterStats::default();
        // 1. Build per-connection corridor state.
        let mut conns: Vec<ConnState> = Vec::new();
        for c in connections {
            if let Some(state) = self.connection_state(c) {
                conns.push(state);
            }
        }
        stats.connections = conns.len();
        // The deletion heap addresses (connection, edge) pairs with u32;
        // turn an over-wide workload into a typed error here instead of
        // letting the hot-loop casts below wrap.
        crate::checked_index_u32("connections", conns.len())?;
        for c in &conns {
            crate::checked_index_u32("corridor edges", c.corridor.num_edges())?;
        }

        // 2. Global per-region expected demand (probabilistic presence by
        //    direction, Cong–Preas style), seeded from the active cells.
        let nregions = self.grid.num_regions() as usize;
        let mut demand = [vec![0f64; nregions], vec![0f64; nregions]];
        for c in &conns {
            let phi = c.phi();
            for &(local, d) in &c.active {
                demand[d as usize][c.globals[local as usize] as usize] += phi;
            }
        }

        // 3. Seed the heap with every edge. Collect-then-heapify is O(E)
        //    instead of O(E log E) pushes; the pop sequence is unchanged
        //    because the (w, conn, edge) order is total and every key is
        //    unique, so the popped multiset order does not depend on the
        //    heap's internal layout.
        let mut seed_entries = Vec::new();
        for (ci, c) in conns.iter().enumerate() {
            stats.edges_initial += c.corridor.num_edges();
            for e in 0..c.corridor.num_edges() {
                let w = self.weight(c, e, &demand);
                seed_entries.push(HeapEntry {
                    w,
                    conn: ci as u32,
                    edge: e as u32,
                });
            }
        }
        let mut heap = BinaryHeap::from(seed_entries);

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
        while let Some(HeapEntry { w, conn, edge }) = heap.pop() {
            since_cancel_poll += 1;
            if since_cancel_poll >= CANCEL_POLL_POPS {
                since_cancel_poll = 0;
                cancel.check("phase1")?;
            }
            if since_refresh >= refresh_every {
                since_refresh = 0;
                for (ci, c) in conns.iter().enumerate() {
                    for e in 0..c.corridor.num_edges() {
                        if c.corridor.is_alive(e) && !c.kept[e] {
                            let w = self.weight(c, e, &demand);
                            heap.push(HeapEntry {
                                w,
                                conn: ci as u32,
                                edge: e as u32,
                            });
                        }
                    }
                }
            }
            let c = &mut conns[conn as usize];
            let e = edge as usize;
            if !c.corridor.is_alive(e) || c.kept[e] {
                continue;
            }
            let current = self.weight(c, e, &demand);
            // Weights decay globally as demand drains, so almost every pop
            // is a little stale; only re-queue when the drop is material
            // (5%), otherwise deletion order degenerates into heap churn.
            if w - current > 0.05 * current.abs().max(0.1) {
                stats.reinserts += 1;
                heap.push(HeapEntry {
                    w: current,
                    conn,
                    edge,
                });
                continue;
            }
            let deletable = c.cache.connected_without(&c.corridor, e, &mut scratch);
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                deletable,
                c.corridor.connected_without(e, &mut bfs_oracle),
                "incremental connectivity diverged from the BFS oracle on edge {e}"
            );
            if deletable {
                // Delete: retract the connection's old φ-weighted demand
                // and re-apply with the new φ in ONE sweep over the active
                // cells. The per-cell operation sequence (`-= phi_old`
                // then `+= phi_new`) is exactly the PR-1 kernel's, so the
                // f64 results are bit-identical; only the loop structure
                // changed. The two edge endpoints are the only cells whose
                // presence changes (in the edge's direction only); a cell
                // that dropped to zero leaves the active list first and
                // gets its retract in the fix-up loop below.
                let phi_old = c.phi();
                let (a, b, dir) = c.corridor.edge(e);
                c.corridor.kill(e);
                c.cache.note_kill(e);
                c.alive_edges -= 1;
                let d = match dir {
                    Dir::H => 0,
                    Dir::V => 1,
                };
                let mut dropped = [NO_CELL; 2];
                for (slot, local) in [a, b].into_iter().enumerate() {
                    let p = &mut c.presence[local as usize][d];
                    *p -= 1;
                    if *p == 0 {
                        c.deactivate(local, d);
                        dropped[slot] = c.globals[local as usize];
                    }
                }
                let phi_new = c.phi();
                for &(local, dd) in &c.active {
                    let cell = &mut demand[dd as usize][c.globals[local as usize] as usize];
                    *cell -= phi_old;
                    *cell += phi_new;
                }
                for g in dropped {
                    if g != NO_CELL {
                        demand[d][g as usize] -= phi_old;
                    }
                }
                stats.deletions += 1;
                since_refresh += 1;
            } else {
                c.kept[e] = true;
                stats.kept += 1;
            }
        }
        stats.connectivity_o1_hits = scratch.counters.fresh_hits + scratch.counters.shortcut_hits;
        stats.connectivity_repairs = scratch.counters.repairs;
        stats.connectivity_recomputes = scratch.counters.recomputes;

        // 5. Assemble per-net routes from the surviving connection paths.
        let routes = self.assemble(circuit, &conns)?;
        Ok((routes, stats))
    }

    fn connection_state(&self, c: &Connection) -> Option<ConnState> {
        let t1 = self.grid.region_of(c.from);
        let t2 = self.grid.region_of(c.to);
        if t1 == t2 {
            // Intra-region connection: no global routing needed.
            return None;
        }
        let corridor = Corridor::new(self.grid, t1, t2, self.halo);
        let mut presence = vec![[0u16; 2]; corridor.num_regions()];
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
        let mut f_wl = Vec::with_capacity(corridor.num_edges());
        let mut edge_d = Vec::with_capacity(corridor.num_edges());
        let mut edge_ga = Vec::with_capacity(corridor.num_edges());
        let mut edge_gb = Vec::with_capacity(corridor.num_edges());
        for e in 0..corridor.num_edges() {
            let (a, b, dir) = corridor.edge(e);
            let d = match dir {
                Dir::H => 0,
                Dir::V => 1,
            };
            presence[a as usize][d] += 1;
            presence[b as usize][d] += 1;
            edge_d.push(d as u8);
            edge_ga.push(globals[a as usize]);
            edge_gb.push(globals[b as usize]);
            let len_e = match dir {
                Dir::H => self.grid.tile_w(),
                Dir::V => self.grid.tile_h(),
            };
            let through = (dist_t1[a as usize] + len_e + dist_t2[b as usize])
                .min(dist_t1[b as usize] + len_e + dist_t2[a as usize]);
            f_wl.push(through / rsmt_um);
        }
        let kept = vec![false; corridor.num_edges()];
        let needed_edges = ((t1x_diff(self.grid, t1, t2)) as f64).max(1.0);
        let alive_edges = corridor.num_edges();
        let mut active = Vec::new();
        // Cell positions are u32 and locals are u16; corridors are bounded
        // by the t1/t2 bounding box, which the u16 local index already
        // constrains — assert rather than re-check per cell.
        debug_assert!(corridor.num_regions() <= u16::MAX as usize + 1);
        let mut active_pos = vec![[NO_CELL; 2]; corridor.num_regions()];
        for (local, p) in presence.iter().enumerate() {
            for d in 0..2 {
                if p[d] > 0 {
                    active_pos[local][d] = active.len() as u32;
                    active.push((local as u16, d as u8));
                }
            }
        }
        Some(ConnState {
            net: c.net,
            corridor,
            f_wl,
            presence,
            needed_edges,
            alive_edges,
            kept,
            globals,
            edge_d,
            edge_ga,
            edge_gb,
            cache: BridgeCache::new(),
            active,
            active_pos,
        })
    }

    /// Formula (2): `w = α·f(WL) + β·HD + γ·HOFR`, densities averaged over
    /// the edge's two regions. All per-edge lookups come from the tables
    /// precomputed by [`Self::connection_state`]; the arithmetic is the
    /// PR-1 kernel's, operand for operand.
    fn weight(&self, c: &ConnState, e: usize, demand: &[Vec<f64>; 2]) -> f64 {
        let d = c.edge_d[e] as usize;
        let cap = match d {
            0 => self.grid.hc(),
            _ => self.grid.vc(),
        } as f64;
        let mut hd = 0.0;
        let mut hofr = 0.0;
        for g in [c.edge_ga[e] as usize, c.edge_gb[e] as usize] {
            let nns = demand[d][g];
            // The shield reservation enters the density term (HU = Nns +
            // Nss, paper §3.1). The overflow term watches real net demand
            // only: the reservation is a preference, and double-counting
            // speculative shields in the steep γ term was measured to
            // degrade the net distribution itself.
            let used = nns + self.shield_term.shields(nns);
            hd += used / cap;
            hofr += (nns - cap).max(0.0) / cap;
        }
        self.weights.alpha * c.f_wl[e]
            + self.weights.beta * hd / 2.0
            + self.weights.gamma * hofr / 2.0
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
