//! Sequential A* global router — the paper's §5 future-work router.
//!
//! §5: *"A more efficient global router will be developed or be integrated
//! into the GSINO framework."* This is that router: connections are routed
//! one at a time along least-cost region paths (congestion-aware A*), which
//! is far faster than iterative deletion but **order-dependent** — exactly
//! the trade-off the paper cites for choosing ID ("less efficient but may
//! lead to better solutions"). The `ablation_router` bench measures both
//! sides of that trade.
//!
//! Cost model per region step, mirroring Formula (2)'s terms: the tile
//! length (wire length), β·HD with `HU = Nns + Nss` (committed demand plus
//! the GSINO shield reservation), and γ·HOFR once a region would overflow.
//!
//! # Implementation
//!
//! The search kernel is the flat-array [`SearchScratch`] (epoch-stamped
//! `g`/`prev` arrays plus a monotone bucket heap) instead of the seed's
//! per-call `HashMap`s and `BinaryHeap`; the seed lives on in
//! [`super::reference`] as the correctness and performance baseline, and
//! the `router_equivalence` suite proves the two produce byte-identical
//! route sets.

use super::assemble::assemble_trees;
use super::scratch::SearchScratch;
use super::{ShieldTerm, Weights};
use crate::{CoreError, Result};
use gsino_grid::net::{Circuit, NetId};
use gsino_grid::region::{RegionGrid, RegionIdx};
use gsino_grid::route::{Dir, GridEdge, RouteSet};
use gsino_steiner::decompose::{decompose_net, Connection};
use std::collections::HashMap;

/// The sequential congestion-aware A* router.
///
/// # Example
///
/// ```
/// use gsino_core::router::{AstarRouter, ShieldTerm, Weights};
/// use gsino_grid::{Circuit, Net, Point, Rect, RegionGrid, Technology};
///
/// # fn main() -> Result<(), gsino_core::CoreError> {
/// let die = Rect::new(Point::new(0.0, 0.0), Point::new(320.0, 320.0))?;
/// let net = Net::two_pin(0, Point::new(10.0, 10.0), Point::new(300.0, 300.0));
/// let circuit = Circuit::new("t", die, vec![net])?;
/// let grid = RegionGrid::new(&circuit, &Technology::itrs_100nm(), 64.0)?;
/// let (routes, _) = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None)
///     .route(&circuit)?;
/// assert_eq!(routes.len(), 1);
/// # Ok(())
/// # }
/// ```
pub struct AstarRouter<'a> {
    grid: &'a RegionGrid,
    weights: Weights,
    shield_term: ShieldTerm,
    /// Per-region `(cx, cy)`, precomputed so the expansion loop never
    /// divides.
    coords: Vec<(u32, u32)>,
    /// Per-region geometric centers, precomputed with the exact same
    /// arithmetic as [`RegionGrid::center`] so heuristic values (and
    /// therefore tie-breaking) match the seed router bit for bit.
    centers: Vec<gsino_grid::geom::Point>,
}

impl<'a> AstarRouter<'a> {
    /// Creates the router (precomputes per-region coordinate and center
    /// tables, O(regions)).
    pub fn new(grid: &'a RegionGrid, weights: Weights, shield_term: ShieldTerm) -> Self {
        let coords = (0..grid.num_regions()).map(|r| grid.coords(r)).collect();
        let centers = (0..grid.num_regions()).map(|r| grid.center(r)).collect();
        AstarRouter {
            grid,
            weights,
            shield_term,
            coords,
            centers,
        }
    }

    /// A scratch sized for this router's grid: the heap bucket quantum is
    /// one minimum step cost, so each bucket holds about one wavefront
    /// ring. Callers of [`AstarRouter::route_prepared`] should obtain
    /// their scratch here rather than `SearchScratch::new()`, whose
    /// default quantum is not tuned to the grid.
    pub fn make_scratch(&self) -> SearchScratch {
        SearchScratch::with_bucket_width(
            self.weights.alpha * self.grid.tile_w().min(self.grid.tile_h()),
        )
    }

    /// Routes the circuit sequentially with an internal scratch.
    ///
    /// # Errors
    ///
    /// [`CoreError::RoutingFailed`] if a connection's target region cannot
    /// be reached or route assembly fails.
    pub fn route(&self, circuit: &Circuit) -> Result<(RouteSet, super::RouterStats)> {
        let conns = self.prepare(circuit);
        self.route_prepared(circuit, &conns, &mut self.make_scratch())
    }

    /// Routes pre-decomposed connections (see [`AstarRouter::prepare`])
    /// sequentially over caller-owned scratch space.
    ///
    /// Splitting preparation from routing lets batch flows and benches
    /// decompose once and route many times; `conns` must be the exact
    /// output of [`AstarRouter::prepare`] for the same circuit (the
    /// longest-first order is part of the router's contract).
    ///
    /// # Errors
    ///
    /// See [`AstarRouter::route`].
    pub fn route_prepared(
        &self,
        circuit: &Circuit,
        conns: &[Connection],
        scratch: &mut SearchScratch,
    ) -> Result<(RouteSet, super::RouterStats)> {
        let mut stats = super::RouterStats {
            connections: conns.len(),
            ..Default::default()
        };
        let nregions = self.grid.num_regions() as usize;
        let mut demand = [vec![0u32; nregions], vec![0u32; nregions]];
        let mut per_net: HashMap<NetId, Vec<GridEdge>> = HashMap::new();
        scratch.counters = Default::default();
        for c in conns {
            let t1 = self.grid.region_of(c.from);
            let t2 = self.grid.region_of(c.to);
            if t1 == t2 {
                continue;
            }
            let path = self
                .astar(scratch, t1, t2, &demand)
                .ok_or(CoreError::RoutingFailed { net: c.net })?;
            // Commit: bump demand on both endpoint regions of every edge
            // and collect the edges into the net's pool.
            let edges = per_net.entry(c.net).or_default();
            for w in path.windows(2) {
                let edge = GridEdge::new(self.grid, w[0], w[1])?;
                let d = match edge.dir(self.grid) {
                    Dir::H => 0,
                    Dir::V => 1,
                };
                for r in [w[0], w[1]] {
                    demand[d][r as usize] += 1;
                }
                edges.push(edge);
            }
        }
        stats.stale_skips = scratch.counters.stale_skips;
        let routes = assemble_trees(self.grid, circuit, &mut per_net)?;
        Ok((routes, stats))
    }

    /// Steiner-decomposes every net into two-pin connections, longest
    /// first (the standard sequential-router ordering heuristic: the
    /// hardest connections see the emptiest chip). The output feeds
    /// [`AstarRouter::route_prepared`].
    pub fn prepare(&self, circuit: &Circuit) -> Vec<Connection> {
        let mut conns: Vec<Connection> = Vec::new();
        for net in circuit.nets() {
            conns.extend(decompose_net(net));
        }
        conns.sort_by(|a, b| {
            // invariant: manhattan lengths of in-die pins are finite.
            b.manhattan()
                .partial_cmp(&a.manhattan())
                .expect("finite lengths")
                .then_with(|| a.net.cmp(&b.net))
        });
        conns
    }

    /// Congestion-aware A* between two regions over the flat scratch.
    /// Returns `None` if `to` is unreachable (never panics — the seed
    /// indexed `prev[&cur]` and panicked here).
    fn astar<'s>(
        &self,
        scratch: &'s mut SearchScratch,
        from: RegionIdx,
        to: RegionIdx,
        demand: &[Vec<u32>; 2],
    ) -> Option<&'s [RegionIdx]> {
        let grid = self.grid;
        let coords = &self.coords;
        let centers = &self.centers;
        let target_center = centers[to as usize];
        scratch
            .astar(
                grid.num_regions() as usize,
                from,
                to,
                // neighbor_array order (W, E, S, N) with the cached,
                // division-free coordinates.
                |r| {
                    let (cx, cy) = coords[r as usize];
                    grid.neighbor_array_at(r, cx, cy)
                },
                |a, b| self.step_cost(a, b, demand),
                |r| centers[r as usize].manhattan(target_center),
            )
            .ok()
    }

    /// Cost of stepping across one region boundary: length plus the same
    /// density/overflow pressure as Formula (2), scaled into µm.
    fn step_cost(&self, a: RegionIdx, b: RegionIdx, demand: &[Vec<u32>; 2]) -> f64 {
        let edge_dir = {
            let (ax, ay) = self.coords[a as usize];
            let (bx, by) = self.coords[b as usize];
            debug_assert!(ax.abs_diff(bx) + ay.abs_diff(by) == 1);
            if ay == by {
                Dir::H
            } else {
                Dir::V
            }
        };
        let (len, cap, d) = match edge_dir {
            Dir::H => (self.grid.tile_w(), self.grid.hc() as f64, 0),
            Dir::V => (self.grid.tile_h(), self.grid.vc() as f64, 1),
        };
        let mut penalty = 0.0;
        for r in [a, b] {
            let nns = demand[d][r as usize] as f64;
            let used = nns + self.shield_term.shields(nns);
            penalty += self.weights.beta * (used / cap) / 2.0;
            penalty += self.weights.gamma * ((used - cap).max(0.0) / cap) / 2.0;
        }
        // α scales the pure length term, matching Formula (2)'s balance.
        self.weights.alpha * len + penalty * len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsino_grid::geom::{Point, Rect};
    use gsino_grid::net::Net;
    use gsino_grid::tech::Technology;
    use gsino_grid::usage::TrackUsage;
    use std::collections::HashSet;

    fn setup(nets: Vec<Net>, side: f64) -> (Circuit, RegionGrid) {
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(side, side)).unwrap();
        let circuit = Circuit::new("t", die, nets).unwrap();
        let grid = RegionGrid::new(&circuit, &Technology::itrs_100nm(), 64.0).unwrap();
        (circuit, grid)
    }

    #[test]
    fn straight_net_routes_minimally() {
        let (circuit, grid) = setup(
            vec![Net::two_pin(
                0,
                Point::new(32.0, 32.0),
                Point::new(600.0, 32.0),
            )],
            640.0,
        );
        let (routes, _) = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None)
            .route(&circuit)
            .unwrap();
        assert_eq!(routes.get(0).unwrap().wirelength(&grid), 9.0 * 64.0);
    }

    #[test]
    fn multipin_spans_all_pins() {
        let pins = vec![
            Point::new(32.0, 32.0),
            Point::new(600.0, 32.0),
            Point::new(32.0, 600.0),
        ];
        let (circuit, grid) = setup(vec![Net::new(0, pins.clone())], 640.0);
        let (routes, _) = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None)
            .route(&circuit)
            .unwrap();
        let r = routes.get(0).unwrap();
        let regions: HashSet<_> = r.regions().into_iter().collect();
        for p in &pins {
            assert!(regions.contains(&grid.region_of(*p)));
        }
    }

    #[test]
    fn congestion_cost_spreads_nets() {
        let mut nets = Vec::new();
        for i in 0..40u32 {
            let y = 16.0 + (i % 4) as f64;
            nets.push(Net::two_pin(i, Point::new(16.0, y), Point::new(620.0, y)));
        }
        let (circuit, grid) = setup(nets, 640.0);
        let (routes, _) = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None)
            .route(&circuit)
            .unwrap();
        let usage = TrackUsage::from_routes(&grid, &routes);
        let rows_used = (0..grid.ny())
            .filter(|&cy| (0..grid.nx()).any(|cx| usage.nets(grid.idx(cx, cy), Dir::H) > 0))
            .count();
        assert!(
            rows_used >= 3,
            "A* must spread 40 nets beyond capacity-16 rows"
        );
    }

    #[test]
    fn paths_match_id_router_on_sparse_input() {
        // With no congestion both routers find shortest trees, so total
        // wire length should agree.
        let (circuit, grid) = setup(
            vec![
                Net::two_pin(0, Point::new(32.0, 32.0), Point::new(600.0, 500.0)),
                Net::two_pin(1, Point::new(100.0, 600.0), Point::new(500.0, 100.0)),
            ],
            640.0,
        );
        let (a, _) = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None)
            .route(&circuit)
            .unwrap();
        let (b, _) =
            super::super::route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        assert_eq!(a.total_wirelength(&grid), b.total_wirelength(&grid));
    }

    #[test]
    fn deterministic() {
        let (circuit, grid) = setup(
            (0..20u32)
                .map(|i| {
                    let x = 20.0 + (i as f64 * 97.0) % 600.0;
                    let y = 20.0 + (i as f64 * 61.0) % 600.0;
                    Net::two_pin(i, Point::new(x, y), Point::new(620.0 - x, 620.0 - y))
                })
                .collect(),
            640.0,
        );
        let router = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None);
        let (a, _) = router.route(&circuit).unwrap();
        let (b, _) = router.route(&circuit).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let (circuit, grid) = setup(
            (0..15u32)
                .map(|i| {
                    let x = 24.0 + (i as f64 * 83.0) % 580.0;
                    let y = 24.0 + (i as f64 * 59.0) % 580.0;
                    Net::two_pin(i, Point::new(x, y), Point::new(616.0 - x, 616.0 - y))
                })
                .collect(),
            640.0,
        );
        let router = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None);
        let conns = router.prepare(&circuit);
        let mut scratch = router.make_scratch();
        let (a, _) = router
            .route_prepared(&circuit, &conns, &mut scratch)
            .unwrap();
        // Same scratch, second run: epoch stamping must isolate it fully.
        let (b, _) = router
            .route_prepared(&circuit, &conns, &mut scratch)
            .unwrap();
        let (fresh, _) = router.route(&circuit).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, fresh);
    }

    #[test]
    fn degenerate_one_by_n_grid_routes_without_panicking() {
        // Regression for the seed's `prev[&cur]` panic path: a 1×N die
        // exercises the narrowest possible search frontier.
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(64.0, 640.0)).unwrap();
        let nets = vec![
            Net::two_pin(0, Point::new(32.0, 16.0), Point::new(32.0, 620.0)),
            Net::two_pin(1, Point::new(16.0, 320.0), Point::new(48.0, 16.0)),
        ];
        let circuit = Circuit::new("thin", die, nets).unwrap();
        let grid = RegionGrid::new(&circuit, &Technology::itrs_100nm(), 64.0).unwrap();
        assert_eq!((grid.nx(), grid.ny()), (1, 10));
        let (routes, _) = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None)
            .route(&circuit)
            .unwrap();
        assert_eq!(routes.get(0).unwrap().wirelength(&grid), 9.0 * 64.0);
    }

    #[test]
    fn stale_skips_are_counted() {
        let (circuit, grid) = setup(
            (0..30u32)
                .map(|i| {
                    let y = 16.0 + (i % 3) as f64;
                    Net::two_pin(i, Point::new(16.0, y), Point::new(620.0, y))
                })
                .collect(),
            640.0,
        );
        let (_, stats) = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None)
            .route(&circuit)
            .unwrap();
        assert!(
            stats.stale_skips > 0,
            "congested search must hit stale entries"
        );
    }
}
