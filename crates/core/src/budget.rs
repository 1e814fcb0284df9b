//! Phase I: uniform crosstalk-budget partitioning (paper §3.1).
//!
//! The sink's voltage constraint maps through the noise table to an LSK
//! bound; dividing by the source→sink wire-length estimate `Le` yields the
//! per-segment coupling budget `Kth`. Segments shared by several sinks take
//! the minimum budget. GSINO budgets before routing with the Manhattan
//! estimate; the iSINO baseline budgets after routing with actual path
//! lengths (which is why it never violates but over-shields).

use crate::Result;
use gsino_grid::net::{Circuit, NetId};
use gsino_grid::region::{RegionGrid, RegionIdx};
use gsino_grid::route::{Dir, RouteSet};
use gsino_lsk::budget::kth_for_le;
use gsino_lsk::table::NoiseTable;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One segment budget: `((net, region, dir), Kth)` — the key/value unit
/// of [`Budgets`] and the element of per-net entry lists.
pub type BudgetEntry = ((NetId, RegionIdx, Dir), f64);

/// How the LSK bound is split along a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BudgetPolicy {
    /// The paper's Phase I: every segment on the path gets `LSK/Le`.
    #[default]
    Uniform,
    /// The §5 future-work direction, implemented here as an extension:
    /// congested regions (little track headroom) receive *looser* coupling
    /// budgets — shields are expensive there — while roomy regions absorb
    /// tighter budgets, still meeting `Σ lⱼ·Kthⱼ ≤ LSK`.
    CongestionWeighted,
}

/// How `Le` (the source→sink length) is estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LengthModel {
    /// Manhattan distance between the pins — Phase I's pre-routing
    /// estimate. Detours make the real length longer, which is what Phase
    /// III exists to repair.
    Manhattan,
    /// The routed path length through the region graph — available only
    /// after routing; guarantees `Σ lⱼ·Kth ≤ LSK_bound`.
    RoutedPath,
}

/// Per-(net, region, direction) coupling budgets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Budgets {
    map: HashMap<(NetId, RegionIdx, Dir), f64>,
}

impl Budgets {
    /// The budget of a net's segment, if that segment exists.
    pub fn kth(&self, net: NetId, region: RegionIdx, dir: Dir) -> Option<f64> {
        self.map.get(&(net, region, dir)).copied()
    }

    /// Overrides one segment budget (Phase III re-budgeting).
    pub fn set(&mut self, net: NetId, region: RegionIdx, dir: Dir, kth: f64) {
        self.map.insert((net, region, dir), kth);
    }

    /// Every entry of one net, sorted by `(region, dir)`, in the shape
    /// [`net_budget_entries`] returns. Scans every entry.
    pub fn net_entries(&self, net: NetId) -> Vec<BudgetEntry> {
        let mut out: Vec<_> = self
            .map
            .iter()
            .filter(|((n, _, _), _)| *n == net)
            .map(|(k, v)| (*k, *v))
            .collect();
        out.sort_unstable_by_key(|(key, _)| *key);
        out
    }

    /// Number of budgeted segments.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no segments are budgeted.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `((net, region, dir), kth)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&(NetId, RegionIdx, Dir), &f64)> {
        self.map.iter()
    }

    /// Median budget — the representative `Kth` used to fit Formula (3).
    pub fn median_kth(&self) -> Option<f64> {
        if self.map.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = self.map.values().copied().collect();
        // invariant: budgeting replaces infinite Kth with 1e9, so every
        // stored budget is finite and the comparator is total.
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite budgets"));
        Some(v[v.len() / 2])
    }
}

/// Computes uniform budgets for every routed segment, with one crosstalk
/// constraint shared by all sinks (the configuration the paper evaluates).
///
/// # Errors
///
/// Propagates [`gsino_lsk::LskError`] for out-of-range constraints.
pub fn uniform_budgets(
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    table: &NoiseTable,
    vth: f64,
    length_model: LengthModel,
) -> Result<Budgets> {
    budgets_with_constraints(circuit, grid, routes, table, &|_, _| vth, length_model)
}

/// Congestion-weighted budgets (the [`BudgetPolicy::CongestionWeighted`]
/// extension). For a path with per-region lengths `lⱼ` and weights
/// `wⱼ = 1/headroomⱼ`, each segment receives
/// `Kthⱼ = LSK · wⱼ / Σ lᵢ·wᵢ`, which satisfies the same end-to-end bound
/// as the uniform split but shifts shielding work toward regions that can
/// afford it.
///
/// # Errors
///
/// Propagates [`gsino_lsk::LskError`] for out-of-range constraints.
pub fn congestion_weighted_budgets(
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    usage: &gsino_grid::usage::TrackUsage,
    table: &NoiseTable,
    vth: f64,
    length_model: LengthModel,
) -> Result<Budgets> {
    let mut budgets = Budgets::default();
    let min_le = (grid.tile_w().min(grid.tile_h())) / 2.0;
    let lsk_bound_of = |le: f64| -> Result<f64> { Ok(kth_for_le(table, vth, le)? * le) };
    let weight = |r: RegionIdx, dir: Dir| -> f64 {
        let headroom = (usage.capacity(dir) as f64 - usage.used(r, dir) as f64).max(1.0);
        1.0 / headroom
    };
    for net in circuit.nets() {
        let route = match routes.get(net.id()) {
            Some(r) => r,
            None => continue,
        };
        if route.edges().is_empty() {
            continue;
        }
        let root = grid.region_of(net.source());
        for sink in net.sinks() {
            let sink_region = grid.region_of(*sink);
            let path = match route.path(root, sink_region) {
                Some(p) => p,
                None => route.regions(),
            };
            let le = match length_model {
                LengthModel::Manhattan => net.source().manhattan(*sink),
                LengthModel::RoutedPath => path
                    .windows(2)
                    .map(|w| grid.center_distance(w[0], w[1]))
                    .sum::<f64>(),
            }
            .max(min_le);
            let lsk_bound = lsk_bound_of(le)?;
            // Normalizer Σ lᵢ·wᵢ over the occupied segments of the path.
            let mut norm = 0.0;
            for &r in &path {
                let (lh, lv) = route.length_in_region(grid, r);
                if route.occupies(grid, r, Dir::H) {
                    norm += lh * weight(r, Dir::H);
                }
                if route.occupies(grid, r, Dir::V) {
                    norm += lv * weight(r, Dir::V);
                }
            }
            if norm <= 0.0 {
                continue;
            }
            for &r in &path {
                for dir in [Dir::H, Dir::V] {
                    if route.occupies(grid, r, dir) {
                        let kth = (lsk_bound * weight(r, dir) / norm).max(1e-9);
                        let entry = budgets
                            .map
                            .entry((net.id(), r, dir))
                            .or_insert(f64::INFINITY);
                        *entry = entry.min(kth);
                    }
                }
            }
        }
    }
    for v in budgets.map.values_mut() {
        if !v.is_finite() {
            *v = 1e9;
        }
    }
    Ok(budgets)
}

/// Non-uniform constraints (paper §3.1: "Both our algorithm and program
/// implementation, however, can handle non-uniform crosstalk constraints"):
/// `vth_of(net, sink_index)` supplies each sink's own noise ceiling.
///
/// # Errors
///
/// Propagates [`gsino_lsk::LskError`] for out-of-range constraints.
pub fn budgets_with_constraints(
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    table: &NoiseTable,
    vth_of: &dyn Fn(NetId, usize) -> f64,
    length_model: LengthModel,
) -> Result<Budgets> {
    let mut budgets = Budgets::default();
    for net in circuit.nets() {
        let route = match routes.get(net.id()) {
            Some(r) => r,
            None => continue,
        };
        // Per-net entries are disjoint across nets (every key carries the
        // net id), so extending the map per net reproduces the historic
        // single-loop result bit for bit.
        for (key, kth) in net_budget_entries(net, grid, route, table, vth_of, length_model)? {
            budgets.map.insert(key, kth);
        }
    }
    Ok(budgets)
}

/// The budget entries one routed net contributes — the loop body of
/// [`budgets_with_constraints`], factored out because under the uniform
/// policy a net's entries depend only on *its own* pins and route. That
/// independence is what lets an ECO session re-budget exactly the nets an
/// edit touched and reuse every other entry bitwise. (The
/// congestion-weighted policy reads global track usage and deliberately
/// has no such per-net form.)
///
/// Returns the entries sorted by `(region, dir)`, one per `(region, dir)`
/// the route occupies, so the key set depends on the route alone; nets
/// without routed edges contribute nothing.
///
/// # Errors
///
/// Propagates [`gsino_lsk::LskError`] for out-of-range constraints.
pub fn net_budget_entries(
    net: &gsino_grid::net::Net,
    grid: &RegionGrid,
    route: &gsino_grid::route::RouteTree,
    table: &NoiseTable,
    vth_of: &dyn Fn(NetId, usize) -> f64,
    length_model: LengthModel,
) -> Result<Vec<BudgetEntry>> {
    let mut entries: HashMap<(NetId, RegionIdx, Dir), f64> = HashMap::new();
    let min_le = (grid.tile_w().min(grid.tile_h())) / 2.0;
    if route.edges().is_empty() {
        return Ok(Vec::new());
    }
    let root = grid.region_of(net.source());
    for (sink_index, sink) in net.sinks().iter().enumerate() {
        let sink_region = grid.region_of(*sink);
        let path = match route.path(root, sink_region) {
            Some(p) => p,
            None => route.regions(),
        };
        let le = match length_model {
            LengthModel::Manhattan => net.source().manhattan(*sink),
            LengthModel::RoutedPath => path
                .windows(2)
                .map(|w| grid.center_distance(w[0], w[1]))
                .sum::<f64>(),
        }
        .max(min_le);
        let kth_sink = kth_for_le(table, vth_of(net.id(), sink_index), le)?;
        for &r in &path {
            for dir in [Dir::H, Dir::V] {
                if route.occupies(grid, r, dir) {
                    let key = (net.id(), r, dir);
                    let entry = entries.entry(key).or_insert(f64::INFINITY);
                    *entry = entry.min(kth_sink);
                }
            }
        }
    }
    // Defensive cover: any occupied segment missed by all sink paths
    // takes the tightest budget of the net.
    let net_min = net
        .sinks()
        .iter()
        .map(|s| net.source().manhattan(*s).max(min_le))
        .fold(f64::INFINITY, f64::min);
    if net_min.is_finite() {
        let vth_min = (0..net.sinks().len())
            .map(|i| vth_of(net.id(), i))
            .fold(f64::INFINITY, f64::min);
        let fallback = kth_for_le(table, vth_min, net_min)?;
        for r in route.regions() {
            for dir in [Dir::H, Dir::V] {
                if route.occupies(grid, r, dir) {
                    entries.entry((net.id(), r, dir)).or_insert(fallback);
                }
            }
        }
    }
    // Replace any residual infinities (nets with zero-length sink paths).
    let mut out: Vec<_> = entries
        .into_iter()
        .map(|(k, v)| (k, if v.is_finite() { v } else { 1e9 }))
        .collect();
    out.sort_unstable_by_key(|(key, _)| *key);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsino_core_test_util::*;

    /// Shared test scaffolding for the core crate's unit tests.
    mod gsino_core_test_util {
        pub use crate::router::{route_all, ShieldTerm, Weights};
        pub use gsino_grid::geom::{Point, Rect};
        pub use gsino_grid::net::{Circuit, Net};
        pub use gsino_grid::region::RegionGrid;
        pub use gsino_grid::tech::Technology;
        pub use gsino_lsk::table::NoiseTable;

        pub fn straight_circuit() -> (Circuit, RegionGrid, NoiseTable) {
            let die = Rect::new(Point::new(0.0, 0.0), Point::new(640.0, 640.0)).unwrap();
            let nets = vec![
                Net::two_pin(0, Point::new(32.0, 32.0), Point::new(600.0, 32.0)),
                Net::new(
                    1,
                    vec![
                        Point::new(32.0, 300.0),
                        Point::new(600.0, 300.0),
                        Point::new(300.0, 600.0),
                    ],
                ),
            ];
            let circuit = Circuit::new("t", die, nets).unwrap();
            let tech = Technology::itrs_100nm();
            let grid = RegionGrid::new(&circuit, &tech, 64.0).unwrap();
            let table = NoiseTable::calibrated(&tech);
            (circuit, grid, table)
        }
    }

    #[test]
    fn every_occupied_segment_gets_a_budget() {
        let (circuit, grid, table) = straight_circuit();
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        for route in routes.iter() {
            for r in route.regions() {
                for dir in [Dir::H, Dir::V] {
                    if route.occupies(&grid, r, dir) {
                        let kth = budgets.kth(route.net(), r, dir);
                        assert!(kth.is_some(), "missing budget net {} r {r}", route.net());
                        assert!(kth.unwrap() > 0.0);
                    }
                }
            }
        }
        assert!(!budgets.is_empty());
    }

    #[test]
    fn longer_nets_get_tighter_budgets() {
        let (circuit, grid, table) = straight_circuit();
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        // Net 0 is 568 µm long; a hypothetical shorter net would budget
        // looser. Check budget matches the closed form LSK/Le.
        let lsk_bound = table.lsk_for_voltage(0.15);
        let r = routes.get(0).unwrap().regions()[1];
        let kth = budgets.kth(0, r, Dir::H).unwrap();
        assert!((kth - lsk_bound / 568.0).abs() / kth < 1e-9);
    }

    #[test]
    fn routed_path_budgets_are_no_looser() {
        // The routed path is at least as long as the Manhattan distance, so
        // RoutedPath budgets are at most the Manhattan ones.
        let (circuit, grid, table) = straight_circuit();
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let manhattan = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        let routed = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::RoutedPath,
        )
        .unwrap();
        for (key, kth_routed) in routed.iter() {
            let kth_m = manhattan.kth(key.0, key.1, key.2).unwrap();
            assert!(
                *kth_routed <= kth_m * 1.3 + 1e-9,
                "routed budget wildly looser at {key:?}"
            );
        }
    }

    #[test]
    fn shared_segments_take_min_budget() {
        let (circuit, grid, table) = straight_circuit();
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        // Net 1 has two sinks with different Le; its segments near the
        // source shared by both paths must carry the tighter (smaller) kth.
        let net = circuit.net(1).unwrap();
        let lsk_bound = table.lsk_for_voltage(0.15);
        let les: Vec<f64> = net
            .sinks()
            .iter()
            .map(|s| net.source().manhattan(*s))
            .collect();
        let tightest = lsk_bound / les.iter().cloned().fold(0.0, f64::max);
        let route = routes.get(1).unwrap();
        let root = grid.region_of(net.source());
        for dir in [Dir::H, Dir::V] {
            if route.occupies(&grid, root, dir) {
                let kth = budgets.kth(1, root, dir).unwrap();
                assert!(kth <= tightest + 1e-12);
            }
        }
    }

    #[test]
    fn trivial_routes_need_no_budget() {
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(128.0, 128.0)).unwrap();
        let nets = vec![Net::two_pin(
            0,
            Point::new(5.0, 5.0),
            Point::new(20.0, 20.0),
        )];
        let circuit = Circuit::new("t", die, nets).unwrap();
        let tech = Technology::itrs_100nm();
        let grid = RegionGrid::new(&circuit, &tech, 64.0).unwrap();
        let table = NoiseTable::calibrated(&tech);
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        assert!(budgets.is_empty());
        assert_eq!(budgets.median_kth(), None);
    }

    #[test]
    fn congestion_weighted_budgets_preserve_path_bound() {
        use gsino_grid::usage::TrackUsage;
        let (circuit, grid, table) = straight_circuit();
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let mut usage = TrackUsage::from_routes(&grid, &routes);
        // Make one region on net 0's route look congested.
        let hot = routes.get(0).unwrap().regions()[2];
        usage.add_nets(hot, Dir::H, 12);
        let weighted = congestion_weighted_budgets(
            &circuit,
            &grid,
            &routes,
            &usage,
            &table,
            0.15,
            LengthModel::RoutedPath,
        )
        .unwrap();
        // End-to-end bound: Σ l·kth ≤ LSK(0.15) along the routed path.
        let net = circuit.net(0).unwrap();
        let route = routes.get(0).unwrap();
        let root = grid.region_of(net.source());
        let path = route.path(root, grid.region_of(net.sinks()[0])).unwrap();
        let le: f64 = path
            .windows(2)
            .map(|w| grid.center_distance(w[0], w[1]))
            .sum();
        let lsk_bound = table.lsk_for_voltage(0.15);
        let mut total = 0.0;
        for &r in &path {
            let (lh, _) = route.length_in_region(&grid, r);
            if let Some(kth) = weighted.kth(0, r, Dir::H) {
                total += lh * kth;
            }
        }
        let _ = le;
        assert!(
            total <= lsk_bound * 1.0001,
            "path bound {total} > {lsk_bound}"
        );
        // The congested region gets a looser budget than its neighbours.
        let cool = path.iter().copied().find(|&r| r != hot).unwrap();
        let k_hot = weighted.kth(0, hot, Dir::H).unwrap();
        let k_cool = weighted.kth(0, cool, Dir::H).unwrap();
        assert!(k_hot > k_cool, "hot {k_hot} should exceed cool {k_cool}");
    }

    #[test]
    fn non_uniform_constraints_tighten_selected_nets() {
        let (circuit, grid, table) = straight_circuit();
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        // Net 0 is a clock-like net with a strict 0.10 V ceiling; others 0.15.
        let strict = budgets_with_constraints(
            &circuit,
            &grid,
            &routes,
            &table,
            &|net, _| if net == 0 { 0.10 } else { 0.15 },
            LengthModel::Manhattan,
        )
        .unwrap();
        let uniform = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        let r = routes.get(0).unwrap().regions()[1];
        let ks = strict.kth(0, r, Dir::H).unwrap();
        let ku = uniform.kth(0, r, Dir::H).unwrap();
        assert!(ks < ku, "strict {ks} must be below uniform {ku}");
        // Other nets unchanged.
        let r1 = routes.get(1).unwrap().regions()[0];
        for dir in [Dir::H, Dir::V] {
            if let (Some(a), Some(b)) = (strict.kth(1, r1, dir), uniform.kth(1, r1, dir)) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn median_kth_reported() {
        let (circuit, grid, table) = straight_circuit();
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        let med = budgets.median_kth().unwrap();
        assert!(med > 0.0 && med.is_finite());
    }
}
