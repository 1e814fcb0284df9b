//! LSK bookkeeping and crosstalk-violation reporting.
//!
//! For every sink, the LSK value accumulates `lⱼ·Kᵢʲ` along the region
//! path from the source (paper Eq. (1)); the noise table turns it into a
//! crosstalk voltage compared against the constraint (0.15 V in the
//! paper's experiments). Table 1 counts nets with at least one violating
//! sink.

use crate::phase2::RegionSino;
use gsino_grid::net::{Circuit, Net, NetId};
use gsino_grid::region::{RegionGrid, RegionIdx};
use gsino_grid::route::{Dir, RouteSet, RouteTree};
use gsino_lsk::table::NoiseTable;
use gsino_lsk::value::lsk_value;
use std::collections::HashMap;

/// One violating sink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinkViolation {
    /// The victim net.
    pub net: NetId,
    /// Sink index within the net (0 = first sink).
    pub sink: usize,
    /// The LSK value along the source→sink path.
    pub lsk: f64,
    /// The looked-up crosstalk voltage (V).
    pub voltage: f64,
}

/// The violation report of a routing solution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ViolationReport {
    /// The constraint voltage (V).
    pub vth: f64,
    /// All violating sinks.
    pub sinks: Vec<SinkViolation>,
    /// Worst voltage per violating net.
    per_net: HashMap<NetId, f64>,
}

impl ViolationReport {
    /// A report from its parts: the violating sinks in `check`'s order and
    /// the worst voltage of each violating net.
    pub(crate) fn from_parts(
        vth: f64,
        sinks: Vec<SinkViolation>,
        per_net: HashMap<NetId, f64>,
    ) -> Self {
        ViolationReport {
            vth,
            sinks,
            per_net,
        }
    }

    /// Number of nets with at least one violating sink (Table 1's metric).
    pub fn violating_nets(&self) -> usize {
        self.per_net.len()
    }

    /// Whether the solution is violation-free.
    pub fn is_clean(&self) -> bool {
        self.per_net.is_empty()
    }

    /// The most severely violating net and its worst voltage.
    ///
    /// Deterministic despite the backing `HashMap`: ties on voltage go to
    /// the **smallest net id** (the comparator reverses the id order, so
    /// `max_by` favours lower ids). This is the same total order
    /// [`ViolationReport::nets_by_severity`] ranks by and the Phase III
    /// severity queue ([`crate::refine::tracker::SeverityQueue`]) pops by,
    /// which is what lets the incremental and reference refinement passes
    /// pick the same net on equal voltages.
    pub fn worst_net(&self) -> Option<(NetId, f64)> {
        self.per_net
            .iter()
            .max_by(|a, b| {
                // invariant: voltages come from the noise table, which maps
                // finite LSK values to finite volts; NaN cannot occur here.
                a.1.partial_cmp(b.1)
                    .expect("finite voltages")
                    .then_with(|| b.0.cmp(a.0))
            })
            .map(|(&n, &v)| (n, v))
    }

    /// Violating nets, most severe first — descending voltage, ties broken
    /// by ascending net id. The order is total (voltages are finite and
    /// net ids unique), so it is deterministic regardless of hash-map
    /// iteration order, and its first element is exactly
    /// [`ViolationReport::worst_net`] / the net Phase III's severity queue
    /// picks first.
    pub fn nets_by_severity(&self) -> Vec<(NetId, f64)> {
        let mut v: Vec<(NetId, f64)> = self.per_net.iter().map(|(&n, &x)| (n, x)).collect();
        v.sort_by(|a, b| {
            // invariant: same finite-voltage argument as `worst_net`.
            b.1.partial_cmp(&a.1)
                .expect("finite voltages")
                .then_with(|| a.0.cmp(&b.0))
        });
        v
    }
}

/// The terms of one sink's Eq. (1) sum as `(region, dir, lⱼ)`: the
/// regions of the source→sink path (the whole tree's regions if the sink
/// is off the tree), each horizontal then vertical.
pub(crate) fn sink_terms<'a>(
    grid: &'a RegionGrid,
    route: &'a RouteTree,
    net: &Net,
    sink_index: usize,
) -> impl Iterator<Item = (RegionIdx, Dir, f64)> + 'a {
    let root = grid.region_of(net.source());
    let sink_region = grid.region_of(net.sinks()[sink_index]);
    let path = match route.path(root, sink_region) {
        Some(p) => p,
        None => route.regions(),
    };
    path.into_iter().flat_map(move |r| {
        let (lh, lv) = route.length_in_region(grid, r);
        [(r, Dir::H, lh), (r, Dir::V, lv)]
    })
}

/// Eq. (1) of `net` over `terms`, reading each coupling from `sino` (0.0
/// where the net has no segment).
pub(crate) fn terms_lsk(
    sino: &RegionSino,
    net: NetId,
    terms: impl Iterator<Item = (RegionIdx, Dir, f64)>,
) -> f64 {
    lsk_value(terms.map(|(r, dir, len)| (len, sino.k_of(net, r, dir).unwrap_or(0.0))))
}

/// LSK of one sink: `Σ lⱼ·Kᵢʲ` over the source→sink region path, summing
/// the net's horizontal and vertical segments per region.
pub fn sink_lsk(
    grid: &RegionGrid,
    route: &RouteTree,
    sino: &RegionSino,
    net: &Net,
    sink_index: usize,
) -> f64 {
    terms_lsk(sino, net.id(), sink_terms(grid, route, net, sink_index))
}

/// Checks every sink of one net; returns its violations.
pub fn check_net(
    grid: &RegionGrid,
    route: &RouteTree,
    sino: &RegionSino,
    table: &NoiseTable,
    vth: f64,
    net: &Net,
) -> Vec<SinkViolation> {
    let mut out = Vec::new();
    if route.edges().is_empty() {
        return out;
    }
    for sink in 0..net.sinks().len() {
        let lsk = sink_lsk(grid, route, sino, net, sink);
        let voltage = table.voltage(lsk);
        if voltage > vth + 1e-9 {
            out.push(SinkViolation {
                net: net.id(),
                sink,
                lsk,
                voltage,
            });
        }
    }
    out
}

/// Full-circuit violation check.
pub fn check(
    circuit: &Circuit,
    grid: &RegionGrid,
    routes: &RouteSet,
    sino: &RegionSino,
    table: &NoiseTable,
    vth: f64,
) -> ViolationReport {
    let mut report = ViolationReport {
        vth,
        ..ViolationReport::default()
    };
    for net in circuit.nets() {
        let route = match routes.get(net.id()) {
            Some(r) => r,
            None => continue,
        };
        for v in check_net(grid, route, sino, table, vth, net) {
            let worst = report.per_net.entry(v.net).or_insert(0.0);
            *worst = worst.max(v.voltage);
            report.sinks.push(v);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{uniform_budgets, LengthModel};
    use crate::phase2::{solve_regions, RegionMode};
    use crate::router::{route_all, ShieldTerm, Weights};
    use gsino_grid::geom::{Point, Rect};
    use gsino_grid::sensitivity::SensitivityModel;
    use gsino_grid::tech::Technology;

    /// A dense bus sharing one row of regions: every net couples hard.
    fn dense_bus(n: u32, len: f64) -> (Circuit, RegionGrid, RouteSet, NoiseTable) {
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(len.max(640.0), 640.0)).unwrap();
        let nets: Vec<Net> = (0..n)
            .map(|i| {
                Net::two_pin(
                    i,
                    Point::new(8.0, 320.0 + i as f64),
                    Point::new(len - 8.0, 320.0 + i as f64),
                )
            })
            .collect();
        let circuit = Circuit::new("dense", die, nets).unwrap();
        let tech = Technology::itrs_100nm();
        let grid = RegionGrid::new(&circuit, &tech, 64.0).unwrap();
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let table = NoiseTable::calibrated(&tech);
        (circuit, grid, routes, table)
    }

    #[test]
    fn order_only_dense_bus_violates() {
        // 12 fully sensitive 2.5 mm nets with no shields must violate.
        let (circuit, grid, routes, table) = dense_bus(12, 2560.0);
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        let sens = SensitivityModel::new(1.0, 3);
        let sino =
            solve_regions(&grid, &routes, &budgets, &sens, RegionMode::OrderOnly, 1).unwrap();
        let report = check(&circuit, &grid, &routes, &sino, &table, 0.15);
        assert!(
            report.violating_nets() > 0,
            "dense unshielded bus must violate"
        );
        let (_, v) = report.worst_net().unwrap();
        assert!(v > 0.15);
        assert!(!report.is_clean());
    }

    #[test]
    fn sino_dense_bus_is_clean() {
        let (circuit, grid, routes, table) = dense_bus(12, 2560.0);
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::RoutedPath,
        )
        .unwrap();
        let sens = SensitivityModel::new(1.0, 3);
        let sino = solve_regions(&grid, &routes, &budgets, &sens, RegionMode::Sino, 1).unwrap();
        let report = check(&circuit, &grid, &routes, &sino, &table, 0.15);
        assert!(
            report.is_clean(),
            "{} nets violate",
            report.violating_nets()
        );
    }

    #[test]
    fn insensitive_nets_never_violate() {
        let (circuit, grid, routes, table) = dense_bus(12, 2560.0);
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        let sens = SensitivityModel::new(0.0, 3);
        let sino =
            solve_regions(&grid, &routes, &budgets, &sens, RegionMode::OrderOnly, 1).unwrap();
        let report = check(&circuit, &grid, &routes, &sino, &table, 0.15);
        assert!(report.is_clean());
    }

    #[test]
    fn worst_net_ties_break_to_smallest_net_id() {
        // Two nets with bitwise-equal worst voltages: the smaller id must
        // win in `worst_net` and lead `nets_by_severity` — the shared
        // tie-break of both Phase III engines.
        let mut report = ViolationReport {
            vth: 0.15,
            ..ViolationReport::default()
        };
        for (net, v) in [(7, 0.5), (3, 0.5), (9, 0.25)] {
            report.per_net.insert(net, v);
            report.sinks.push(SinkViolation {
                net,
                sink: 0,
                lsk: 0.0,
                voltage: v,
            });
        }
        assert_eq!(report.worst_net(), Some((3, 0.5)));
        let ranked = report.nets_by_severity();
        assert_eq!(ranked[0], (3, 0.5));
        assert_eq!(ranked[1], (7, 0.5));
        assert_eq!(ranked[2], (9, 0.25));
    }

    #[test]
    fn severity_ordering_is_deterministic() {
        let (circuit, grid, routes, table) = dense_bus(10, 2560.0);
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        let sens = SensitivityModel::new(1.0, 3);
        let sino =
            solve_regions(&grid, &routes, &budgets, &sens, RegionMode::OrderOnly, 1).unwrap();
        let a = check(&circuit, &grid, &routes, &sino, &table, 0.15);
        let b = check(&circuit, &grid, &routes, &sino, &table, 0.15);
        assert_eq!(a.nets_by_severity(), b.nets_by_severity());
        let sorted = a.nets_by_severity();
        assert!(sorted.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn sink_lsk_scales_with_length() {
        let (circuit, grid, routes, _) = dense_bus(6, 2560.0);
        let sens = SensitivityModel::new(1.0, 3);
        let tech = Technology::itrs_100nm();
        let table = NoiseTable::calibrated(&tech);
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        let sino =
            solve_regions(&grid, &routes, &budgets, &sens, RegionMode::OrderOnly, 1).unwrap();
        let net = circuit.net(0).unwrap();
        let lsk = sink_lsk(&grid, routes.get(0).unwrap(), &sino, net, 0);
        // Roughly: K ~ O(1) per region over a 2.5 mm run.
        assert!(lsk > 500.0, "lsk {lsk}");
    }
}
