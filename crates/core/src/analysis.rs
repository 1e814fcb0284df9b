//! Noise-profile analysis of a routed-and-shielded solution.
//!
//! The violation report (Table 1's metric) only counts sinks above the
//! constraint; this module looks at the whole distribution — the quantity a
//! signal-integrity engineer reviews before committing a routing. Used by
//! examples and the experiment harness for sanity reporting.

use crate::phase2::RegionSino;
use crate::violations::sink_lsk;
use gsino_grid::net::Circuit;
use gsino_grid::region::RegionGrid;
use gsino_grid::route::RouteSet;
use gsino_lsk::table::NoiseTable;

/// Distribution of per-sink crosstalk voltages.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseProfile {
    /// All sink voltages (V), ascending.
    voltages: Vec<f64>,
    /// The constraint the profile was taken against (V).
    vth: f64,
}

impl NoiseProfile {
    /// Profiles every sink of a solution.
    pub fn measure(
        circuit: &Circuit,
        grid: &RegionGrid,
        routes: &RouteSet,
        sino: &RegionSino,
        table: &NoiseTable,
        vth: f64,
    ) -> Self {
        let mut voltages = Vec::new();
        for net in circuit.nets() {
            let route = match routes.get(net.id()) {
                Some(r) if !r.edges().is_empty() => r,
                _ => continue,
            };
            for sink in 0..net.sinks().len() {
                let lsk = sink_lsk(grid, route, sino, net, sink);
                voltages.push(table.voltage(lsk));
            }
        }
        // invariant: `NoiseTable::voltage` is finite for finite LSK inputs.
        voltages.sort_by(|a, b| a.partial_cmp(b).expect("finite voltages"));
        NoiseProfile { voltages, vth }
    }

    /// Number of profiled sinks.
    pub fn len(&self) -> usize {
        self.voltages.len()
    }

    /// Whether no sinks were profiled.
    pub fn is_empty(&self) -> bool {
        self.voltages.is_empty()
    }

    /// The `q`-quantile voltage (V), `q` clamped into `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.voltages.is_empty() {
            return 0.0;
        }
        let idx = ((self.voltages.len() - 1) as f64 * q.clamp(0.0, 1.0)) as usize;
        self.voltages[idx]
    }

    /// Worst sink voltage (V).
    pub fn max(&self) -> f64 {
        self.voltages.last().copied().unwrap_or(0.0)
    }

    /// Fraction of sinks above the constraint.
    pub fn violating_fraction(&self) -> f64 {
        if self.voltages.is_empty() {
            return 0.0;
        }
        let above = self.voltages.partition_point(|&v| v <= self.vth + 1e-9);
        (self.voltages.len() - above) as f64 / self.voltages.len() as f64
    }

    /// Noise margin of the worst sink: `vth − max` (negative if violating).
    pub fn worst_margin(&self) -> f64 {
        self.vth - self.max()
    }

    /// Renders a 10-bin ASCII histogram from 0 V to `ceil`, marking the
    /// constraint bin with `<` — a quick visual for examples and reports.
    pub fn histogram(&self, ceil: f64) -> String {
        const BINS: usize = 10;
        const WIDTH: usize = 40;
        let ceil = if ceil > 0.0 { ceil } else { 0.2 };
        let mut counts = [0usize; BINS];
        for &v in &self.voltages {
            let bin = ((v / ceil) * BINS as f64) as usize;
            counts[bin.min(BINS - 1)] += 1;
        }
        let max_count = counts.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (i, &c) in counts.iter().enumerate() {
            let lo = ceil * i as f64 / BINS as f64;
            let hi = ceil * (i + 1) as f64 / BINS as f64;
            let bar = "#".repeat(c * WIDTH / max_count);
            let marker = if self.vth > lo && self.vth <= hi {
                " <- vth"
            } else {
                ""
            };
            out.push_str(&format!(
                "{lo:5.3}-{hi:5.3} V |{bar:<WIDTH$}| {c}{marker}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{uniform_budgets, LengthModel};
    use crate::phase2::{solve_regions, RegionMode};
    use crate::router::{route_all, ShieldTerm, Weights};
    use gsino_grid::geom::{Point, Rect};
    use gsino_grid::net::Net;
    use gsino_grid::sensitivity::SensitivityModel;
    use gsino_grid::tech::Technology;

    fn profile(rate: f64, mode: RegionMode) -> NoiseProfile {
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(1536.0, 512.0)).unwrap();
        let nets: Vec<Net> = (0..10)
            .map(|i| {
                Net::two_pin(
                    i,
                    Point::new(8.0, 256.0 + i as f64),
                    Point::new(1500.0, 256.0 + i as f64),
                )
            })
            .collect();
        let circuit = Circuit::new("p", die, nets).unwrap();
        let tech = Technology::itrs_100nm();
        let grid = RegionGrid::new(&circuit, &tech, 64.0).unwrap();
        let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
        let table = NoiseTable::calibrated(&tech);
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::RoutedPath,
        )
        .unwrap();
        let sino = solve_regions(
            &grid,
            &routes,
            &budgets,
            &SensitivityModel::new(rate, 3),
            mode,
            1,
        )
        .unwrap();
        NoiseProfile::measure(&circuit, &grid, &routes, &sino, &table, 0.15)
    }

    #[test]
    fn profile_counts_every_sink() {
        let p = profile(0.5, RegionMode::Sino);
        assert_eq!(p.len(), 10);
        assert!(!p.is_empty());
    }

    #[test]
    fn sino_profile_is_within_constraint() {
        let p = profile(0.8, RegionMode::Sino);
        assert!(p.max() <= 0.15 + 1e-9, "max {}", p.max());
        assert_eq!(p.violating_fraction(), 0.0);
        assert!(p.worst_margin() >= -1e-9);
    }

    #[test]
    fn order_only_profile_is_noisier() {
        let sino = profile(0.8, RegionMode::Sino);
        let bare = profile(0.8, RegionMode::OrderOnly);
        assert!(bare.max() > sino.max());
        assert!(bare.quantile(0.9) >= sino.quantile(0.9));
    }

    #[test]
    fn quantiles_are_monotone() {
        let p = profile(0.5, RegionMode::OrderOnly);
        assert!(p.quantile(0.0) <= p.quantile(0.5));
        assert!(p.quantile(0.5) <= p.quantile(1.0));
        assert_eq!(p.quantile(1.0), p.max());
    }

    #[test]
    fn histogram_renders_bins_and_marker() {
        let p = profile(0.8, RegionMode::OrderOnly);
        let h = p.histogram(0.2);
        assert_eq!(h.lines().count(), 10);
        assert!(h.contains("<- vth"), "{h}");
    }

    #[test]
    fn empty_profile_behaves() {
        let p = NoiseProfile {
            voltages: Vec::new(),
            vth: 0.15,
        };
        assert!(p.is_empty());
        assert_eq!(p.max(), 0.0);
        assert_eq!(p.quantile(0.5), 0.0);
        assert_eq!(p.violating_fraction(), 0.0);
    }
}
