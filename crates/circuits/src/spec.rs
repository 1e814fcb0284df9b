//! Benchmark circuit specifications.
//!
//! Die dimensions come from the paper's Table 3 (ID+NO row); target average
//! wire lengths from Table 2 (ID+NO column). Net counts are sized for the
//! routable global-net population of a single over-the-cell layer pair at
//! [`TARGET_DENSITY`] average track density, capped by the published
//! signal-net totals back-solved from Table 1. The sizing assumes a net
//! of average length `wl` occupies `wl / 64 µm + 2.5` track slots on the
//! 64 µm, 16-track grid, so
//! `nets = TARGET_DENSITY × 16 × 2 × regions / (wl / 64 µm + 2.5)`.

use serde::{Deserialize, Serialize};

/// Average track density the suite targets before shield insertion. The
/// paper's ID+NO baseline shows essentially no overflow (its Table 3 area
/// equals the placement footprint), so the median region must stay well
/// under capacity even though placement hotspots run ~2× the median.
pub const TARGET_DENSITY: f64 = 0.70;

/// One benchmark circuit's generation parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitSpec {
    /// Circuit name (`ibm01` … `ibm06`).
    pub name: String,
    /// Number of signal nets to generate.
    pub num_nets: usize,
    /// Die width (µm) — Table 3, ID+NO.
    pub die_w: f64,
    /// Die height (µm) — Table 3, ID+NO.
    pub die_h: f64,
    /// Target average net wire length (µm) — Table 2, ID+NO.
    pub target_wl: f64,
    /// Published signal-net total (back-solved from Table 1), for
    /// reporting percentages against the paper's population.
    pub published_nets: usize,
}

impl CircuitSpec {
    /// Net count giving [`TARGET_DENSITY`] on a 64 µm / 16-track grid,
    /// capped at the published total.
    fn sized(name: &str, die_w: f64, die_h: f64, target_wl: f64, published: usize) -> Self {
        // A net of length `wl` occupies ≈ wl/tile + 2.5 track slots across
        // the regions it crosses (one per edge, plus the far end region and
        // the double-counted bend regions). Solve
        // nets × slots / (2 × num_regions) = TARGET_DENSITY × 16 tracks.
        let tile = 64.0;
        let tracks = 16.0;
        let regions = (die_w / tile) * (die_h / tile);
        let slots_per_net = target_wl / tile + 2.5;
        let nets = (TARGET_DENSITY * tracks * 2.0 * regions / slots_per_net).round() as usize;
        CircuitSpec {
            name: name.to_string(),
            num_nets: nets.min(published),
            die_w,
            die_h,
            target_wl,
            published_nets: published,
        }
    }

    /// ibm01: 1533 × 1824 µm, 639 µm average wire length.
    pub fn ibm01() -> Self {
        Self::sized("ibm01", 1533.0, 1824.0, 639.0, 13_062)
    }

    /// ibm02: 3004 × 3995 µm, 724 µm.
    pub fn ibm02() -> Self {
        Self::sized("ibm02", 3004.0, 3995.0, 724.0, 19_288)
    }

    /// ibm03: 3178 × 3852 µm, 647 µm.
    pub fn ibm03() -> Self {
        Self::sized("ibm03", 3178.0, 3852.0, 647.0, 26_101)
    }

    /// ibm04: 3861 × 3910 µm, 748 µm.
    pub fn ibm04() -> Self {
        Self::sized("ibm04", 3861.0, 3910.0, 748.0, 31_322)
    }

    /// ibm05: 9837 × 7286 µm, 695 µm.
    pub fn ibm05() -> Self {
        Self::sized("ibm05", 9837.0, 7286.0, 695.0, 29_647)
    }

    /// ibm06: 5002 × 3795 µm, 769 µm.
    pub fn ibm06() -> Self {
        Self::sized("ibm06", 5002.0, 3795.0, 769.0, 34_398)
    }

    /// The whole suite in order.
    pub fn suite() -> Vec<CircuitSpec> {
        vec![
            Self::ibm01(),
            Self::ibm02(),
            Self::ibm03(),
            Self::ibm04(),
            Self::ibm05(),
            Self::ibm06(),
        ]
    }

    /// A scaled-down variant: `scale` of the nets on a die shrunk by
    /// `√scale` per side, preserving track density and wire-length targets
    /// (wire lengths are clamped by the smaller die during generation).
    pub fn scaled(&self, scale: f64) -> CircuitSpec {
        let scale = scale.clamp(1e-3, 1.0);
        let side = scale.sqrt();
        CircuitSpec {
            name: self.name.clone(),
            num_nets: ((self.num_nets as f64 * scale).round() as usize).max(8),
            die_w: (self.die_w * side).max(256.0),
            die_h: (self.die_h * side).max(256.0),
            target_wl: self.target_wl,
            published_nets: self.published_nets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_six_circuits() {
        let suite = CircuitSpec::suite();
        assert_eq!(suite.len(), 6);
        assert_eq!(suite[0].name, "ibm01");
        assert_eq!(suite[5].name, "ibm06");
    }

    #[test]
    fn net_counts_capped_by_published() {
        for spec in CircuitSpec::suite() {
            assert!(spec.num_nets <= spec.published_nets, "{}", spec.name);
            assert!(
                spec.num_nets > 500,
                "{} too small: {}",
                spec.name,
                spec.num_nets
            );
        }
    }

    #[test]
    fn density_formula_matches_target() {
        let s = CircuitSpec::ibm01();
        let regions = (s.die_w / 64.0) * (s.die_h / 64.0);
        let slots = s.target_wl / 64.0 + 2.5;
        let demand = s.num_nets as f64 * slots / (2.0 * regions);
        assert!((demand / 16.0 - TARGET_DENSITY).abs() < 0.02);
    }

    #[test]
    fn ibm05_is_the_big_one() {
        let suite = CircuitSpec::suite();
        let areas: Vec<f64> = suite.iter().map(|s| s.die_w * s.die_h).collect();
        assert!(areas[4] > areas.iter().cloned().fold(0.0, f64::max) - 1.0);
    }

    #[test]
    fn scaled_preserves_shape() {
        let s = CircuitSpec::ibm02().scaled(0.25);
        assert_eq!(s.target_wl, 724.0);
        assert!((s.die_w / CircuitSpec::ibm02().die_w - 0.5).abs() < 1e-9);
        assert!((s.num_nets as f64 / CircuitSpec::ibm02().num_nets as f64 - 0.25).abs() < 0.01);
        // Extreme scales clamp.
        let tiny = CircuitSpec::ibm01().scaled(1e-9);
        assert!(tiny.num_nets >= 8);
        assert!(tiny.die_w >= 256.0);
    }
}
