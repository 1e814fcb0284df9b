//! Property-based tests (proptest) over the core invariants.

use gsino::grid::{Point, Rect, RegionGrid, SensitivityModel, Technology};
use gsino::lsk::NoiseTable;
use gsino::numeric::{isotonic_increasing, PiecewiseLinear};
use gsino::sino::keff::{cap_violations, coupling, evaluate};
use gsino::sino::{instance::SegmentSpec, Layout, SinoInstance, SinoSolver};
use gsino::steiner::{iterated_one_steiner, rectilinear_mst};
use proptest::prelude::*;

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0..500.0f64, 0.0..500.0f64), 2..max)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Steiner heuristic never beats the HPWL lower bound and never
    /// loses to the MST upper bound.
    #[test]
    fn steiner_between_hpwl_and_mst(pins in arb_points(9)) {
        let mst = rectilinear_mst(&pins).length;
        let steiner = iterated_one_steiner(&pins).length();
        let bbox = Rect::bounding(&pins, 1e-6).unwrap();
        prop_assert!(steiner <= mst + 1e-9);
        prop_assert!(steiner + 1e-9 >= bbox.half_perimeter().min(mst));
    }

    /// Inserting a shield anywhere never increases anyone's coupling.
    #[test]
    fn shield_insertion_is_monotone(
        n in 2usize..10,
        rate in 0.0f64..1.0,
        seed in 0u64..1000,
        gap_frac in 0.0f64..1.0,
    ) {
        let segs: Vec<SegmentSpec> =
            (0..n).map(|i| SegmentSpec { net: i as u32, kth: 1.0 }).collect();
        let inst =
            SinoInstance::from_model(segs, &SensitivityModel::new(rate, seed)).unwrap();
        let base = Layout::from_order(&(0..n).collect::<Vec<_>>());
        let k0 = coupling(&inst, &base);
        let mut shielded = base.clone();
        let gap = ((n as f64) * gap_frac) as usize;
        shielded.insert_shield(gap.min(shielded.area()));
        let k1 = coupling(&inst, &shielded);
        for i in 0..n {
            prop_assert!(k1[i] <= k0[i] + 1e-12);
        }
        prop_assert!(cap_violations(&inst, &shielded) <= cap_violations(&inst, &base));
    }

    /// The SINO solver always returns a feasible layout containing every
    /// segment exactly once.
    #[test]
    fn sino_solutions_are_feasible(
        n in 1usize..12,
        rate in 0.0f64..1.0,
        kth in 0.05f64..3.0,
        seed in 0u64..500,
    ) {
        let segs: Vec<SegmentSpec> =
            (0..n).map(|i| SegmentSpec { net: i as u32, kth }).collect();
        let inst =
            SinoInstance::from_model(segs, &SensitivityModel::new(rate, seed)).unwrap();
        let layout = SinoSolver.solve(&inst).unwrap();
        prop_assert!(layout.validate(n).is_ok());
        let eval = evaluate(&inst, &layout);
        prop_assert!(eval.feasible);
        prop_assert!(layout.area() >= n);
    }

    /// The noise table is monotone and its inverse is consistent.
    #[test]
    fn noise_table_monotone_and_invertible(
        lsk1 in 0.0f64..6000.0,
        lsk2 in 0.0f64..6000.0,
        v in 0.101f64..0.199,
    ) {
        let table = NoiseTable::calibrated(&Technology::itrs_100nm());
        let (lo, hi) = if lsk1 <= lsk2 { (lsk1, lsk2) } else { (lsk2, lsk1) };
        prop_assert!(table.voltage(lo) <= table.voltage(hi) + 1e-12);
        let lsk = table.lsk_for_voltage(v);
        prop_assert!((table.voltage(lsk) - v).abs() < 1e-6);
    }

    /// Isotonic regression output is monotone and preserves the mean.
    #[test]
    fn isotonic_properties(ys in prop::collection::vec(-100.0f64..100.0, 1..40)) {
        let out = isotonic_increasing(&ys);
        prop_assert_eq!(out.len(), ys.len());
        prop_assert!(out.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        let mean_in: f64 = ys.iter().sum::<f64>() / ys.len() as f64;
        let mean_out: f64 = out.iter().sum::<f64>() / out.len() as f64;
        prop_assert!((mean_in - mean_out).abs() < 1e-9);
    }

    /// Piecewise-linear eval/inverse round-trip on strictly monotone tables.
    #[test]
    fn pwl_roundtrip(step in 0.1f64..10.0, x in 0.0f64..1.0) {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..10).map(|i| i as f64 * step).collect();
        let f = PiecewiseLinear::new(xs, ys).unwrap();
        let q = x * 9.0;
        prop_assert!((f.inverse(f.eval(q)) - q).abs() < 1e-9);
    }

    /// Every point of the die maps to a region whose rectangle contains it.
    #[test]
    fn region_mapping_is_consistent(
        x in 0.0f64..640.0,
        y in 0.0f64..640.0,
        tile in 32.0f64..128.0,
    ) {
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(640.0, 640.0)).unwrap();
        let grid = RegionGrid::from_die(die, &Technology::itrs_100nm(), tile).unwrap();
        let p = Point::new(x, y);
        let r = grid.region_of(p);
        let rect = grid.region_rect(r);
        prop_assert!(rect.contains(p), "point {p} region {r} rect {rect}");
    }

    /// Sensitivity is symmetric, irreflexive, and respects rate bounds.
    #[test]
    fn sensitivity_model_properties(
        rate in 0.0f64..1.0,
        seed in 0u64..10_000,
        a in 0u32..5000,
        b in 0u32..5000,
    ) {
        let m = SensitivityModel::new(rate, seed);
        prop_assert_eq!(m.is_sensitive(a, b), m.is_sensitive(b, a));
        prop_assert!(!m.is_sensitive(a, a));
    }
}
