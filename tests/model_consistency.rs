//! Cross-crate consistency: the LSK bookkeeping used by the flows must
//! agree with the models computed directly from the region solutions, and
//! the modelled physics must rank like the simulator.

use gsino::core::budget::{uniform_budgets, LengthModel};
use gsino::core::phase2::{solve_regions, RegionMode};
use gsino::core::router::{route_all, ShieldTerm, Weights};
use gsino::core::violations::sink_lsk;
use gsino::grid::{Circuit, Dir, Net, Point, Rect, RegionGrid, SensitivityModel, Technology};
use gsino::lsk::{lsk_value, NoiseTable};
use gsino::sino::evaluate;

fn bus(n: u32, len: f64) -> (Circuit, RegionGrid) {
    let die = Rect::new(Point::new(0.0, 0.0), Point::new(len.max(512.0), 512.0)).unwrap();
    let nets: Vec<Net> = (0..n)
        .map(|i| {
            Net::two_pin(
                i,
                Point::new(8.0, 256.0 + i as f64),
                Point::new(len - 8.0, 256.0 + i as f64),
            )
        })
        .collect();
    let circuit = Circuit::new("bus", die, nets).unwrap();
    let grid = RegionGrid::new(&circuit, &Technology::itrs_100nm(), 64.0).unwrap();
    (circuit, grid)
}

#[test]
fn sink_lsk_matches_manual_accumulation() {
    let (circuit, grid) = bus(8, 1536.0);
    let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
    let table = NoiseTable::calibrated(&Technology::itrs_100nm());
    let budgets = uniform_budgets(
        &circuit,
        &grid,
        &routes,
        &table,
        0.15,
        LengthModel::Manhattan,
    )
    .unwrap();
    let sens = SensitivityModel::new(0.5, 5);
    let sino = solve_regions(&grid, &routes, &budgets, &sens, RegionMode::OrderOnly, 1).unwrap();
    for net in circuit.nets() {
        let route = routes.get(net.id()).unwrap();
        let fast = sink_lsk(&grid, route, &sino, net, 0);
        // Manual re-accumulation over the same path.
        let root = grid.region_of(net.source());
        let sink_region = grid.region_of(net.sinks()[0]);
        let path = route.path(root, sink_region).unwrap();
        let manual = lsk_value(path.iter().flat_map(|&r| {
            let (lh, lv) = route.length_in_region(&grid, r);
            [
                (lh, sino.k_of(net.id(), r, Dir::H).unwrap_or(0.0)),
                (lv, sino.k_of(net.id(), r, Dir::V).unwrap_or(0.0)),
            ]
        }));
        assert!((fast - manual).abs() < 1e-9, "net {}", net.id());
    }
}

#[test]
fn region_k_values_match_layout_evaluation() {
    let (circuit, grid) = bus(10, 1024.0);
    let (routes, _) = route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).unwrap();
    let table = NoiseTable::calibrated(&Technology::itrs_100nm());
    let budgets = uniform_budgets(
        &circuit,
        &grid,
        &routes,
        &table,
        0.15,
        LengthModel::RoutedPath,
    )
    .unwrap();
    let sens = SensitivityModel::new(0.5, 5);
    let sino = solve_regions(&grid, &routes, &budgets, &sens, RegionMode::Sino, 1).unwrap();
    for (r, d) in sino.keys() {
        let sol = sino.solution(r, d).unwrap();
        let eval = evaluate(&sol.instance, &sol.layout);
        assert_eq!(sol.k, eval.k, "cached K differs at region {r} {d:?}");
        assert!(eval.feasible, "phase II must satisfy budgets at {r} {d:?}");
    }
}

#[test]
fn longer_nets_accumulate_more_lsk() {
    let table = NoiseTable::calibrated(&Technology::itrs_100nm());
    let mut last = 0.0;
    for len in [512.0, 1024.0, 2048.0] {
        let (circuit, grid) = bus(6, len);
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
        let sens = SensitivityModel::new(1.0, 5);
        let sino =
            solve_regions(&grid, &routes, &budgets, &sens, RegionMode::OrderOnly, 1).unwrap();
        let net = circuit.net(2).unwrap();
        let lsk = sink_lsk(&grid, routes.get(2).unwrap(), &sino, net, 0);
        assert!(lsk > last, "LSK must grow with length: {lsk} after {last}");
        last = lsk;
    }
}

#[test]
fn keff_ranking_agrees_with_simulator() {
    // The fidelity property (paper §2.2): higher modelled K must mean
    // higher simulated noise, at fixed length. Three layouts of increasing
    // separation around the victim.
    use gsino::lsk::victim_block_spec;
    use gsino::rlc::peak_noise;
    use gsino::sino::instance::SegmentSpec;
    use gsino::sino::{Layout, SinoInstance};

    let tech = Technology::itrs_100nm();
    let segs: Vec<SegmentSpec> = (0..5).map(|i| SegmentSpec { net: i, kth: 1e9 }).collect();
    let inst = SinoInstance::from_model(segs, &SensitivityModel::new(1.0, 1)).unwrap();
    // Victim is segment 0; neighbours pack closer and closer.
    let layouts = [
        Layout::from_order(&[1, 0, 2, 3, 4]), // victim sandwiched
        Layout::from_order(&[0, 1, 2, 3, 4]), // victim at the edge
        {
            let mut l = Layout::from_order(&[0, 1, 2, 3, 4]);
            l.insert_shield(1); // victim isolated by a shield
            l
        },
    ];
    let mut pairs = Vec::new();
    for layout in &layouts {
        let k = gsino::sino::keff::coupling(&inst, layout)[0];
        let noise = match victim_block_spec(&inst, layout, 0, 1500.0, &tech).unwrap() {
            Some(spec) => peak_noise(&spec).unwrap(),
            None => 0.0,
        };
        pairs.push((k, noise));
    }
    // K ordering: sandwiched > edge > shielded.
    assert!(pairs[0].0 > pairs[1].0 && pairs[1].0 > pairs[2].0);
    // Noise must follow the same order.
    assert!(
        pairs[0].1 > pairs[1].1 && pairs[1].1 > pairs[2].1,
        "simulated noise does not follow Keff ranking: {pairs:?}"
    );
}
