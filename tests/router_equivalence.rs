//! Equivalence properties of the flat-array routing core against the seed
//! implementations kept in `gsino_core::router::reference`.
//!
//! The flat `SearchScratch` A* (epoch-stamped arrays, monotone bucket
//! heap, closed-set skips) and the worklist-based tree assembly must be
//! observationally *identical* to the seed `HashMap`/`BinaryHeap` router —
//! same route sets byte for byte — on generator circuits across seeds.
//!
//! The same holds for the ID path: the incremental-connectivity ID router
//! (`router::connectivity`) must match the preserved PR-1 BFS kernel
//! (`reference::SeedIdRouter`) byte for byte, and the bridge-based
//! `connected_without` must agree with the BFS reference on randomly
//! generated corridors through arbitrary ID-style deletion sequences.

use gsino_circuits::generator::generate;
use gsino_circuits::spec::CircuitSpec;
use gsino_core::router::reference::{SeedAstarRouter, SeedIdRouter};
use gsino_core::router::{
    route_all, AstarRouter, BridgeCache, ConnectivityScratch, Corridor, CorridorScratch,
    ShieldTerm, Weights,
};
use gsino_grid::region::RegionGrid;
use gsino_grid::tech::Technology;
use proptest::prelude::*;

fn routers_setup(seed: u64, scale: f64) -> (gsino_grid::net::Circuit, RegionGrid) {
    let spec = CircuitSpec::ibm01().scaled(scale);
    let circuit = generate(&spec, seed).expect("generator circuits are valid");
    let grid = RegionGrid::new(&circuit, &Technology::itrs_100nm(), 64.0).expect("valid grid");
    (circuit, grid)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The flat-array A* returns byte-identical route sets to the seed
    /// HashMap implementation on seeded random circuits.
    #[test]
    fn flat_astar_matches_seed_router(seed in 0u64..5000) {
        let (circuit, grid) = routers_setup(seed, 0.02);
        let weights = Weights::default();
        let flat = AstarRouter::new(&grid, weights, ShieldTerm::None);
        let reference = SeedAstarRouter::new(&grid, weights, ShieldTerm::None);
        let (flat_routes, _) = flat.route(&circuit).expect("flat routes");
        let seed_routes = reference.route(&circuit).expect("reference routes");
        prop_assert_eq!(flat_routes, seed_routes);
    }

    /// Two consecutive `route_prepared` calls on one reused scratch are
    /// deterministic and equal to a fresh-scratch run.
    #[test]
    fn reused_scratch_is_deterministic(seed in 0u64..5000) {
        let (circuit, grid) = routers_setup(seed, 0.02);
        let router = AstarRouter::new(&grid, Weights::default(), ShieldTerm::None);
        let conns = router.prepare(&circuit);
        let mut scratch = router.make_scratch();
        let (first, _) = router.route_prepared(&circuit, &conns, &mut scratch).expect("routes");
        let (second, _) = router.route_prepared(&circuit, &conns, &mut scratch).expect("routes");
        let (fresh, _) = router.route(&circuit).expect("routes");
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(&first, &fresh);
    }

    /// The incremental-connectivity ID router returns byte-identical route
    /// sets (and identical deletion counters) to the preserved PR-1 BFS
    /// kernel on seeded random circuits.
    #[test]
    fn incremental_id_matches_pr1_reference(seed in 0u64..5000) {
        let (circuit, grid) = routers_setup(seed, 0.02);
        let weights = Weights::default();
        let (routes, stats) = route_all(&grid, &circuit, weights, ShieldTerm::None)
            .expect("incremental ID routes");
        let (ref_routes, ref_stats) = SeedIdRouter::new(&grid, weights, ShieldTerm::None)
            .route(&circuit)
            .expect("PR-1 ID routes");
        prop_assert_eq!(routes, ref_routes);
        prop_assert_eq!(stats.connections, ref_stats.connections);
        prop_assert_eq!(stats.deletions, ref_stats.deletions);
        prop_assert_eq!(stats.kept, ref_stats.kept);
        prop_assert_eq!(stats.reinserts, ref_stats.reinserts);
    }

    /// Bridge-based `connected_without` agrees with the BFS reference on
    /// randomly generated corridors through a full ID-style deletion
    /// sequence (query every edge; kill when deletable), including queries
    /// about dead edges and disconnected leftovers.
    #[test]
    fn bridge_connectivity_agrees_with_bfs(
        x1 in 0u32..9, y1 in 0u32..9, x2 in 0u32..9, y2 in 0u32..9,
        halo in 0u32..2, order_seed in 0u64..1_000_000,
    ) {
        let die = gsino_grid::geom::Rect::new(
            gsino_grid::geom::Point::new(0.0, 0.0),
            gsino_grid::geom::Point::new(640.0, 640.0),
        ).expect("die");
        let grid = RegionGrid::from_die(die, &Technology::itrs_100nm(), 64.0).expect("grid");
        let mut corridor = Corridor::new(&grid, grid.idx(x1, y1), grid.idx(x2, y2), halo);
        let mut cache = BridgeCache::new();
        let mut scratch = ConnectivityScratch::new();
        let mut bfs = CorridorScratch::new();
        let mut state = order_seed.wrapping_mul(2) | 1;
        let edges = corridor.num_edges();
        for _round in 0..4 {
            for _ in 0..edges.max(1) {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if edges == 0 {
                    break;
                }
                let e = (state >> 33) as usize % edges;
                let fast = cache.connected_without(&corridor, e, &mut scratch);
                let slow = corridor.connected_without(e, &mut bfs);
                prop_assert_eq!(fast, slow, "edge {} diverged", e);
                if fast && corridor.is_alive(e) {
                    corridor.kill(e);
                    cache.note_kill(e);
                }
            }
        }
    }
}

/// One denser non-property check: a mid-size circuit where congestion
/// pressure forces detours, wirelength and trees must still agree between
/// the seed router and the flat router.
#[test]
fn dense_circuit_full_agreement() {
    let (circuit, grid) = routers_setup(2002, 0.06);
    let weights = Weights::default();
    let flat = AstarRouter::new(&grid, weights, ShieldTerm::None);
    let (seq, _) = flat.route(&circuit).expect("flat");
    let seed_routes = SeedAstarRouter::new(&grid, weights, ShieldTerm::None)
        .route(&circuit)
        .expect("reference");
    assert_eq!(seq, seed_routes);
    assert_eq!(
        seq.total_wirelength(&grid),
        seed_routes.total_wirelength(&grid)
    );
}

/// Regression ceilings for the connectivity counters on the exact 500-net
/// ibm01 workload the `phase_runtime` bench times (mirroring its
/// bit-identical route-set assertion). The workload is deterministic, so
/// the counts are exact; the ceilings sit a little above the measured
/// values (1088 recomputes — one per corridor — and 6655 localized
/// repairs) so legitimate tie-break-preserving changes don't trip them,
/// while a change that quietly degrades localized repairs back into
/// per-kill full recomputes fails loudly. `bench_gate` enforces the same
/// ceilings in CI from `BENCH_phase1.json`.
#[test]
fn connectivity_counters_stay_at_measured_baseline() {
    let mut spec = CircuitSpec::ibm01();
    spec.num_nets = 500;
    let circuit = generate(&spec, 2002).expect("generator circuit");
    let grid = RegionGrid::new(&circuit, &Technology::itrs_100nm(), 64.0).expect("grid");
    let (_, stats) =
        route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).expect("ID routes");
    assert_eq!(
        stats.connectivity_recomputes, stats.connections,
        "full bridge recomputes must stay at exactly one per corridor"
    );
    assert!(
        stats.connectivity_repairs <= 7000,
        "localized repairs ({}) exceeded the measured baseline ceiling (7000)",
        stats.connectivity_repairs
    );
    assert!(
        stats.connectivity_o1_hits
            >= 5 * (stats.connectivity_repairs + stats.connectivity_recomputes),
        "O(1) hits ({}) should dominate localized passes ({} repairs, {} recomputes)",
        stats.connectivity_o1_hits,
        stats.connectivity_repairs,
        stats.connectivity_recomputes
    );
}

/// Denser ID check: under congestion pressure the incremental kernel must
/// still match the PR-1 reference byte for byte, while answering most
/// connectivity queries without a recompute.
#[test]
fn dense_circuit_id_agreement() {
    let (circuit, grid) = routers_setup(2002, 0.04);
    let weights = Weights::default();
    let (routes, stats) = route_all(&grid, &circuit, weights, ShieldTerm::None).expect("flat ID");
    let (ref_routes, _) = SeedIdRouter::new(&grid, weights, ShieldTerm::None)
        .route(&circuit)
        .expect("PR-1 ID");
    assert_eq!(routes, ref_routes);
    assert_eq!(
        routes.total_wirelength(&grid),
        ref_routes.total_wirelength(&grid)
    );
    assert!(
        stats.connectivity_recomputes < stats.connectivity_o1_hits,
        "recomputes ({}) should be rarer than O(1) hits ({})",
        stats.connectivity_recomputes,
        stats.connectivity_o1_hits
    );
}
