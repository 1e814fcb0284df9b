//! Criterion micro-benchmarks of the substrates: Steiner trees, LU solves,
//! SINO solving, Keff evaluation, transient simulation and the ID router.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gsino_circuits::generator::generate;
use gsino_circuits::spec::CircuitSpec;
use gsino_core::router::reference::SeedAstarRouter;
use gsino_core::router::{route_all, AstarRouter, ShieldTerm, Weights};
use gsino_grid::geom::{Point, Rect};
use gsino_grid::net::{Circuit, Net};
use gsino_grid::region::RegionGrid;
use gsino_grid::sensitivity::SensitivityModel;
use gsino_grid::tech::Technology;
use gsino_numeric::{LuFactors, Matrix};
use gsino_rlc::coupled::{BlockSpec, WireRole};
use gsino_rlc::peak_noise;
use gsino_sino::instance::{SegmentSpec, SinoInstance};
use gsino_sino::keff::evaluate;
use gsino_sino::layout::Layout;
use gsino_sino::solver::SinoSolver;
use gsino_steiner::{iterated_one_steiner, rectilinear_mst};

fn points(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| Point::new((i * 97 % 311) as f64, (i * 53 % 271) as f64))
        .collect()
}

fn bench_steiner(c: &mut Criterion) {
    let pins8 = points(8);
    let pins40 = points(40);
    c.bench_function("rectilinear_mst_40pins", |b| {
        b.iter(|| rectilinear_mst(std::hint::black_box(&pins40)))
    });
    c.bench_function("iterated_one_steiner_8pins", |b| {
        b.iter(|| iterated_one_steiner(std::hint::black_box(&pins8)))
    });
}

fn bench_lu(c: &mut Criterion) {
    let n = 100;
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            m[(i, j)] = 1.0 / (1.0 + (i as f64 - j as f64).abs());
        }
        m[(i, i)] += n as f64;
    }
    let rhs: Vec<f64> = (0..n).map(|i| i as f64).collect();
    c.bench_function("lu_factor_100", |b| {
        b.iter(|| LuFactors::factor(std::hint::black_box(&m)).expect("factors"))
    });
    let lu = LuFactors::factor(&m).expect("factors");
    c.bench_function("lu_solve_100", |b| {
        b.iter(|| lu.solve(std::hint::black_box(&rhs)).expect("solves"))
    });
}

fn bench_sino(c: &mut Criterion) {
    let segs: Vec<SegmentSpec> = (0..14).map(|i| SegmentSpec { net: i, kth: 0.5 }).collect();
    let inst = SinoInstance::from_model(segs, &SensitivityModel::new(0.5, 7)).expect("valid");
    let solver = SinoSolver;
    c.bench_function("sino_greedy_14segments", |b| {
        b.iter(|| solver.solve(std::hint::black_box(&inst)).expect("solves"))
    });
    let layout = solver.solve(&inst).expect("solves");
    c.bench_function("keff_evaluate_14segments", |b| {
        b.iter(|| evaluate(std::hint::black_box(&inst), std::hint::black_box(&layout)))
    });
    let _ = Layout::from_order(&[0]);
}

fn bench_rlc(c: &mut Criterion) {
    let tech = Technology::itrs_100nm();
    let spec = BlockSpec::new(
        vec![WireRole::AggressorRising, WireRole::Victim, WireRole::Quiet],
        1000.0,
        &tech,
    )
    .expect("valid block");
    c.bench_function("transient_3wire_1mm", |b| {
        b.iter(|| peak_noise(std::hint::black_box(&spec)).expect("simulates"))
    });
}

fn bench_router(c: &mut Criterion) {
    let die = Rect::new(Point::new(0.0, 0.0), Point::new(1024.0, 1024.0)).unwrap();
    let nets: Vec<Net> = (0..100)
        .map(|i| {
            let x = 16.0 + (i as f64 * 137.0) % 960.0;
            let y = 16.0 + (i as f64 * 211.0) % 960.0;
            Net::two_pin(i, Point::new(x, y), Point::new(1008.0 - x, 1008.0 - y))
        })
        .collect();
    let circuit = Circuit::new("bench", die, nets).unwrap();
    let grid = RegionGrid::new(&circuit, &Technology::itrs_100nm(), 64.0).unwrap();
    c.bench_function("id_router_100nets", |b| {
        b.iter_batched(
            || (),
            |_| route_all(&grid, &circuit, Weights::default(), ShieldTerm::None).expect("routes"),
            BatchSize::LargeInput,
        )
    });
}

/// A 500-net generator circuit (the acceptance workload for the flat
/// routing core): a scaled `ibm01` with the net count pinned to 500.
fn astar_workload() -> (Circuit, RegionGrid) {
    let mut spec = CircuitSpec::ibm01();
    spec.num_nets = 500;
    let circuit = generate(&spec, 2002).expect("generator circuit");
    let grid = RegionGrid::new(&circuit, &Technology::itrs_100nm(), 64.0).expect("grid");
    (circuit, grid)
}

/// Seed HashMap/BinaryHeap A* vs the flat-array scratch kernel, both on
/// the same 500-net circuit. The route sets are asserted byte-identical
/// before any timing is reported, so a regression in either axis (speed
/// or fidelity) fails the bench.
fn bench_astar_search(c: &mut Criterion) {
    let (circuit, grid) = astar_workload();
    let weights = Weights::default();
    let seed_router = SeedAstarRouter::new(&grid, weights, ShieldTerm::None);
    let flat_router = AstarRouter::new(&grid, weights, ShieldTerm::None);
    // Both kernels route the same pre-decomposed connection list, so the
    // comparison isolates the search/assembly core from the (identical)
    // Steiner preprocessing.
    let conns = flat_router.prepare(&circuit);
    let seed_routes = seed_router
        .route_prepared(&circuit, &conns)
        .expect("seed routes");
    let mut scratch = flat_router.make_scratch();
    let (flat_routes, _) = flat_router
        .route_prepared(&circuit, &conns, &mut scratch)
        .expect("flat routes");
    assert_eq!(
        seed_routes, flat_routes,
        "flat A* must match the seed bit for bit"
    );
    assert_eq!(
        seed_routes.total_wirelength(&grid),
        flat_routes.total_wirelength(&grid)
    );
    c.bench_function("astar_search_seed_hashmap_500nets", |b| {
        b.iter(|| {
            seed_router
                .route_prepared(std::hint::black_box(&circuit), &conns)
                .expect("routes")
        })
    });
    c.bench_function("astar_search_flat_scratch_500nets", |b| {
        b.iter(|| {
            flat_router
                .route_prepared(std::hint::black_box(&circuit), &conns, &mut scratch)
                .expect("routes")
        })
    });
    c.bench_function("astar_full_seed_500nets", |b| {
        b.iter(|| {
            seed_router
                .route(std::hint::black_box(&circuit))
                .expect("routes")
        })
    });
    c.bench_function("astar_full_flat_500nets", |b| {
        b.iter(|| {
            let circuit = std::hint::black_box(&circuit);
            let conns = flat_router.prepare(circuit);
            flat_router
                .route_prepared(circuit, &conns, &mut scratch)
                .expect("routes")
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_steiner, bench_lu, bench_sino, bench_rlc, bench_router, bench_astar_search
}
criterion_main!(benches);
