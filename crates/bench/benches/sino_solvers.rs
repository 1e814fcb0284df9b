//! **A2** — ablation of the SINO solver: greedy construction alone versus
//! greedy plus simulated-annealing polish, over a corpus of region
//! instances. SINO is NP-hard (paper §3), so the interesting question is
//! how much area the cheap heuristic leaves on the table. The flow runs
//! the greedy solver alone; this bench is the annealer's only caller
//! outside tests, and it asserts that every layout is feasible and that
//! the polish never adds area.

use gsino_grid::sensitivity::SensitivityModel;
use gsino_sino::anneal::{improve, AnnealConfig};
use gsino_sino::instance::{SegmentSpec, SinoInstance};
use gsino_sino::keff::evaluate;
use gsino_sino::solver::SinoSolver;
use std::time::Instant;

fn main() {
    let mut corpus = Vec::new();
    for n in [6usize, 10, 14, 18, 24] {
        for rate in [0.3, 0.5, 0.8] {
            for seed in 0..4u64 {
                let segs: Vec<SegmentSpec> = (0..n)
                    .map(|i| SegmentSpec {
                        net: i as u32,
                        kth: 0.5,
                    })
                    .collect();
                let inst = SinoInstance::from_model(
                    segs,
                    &SensitivityModel::new(rate, seed ^ (n as u64) << 8),
                )
                .expect("valid");
                corpus.push(inst);
            }
        }
    }
    println!(
        "corpus: {} region instances (n in 6..24, rates 0.3/0.5/0.8)\n",
        corpus.len()
    );

    let polish = AnnealConfig {
        iters: 4000,
        seed: 0xA11,
        ..AnnealConfig::default()
    };
    let mut areas = Vec::new();
    for (label, anneal) in [("greedy only", false), ("greedy + SA (4k iters)", true)] {
        let t0 = Instant::now();
        let layouts: Vec<_> = corpus
            .iter()
            .map(|inst| {
                let layout = SinoSolver.solve(inst).expect("solves");
                if anneal {
                    improve(inst, layout, &polish)
                } else {
                    layout
                }
            })
            .collect();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        for (inst, layout) in corpus.iter().zip(&layouts) {
            assert!(
                evaluate(inst, layout).feasible,
                "{label}: infeasible layout"
            );
        }
        let area: usize = layouts.iter().map(|l| l.area()).sum();
        let shields: usize = layouts.iter().map(|l| l.num_shields()).sum();
        println!("{label:<24}: total area {area:>5} tracks, shields {shields:>4}, {ms:>8.1} ms");
        areas.push(area);
    }
    assert!(
        areas[1] <= areas[0],
        "the annealer added area: {} > {} tracks",
        areas[1],
        areas[0]
    );
    println!(
        "\nexpectation: SA shaves a few percent of area at ~100x the runtime —\n\
         which is why the full-chip flow uses the greedy solver per region"
    );
}
