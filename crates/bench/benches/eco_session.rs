//! **E7** — ECO session throughput: transactional edit replay against the
//! routed 300-net generator circuit.
//!
//! Drives a long [`EcoSession`] — one edit per commit, the incremental
//! fast path an interactive ECO loop would take — and reports edit
//! throughput (edits/sec) and the patch-latency distribution (p50/p99 ms
//! per commit), split by replay rung (budget-only vs Phase I). The final
//! session state is asserted bit-identical to a from-scratch GSINO run on
//! the edited circuit, so the numbers are only reported for a correct
//! replay. The summary goes to `BENCH_eco.json` (override with
//! `GSINO_BENCH_ECO_OUT`).
//!
//! The edits run in [`ROUNDS`] rounds of budget and Phase I commits, and
//! every round also times the reference, a from-scratch session seed on
//! the round's circuit, alternating whether it runs before or after the
//! round's commits. `bench_gate` gates `patch_normalized` and
//! `phase1_normalized`, the medians over rounds of the round's median
//! commit time over its reference time, so a swing in the machine's speed
//! moves both sides of a ratio alike. Throughput and p99 are report-only.

use gsino_bench::report::{eco_out_path, JsonDoc};
use gsino_bench::{banner, bench_experiment_config};
use gsino_circuits::generator::generate;
use gsino_circuits::spec::CircuitSpec;
use gsino_core::pipeline::{run_flow_with_artifacts, Approach, GsinoConfig};
use gsino_core::session::{EcoEdit, EcoSession};
use gsino_grid::geom::Point;
use gsino_grid::net::{CircuitEdit, Net};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Map, Value};
use std::time::Instant;

const BUDGET_EDITS: usize = 120;
const TOPOLOGY_EDITS: usize = 40;
/// Rounds the edits are split into; each round times one reference.
const ROUNDS: usize = 10;

/// Per-commit wall times (ms) for one replay rung.
struct Latencies(Vec<f64>);

impl Latencies {
    fn percentile(&self, p: f64) -> f64 {
        // invariant: callers only build non-empty latency sets.
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let idx = ((v.len() as f64 - 1.0) * p).round() as usize;
        v[idx]
    }

    fn total_s(&self) -> f64 {
        self.0.iter().sum::<f64>() / 1e3
    }
}

/// Median of a non-empty sample.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    v[v.len() / 2]
}

/// Runs one edit as its own transaction and returns its wall time in ms.
fn commit_ms(session: &mut EcoSession, edit: EcoEdit) -> f64 {
    let t = Instant::now();
    session.begin().expect("begin");
    session.apply(edit).expect("apply");
    session.commit().expect("commit");
    t.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let config = bench_experiment_config();
    eprintln!("{}", banner("eco_session", &config));

    let mut spec = CircuitSpec::ibm01();
    spec.num_nets = 300;
    let circuit = generate(&spec, 2002).expect("generator circuit");
    let die = circuit.die();
    let flow_config = GsinoConfig::builder()
        .threads(1)
        .build()
        .expect("valid config");

    let t0 = Instant::now();
    let mut session = EcoSession::new(&circuit, &flow_config).expect("seed session");
    let seed_s = t0.elapsed().as_secs_f64();

    let mut rng = StdRng::seed_from_u64(0xEC0_BE7C);
    let live: Vec<u32> = session.circuit().nets().iter().map(|n| n.id()).collect();

    // Budget-only rung: tighten one sink's constraint per commit.
    let budget_edits: Vec<EcoEdit> = (0..BUDGET_EDITS)
        .map(|_| {
            let net = live[rng.gen_range(0..live.len())];
            let vth = 0.10 + 0.08 * rng.gen::<f64>();
            EcoEdit::TightenVth { net, sink: 0, vth }
        })
        .collect();
    // Phase I rung: add / remove a net per commit.
    let mut next_id = 10_000u32;
    let topo_edits: Vec<EcoEdit> = (0..TOPOLOGY_EDITS)
        .map(|i| {
            if i % 2 == 0 {
                let (lo, hi) = (die.lo(), die.hi());
                let x = lo.x + 16.0 + rng.gen::<f64>() * (hi.x - lo.x - 32.0);
                let y = lo.y + 16.0 + rng.gen::<f64>() * (hi.y - lo.y - 32.0);
                let id = next_id;
                next_id += 1;
                EcoEdit::Circuit(CircuitEdit::AddNet {
                    net: Net::two_pin(
                        id,
                        Point::new(x, y),
                        Point::new(hi.x - x + lo.x, hi.y - y + lo.y),
                    ),
                })
            } else {
                EcoEdit::Circuit(CircuitEdit::RemoveNet { net: next_id - 1 })
            }
        })
        .collect();

    let mut budget_ms = Vec::with_capacity(BUDGET_EDITS);
    let mut topo_ms = Vec::with_capacity(TOPOLOGY_EDITS);
    let (mut scratch_ms, mut patch_ratios, mut phase1_ratios) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut budget_iter = budget_edits.into_iter();
    let mut topo_iter = topo_edits.into_iter();
    for round in 0..ROUNDS {
        let time_scratch = |session: &EcoSession| {
            let t = Instant::now();
            EcoSession::new(session.circuit(), &flow_config).expect("scratch session");
            t.elapsed().as_secs_f64() * 1e3
        };
        let before = (round % 2 == 0).then(|| time_scratch(&session));
        let round_budget: Vec<f64> = budget_iter
            .by_ref()
            .take(BUDGET_EDITS / ROUNDS)
            .map(|edit| commit_ms(&mut session, edit))
            .collect();
        let round_topo: Vec<f64> = topo_iter
            .by_ref()
            .take(TOPOLOGY_EDITS / ROUNDS)
            .map(|edit| commit_ms(&mut session, edit))
            .collect();
        let scratch = before.unwrap_or_else(|| time_scratch(&session));
        patch_ratios.push(median(round_budget.clone()) / scratch);
        phase1_ratios.push(median(round_topo.clone()) / scratch);
        scratch_ms.push(scratch);
        budget_ms.extend(round_budget);
        topo_ms.extend(round_topo);
    }
    let budget = Latencies(budget_ms);
    let topo = Latencies(topo_ms);

    let stats = *session.stats();
    assert_eq!(stats.divergences, 0, "clean run must not diverge");
    assert_eq!(stats.degraded_replays, 0, "clean run must not degrade");

    // The numbers only count if the replayed state is the real state.
    let (outcome, internals) =
        run_flow_with_artifacts(session.circuit(), session.config(), Approach::Gsino)
            .expect("from-scratch oracle");
    assert_eq!(session.routes(), &outcome.routes, "routes diverged");
    assert_eq!(session.budgets(), &internals.budgets, "budgets diverged");
    assert_eq!(session.sino(), &internals.sino, "sino diverged");

    let edits = (BUDGET_EDITS + TOPOLOGY_EDITS) as f64;
    let total_s = budget.total_s() + topo.total_s();
    let edits_per_sec = edits / total_s;
    let scratch_ms = median(scratch_ms);
    let patch_normalized = median(patch_ratios);
    let phase1_normalized = median(phase1_ratios);

    println!("== ECO session, 300-net generator circuit ({ROUNDS} rounds) ==");
    println!("  seed (from scratch)       {:>9.2} ms", seed_s * 1e3);
    println!("  from scratch, per round   {scratch_ms:>9.2} ms (median)");
    println!(
        "  budget-only commits       {:>9} edits, p50 {:.3} ms, p99 {:.3} ms",
        BUDGET_EDITS,
        budget.percentile(0.50),
        budget.percentile(0.99)
    );
    println!(
        "  phase-I commits           {:>9} edits, p50 {:.3} ms, p99 {:.3} ms",
        TOPOLOGY_EDITS,
        topo.percentile(0.50),
        topo.percentile(0.99)
    );
    println!("  overall                   {edits_per_sec:>9.1} edits/sec");
    println!(
        "  per-round medians over scratch: budget {patch_normalized:.4}, phase-I {phase1_normalized:.4}"
    );
    println!(
        "  regions: {} re-solved, {} reused; oracle checks {}",
        stats.regions_resolved, stats.regions_reused, stats.oracle_checks
    );
    println!("  final state bit-identical to from-scratch: yes");

    let mut workload = Map::new();
    workload.insert("circuit", Value::Str("ibm01".into()));
    workload.insert("nets", Value::U64(300));
    workload.insert("budget_edits", Value::U64(BUDGET_EDITS as u64));
    workload.insert("topology_edits", Value::U64(TOPOLOGY_EDITS as u64));
    let mut session_m = Map::new();
    session_m.insert("edits_per_sec", Value::F64(edits_per_sec));
    session_m.insert("p99_patch_ms", Value::F64(budget.percentile(0.99)));
    session_m.insert("p50_patch_ms", Value::F64(budget.percentile(0.50)));
    session_m.insert("p99_phase1_ms", Value::F64(topo.percentile(0.99)));
    session_m.insert("p50_phase1_ms", Value::F64(topo.percentile(0.50)));
    session_m.insert("scratch_ms", Value::F64(scratch_ms));
    session_m.insert("patch_normalized", Value::F64(patch_normalized));
    session_m.insert("phase1_normalized", Value::F64(phase1_normalized));
    session_m.insert("regions_resolved", Value::U64(stats.regions_resolved));
    session_m.insert("regions_reused", Value::U64(stats.regions_reused));
    session_m.insert("oracle_checks", Value::U64(stats.oracle_checks));
    let mut root = Map::new();
    root.insert("schema", Value::U64(1));
    root.insert("workload", Value::Object(workload));
    root.insert("session", Value::Object(session_m));
    let path = eco_out_path();
    match serde_json::to_string_pretty(&JsonDoc(Value::Object(root))) {
        Ok(text) => {
            if let Err(e) = std::fs::write(&path, text + "\n") {
                eprintln!("could not write {path}: {e}");
            } else {
                println!("wrote {path}");
            }
        }
        Err(e) => eprintln!("could not serialize bench summary: {e}"),
    }
}
