//! Scale-ladder workload matrix: generates each selected rung of the
//! deterministic scale ladder (`ScaleSpec::ladder()`), round-trips it
//! through the text workload format (`write_workload` → `parse_workload`,
//! equality asserted), checks the structural invariants, and — on rungs
//! small enough for CI — runs the full three-phase GSINO pipeline with
//! `threads = 1` so the behaviour counters are exactly reproducible.
//!
//! The per-workload results are summarised to `BENCH_scale.json`
//! (override with `GSINO_BENCH_SCALE_OUT` via `report::scale_out_path`)
//! under a
//! `workloads` object keyed by rung id; `bench_gate` gates the
//! deterministic counts of every rung present in the committed baseline
//! and reports the wall-clock / memory columns.
//!
//! Environment knobs:
//!
//! - `GSINO_SCALE_RUNGS` — comma-separated rung ids to run
//!   (default `scale5k`; `all` selects the whole ladder).
//! - `GSINO_SCALE_BUDGET_S` — wall-clock budget in seconds (default 900);
//!   rungs that have not *started* when the budget is spent are skipped
//!   and listed in `skipped` so truncation is never silent.

use gsino_bench::report::{peak_rss_mb, scale_out_path, JsonDoc};
use gsino_circuits::generator::{circuit_digest, generate_scaled, ScaleSpec};
use gsino_circuits::io::{parse_workload_str, write_workload, Workload};
use gsino_core::pipeline::{run_gsino, GsinoConfig, GsinoOutcome};
use serde::{Map, Value};
use std::time::Instant;

/// Largest rung that runs the full pipeline tier (route + budget + SINO +
/// refine). Bigger rungs only generate, round-trip, and validate — the
/// pipeline on them is a local experiment, not a CI matter.
const PIPELINE_TIER_MAX_NETS: usize = 5_000;

/// Rung ids selected by `GSINO_SCALE_RUNGS` (default: the gated 5k rung).
fn selected_rungs() -> Vec<String> {
    let raw = std::env::var("GSINO_SCALE_RUNGS").unwrap_or_else(|_| "scale5k".to_string());
    if raw.trim() == "all" {
        return ScaleSpec::ladder().iter().map(|s| s.id.clone()).collect();
    }
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Wall-clock budget in seconds (`GSINO_SCALE_BUDGET_S`, default 900).
fn budget_s() -> f64 {
    std::env::var("GSINO_SCALE_BUDGET_S")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(900.0)
}

/// Structural invariants every rung must satisfy regardless of tier.
/// Panics (failing the bench) on the first violated invariant.
fn check_invariants(spec: &ScaleSpec, wl: &Workload) {
    let circuit = wl.circuit();
    assert_eq!(
        circuit.num_nets(),
        spec.num_nets,
        "{}: generator must publish exactly the requested net count",
        spec.id
    );
    let die = *circuit.die();
    assert!(
        (die.width() - f64::from(wl.nx()) * wl.tile_w()).abs() < 1e-6,
        "{}: die width must equal nx * tile_w",
        spec.id
    );
    assert!(
        (die.height() - f64::from(wl.ny()) * wl.tile_h()).abs() < 1e-6,
        "{}: die height must equal ny * tile_h",
        spec.id
    );
    let mut prev_id = None;
    for net in circuit.nets() {
        assert!(
            net.degree() > 0,
            "{}: every net must have at least one pin",
            spec.id
        );
        if let Some(prev) = prev_id {
            assert!(
                net.id() > prev,
                "{}: net ids must be strictly increasing",
                spec.id
            );
        }
        prev_id = Some(net.id());
        for pin in net.pins() {
            assert!(
                die.contains(*pin),
                "{}: pin {:?} of net {} escapes the die",
                spec.id,
                pin,
                net.id()
            );
        }
    }
}

/// One rung's measurements, written into the `workloads` matrix.
struct RungResult {
    nets: u64,
    regions: u64,
    digest: u64,
    gen_ms: f64,
    write_ms: f64,
    parse_ms: f64,
    pipeline: Option<GsinoOutcome>,
    total_ms: f64,
}

/// Generates, round-trips, validates, and (pipeline tier only) routes one
/// rung of the ladder.
fn run_rung(spec: &ScaleSpec) -> RungResult {
    let t_rung = Instant::now();
    let t0 = Instant::now();
    let wl = generate_scaled(spec).expect("scale rung generates");
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let mut text = Vec::new();
    write_workload(&wl, &mut text).expect("workload writes");
    let write_ms = t0.elapsed().as_secs_f64() * 1e3;
    let text = String::from_utf8(text).expect("writer emits UTF-8");

    let t0 = Instant::now();
    let parsed = parse_workload_str(&text).expect("written workload parses");
    let parse_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        parsed, wl,
        "{}: parse ∘ write must be the identity",
        spec.id
    );
    drop(parsed);
    drop(text);

    check_invariants(spec, &wl);
    let digest = circuit_digest(wl.circuit());
    let regions = u64::from(wl.nx()) * u64::from(wl.ny());
    let nets = wl.circuit().num_nets() as u64;

    let pipeline = if spec.num_nets <= PIPELINE_TIER_MAX_NETS {
        // threads = 1: the behaviour counters (recomputes, repairs,
        // violations, shields) must be exactly reproducible for the gate.
        let config = GsinoConfig::builder()
            .threads(1)
            .build()
            .expect("valid config");
        let outcome = run_gsino(wl.circuit(), &config).expect("pipeline runs");
        assert_eq!(
            outcome.routes.len(),
            wl.circuit().num_nets(),
            "{}: every net must be routed",
            spec.id
        );
        Some(outcome)
    } else {
        None
    };

    RungResult {
        nets,
        regions,
        digest,
        gen_ms,
        write_ms,
        parse_ms,
        pipeline,
        total_ms: t_rung.elapsed().as_secs_f64() * 1e3,
    }
}

/// Serializes one rung's row of the matrix.
fn rung_row(r: &RungResult) -> Map {
    let mut m = Map::new();
    m.insert("nets", Value::U64(r.nets));
    m.insert("regions", Value::U64(r.regions));
    m.insert("digest", Value::Str(format!("{:016x}", r.digest)));
    m.insert("gen_ms", Value::F64(r.gen_ms));
    m.insert("write_ms", Value::F64(r.write_ms));
    m.insert("parse_ms", Value::F64(r.parse_ms));
    m.insert("total_ms", Value::F64(r.total_ms));
    if let Some(rss) = peak_rss_mb() {
        m.insert("peak_rss_mb", Value::F64(rss));
    }
    if let Some(out) = &r.pipeline {
        let t = &out.timings;
        m.insert("route_ms", Value::F64(t.route_s * 1e3));
        m.insert("budget_ms", Value::F64(t.budget_s * 1e3));
        m.insert("sino_ms", Value::F64(t.sino_s * 1e3));
        m.insert("refine_ms", Value::F64(t.refine_s * 1e3));
        m.insert("pipeline_ms", Value::F64(t.total_s * 1e3));
        m.insert("wirelength_um", Value::F64(out.wirelength.total_um));
        // Deterministic counts, gated as hard ceilings by bench_gate's
        // workload matrix (threads = 1, fixed seed).
        m.insert(
            "violations",
            Value::U64(out.violations.violating_nets() as u64),
        );
        m.insert("total_shields", Value::U64(out.total_shields));
        m.insert(
            "connectivity_repairs",
            Value::U64(out.router_stats.connectivity_repairs as u64),
        );
        m.insert(
            "connectivity_recomputes",
            Value::U64(out.router_stats.connectivity_recomputes as u64),
        );
        m.insert(
            "router_heap_pops",
            Value::U64(out.router_stats.heap_pops as u64),
        );
        // Refine pass 2: the visit outcomes (engine-independent) and the
        // engine's work (trial solves, their block recomputes and their
        // probed placements are gated as ceilings).
        let r = out.refine_stats.unwrap_or_default();
        for (key, count) in [
            ("refine_pass2_regions", r.pass2_regions as u64),
            ("refine_pass2_recovered", r.pass2_recovered as u64),
            ("refine_pass2_rejected", r.pass2_rejected as u64),
            ("refine_pass2_no_candidate", r.pass2_no_candidate as u64),
            ("refine_trial_solves", r.work.trial_solves),
            ("refine_warm_skips", r.work.warm_skips),
            ("refine_cached_visits", r.work.cached_visits as u64),
            ("refine_block_recomputes", r.work.block_recomputes),
            ("refine_trial_placements", r.work.trial_placements),
        ] {
            m.insert(key, Value::U64(count));
        }
    }
    m
}

fn main() {
    let rungs = selected_rungs();
    let budget = budget_s();
    let started = Instant::now();
    println!("== scale-ladder workload matrix (budget {budget:.0}s) ==");

    let mut workloads = Map::new();
    let mut skipped: Vec<String> = Vec::new();
    for id in &rungs {
        let Some(spec) = ScaleSpec::by_id(id) else {
            eprintln!("unknown rung id {id:?} (ladder: scale5k, scale50k, scale500k)");
            std::process::exit(1);
        };
        if started.elapsed().as_secs_f64() > budget {
            println!("  {id:<10} SKIPPED (wall-clock budget spent)");
            skipped.push(id.clone());
            continue;
        }
        let r = run_rung(&spec);
        let tier = if r.pipeline.is_some() {
            "pipeline"
        } else {
            "round-trip"
        };
        println!(
            "  {id:<10} {tier:<10} {:>8} nets  {:>8} regions  gen {:>8.1} ms  parse {:>8.1} ms  total {:>9.1} ms",
            r.nets, r.regions, r.gen_ms, r.parse_ms, r.total_ms
        );
        if let Some(out) = &r.pipeline {
            println!(
                "  {:<10} {:>10}  violations {}  shields {}  recomputes {}  repairs {}  heap pops {}",
                "",
                "",
                out.violations.violating_nets(),
                out.total_shields,
                out.router_stats.connectivity_recomputes,
                out.router_stats.connectivity_repairs,
                out.router_stats.heap_pops
            );
            let refine = out.refine_stats.unwrap_or_default();
            println!(
                "  {:<10} {:>10}  pass-2 visits {}  trial solves {}  warm skips {}  cached visits {}  block recomputes {}  probed placements {}",
                "",
                "",
                refine.pass2_regions,
                refine.work.trial_solves,
                refine.work.warm_skips,
                refine.work.cached_visits,
                refine.work.block_recomputes,
                refine.work.trial_placements
            );
        }
        workloads.insert(id.as_str(), Value::Object(rung_row(&r)));
    }

    let mut root = Map::new();
    root.insert("schema", Value::U64(1));
    root.insert("workloads", Value::Object(workloads));
    if !skipped.is_empty() {
        root.insert("skipped", Value::Str(skipped.join(",")));
    }
    let path = scale_out_path();
    match serde_json::to_string_pretty(&JsonDoc(Value::Object(root))) {
        Ok(text) => {
            if let Err(e) = std::fs::write(&path, text + "\n") {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {path}");
        }
        Err(e) => {
            eprintln!("could not serialize scale matrix: {e}");
            std::process::exit(1);
        }
    }
}
