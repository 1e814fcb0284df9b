//! The batch flow: the `flow_5k` workload, the traced decomposition of
//! `run_flow` into its layer calls, and the output checks every flow
//! result passes before a number is reported.

use crate::stats::{median, Tally};
use crate::trace::Recorder;
use crate::{Counts, Metrics, Opts};
use gsino_circuits::generator::{circuit_digest, generate_scaled, ScaleSpec};
use gsino_circuits::io::{load_workload, save_workload};
use gsino_core::budget::{budgets_with_constraints, uniform_budgets, BudgetPolicy, LengthModel};
use gsino_core::metrics::wirelength_stats;
use gsino_core::phase2::{prepare_instances, solve_prepared, RegionMode};
use gsino_core::pipeline::{
    reference_kth, run_flow_with_artifacts, Approach, FlowInternals, GsinoConfig, GsinoOutcome,
    PhaseTimings, RouterKind,
};
use gsino_core::refine::refine;
use gsino_core::router::{IdRouter, ShieldTerm};
use gsino_core::violations::{check, check_net};
use gsino_grid::area::AreaModel;
use gsino_grid::net::Circuit;
use gsino_grid::region::RegionGrid;
use gsino_grid::usage::TrackUsage;
use gsino_lsk::table::NoiseTable;
use gsino_sino::nss::NssModel;
use std::time::Instant;

/// One flow's outputs.
pub type Flow = (GsinoOutcome, FlowInternals);

/// Times the workload file is loaded during set-up; `setup_s` is their
/// median. Loads take milliseconds, so many are needed to span the
/// machine's second-scale speed swings.
const LOAD_REPEATS: usize = 101;

/// The `flow_5k` workload. Its design is the committed `scale5k` rung
/// (generator seed 2002, digest `90495c100f1b812f`) whatever the workload
/// seed: other 5k designs cost refinement up to three times as much, so a
/// seeded design would measure the generator rather than the code.
pub fn run(opts: &Opts, metrics: &mut Metrics, tally: &mut Tally) -> Result<Recorder, String> {
    // invariant: the ladder always has its 5k rung.
    let spec = ScaleSpec::by_id("scale5k").expect("the ladder's 5k rung");
    let path = opts.work_dir.join("flow_5k.txt");
    let generated = generate_scaled(&spec).map_err(|e| e.to_string())?;
    save_workload(&generated, &path).map_err(|e| e.to_string())?;
    let digest = circuit_digest(generated.circuit());
    eprintln!(
        "flow_5k: workload seed {}, design seed {} digest {digest:016x}",
        opts.seed, spec.seed
    );
    drop(generated);

    // Set-up: read and parse the workload file.
    let mut rec = Recorder::new(Instant::now());
    let mut loads = Vec::with_capacity(LOAD_REPEATS);
    let mut workload = None;
    for _ in 0..LOAD_REPEATS {
        let t = Instant::now();
        let wl = rec.time("io.load", None, 0, || load_workload(&path));
        loads.push(t.elapsed().as_secs_f64());
        workload = Some(wl.map_err(|e| e.to_string())?);
    }
    // invariant: LOAD_REPEATS > 0.
    let circuit = workload.expect("loaded at least once").into_circuit();
    tally.check(circuit_digest(&circuit) == digest, || {
        "the loaded workload differs from the generated one".into()
    });
    let rss_after_setup = crate::peak_rss_mb();
    let config = GsinoConfig {
        threads: 2,
        ..GsinoConfig::default()
    };

    // The measured flows: at least one, more while another fits the run.
    // Each is followed by a read of every net's violation status, timed
    // from the flow's start: a batch answers no read before it commits.
    let started = Instant::now();
    let mut flow_times = Vec::new();
    let mut reads_ms = Vec::new();
    let mut first: Option<Flow> = None;
    loop {
        let t = Instant::now();
        let flow = run_flow_with_artifacts(&circuit, &config, Approach::Gsino)
            .map_err(|e| e.to_string())?;
        flow_times.push(t.elapsed().as_secs_f64());
        tally.record(true);
        reads_ms.extend(read_every_net(&circuit, &flow, t, config.vth, tally));
        match &first {
            None => first = Some(flow),
            Some(f) => tally.check(same_flow(f, &flow).is_ok(), || {
                "a repeated flow differs from the first".into()
            }),
        }
        let next_end = started.elapsed().as_secs_f64() + median(&flow_times);
        if opts.trace || next_end > opts.seconds {
            break;
        }
    }
    // invariant: the loop runs at least one flow.
    let first = first.expect("at least one flow ran");
    let (outcome, internals) = &first;
    check_routes(&circuit, &internals.grid, outcome, tally);
    tally.check(outcome.violations.is_clean(), || {
        format!("{} violating nets", outcome.violations.violating_nets())
    });
    let report = check(
        &circuit,
        &internals.grid,
        &outcome.routes,
        &internals.sino,
        &internals.table,
        config.vth,
    );
    tally.check(report == outcome.violations, || {
        "a repeated violation scan differs".into()
    });

    let nets = circuit.num_nets();
    let flow_s = median(&flow_times);
    if opts.trace {
        let t = Instant::now();
        let traced = traced_flow(&circuit, &config, &mut rec, 1)?;
        let traced_reads_ms = read_every_net(&circuit, &traced.flow, t, config.vth, tally);
        tally.check(same_flow(&first, &traced.flow).is_ok(), || {
            "the traced decomposition differs from run_flow_with_artifacts".into()
        });
        eprintln!(
            "flow_5k traced: flow_s {:.3} (untraced {flow_s:.3}, overhead {:+.3} s)",
            traced.secs,
            traced.secs - flow_s
        );
        metrics.layer_flows(&rec, flow_s);
        let mut counts = Counts {
            phase2_instances: traced.instances as u64,
            phase2_shields: traced.phase2_shields,
            ..Counts::default()
        };
        let (outcome, _) = &traced.flow;
        counts.add_router(&outcome.router_stats);
        if let Some(r) = &outcome.refine_stats {
            counts.add_refine(r);
        }
        metrics.counts(&counts);
        metrics.set("io.load_s", median(&rec.durations("io.load")));
        metrics.set("rss_after_setup_mb", rss_after_setup);
        metrics.set(
            "violations.violating_nets",
            outcome.violations.violating_nets() as f64,
        );
        metrics.set("trace.edits_per_s", nets as f64 / traced.secs);
        metrics.set("trace.edit_p50_ms", traced.secs * 1e3);
        metrics.set_p("trace.query_p50_ms", &traced_reads_ms, 50.0);
        return Ok(rec);
    }

    // Every net of a batch flow is routed when the flow ends: its latency
    // is the flow's wall time.
    let per_net_ms: Vec<f64> = flow_times
        .iter()
        .flat_map(|&t| std::iter::repeat_n(t * 1e3, nets))
        .collect();
    metrics.set("setup_s", median(&loads));
    metrics.set("flow_s", flow_s);
    metrics.set(
        "edits_per_s",
        (nets * flow_times.len()) as f64 / flow_times.iter().sum::<f64>(),
    );
    metrics.set_percentile("edit_p50_ms", &per_net_ms, 50.0)?;
    metrics.set_percentile("edit_p95_ms", &per_net_ms, 95.0)?;
    metrics.set_percentile("query_p50_ms", &reads_ms, 50.0)?;
    metrics.quality(
        outcome.total_shields,
        outcome.wirelength.total_um,
        outcome.area.area(),
    );
    eprintln!(
        "flow_5k: {} flow(s), {} violating nets, {} shields",
        flow_times.len(),
        outcome.violations.violating_nets(),
        outcome.total_shields
    );
    Ok(rec)
}

/// Reads every net's violation status from a committed flow with
/// `violations::check_net`, and checks that the answers make up the
/// flow's violation report. Returns each read's latency (ms) counted from
/// `since`, the moment the flow started.
fn read_every_net(
    circuit: &Circuit,
    flow: &Flow,
    since: Instant,
    vth: f64,
    tally: &mut Tally,
) -> Vec<f64> {
    let (outcome, internals) = flow;
    let mut latencies = Vec::with_capacity(circuit.num_nets());
    let mut found = Vec::new();
    for net in circuit.nets() {
        if let Some(route) = outcome.routes.get(net.id()) {
            found.extend(check_net(
                &internals.grid,
                route,
                &internals.sino,
                &internals.table,
                vth,
                net,
            ));
        }
        latencies.push(since.elapsed().as_secs_f64() * 1e3);
    }
    tally.check(found == outcome.violations.sinks, || {
        "the nets' reads differ from the flow's violation report".into()
    });
    latencies
}

/// Every sink's region must be reachable from its source's region on the
/// net's routed tree.
pub fn check_routes(
    circuit: &Circuit,
    grid: &RegionGrid,
    outcome: &GsinoOutcome,
    tally: &mut Tally,
) {
    let mut broken = Vec::new();
    for net in circuit.nets() {
        let from = grid.region_of(net.source());
        let reached = net.sinks().iter().all(|&sink| {
            let to = grid.region_of(sink);
            match outcome.routes.get(net.id()) {
                Some(tree) => tree.path(from, to).is_some(),
                None => from == to,
            }
        });
        if !reached {
            broken.push(net.id());
        }
    }
    tally.check(broken.is_empty(), || {
        format!(
            "{} nets have an unreachable sink, first {:?}",
            broken.len(),
            broken.first()
        )
    });
}

/// Compares two flows' outputs field by field (timings excluded); floats
/// compare by their bits.
pub fn same_flow(a: &Flow, b: &Flow) -> Result<(), String> {
    let (oa, ia) = a;
    let (ob, ib) = b;
    let bits = |x: f64, y: f64| x.to_bits() == y.to_bits();
    let fields = [
        ("routes", oa.routes == ob.routes),
        ("usage", oa.usage == ob.usage),
        (
            "area",
            bits(oa.area.width, ob.area.width) && bits(oa.area.height, ob.area.height),
        ),
        ("area_nets_only", oa.area_nets_only == ob.area_nets_only),
        (
            "wirelength",
            bits(oa.wirelength.total_um, ob.wirelength.total_um)
                && bits(oa.wirelength.mean_um, ob.wirelength.mean_um),
        ),
        ("violations", oa.violations == ob.violations),
        ("total_shields", oa.total_shields == ob.total_shields),
        ("router_stats", oa.router_stats == ob.router_stats),
        ("refine_stats", oa.refine_stats == ob.refine_stats),
        ("budgets", ia.budgets == ib.budgets),
        ("sino", ia.sino == ib.sino),
    ];
    match fields.iter().find(|(_, same)| !same) {
        Some((name, _)) => Err(format!("{name} differ")),
        None => Ok(()),
    }
}

/// A traced flow's outputs and the counts its spans cannot carry.
pub struct TracedFlow {
    /// The flow's outputs, comparable with `run_flow_with_artifacts`.
    pub flow: Flow,
    /// Duration of the `flow` span (s).
    pub secs: f64,
    /// Phase II region instances built.
    pub instances: usize,
    /// Shields after Phase II, before refinement.
    pub phase2_shields: u64,
}

/// `run_flow(…, Approach::Gsino)` spelled out as the public layer calls it
/// makes, each in its own span under one `flow` span.
///
/// # Errors
///
/// A configuration the decomposition does not cover (the A* router or
/// congestion-weighted budgets), or any layer's error.
pub fn traced_flow(
    circuit: &Circuit,
    config: &GsinoConfig,
    rec: &mut Recorder,
    request: u64,
) -> Result<TracedFlow, String> {
    if config.router != RouterKind::IterativeDeletion
        || config.budget_policy != BudgetPolicy::Uniform
        || !config.shield_reservation
    {
        return Err("the traced flow covers the default router and budget policy only".into());
    }
    let err = |e: &dyn std::fmt::Display| e.to_string();
    config.validate().map_err(|e| err(&e))?;
    let top = rec.open("flow", None, request);
    let p = Some(top);
    let t_flow = Instant::now();

    let grid = rec
        .time("pipeline.grid", p, request, || {
            RegionGrid::new(circuit, &config.tech, config.tile_um)
        })
        .map_err(|e| err(&e))?;
    let table = rec.time("pipeline.noise_table", p, request, || {
        NoiseTable::calibrated(&config.tech)
    });
    let model = match &config.nss_model {
        Some(m) => m.clone(),
        None => rec
            .time("pipeline.nss_fit", p, request, || {
                NssModel::fit(
                    reference_kth(circuit, &table, config.vth),
                    config.nss_fit_seed,
                )
            })
            .map_err(|e| err(&e))?,
    };
    let router = IdRouter::new(
        &grid,
        config.weights,
        ShieldTerm::Estimated {
            model,
            rate: config.sensitivity.rate(),
        },
    );
    let t0 = Instant::now();
    let connections = rec.time("router.steiner", p, request, || router.prepare(circuit));
    let (routes, router_stats) = rec
        .time("router.id", p, request, || {
            router.route_prepared(circuit, &connections)
        })
        .map_err(|e| err(&e))?;
    let route_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut budgets = rec
        .time("budget.budgets", p, request, || {
            if config.vth_overrides.is_empty() {
                uniform_budgets(
                    circuit,
                    &grid,
                    &routes,
                    &table,
                    config.vth,
                    LengthModel::Manhattan,
                )
            } else {
                budgets_with_constraints(
                    circuit,
                    &grid,
                    &routes,
                    &table,
                    &|net, sink| config.vth_for(net, sink),
                    LengthModel::Manhattan,
                )
            }
        })
        .map_err(|e| err(&e))?;
    let budget_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let work = rec
        .time("phase2.prepare", p, request, || {
            prepare_instances(
                &grid,
                &routes,
                &budgets,
                &config.sensitivity,
                config.threads,
            )
        })
        .map_err(|e| err(&e))?;
    let instances = work.len();
    let mut sino = rec
        .time("phase2.solve", p, request, || {
            solve_prepared(
                work,
                config.solver,
                RegionMode::Sino,
                config.threads,
                config.sino_engine,
            )
        })
        .map_err(|e| err(&e))?;
    let sino_s = t0.elapsed().as_secs_f64();
    let phase2_shields = sino.total_shields();

    let t0 = Instant::now();
    let refine_stats = rec
        .time("refine.refine", p, request, || {
            refine(
                circuit,
                &grid,
                &routes,
                &mut budgets,
                &mut sino,
                &table,
                config.vth,
                config.solver,
                &config.refine,
            )
        })
        .map_err(|e| err(&e))?;
    let refine_s = t0.elapsed().as_secs_f64();

    let (usage, area_nets_only, area, wirelength) = rec.time("pipeline.report", p, request, || {
        let mut usage = TrackUsage::from_routes(&grid, &routes);
        let area_nets_only = AreaModel.evaluate(&grid, &usage);
        sino.apply_shields(&mut usage);
        let area = AreaModel.evaluate(&grid, &usage);
        (
            usage,
            area_nets_only,
            area,
            wirelength_stats(circuit, &grid, &routes),
        )
    });
    let violations = rec.time("violations.check", p, request, || {
        check(circuit, &grid, &routes, &sino, &table, config.vth)
    });
    let total_shields = sino.total_shields();
    let secs = rec.close(top);
    let outcome = GsinoOutcome {
        approach: Approach::Gsino,
        routes,
        usage,
        area,
        area_nets_only,
        wirelength,
        violations,
        total_shields,
        router_stats,
        timings: PhaseTimings {
            route_s,
            budget_s,
            sino_s,
            refine_s,
            total_s: t_flow.elapsed().as_secs_f64(),
        },
        refine_stats: Some(refine_stats),
    };
    Ok(TracedFlow {
        flow: (
            outcome,
            FlowInternals {
                grid,
                table,
                budgets,
                sino,
            },
        ),
        secs,
        instances,
        phase2_shields,
    })
}
