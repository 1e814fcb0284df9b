//! `routebench`: the GSINO router's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path routebench/Cargo.toml -- \
//!     --workload flow_5k|eco_mixed|eco_fanout [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run generates its inputs from the seed, runs the workload, checks
//! every output and prints, as the last line of standard output, one JSON
//! object: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end set untraced, the per-layer set with `--trace 1`. See
//! `routebench/README.md` for the workloads and what each metric means.

mod eco;
mod flow;
mod stats;
mod trace;

use gsino_core::refine::RefineStats;
use gsino_core::router::RouterStats;
use gsino_core::session::EcoSession;
use stats::{percentile, ratio, Tally};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::{self_times, Recorder};

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports every one; `BENCHMARK.json` lists the same names.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("flow_s", "s"),
    ("edits_per_s", "1/s"),
    ("edit_p50_ms", "ms"),
    ("edit_p95_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("total_shields", "count"),
    ("wirelength_um", "um"),
    ("routing_area_mm2", "mm2"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload
/// leaves idle reports 0.
const PER_LAYER: [(&str, &str); 52] = [
    ("io.load_s", "s"),
    ("pipeline.prepare_s", "s"),
    ("pipeline.report_s", "s"),
    ("router.steiner_s", "s"),
    ("router.id_s", "s"),
    ("router.deletions", "count"),
    ("router.reinserts", "count"),
    ("router.connectivity_o1_hits", "count"),
    ("router.connectivity_repairs", "count"),
    ("router.connectivity_recomputes", "count"),
    ("budget.busy_s", "s"),
    ("phase2.prepare_s", "s"),
    ("phase2.solve_s", "s"),
    ("phase2.instances", "count"),
    ("phase2.shields", "count"),
    ("refine.busy_s", "s"),
    ("refine.pass1_nets", "count"),
    ("refine.pass1_shields_added", "count"),
    ("refine.pass2_regions", "count"),
    ("refine.pass2_shields_removed", "count"),
    ("refine.pass2_yield", "ratio"),
    ("violations.check_s", "s"),
    ("violations.violating_nets", "count"),
    ("session.budget_commit_ms", "ms"),
    ("session.phase1_commit_ms", "ms"),
    ("session.query_ms", "ms"),
    ("session.commits", "count"),
    ("session.oracle_checks_per_commit", "ratio"),
    ("session.regions_resolved_per_commit", "ratio"),
    ("session.regions_reused_per_commit", "ratio"),
    ("session.warm_skip_share", "ratio"),
    ("session.divergences", "count"),
    ("session.degraded_replays", "count"),
    ("service.queue_ms", "ms"),
    ("service.queue_p95_ms", "ms"),
    ("service.commit_ms", "ms"),
    ("service.requests_per_commit", "ratio"),
    ("service.steals", "count"),
    ("service.parks", "count"),
    ("service.worker_busy_share", "ratio"),
    ("service.rejected", "count"),
    ("service.canceled_in_queue", "count"),
    ("net.overhead_ms", "ms"),
    ("net.overhead_p95_ms", "ms"),
    ("net.query_overhead_ms", "ms"),
    ("rss_after_setup_mb", "MiB"),
    ("run.failed_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.flow_s", "s"),
    ("trace.edits_per_s", "1/s"),
    ("trace.edit_p50_ms", "ms"),
    ("trace.query_p50_ms", "ms"),
];

/// Command-line options.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase (s).
    pub seconds: f64,
    /// Whether to record spans and report the per-layer metrics.
    pub trace: bool,
    /// Where workload files and span logs go.
    pub work_dir: PathBuf,
}

/// The seed a workload runs with when `--seed` is not given.
fn default_seed(workload: &str) -> Option<u64> {
    match workload {
        "flow_5k" => Some(2002),
        "eco_mixed" => Some(7000),
        "eco_fanout" => Some(9000),
        _ => None,
    }
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, 15.0, false);
    for pair in args.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("`{}` has no value", pair[0]));
        };
        let bad = |e: &dyn std::fmt::Display| format!("{key} {value}: {e}");
        match key.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option `{key}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let default = default_seed(&workload)
        .ok_or_else(|| format!("unknown workload `{workload}` (flow_5k, eco_mixed, eco_fanout)"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Opts {
        workload,
        seed: seed.unwrap_or(default),
        seconds,
        trace,
        work_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work")),
    })
}

/// The process's peak resident set (VmHWM), in MiB; 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Work counts of the layers below the session, summed over flows or
/// session builds and commits.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    deletions: usize,
    reinserts: usize,
    o1_hits: usize,
    repairs: usize,
    recomputes: usize,
    pass1_nets: usize,
    pass1_shields_added: u64,
    pass2_regions: usize,
    pass2_shields_removed: u64,
    /// Phase II region instances solved.
    pub phase2_instances: u64,
    /// Shields Phase II placed, before refinement.
    pub phase2_shields: u64,
}

impl Counts {
    /// Adds one Phase I run.
    pub fn add_router(&mut self, s: &RouterStats) {
        self.deletions += s.deletions;
        self.reinserts += s.reinserts;
        self.o1_hits += s.connectivity_o1_hits;
        self.repairs += s.connectivity_repairs;
        self.recomputes += s.connectivity_recomputes;
    }

    /// Adds one refinement run.
    pub fn add_refine(&mut self, s: &RefineStats) {
        self.pass1_nets += s.pass1_nets;
        self.pass1_shields_added += s.pass1_shields_added;
        self.pass2_regions += s.pass2_regions;
        self.pass2_shields_removed += s.pass2_shields_removed;
    }

    /// Adds a session's from-scratch build.
    pub fn add_build(&mut self, session: &EcoSession) {
        self.add_router(session.router_stats());
        self.add_refine(session.refine_stats());
        self.phase2_instances += session.sino_pre_refine().len() as u64;
    }
}

/// The metrics one run reports, by name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets an end-to-end percentile.
    ///
    /// # Errors
    ///
    /// When too few samples lie beyond the percentile to report it.
    pub fn set_percentile(
        &mut self,
        name: &'static str,
        samples: &[f64],
        p: f64,
    ) -> Result<(), String> {
        let v = percentile(samples, p).ok_or_else(|| {
            format!(
                "{name}: {} samples leave fewer than ten beyond p{p}",
                samples.len()
            )
        })?;
        eprintln!("  {name:<24} {v:>12.3}  (p{p} of n={})", samples.len());
        self.set(name, v);
        Ok(())
    }

    /// Sets a per-layer percentile; a layer with too few samples keeps 0.
    pub fn set_p(&mut self, name: &'static str, samples: &[f64], p: f64) {
        match percentile(samples, p) {
            Some(v) => {
                eprintln!("  {name:<36} {v:>12.4}  (p{p} of n={})", samples.len());
                self.set(name, v);
            }
            None => eprintln!("  {name:<36} not reported (p{p} of n={})", samples.len()),
        }
    }

    /// Sets the routing-quality metrics of the final routed state.
    pub fn quality(&mut self, shields: u64, wirelength_um: f64, area_um2: f64) {
        self.set("total_shields", shields as f64);
        self.set("wirelength_um", wirelength_um);
        self.set("routing_area_mm2", area_um2 / 1e6);
    }

    /// Layer times from the spans under every traced `flow` span, and the
    /// tracing overhead against the same flows untraced.
    pub fn layer_flows(&mut self, rec: &Recorder, untraced_s: f64) {
        let spans = rec.spans();
        let flows: HashSet<usize> = (0..spans.len())
            .filter(|&i| spans[i].name == "flow")
            .collect();
        let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
        let mut traced_s = 0.0;
        for (s, own) in spans.iter().zip(self_times(spans)) {
            if s.name == "flow" {
                traced_s += s.secs();
            }
            if s.parent.is_some_and(|p| flows.contains(&p)) {
                *by_name.entry(s.name).or_insert(0.0) += own;
            }
        }
        let sum = |names: &[&str]| {
            names
                .iter()
                .map(|n| by_name.get(n).copied().unwrap_or(0.0))
                .sum()
        };
        self.set(
            "pipeline.prepare_s",
            sum(&["pipeline.grid", "pipeline.noise_table", "pipeline.nss_fit"]),
        );
        self.set("pipeline.report_s", sum(&["pipeline.report"]));
        self.set("router.steiner_s", sum(&["router.steiner"]));
        self.set("router.id_s", sum(&["router.id"]));
        self.set("budget.busy_s", sum(&["budget.budgets"]));
        self.set("phase2.prepare_s", sum(&["phase2.prepare"]));
        self.set("phase2.solve_s", sum(&["phase2.solve"]));
        self.set("refine.busy_s", sum(&["refine.refine"]));
        self.set("violations.check_s", sum(&["violations.check"]));
        self.set("trace.flow_s", traced_s);
        self.set("trace.overhead_s", traced_s - untraced_s);
        let refine = by_name.get("refine.refine").copied().unwrap_or(0.0);
        eprintln!(
            "  traced flows {traced_s:.3} s (untraced {untraced_s:.3} s); refine.busy_s is {:.1}% of it",
            100.0 * ratio(refine, traced_s)
        );
    }

    /// Work counts of the router, Phase II and refinement.
    pub fn counts(&mut self, c: &Counts) {
        self.set("router.deletions", c.deletions as f64);
        self.set("router.reinserts", c.reinserts as f64);
        self.set("router.connectivity_o1_hits", c.o1_hits as f64);
        self.set("router.connectivity_repairs", c.repairs as f64);
        self.set("router.connectivity_recomputes", c.recomputes as f64);
        self.set("phase2.instances", c.phase2_instances as f64);
        self.set("phase2.shields", c.phase2_shields as f64);
        self.set("refine.pass1_nets", c.pass1_nets as f64);
        self.set("refine.pass1_shields_added", c.pass1_shields_added as f64);
        self.set("refine.pass2_regions", c.pass2_regions as f64);
        self.set(
            "refine.pass2_shields_removed",
            c.pass2_shields_removed as f64,
        );
        self.set(
            "refine.pass2_yield",
            ratio(c.pass2_shields_removed as f64, c.pass2_regions as f64),
        );
        eprintln!(
            "  refine.pass2_yield = {} recovered / {} visited",
            c.pass2_shields_removed, c.pass2_regions
        );
    }

    /// The result line, or an error naming a metric the run did not set.
    fn render(&self, tally: &Tally, trace: bool) -> Result<String, String> {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("{name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("{name} is {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            // invariant: writing into a String cannot fail.
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("formatting into a String");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            tally.failed == 0,
            tally.attempted,
            tally.failed
        ))
    }
}

fn run(opts: &Opts) -> Result<String, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("{}: {e}", opts.work_dir.display()))?;
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let started = Instant::now();
    eprintln!(
        "{}: seed {} seconds {} trace {}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    let rec = match opts.workload.as_str() {
        "flow_5k" => flow::run(opts, &mut metrics, &mut tally)?,
        "eco_mixed" => eco::run(&eco::MIXED, opts, &mut metrics, &mut tally)?,
        "eco_fanout" => eco::run(&eco::FANOUT, opts, &mut metrics, &mut tally)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    metrics.set("peak_rss_mb", peak_rss_mb());
    metrics.set("run.failed_share", tally.failed_share());
    if opts.trace {
        let path = opts
            .work_dir
            .join(format!("trace-{}-{}.tsv", opts.workload, opts.seed));
        rec.write_tsv(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    eprintln!(
        "{}: {} attempted, {} failed (failed_share {}), {:.1} s",
        opts.workload,
        tally.attempted,
        tally.failed,
        tally.failed_share(),
        started.elapsed().as_secs_f64()
    );
    metrics.render(&tally, opts.trace)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("routebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("routebench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names every metric the
    /// benchmark prints, with the same unit.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                compact.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
        let names = compact.matches("\"name\":").count();
        let workloads = 3;
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn result_line_has_every_metric_and_the_counts() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let tally = Tally {
            attempted: 4,
            failed: 1,
        };
        let line = m.render(&tally, false).expect("all set");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let mut partial = Metrics::default();
        partial.set("setup_s", 1.0);
        assert!(partial.render(&tally, false).is_err());
        assert!(partial.render(&tally, true).is_ok(), "idle layers report 0");
    }
}
