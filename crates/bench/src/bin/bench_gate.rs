//! CI bench-regression gate for the phase benches.
//!
//! Compares freshly measured bench summaries (`BENCH_phase1.json`,
//! `BENCH_phase2.json` and `BENCH_phase3.json` from `phase_runtime`,
//! `BENCH_eco.json` from `eco_session`, `BENCH_service.json` from
//! `service_throughput`, `BENCH_scale.json` from `scale_matrix`) against
//! their committed baselines and exits non-zero if any gated kernel
//! regressed by more than the tolerance (default 15%,
//! `--max-regress 0.15`).
//!
//! A summary may carry a `workloads` object — a matrix keyed by workload
//! id (`scale5k`, `scale50k`, …). Every workload the committed baseline
//! names is gated: its deterministic behaviour counts as hard ceilings,
//! its wall/memory numbers report-only. A workload that vanishes from the
//! fresh summary fails the gate.
//!
//! Wall-clock milliseconds are not comparable across machines, so the
//! gated metric is the **normalized wall time**: the new kernel's time
//! divided by the preserved reference kernel's time. The benches run the
//! two interleaved in rounds, alternating which runs first, and write
//! the median of the per-round ratios as the section's `normalized`
//! value (`patch_normalized` and `phase1_normalized` for the two ECO
//! commit rungs). The two runs of a round are back to back, so a swing in
//! the machine's speed between rounds moves both sides of a ratio alike
//! and the median decides on the code. A >15% rise of that ratio means
//! the production kernel got slower relative to a fixed workload on
//! whatever hardware CI happens to run — exactly the regression the gate
//! exists to catch. The median absolute times are reported alongside for
//! humans.
//!
//! Deterministic **behaviour counts** (the ID router's connectivity
//! recompute/repair counters and deletion-heap pops and, per scale
//! workload, violations, shields, and refine pass 2's trial solves, their
//! block recomputes and the placements they probed) are gated
//! alongside the timings with the same tolerance; being exact integers on
//! a fixed workload, they catch algorithmic regressions that wall-time
//! noise would mask.
//!
//! The normalization removes most but not all hardware sensitivity: the
//! clone-heavy reference kernels and the flat/incremental kernels respond
//! differently to cache sizes and vCPU contention. If the gate flakes on a runner-hardware change with no
//! code change, regenerate `crates/bench/baseline/BENCH_phase*.json` from
//! a CI run on the new hardware (download the `bench-summaries` artifact
//! the bench job uploads) rather than widening `--max-regress`.
//!
//! Usage:
//!   bench_gate --pair BENCH_phase1.json=crates/bench/baseline/BENCH_phase1.json \
//!              --pair BENCH_phase2.json=crates/bench/baseline/BENCH_phase2.json \
//!              [--max-regress 0.15] [--summary-out summary.md]
//!
//! `--summary-out` appends a phase-by-phase markdown table (suitable for
//! `$GITHUB_STEP_SUMMARY`).

use gsino_bench::report::{get, num, JsonDoc};
use serde::Value;
use std::process::ExitCode;

/// Every kernel the gate knows how to check: display label, JSON section,
/// gated ratio key (the median per-round kernel / reference ratio), and
/// the new-kernel and reference-kernel time keys it reports. A summary
/// file is gated on every metric whose section it contains.
const METRICS: &[(&str, &str, &str, &str, &str)] = &[
    (
        "astar flat kernel",
        "astar",
        "normalized",
        "flat_ms",
        "seed_ms",
    ),
    (
        "id incremental kernel",
        "id",
        "normalized",
        "incremental_ms",
        "reference_ms",
    ),
    (
        "sino incremental engine",
        "sino",
        "normalized",
        "incremental_ms",
        "reference_ms",
    ),
    (
        "refine incremental pass",
        "refine",
        "normalized",
        "incremental_ms",
        "reference_ms",
    ),
    // ECO session commit latencies (`BENCH_eco.json`), normalized by the
    // same round's from-scratch session seed: a budget-class or
    // Phase1-class patch that stops being much cheaper than rebuilding is
    // exactly the regression the incremental session exists to prevent.
    (
        "eco budget commit",
        "session",
        "patch_normalized",
        "p50_patch_ms",
        "scratch_ms",
    ),
    (
        "eco phase1 commit",
        "session",
        "phase1_normalized",
        "p50_phase1_ms",
        "scratch_ms",
    ),
];

/// Deterministic behaviour counts gated as hard ceilings: the workload is
/// a fixed generator circuit, so these are exactly reproducible across
/// machines and a rise means an algorithmic regression (e.g. localized
/// connectivity repairs degrading back into full recomputes) even when
/// wall time is too noisy to show it. A count present in the committed
/// baseline must be present in the fresh summary and must not exceed the
/// baseline by more than the tolerance.
const COUNT_METRICS: &[(&str, &str, &str)] = &[
    ("id full recomputes", "id", "connectivity_recomputes"),
    ("id localized repairs", "id", "connectivity_repairs"),
    ("id heap pops", "id", "heap_pops"),
];

/// Per-workload count metrics inside a `workloads` matrix section
/// (`BENCH_scale.json` from the `scale_matrix` bench): label suffix, key.
/// Gated as hard ceilings exactly like [`COUNT_METRICS`], but once per
/// workload id present in the committed baseline — the gate covers the
/// ladder, not one point. Counts (not wall times) are what's gated at
/// scale: on a fixed seed they are exact integers on any machine.
const MATRIX_COUNT_METRICS: &[(&str, &str)] = &[
    ("recomputes", "connectivity_recomputes"),
    ("repairs", "connectivity_repairs"),
    ("heap pops", "router_heap_pops"),
    ("violations", "violations"),
    ("shields", "total_shields"),
    ("refine trial solves", "refine_trial_solves"),
    ("refine block recomputes", "refine_block_recomputes"),
    ("refine trial placements", "refine_trial_placements"),
];

/// Per-workload report-only metrics: wall times and memory ceilings vary
/// with hardware, so they ride through ungated.
const MATRIX_REPORT_METRICS: &[(&str, &str)] = &[
    ("gen ms", "gen_ms"),
    ("parse ms", "parse_ms"),
    ("pipeline ms", "total_ms"),
    ("peak rss MiB", "peak_rss_mb"),
];

/// Value metrics that are **reported but never gated**: display label,
/// JSON section, key. The raw ECO throughput numbers and the routing
/// service's multi-session numbers (`BENCH_service.json`) ride through
/// here while baseline history accumulates; they appear in the console
/// output and the markdown summary, but a regression cannot fail the
/// gate yet. (The eco commit *latencies* are gated above as normalized
/// ratios; the wall-clock throughput stays report-only because it folds
/// in scheduler noise from the concurrent clients.)
const REPORT_METRICS: &[(&str, &str, &str)] = &[
    ("eco edits/sec", "session", "edits_per_sec"),
    ("eco p99 patch ms", "session", "p99_patch_ms"),
    ("service edits/sec", "service", "edits_per_sec"),
    ("service coalescing", "service", "coalescing_ratio"),
    ("service p99 ms", "service", "p99_ms"),
    (
        "64-sess/2-pool edits/sec",
        "many_sessions_pool2",
        "edits_per_sec",
    ),
    ("64-sess/2-pool parks", "many_sessions_pool2", "parks"),
    (
        "64-sess/4-pool edits/sec",
        "many_sessions_pool4",
        "edits_per_sec",
    ),
    ("64-sess/4-pool parks", "many_sessions_pool4", "parks"),
];

struct Args {
    /// `(current, baseline)` summary path pairs.
    pairs: Vec<(String, String)>,
    max_regress: f64,
    summary_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut pairs = Vec::new();
    let mut max_regress = 0.15;
    let mut summary_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--pair" => {
                let v = value("--pair")?;
                let (cur, base) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--pair expects CURRENT=BASELINE, got `{v}`"))?;
                pairs.push((cur.to_string(), base.to_string()));
            }
            "--summary-out" => summary_out = Some(value("--summary-out")?),
            "--max-regress" => {
                max_regress = value("--max-regress")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --max-regress: {e}"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if pairs.is_empty() {
        return Err("at least one --pair CURRENT=BASELINE is required".into());
    }
    Ok(Args {
        pairs,
        max_regress,
        summary_out,
    })
}

fn load(path: &str) -> Result<JsonDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// Outcome of one gated kernel, kept for the markdown summary.
struct Row {
    label: String,
    cur_norm: f64,
    base_norm: f64,
    delta_pct: f64,
    pass: bool,
}

/// One gated kernel: compares the normalized wall time, the median
/// per-round new/reference ratio under `norm_key`.
#[allow(clippy::too_many_arguments)]
fn check(
    label: &str,
    current: &JsonDoc,
    baseline: &JsonDoc,
    section: &str,
    norm_key: &str,
    new_key: &str,
    ref_key: &str,
    max_regress: f64,
    rows: &mut Vec<Row>,
) -> Result<(), String> {
    let read = |doc: &JsonDoc, key: &str| -> Result<f64, String> {
        num(&doc.0, &[section, key])
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| format!("{label}: missing/invalid `{section}.{key}`"))
    };
    let cur_norm = read(current, norm_key)?;
    let base_norm = read(baseline, norm_key)?;
    let ratio = cur_norm / base_norm;
    let pass = ratio <= 1.0 + max_regress;
    let verdict = if pass { "ok" } else { "FAIL" };
    rows.push(Row {
        label: label.to_string(),
        cur_norm,
        base_norm,
        delta_pct: (ratio - 1.0) * 100.0,
        pass,
    });
    println!(
        "{label:<24} normalized {cur_norm:.4} vs baseline {base_norm:.4} \
         ({:+.1}% — {verdict}, tolerance +{:.0}%)",
        (ratio - 1.0) * 100.0,
        max_regress * 100.0,
    );
    println!(
        "{:<24} absolute medians: {:.2} ms now vs {:.2} ms at baseline (reference kernel {:.2} ms vs {:.2} ms)",
        "",
        read(current, new_key)?,
        read(baseline, new_key)?,
        read(current, ref_key)?,
        read(baseline, ref_key)?,
    );
    if !pass {
        return Err(format!(
            "{label}: normalized wall time regressed {:.1}% vs baseline (> {:.0}% tolerance)",
            (ratio - 1.0) * 100.0,
            max_regress * 100.0
        ));
    }
    Ok(())
}

/// One gated behaviour count: `current` must not exceed the committed
/// baseline count by more than the tolerance. Gated only when the
/// baseline carries the count; once it does, a summary that drops it
/// fails instead of being skipped.
fn check_count(
    label: &str,
    current: &JsonDoc,
    baseline: &JsonDoc,
    path: &[&str],
    max_regress: f64,
    rows: &mut Vec<Row>,
) -> Result<bool, String> {
    let Some(base) = num(&baseline.0, path).filter(|v| v.is_finite() && *v >= 0.0) else {
        return Ok(false); // pre-count baseline: nothing to gate yet
    };
    let cur = num(&current.0, path)
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| {
            format!(
                "{label}: baseline gates `{}` but the fresh summary lacks it",
                path.join(".")
            )
        })?;
    let ratio = if base > 0.0 { cur / base } else { 1.0 + cur };
    let pass = ratio <= 1.0 + max_regress;
    let verdict = if pass { "ok" } else { "FAIL" };
    rows.push(Row {
        label: label.to_string(),
        cur_norm: cur,
        base_norm: base,
        delta_pct: (ratio - 1.0) * 100.0,
        pass,
    });
    println!(
        "{label:<24} count {cur:.0} vs baseline {base:.0} \
         ({:+.1}% — {verdict}, tolerance +{:.0}%)",
        (ratio - 1.0) * 100.0,
        max_regress * 100.0,
    );
    if !pass {
        return Err(format!(
            "{label}: behaviour count rose {:.1}% vs baseline (> {:.0}% tolerance)",
            (ratio - 1.0) * 100.0,
            max_regress * 100.0
        ));
    }
    Ok(true)
}

/// One report-only value metric: printed (and added to the markdown
/// summary) when the fresh summary carries it, never gated — absence,
/// noise or regression cannot fail the run.
fn report_value(
    label: &str,
    current: &JsonDoc,
    baseline: &JsonDoc,
    path: &[&str],
    rows: &mut Vec<Row>,
) {
    let Some(cur) = num(&current.0, path).filter(|v| v.is_finite()) else {
        return;
    };
    match num(&baseline.0, path).filter(|v| v.is_finite() && *v != 0.0) {
        Some(base) => {
            let delta_pct = (cur / base - 1.0) * 100.0;
            println!(
                "{label:<24} value {cur:.3} vs baseline {base:.3} ({delta_pct:+.1}% — report-only)"
            );
            rows.push(Row {
                label: label.to_string(),
                cur_norm: cur,
                base_norm: base,
                delta_pct,
                pass: true,
            });
        }
        None => {
            println!("{label:<24} value {cur:.3} (report-only, no baseline)");
            rows.push(Row {
                label: label.to_string(),
                cur_norm: cur,
                base_norm: cur,
                delta_pct: 0.0,
                pass: true,
            });
        }
    }
}

/// Gates one `workloads` matrix section: every workload id the committed
/// baseline carries must appear in the fresh summary, its count metrics
/// are gated as ceilings, and its wall/memory numbers are reported.
/// Returns the number of gated checks.
fn check_matrix(
    current: &JsonDoc,
    baseline: &JsonDoc,
    max_regress: f64,
    rows: &mut Vec<Row>,
    failed: &mut bool,
) -> usize {
    let Some(Value::Object(base_wls)) = get(&baseline.0, &["workloads"]) else {
        return 0;
    };
    let mut gated = 0usize;
    for (id, _) in base_wls.iter() {
        if get(&current.0, &["workloads", id]).is_none() {
            eprintln!("bench_gate: baseline gates workload `{id}` but the fresh summary lacks it");
            *failed = true;
            gated += 1;
            continue;
        }
        for &(suffix, key) in MATRIX_COUNT_METRICS {
            let label = format!("{id} {suffix}");
            match check_count(
                &label,
                current,
                baseline,
                &["workloads", id, key],
                max_regress,
                rows,
            ) {
                Ok(counted) => gated += counted as usize,
                Err(e) => {
                    eprintln!("bench_gate: {e}");
                    gated += 1;
                    *failed = true;
                }
            }
        }
        for &(suffix, key) in MATRIX_REPORT_METRICS {
            let label = format!("{id} {suffix}");
            report_value(&label, current, baseline, &["workloads", id, key], rows);
        }
    }
    gated
}

/// Appends the phase-by-phase markdown table (for `$GITHUB_STEP_SUMMARY`).
fn write_summary(path: &str, rows: &[Row], max_regress: f64) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut md = String::from("## Bench gate\n\n");
    let _ = writeln!(
        md,
        "| Metric | Now | Baseline | Δ | Verdict (tolerance +{:.0}%) |",
        max_regress * 100.0
    );
    md.push_str("|---|---|---|---|---|\n");
    // Counts are whole numbers; normalized times are ratios.
    let fmt = |v: f64| {
        if v.fract() == 0.0 {
            format!("{v:.0}")
        } else {
            format!("{v:.4}")
        }
    };
    for r in rows {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {:+.1}% | {} |",
            r.label,
            fmt(r.cur_norm),
            fmt(r.base_norm),
            r.delta_pct,
            if r.pass { "✅ ok" } else { "❌ FAIL" }
        );
    }
    md.push('\n');
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(md.as_bytes()))
        .map_err(|e| format!("write summary {path}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    let mut gated = 0usize;
    let mut rows: Vec<Row> = Vec::new();
    for (cur_path, base_path) in &args.pairs {
        let (current, baseline) = match (load(cur_path), load(base_path)) {
            (Ok(c), Ok(b)) => (c, b),
            (c, b) => {
                for e in [c.err(), b.err()].into_iter().flatten() {
                    eprintln!("bench_gate: {e}");
                }
                failed = true;
                continue;
            }
        };
        println!("== {cur_path} vs {base_path} ==");
        for (label, section, norm_key, new_key, ref_key) in METRICS {
            // The committed baseline is the source of truth for what must
            // be gated: a section present in either file is checked, so a
            // kernel that silently vanishes from the fresh summary fails
            // the gate instead of being skipped.
            if get(&current.0, &[section]).is_none() && get(&baseline.0, &[section]).is_none() {
                continue;
            }
            gated += 1;
            if let Err(e) = check(
                label,
                &current,
                &baseline,
                section,
                norm_key,
                new_key,
                ref_key,
                args.max_regress,
                &mut rows,
            ) {
                eprintln!("bench_gate: {e}");
                failed = true;
            }
        }
        for &(label, section, key) in REPORT_METRICS {
            report_value(label, &current, &baseline, &[section, key], &mut rows);
        }
        for &(label, section, key) in COUNT_METRICS {
            match check_count(
                label,
                &current,
                &baseline,
                &[section, key],
                args.max_regress,
                &mut rows,
            ) {
                Ok(counted) => gated += counted as usize,
                Err(e) => {
                    eprintln!("bench_gate: {e}");
                    gated += 1;
                    failed = true;
                }
            }
        }
        gated += check_matrix(
            &current,
            &baseline,
            args.max_regress,
            &mut rows,
            &mut failed,
        );
    }
    if gated == 0 {
        eprintln!("bench_gate: no gated sections found in any summary");
        failed = true;
    }
    if let Some(path) = &args.summary_out {
        if let Err(e) = write_summary(path, &rows, args.max_regress) {
            eprintln!("bench_gate: {e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("bench gate passed ({gated} kernels)");
        ExitCode::SUCCESS
    }
}
