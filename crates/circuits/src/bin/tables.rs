//! Regenerates the paper's Tables 1–3 and the derived observations.
//!
//! ```text
//! cargo run -p gsino-circuits --bin tables --release -- [--scale 0.2]
//!     [--circuits ibm01,ibm02] [--rates 0.3,0.5] [--json out.json]
//! ```
//!
//! Environment variables `GSINO_SCALE` / `GSINO_CIRCUITS` provide the same
//! controls for the bench targets.

use gsino_circuits::experiment::{parse_circuits, parse_scale, run_suite, ExperimentConfig};

/// Prints a configuration error and exits with the usage status.
fn bad_config(e: gsino_core::CoreError) -> ! {
    eprintln!("bad configuration: {e}");
    std::process::exit(2);
}

fn main() {
    let mut config = ExperimentConfig::from_env().unwrap_or_else(|e| bad_config(e));
    let mut json_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                if let Some(s) = args.get(i) {
                    config.scale = parse_scale(s).unwrap_or_else(|e| bad_config(e));
                }
            }
            "--rates" => {
                i += 1;
                if let Some(list) = args.get(i) {
                    let rates: Vec<f64> = list
                        .split(',')
                        .filter_map(|s| s.trim().parse().ok())
                        .collect();
                    if !rates.is_empty() {
                        config.rates = rates;
                    }
                }
            }
            "--circuits" => {
                i += 1;
                if let Some(list) = args.get(i) {
                    config.circuits = parse_circuits(list).unwrap_or_else(|e| bad_config(e));
                }
            }
            "--seed" => {
                i += 1;
                config.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(config.seed);
            }
            "--json" => {
                i += 1;
                json_path = args.get(i).cloned();
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: tables [--scale F] [--rates a,b] [--circuits ibm01,..] [--seed N] [--json FILE]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    eprintln!(
        "running suite: scale {:.2}, circuits {:?}, rates {:?}",
        config.scale,
        config
            .circuits
            .iter()
            .map(|c| c.name.as_str())
            .collect::<Vec<_>>(),
        config.rates
    );
    let results = match run_suite(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("suite failed: {e}");
            std::process::exit(1);
        }
    };
    println!("scale = {:.2} of the calibrated suite\n", results.scale);
    println!("{}", results.render_table1());
    println!("{}", results.render_table2());
    println!("{}", results.render_table3());
    println!("{}", results.render_observations());
    println!("{}", results.render_runtime_breakdown());
    if let Some(path) = json_path {
        match serde_json::to_string_pretty(&results) {
            Ok(s) => {
                if let Err(e) = std::fs::write(&path, s) {
                    eprintln!("failed to write {path}: {e}");
                }
            }
            Err(e) => eprintln!("failed to serialize results: {e}"),
        }
    }
}
