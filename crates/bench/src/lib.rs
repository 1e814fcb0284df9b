//! Shared plumbing for the benchmark harness.
//!
//! Every table/figure of the paper has a bench target (see `benches/`);
//! this crate holds the environment handling they share.
//!
//! Controls:
//!
//! * `GSINO_SCALE` — problem scale for the table benches (default 0.3;
//!   set 1.0 to regenerate the full calibrated suite, several minutes);
//! * `GSINO_CIRCUITS` — comma list of circuits (default `ibm01` for the
//!   benches; the `tables` binary defaults to all six).
//!
//! # Architecture
//!
//! The phase summaries (`BENCH_phase*.json`) and the `bench_gate`
//! regression gate enforce the incremental-engine contracts described
//! in `ARCHITECTURE.md` at the repository root.

use gsino_circuits::experiment::ExperimentConfig;
use gsino_circuits::spec::CircuitSpec;

pub mod report;

/// Bench-default experiment configuration: honours `GSINO_SCALE` and
/// `GSINO_CIRCUITS`, otherwise runs `ibm01` at scale 0.3 so that
/// `cargo bench --workspace` finishes in minutes.
///
/// # Panics
///
/// With [`ExperimentConfig::from_env`]'s error when either variable holds
/// a bad value.
pub fn bench_experiment_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::from_env().unwrap_or_else(|e| panic!("{e}"));
    if std::env::var("GSINO_SCALE").is_err() {
        config.scale = 0.3;
    }
    if std::env::var("GSINO_CIRCUITS").is_err() {
        config.circuits = vec![CircuitSpec::ibm01()];
    }
    config
}

/// Standard banner so each bench's output records its scope.
pub fn banner(name: &str, config: &ExperimentConfig) -> String {
    format!(
        "== {name} == scale {:.2}, circuits {:?}, rates {:?}\n\
         (set GSINO_SCALE=1.0 GSINO_CIRCUITS=ibm01,ibm02,... for the full suite)",
        config.scale,
        config
            .circuits
            .iter()
            .map(|c| c.name.as_str())
            .collect::<Vec<_>>(),
        config.rates,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bench_config_is_small() {
        // Only meaningful when the env vars are unset (the common case).
        if std::env::var("GSINO_SCALE").is_err() && std::env::var("GSINO_CIRCUITS").is_err() {
            let c = bench_experiment_config();
            assert!(c.scale <= 0.3 + 1e-9);
            assert_eq!(c.circuits.len(), 1);
        }
    }

    #[test]
    fn banner_mentions_scale() {
        let c = bench_experiment_config();
        assert!(banner("x", &c).contains("scale"));
    }
}
