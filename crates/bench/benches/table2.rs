//! Regenerates **Table 2**: average wire lengths of ID+NO and GSINO
//! solutions (paper §4).
//!
//! Paper values: GSINO pays 6.6–10.8% wire length at 30% sensitivity and
//! 10.5–16.4% at 50%, because its router detours to separate sensitive
//! nets. Reproduction criterion: GSINO's wire length stays within a few
//! percent of ID+NO.

use gsino_bench::{banner, bench_experiment_config};
use gsino_circuits::experiment::run_suite;

fn main() {
    let config = bench_experiment_config();
    eprintln!("{}", banner("table2", &config));
    match run_suite(&config) {
        Ok(results) => {
            println!("{}", results.render_table2());
            println!("paper reference: ibm01 639 -> 683 (+6.89%) @30%, 639 -> 706 (+10.49%) @50%");
        }
        Err(e) => {
            eprintln!("table2 failed: {e}");
            std::process::exit(1);
        }
    }
}
