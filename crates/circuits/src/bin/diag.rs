//! Circuit/routing diagnostics: wire-length decomposition and congestion
//! profile for a generated benchmark. Useful when calibrating the suite.
//!
//! ```text
//! cargo run -p gsino-circuits --bin diag --release -- [ibm01] [scale] [alpha,beta,gamma]
//! ```
//!
//! An unknown circuit, a scale outside (0, 1] or a weight list that is not
//! three finite numbers exits with status 2 and names the bad value.

use gsino_circuits::experiment::{parse_circuits, parse_scale};
use gsino_circuits::generator::generate;
use gsino_core::metrics::wirelength_stats;
use gsino_core::router::{route_all, ShieldTerm, Weights};
use gsino_core::CoreError;
use gsino_grid::region::RegionGrid;
use gsino_grid::route::Dir;
use gsino_grid::tech::Technology;
use gsino_grid::usage::TrackUsage;
use gsino_steiner::rsmt_estimate;

/// Parses `alpha,beta,gamma`: exactly three finite numbers.
fn parse_weights(s: &str) -> Result<Weights, CoreError> {
    let bad = || CoreError::BadConfig {
        reason: format!("weights {s:?} are not three finite numbers alpha,beta,gamma"),
    };
    let v = s
        .split(',')
        .map(|x| x.trim().parse::<f64>().ok().filter(|w| w.is_finite()))
        .collect::<Option<Vec<f64>>>()
        .ok_or_else(bad)?;
    match v[..] {
        [alpha, beta, gamma] => Ok(Weights { alpha, beta, gamma }),
        _ => Err(bad()),
    }
}

/// Prints a configuration error and exits with the usage status.
fn bad_config(e: CoreError) -> ! {
    eprintln!("bad configuration: {e}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or("ibm01");
    let scale = args
        .get(1)
        .map_or(Ok(1.0), |s| parse_scale(s))
        .unwrap_or_else(|e| bad_config(e));
    let weights = args
        .get(2)
        .map_or(Ok(Weights::default()), |s| parse_weights(s))
        .unwrap_or_else(|e| bad_config(e));
    let spec = match parse_circuits(name).unwrap_or_else(|e| bad_config(e))[..] {
        [ref one] => one.scaled(scale),
        _ => bad_config(CoreError::BadConfig {
            reason: format!("diag takes one circuit, not {name:?}"),
        }),
    };
    let circuit = generate(&spec, 2002).expect("generation");
    let tech = Technology::itrs_100nm();
    let grid = RegionGrid::new(&circuit, &tech, 64.0).expect("grid");

    let n = circuit.num_nets() as f64;
    let mean_hpwl = circuit.mean_hpwl();
    let mean_steiner: f64 = circuit
        .nets()
        .iter()
        .map(|net| rsmt_estimate(net.pins()))
        .sum::<f64>()
        / n;
    println!(
        "{name} scale {scale}: {} nets, die {:.0} x {:.0}",
        circuit.num_nets(),
        spec.die_w,
        spec.die_h
    );
    println!("mean HPWL      {mean_hpwl:8.1} um");
    println!(
        "mean RSMT est  {mean_steiner:8.1} um  (target {:.0})",
        spec.target_wl
    );

    let (routes, stats) = route_all(&grid, &circuit, weights, ShieldTerm::None).expect("routing");
    let wl = wirelength_stats(&circuit, &grid, &routes);
    println!(
        "mean routed    {:8.1} um  (inflation vs RSMT {:.2}x)",
        wl.mean_um,
        wl.mean_um / mean_steiner
    );
    println!(
        "router: {} connections, {} edges, {} deletions, {} reinserts",
        stats.connections, stats.edges_initial, stats.deletions, stats.reinserts
    );

    let usage = TrackUsage::from_routes(&grid, &routes);
    let mut densities: Vec<f64> = Vec::new();
    for r in 0..grid.num_regions() {
        densities.push(usage.density(r, Dir::H));
        densities.push(usage.density(r, Dir::V));
    }
    densities.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pick = |q: f64| densities[((densities.len() - 1) as f64 * q) as usize];
    println!(
        "density quantiles: p50 {:.2}  p90 {:.2}  p99 {:.2}  max {:.2}",
        pick(0.5),
        pick(0.9),
        pick(0.99),
        pick(1.0)
    );
    println!("total overflow tracks: {}", usage.total_overflow());

    // Per-region coupling profile under order-only (the ID+NO regime).
    use gsino_core::budget::{uniform_budgets, LengthModel};
    use gsino_core::phase2::{solve_regions, RegionMode};
    use gsino_core::violations::check;
    use gsino_grid::sensitivity::SensitivityModel;
    use gsino_lsk::table::NoiseTable;
    let table = NoiseTable::calibrated(&tech);
    for rate in [0.3, 0.5] {
        let budgets = uniform_budgets(
            &circuit,
            &grid,
            &routes,
            &table,
            0.15,
            LengthModel::Manhattan,
        )
        .unwrap();
        let sens = SensitivityModel::new(rate, 2002 ^ 0xC1C);
        let sino =
            solve_regions(&grid, &routes, &budgets, &sens, RegionMode::OrderOnly, 0).unwrap();
        let mut ks: Vec<f64> = Vec::new();
        let mut occ: Vec<f64> = Vec::new();
        for (r, d) in sino.keys() {
            let sol = sino.solution(r, d).unwrap();
            occ.push(sol.nets.len() as f64);
            ks.extend(sol.k.iter().copied());
        }
        ks.sort_by(|a, b| a.partial_cmp(b).unwrap());
        occ.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |v: &[f64], p: f64| v[((v.len() - 1) as f64 * p) as usize];
        let report = check(&circuit, &grid, &routes, &sino, &table, 0.15);
        println!(
            "rate {rate}: occupancy p50 {:.1} p90 {:.1} | K p50 {:.2} p90 {:.2} p99 {:.2} | violating nets {} ({:.1}%)",
            q(&occ, 0.5),
            q(&occ, 0.9),
            q(&ks, 0.5),
            q(&ks, 0.9),
            q(&ks, 0.99),
            report.violating_nets(),
            100.0 * report.violating_nets() as f64 / circuit.num_nets() as f64
        );
    }
}

#[cfg(test)]
mod tests {
    use super::parse_weights;

    #[test]
    fn weights_need_exactly_three_finite_numbers() {
        let w = parse_weights("1, 0.5,2e-1").unwrap();
        assert_eq!((w.alpha, w.beta, w.gamma), (1.0, 0.5, 0.2));
        for bad in ["", "1,2", "1,2,3,4", "1,x,3", "1,,3", "1,NaN,3", "inf,1,1"] {
            assert!(parse_weights(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
