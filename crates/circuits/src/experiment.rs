//! The experiment harness: regenerates the paper's Tables 1–3.
//!
//! For each circuit and sensitivity rate, runs the three flows (ID+NO,
//! iSINO, GSINO) with shared configuration and collects the quantities the
//! paper tabulates: crosstalk-violating net counts (Table 1), average wire
//! lengths (Table 2), and routing areas (Table 3), plus the §4 observation
//! about overhead shrinking from 50% to 30% sensitivity and the §5 claim
//! that the ID phase dominates runtime.

use crate::generator::generate;
use crate::spec::CircuitSpec;
use gsino_core::baseline::{run_id_no, run_isino};
use gsino_core::pipeline::{reference_kth, run_gsino, GsinoConfig, GsinoOutcome, PhaseTimings};
use gsino_core::{CoreError, Result};
use gsino_grid::sensitivity::SensitivityModel;
use gsino_grid::tech::Technology;
use gsino_lsk::table::NoiseTable;
use gsino_sino::nss::NssModel;
use serde::{Deserialize, Serialize};

/// Suite configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Problem scale in `(0, 1]` (1 = the full calibrated suite).
    pub scale: f64,
    /// Sensitivity rates to sweep (the paper uses 0.3 and 0.5).
    pub rates: Vec<f64>,
    /// Circuits to run.
    pub circuits: Vec<CircuitSpec>,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for Phase II's region solves and refine pass 2's
    /// region trials (0 = auto); passed to `GsinoConfig::threads`.
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: 0.2,
            rates: vec![0.3, 0.5],
            circuits: CircuitSpec::suite(),
            seed: 2002,
            threads: 0,
        }
    }
}

impl ExperimentConfig {
    /// Reads `GSINO_SCALE` (default 0.2) and `GSINO_CIRCUITS` (a comma list
    /// such as `ibm01,ibm02`; default all six) from the environment.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] naming the bad value: see [`parse_scale`]
    /// and [`parse_circuits`].
    pub fn from_env() -> Result<Self> {
        let var = |name| std::env::var(name).ok();
        Self::from_vars(
            var("GSINO_SCALE").as_deref(),
            var("GSINO_CIRCUITS").as_deref(),
        )
    }

    /// [`Self::from_env`] over explicit values, `None` meaning unset.
    fn from_vars(scale: Option<&str>, circuits: Option<&str>) -> Result<Self> {
        let mut config = ExperimentConfig::default();
        if let Some(s) = scale {
            config.scale = parse_scale(s)?;
        }
        if let Some(list) = circuits {
            config.circuits = parse_circuits(list)?;
        }
        Ok(config)
    }

    /// A tiny configuration for unit tests and smoke runs.
    pub fn quick() -> Self {
        ExperimentConfig {
            scale: 0.05,
            rates: vec![0.3, 0.5],
            circuits: vec![CircuitSpec::ibm01()],
            seed: 2002,
            threads: 0,
        }
    }
}

/// Parses a problem scale, which must be a number in `(0, 1]`.
///
/// # Errors
///
/// [`CoreError::BadConfig`] naming the value otherwise.
pub fn parse_scale(s: &str) -> Result<f64> {
    match s.trim().parse::<f64>() {
        Ok(v) if v > 0.0 && v <= 1.0 => Ok(v),
        _ => Err(CoreError::BadConfig {
            reason: format!("scale {s:?} is not a number in (0, 1]"),
        }),
    }
}

/// Parses a comma list of suite circuit names, returning the named
/// circuits in suite order.
///
/// # Errors
///
/// [`CoreError::BadConfig`] naming the first name that is not one of
/// `ibm01`–`ibm06`.
pub fn parse_circuits(list: &str) -> Result<Vec<CircuitSpec>> {
    let wanted: Vec<&str> = list.split(',').map(str::trim).collect();
    let mut suite = CircuitSpec::suite();
    if let Some(bad) = wanted.iter().find(|w| !suite.iter().any(|c| c.name == **w)) {
        return Err(CoreError::BadConfig {
            reason: format!("unknown circuit {bad:?} (expected ibm01 to ibm06)"),
        });
    }
    suite.retain(|c| wanted.contains(&c.name.as_str()));
    Ok(suite)
}

/// The tabulated quantities of one flow on one circuit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ApproachResult {
    /// Nets with at least one violating sink.
    pub violating_nets: usize,
    /// Same, as a percentage of the circuit's signal nets.
    pub violating_pct: f64,
    /// Average wire length (µm).
    pub mean_wl: f64,
    /// Maximum row length (µm).
    pub area_w: f64,
    /// Maximum column length (µm).
    pub area_h: f64,
    /// Routing area (µm²).
    pub area: f64,
    /// Routing area with shields stripped (µm²).
    pub area_nets_only: f64,
    /// Total shields (tracks).
    pub shields: u64,
    /// Phase timings (s).
    pub route_s: f64,
    /// Phase II time (s).
    pub sino_s: f64,
    /// Phase III time (s).
    pub refine_s: f64,
    /// End-to-end time (s).
    pub total_s: f64,
}

impl ApproachResult {
    fn from_outcome(o: &GsinoOutcome, nets: usize) -> Self {
        let PhaseTimings {
            route_s,
            sino_s,
            refine_s,
            total_s,
            ..
        } = o.timings;
        ApproachResult {
            violating_nets: o.violations.violating_nets(),
            violating_pct: 100.0 * o.violations.violating_nets() as f64 / nets.max(1) as f64,
            mean_wl: o.wirelength.mean_um,
            area_w: o.area.width,
            area_h: o.area.height,
            area: o.area.area(),
            area_nets_only: o.area_nets_only.area(),
            shields: o.total_shields,
            route_s,
            sino_s,
            refine_s,
            total_s,
        }
    }
}

/// Results for one circuit at one sensitivity rate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CircuitResult {
    /// Circuit name.
    pub name: String,
    /// Sensitivity rate.
    pub rate: f64,
    /// Signal nets generated.
    pub nets: usize,
    /// ID+NO baseline.
    pub id_no: ApproachResult,
    /// iSINO baseline.
    pub isino: ApproachResult,
    /// GSINO.
    pub gsino: ApproachResult,
}

/// Full-suite results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteResults {
    /// Scale the suite ran at.
    pub scale: f64,
    /// Per circuit × rate results.
    pub results: Vec<CircuitResult>,
}

/// Runs the whole suite.
///
/// # Errors
///
/// Propagates generation and flow errors.
pub fn run_suite(config: &ExperimentConfig) -> Result<SuiteResults> {
    let mut results = Vec::new();
    for spec in &config.circuits {
        let scaled = spec.scaled(config.scale);
        let t0 = std::time::Instant::now();
        let circuit = generate(&scaled, config.seed).map_err(CoreError::Grid)?;
        eprintln!(
            "[suite] {}: generated {} nets in {:.1}s",
            scaled.name,
            circuit.num_nets(),
            t0.elapsed().as_secs_f64()
        );
        // Pre-fit Formula (3) once per circuit; it depends on the typical
        // budget, not on the sensitivity rate.
        let table = NoiseTable::calibrated(&Technology::itrs_100nm());
        let kth_ref = reference_kth(&circuit, &table, 0.15);
        let model = NssModel::fit(kth_ref, config.seed ^ 0x5EED)?;
        for &rate in &config.rates {
            let flow_config = GsinoConfig {
                sensitivity: SensitivityModel::new(rate, config.seed ^ 0xC1C),
                nss_model: Some(model.clone()),
                threads: config.threads,
                ..GsinoConfig::default()
            };
            let elapsed = |label: &str, t: std::time::Instant| {
                eprintln!(
                    "[suite] {} rate {:.0}%: {label} done in {:.1}s",
                    scaled.name,
                    rate * 100.0,
                    t.elapsed().as_secs_f64()
                );
            };
            let t = std::time::Instant::now();
            let id_no = run_id_no(&circuit, &flow_config)?;
            elapsed("ID+NO", t);
            let t = std::time::Instant::now();
            let isino = run_isino(&circuit, &flow_config)?;
            elapsed("iSINO", t);
            let t = std::time::Instant::now();
            let gsino = run_gsino(&circuit, &flow_config)?;
            elapsed("GSINO", t);
            results.push(CircuitResult {
                name: scaled.name.clone(),
                rate,
                nets: circuit.num_nets(),
                id_no: ApproachResult::from_outcome(&id_no, circuit.num_nets()),
                isino: ApproachResult::from_outcome(&isino, circuit.num_nets()),
                gsino: ApproachResult::from_outcome(&gsino, circuit.num_nets()),
            });
        }
    }
    Ok(SuiteResults {
        scale: config.scale,
        results,
    })
}

impl SuiteResults {
    /// Result cell for `(circuit, rate)`.
    pub fn get(&self, name: &str, rate: f64) -> Option<&CircuitResult> {
        self.results
            .iter()
            .find(|r| r.name == name && (r.rate - rate).abs() < 1e-9)
    }

    /// Distinct rates in sweep order.
    pub fn rates(&self) -> Vec<f64> {
        let mut rates: Vec<f64> = Vec::new();
        for r in &self.results {
            if !rates.iter().any(|x| (x - r.rate).abs() < 1e-9) {
                rates.push(r.rate);
            }
        }
        rates
    }

    /// Distinct circuit names in run order.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for r in &self.results {
            if !names.contains(&r.name) {
                names.push(r.name.clone());
            }
        }
        names
    }

    /// Table 1: numbers of crosstalk-violating nets for ID+NO solutions.
    pub fn render_table1(&self) -> String {
        let rates = self.rates();
        let mut out = String::from(
            "Table 1: crosstalk-violating nets in ID+NO solutions (count, % of signal nets)\n",
        );
        out.push_str(&format!("{:<8}", "circuit"));
        for r in &rates {
            out.push_str(&format!(" | sens {:>3.0}%        ", r * 100.0));
        }
        out.push('\n');
        for name in self.names() {
            out.push_str(&format!("{name:<8}"));
            for &rate in &rates {
                if let Some(c) = self.get(&name, rate) {
                    out.push_str(&format!(
                        " | {:>6} ({:>5.2}%)",
                        c.id_no.violating_nets, c.id_no.violating_pct
                    ));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Table 2: average wire lengths of ID+NO and GSINO solutions.
    pub fn render_table2(&self) -> String {
        let rates = self.rates();
        let mut out = String::from("Table 2: average wire lengths (um); GSINO overhead vs ID+NO\n");
        out.push_str(&format!("{:<8}", "circuit"));
        for r in &rates {
            out.push_str(&format!(
                " | sens {:>2.0}%: ID+NO   GSINO (ovh)   ",
                r * 100.0
            ));
        }
        out.push('\n');
        for name in self.names() {
            out.push_str(&format!("{name:<8}"));
            for &rate in &rates {
                if let Some(c) = self.get(&name, rate) {
                    let ovh = 100.0 * (c.gsino.mean_wl - c.id_no.mean_wl) / c.id_no.mean_wl;
                    out.push_str(&format!(
                        " | {:>10.0} {:>7.0} ({:>5.2}%) ",
                        c.id_no.mean_wl, c.gsino.mean_wl, ovh
                    ));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Table 3: routing areas of ID+NO, iSINO and GSINO solutions.
    pub fn render_table3(&self) -> String {
        let mut out =
            String::from("Table 3: routing areas (um x um); overheads vs ID+NO in parentheses\n");
        for &rate in &self.rates() {
            out.push_str(&format!("sensitivity rate = {:.0}%\n", rate * 100.0));
            out.push_str(&format!(
                "{:<8} | {:<13} | {:<22} | {:<22}\n",
                "circuit", "ID+NO", "iSINO", "GSINO"
            ));
            for name in self.names() {
                if let Some(c) = self.get(&name, rate) {
                    let ovh = |a: &ApproachResult| 100.0 * (a.area - c.id_no.area) / c.id_no.area;
                    out.push_str(&format!(
                        "{:<8} | {:>5.0} x {:>5.0} | {:>5.0} x {:>5.0} ({:>6.2}%) | {:>5.0} x {:>5.0} ({:>6.2}%)\n",
                        name,
                        c.id_no.area_w,
                        c.id_no.area_h,
                        c.isino.area_w,
                        c.isino.area_h,
                        ovh(&c.isino),
                        c.gsino.area_w,
                        c.gsino.area_h,
                        ovh(&c.gsino),
                    ));
                }
            }
        }
        out
    }

    /// The §4 observation: how much the GSINO overheads shrink when the
    /// sensitivity rate drops from the higher rate to the lower one.
    pub fn render_observations(&self) -> String {
        let rates = self.rates();
        if rates.len() < 2 {
            return String::from("(needs two rates for the overhead-reduction observation)\n");
        }
        let (lo, hi) = (rates[0].min(rates[1]), rates[0].max(rates[1]));
        let mut wl_red = Vec::new();
        let mut area_red = Vec::new();
        for name in self.names() {
            if let (Some(l), Some(h)) = (self.get(&name, lo), self.get(&name, hi)) {
                let wl_ovh_l = (l.gsino.mean_wl - l.id_no.mean_wl) / l.id_no.mean_wl;
                let wl_ovh_h = (h.gsino.mean_wl - h.id_no.mean_wl) / h.id_no.mean_wl;
                if wl_ovh_h > 1e-9 {
                    wl_red.push(1.0 - wl_ovh_l / wl_ovh_h);
                }
                let a_ovh_l = (l.gsino.area - l.id_no.area) / l.id_no.area;
                let a_ovh_h = (h.gsino.area - h.id_no.area) / h.id_no.area;
                if a_ovh_h > 1e-9 {
                    area_red.push(1.0 - a_ovh_l / a_ovh_h);
                }
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                f64::NAN
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        format!(
            "Observation (paper S4): dropping sensitivity {:.0}% -> {:.0}% reduces GSINO \
             wire-length overhead by {:.0}% and area overhead by {:.0}% on average\n",
            hi * 100.0,
            lo * 100.0,
            100.0 * mean(&wl_red),
            100.0 * mean(&area_red),
        )
    }

    /// The §5 claim: share of GSINO runtime spent in the ID routing phase.
    pub fn render_runtime_breakdown(&self) -> String {
        let mut out =
            String::from("Runtime breakdown of GSINO (paper S5 expects routing to dominate)\n");
        for r in &self.results {
            let g = &r.gsino;
            out.push_str(&format!(
                "{:<8} rate {:>2.0}%: route {:>6.2}s ({:>4.1}%)  sino {:>6.2}s  refine {:>6.2}s  total {:>6.2}s\n",
                r.name,
                r.rate * 100.0,
                g.route_s,
                100.0 * g.route_s / g.total_s.max(1e-9),
                g.sino_s,
                g.refine_s,
                g.total_s,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_has_expected_shape() {
        let results = run_suite(&ExperimentConfig::quick()).unwrap();
        assert_eq!(results.results.len(), 2); // 1 circuit × 2 rates.
        assert_eq!(results.names(), vec!["ibm01"]);
        assert_eq!(results.rates(), vec![0.3, 0.5]);
        for r in &results.results {
            // GSINO and iSINO must be clean; ID+NO inserts no shields.
            assert_eq!(r.gsino.violating_nets, 0, "GSINO must be clean");
            assert_eq!(r.isino.violating_nets, 0, "iSINO must be clean");
            assert_eq!(r.id_no.shields, 0);
            // iSINO shares ID+NO's routing, hence its wire length.
            assert!((r.isino.mean_wl - r.id_no.mean_wl).abs() < 1e-9);
        }
    }

    #[test]
    fn tables_render_nonempty() {
        let results = run_suite(&ExperimentConfig::quick()).unwrap();
        let t1 = results.render_table1();
        let t2 = results.render_table2();
        let t3 = results.render_table3();
        assert!(t1.contains("ibm01"));
        assert!(t2.contains("GSINO"));
        assert!(t3.contains("iSINO"));
        assert!(results.render_observations().contains("Observation"));
        assert!(results.render_runtime_breakdown().contains("route"));
    }

    fn fake_approach(wl: f64, area: f64, viol: usize) -> ApproachResult {
        ApproachResult {
            violating_nets: viol,
            violating_pct: viol as f64 / 10.0,
            mean_wl: wl,
            area_w: area.sqrt(),
            area_h: area.sqrt(),
            area,
            area_nets_only: area * 0.98,
            shields: 42,
            route_s: 1.0,
            sino_s: 0.2,
            refine_s: 0.3,
            total_s: 1.6,
        }
    }

    fn fake_results() -> SuiteResults {
        let cell = |rate: f64, gsino_wl: f64| CircuitResult {
            name: "ibm01".into(),
            rate,
            nets: 1000,
            id_no: fake_approach(600.0, 1.0e6, 150),
            isino: fake_approach(600.0, 1.2e6, 0),
            gsino: fake_approach(gsino_wl, 1.1e6, 0),
        };
        SuiteResults {
            scale: 1.0,
            results: vec![cell(0.3, 620.0), cell(0.5, 660.0)],
        }
    }

    #[test]
    fn table1_reports_counts_and_percentages() {
        let t = fake_results().render_table1();
        assert!(t.contains("150"), "{t}");
        assert!(t.contains("15.00%"), "{t}");
    }

    #[test]
    fn table2_computes_overheads() {
        let t = fake_results().render_table2();
        // (620 - 600) / 600 = 3.33%.
        assert!(t.contains("3.33%"), "{t}");
        assert!(t.contains("10.00%"), "{t}");
    }

    #[test]
    fn table3_computes_area_overheads() {
        let t = fake_results().render_table3();
        // iSINO: +20%, GSINO: +10%.
        assert!(t.contains("20.00%"), "{t}");
        assert!(t.contains("10.00%"), "{t}");
        assert!(t.contains("sensitivity rate = 30%"));
        assert!(t.contains("sensitivity rate = 50%"));
    }

    #[test]
    fn observations_report_overhead_reduction() {
        let o = fake_results().render_observations();
        // WL overhead: 3.33% at 30, 10% at 50 → reduction ≈ 67%.
        assert!(o.contains("67%"), "{o}");
        // Needs two rates.
        let single = SuiteResults {
            scale: 1.0,
            results: fake_results().results[..1].to_vec(),
        };
        assert!(single.render_observations().contains("needs two rates"));
    }

    #[test]
    fn lookup_helpers() {
        let r = fake_results();
        assert!(r.get("ibm01", 0.3).is_some());
        assert!(r.get("ibm01", 0.4).is_none());
        assert!(r.get("ibm99", 0.3).is_none());
        assert_eq!(r.names(), vec!["ibm01"]);
        assert_eq!(r.rates(), vec![0.3, 0.5]);
    }

    #[test]
    fn results_serialize_roundtrip() {
        let r = fake_results();
        let json = serde_json::to_string(&r).unwrap();
        let back: SuiteResults = serde_json::from_str(&json).unwrap();
        assert_eq!(back.results.len(), 2);
        assert_eq!(back.results[0].id_no.violating_nets, 150);
    }

    #[test]
    fn env_config_parses_scale() {
        let config = ExperimentConfig::from_vars(Some("0.07"), None).unwrap();
        assert!((config.scale - 0.07).abs() < 1e-9);
        assert_eq!(config.circuits.len(), 6);
        let config = ExperimentConfig::from_vars(None, Some("ibm03, ibm01")).unwrap();
        let names: Vec<&str> = config.circuits.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["ibm01", "ibm03"]);
        let bad = |scale, circuits| match ExperimentConfig::from_vars(scale, circuits) {
            Err(CoreError::BadConfig { reason }) => reason,
            other => panic!("expected BadConfig, got {other:?}"),
        };
        assert!(bad(Some("fast"), None).contains("\"fast\""));
        assert!(bad(Some("1.5"), None).contains("(0, 1]"));
        assert!(bad(None, Some("ibm01,ibm07")).contains("\"ibm07\""));
    }
}
