//! Machine-readable benchmark rows: one JSON object per line, appended
//! to a shared file so successive `adapcc-sim --bench-append` runs
//! accumulate a comparable result trajectory (the `BENCH_*.json`
//! history).
//!
//! Each report flattens itself into a [`Row`] beside its own type
//! ([`crate::cli::SimArgs::row`],
//! [`crate::engine_bench::EngineStormReport::row`], ...). Keys keep
//! insertion order and every float states its decimals, so equal
//! inputs serialize byte-identically. String values go through
//! [`json_escape`], the workspace's one line-JSON escaper.

use std::fmt::{Display, Write as _};
use std::io::Write as _;
use std::path::Path;

use adapcc_telemetry::json_escape;

/// Integer types a [`Row`] prints verbatim.
pub trait Int: Display {}

impl Int for u64 {}

impl Int for usize {}

/// One line-JSON object, built column by column in output order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Row(String);

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row::default()
    }

    fn push(mut self, key: &str, value: impl Display) -> Self {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        let _ = write!(self.0, "\"{key}\":{value}");
        self
    }

    /// Appends a string column, escaped.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.push(key, format_args!("\"{}\"", json_escape(value)))
    }

    /// Appends an integer column.
    pub fn int(self, key: &str, value: impl Int) -> Self {
        self.push(key, value)
    }

    /// Appends a boolean column.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.push(key, value)
    }

    /// Appends a float column printed with exactly `decimals` decimals.
    pub fn float(self, key: &str, value: f64, decimals: usize) -> Self {
        self.push(key, format_args!("{value:.decimals$}"))
    }

    /// Appends the `plan_cache_hits`, `plan_cache_misses` and
    /// `plan_cache_warm_starts` columns. The main, engine and churn rows
    /// all carry them (zero where nothing synthesizes), so a mixed BENCH
    /// file groups on them without per-row schema sniffing.
    pub fn plan_cache(self, hits: u64, misses: u64, warm_starts: u64) -> Self {
        self.int("plan_cache_hits", hits)
            .int("plan_cache_misses", misses)
            .int("plan_cache_warm_starts", warm_starts)
    }

    /// Renders the row as a single-line JSON object (no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.0)
    }

    /// Appends the row (plus newline) to `path`, creating the file if
    /// needed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from opening or writing the file.
    pub fn append_to(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::{ChurnConfig, ChurnSummary};
    use crate::cli::SimArgs;
    use crate::engine_bench::{EngineStormReport, StormConfig, StormMode};
    use crate::parallel_bench::{ParallelConfig, ParallelReport, PhaseOutcome};
    use crate::service_bench::{ModeReport, ServiceBenchReport, ServiceWorkload};
    use adapcc_baselines::runner::RunReport;
    use adapcc_planserve::PlanStats;
    use adapcc_simnet::time::{SimDuration, SimTime};
    use adapcc_telemetry::Telemetry;
    use adapcc_train::parallel::ParallelLayout;

    fn sample() -> Row {
        let report = RunReport {
            finish: SimTime::ZERO,
            comm_time: SimDuration::from_millis(12.5),
            algo_bw_gbytes: 21.474836,
        };
        let cache = PlanStats {
            misses: 1,
            ..PlanStats::default()
        };
        let probe = Telemetry::enabled();
        probe.set_counter("synth.full_evals", 13.0);
        probe.set_counter("synth.delta_evals", 360.0);
        probe.set_counter("synth.chains", 1.0);
        SimArgs::default().row(&report, &cache, &probe, 8.062, 0.0, 0.0)
    }

    const SAMPLE_JSON: &str = "{\"system\":\"AdapCC\",\"primitive\":\"allreduce\",\
        \"servers\":\"a100:2\",\"tensor_mib\":256,\"parallelism\":4,\
        \"comm_time_ms\":12.500000,\"algo_bw_gbytes\":21.474836,\"plan_cache_hits\":0,\
        \"plan_cache_misses\":1,\"plan_cache_warm_starts\":0,\"solver_wall_ms\":8.062,\
        \"synth_full_evals\":13,\"synth_delta_evals\":360,\"synth_chains\":1,\
        \"hierarchical\":false,\"sim_wall_ms\":0.000,\"engine_events_per_sec\":0.0}";

    fn engine_row(servers: usize, waves: usize, storm: StormMode, r: EngineStormReport) -> Row {
        let cfg = StormConfig {
            servers,
            waves,
            storm,
        };
        r.row(&cfg, servers * 4)
    }

    fn parallel_sample() -> Row {
        // One phase carries every sum, so the totals stay exact.
        let phase = |modeled: (f64, f64), executed: (f64, f64), rounds| PhaseOutcome {
            name: "tp.allreduce",
            groups: 1,
            oblivious_modeled_s: modeled.0,
            aware_modeled_s: modeled.1,
            oblivious_executed_s: executed.0,
            aware_executed_s: executed.1,
            rounds,
        };
        let mut phases = vec![phase((0.101234, 0.091234), (0.120001, 0.110001), 6)];
        phases.extend((0..3).map(|_| phase((0.0, 0.0), (0.0, 0.0), 0)));
        ParallelReport { phases }.row(&ParallelConfig::default(), 950.5)
    }

    #[test]
    fn parallel_json_is_one_line_with_fixed_fields() {
        assert_eq!(
            parallel_sample().to_json(),
            "{\"servers\":8,\"gpus_per_server\":4,\"gpus\":32,\"dp\":8,\"tp\":2,\"pp\":2,\
             \"model_mib\":512,\"parallelism\":4,\"seed\":1,\"phases\":4,\"rounds\":6,\
             \"oblivious_modeled_s\":0.101234,\"aware_modeled_s\":0.091234,\
             \"oblivious_executed_s\":0.120001,\"aware_executed_s\":0.110001,\
             \"wall_ms\":950.500}"
        );
        assert_eq!(
            ParallelConfig::default().layout,
            ParallelLayout::new(8, 2, 2)
        );
    }

    #[test]
    fn parallel_record_appends_parseable_lines() {
        let dir =
            std::env::temp_dir().join(format!("adapcc-parallel-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_parallel.json");
        let _ = std::fs::remove_file(&path);
        parallel_sample().append_to(&path).unwrap();
        parallel_sample().append_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_is_one_line_with_fixed_fields() {
        assert_eq!(sample().to_json(), SAMPLE_JSON);
    }

    #[test]
    fn engine_record_is_one_line_json() {
        let r = EngineStormReport {
            transfers: 512,
            events: 4096,
            sim_ms: 1.25,
            wall_ms: 97.5,
            fillings: 900,
            frontier_flows: 3100,
        };
        assert_eq!(
            engine_row(128, 4, StormMode::Churn, r).to_json(),
            "{\"servers\":\"a100:128\",\"gpus\":512,\"waves\":4,\"storm\":\"churn\",\
             \"transfers\":512,\"events\":4096,\"sim_ms\":1.250000,\
             \"wall_ms\":97.500,\"events_per_sec\":42010.3,\"fillings\":900,\
             \"frontier_flows\":3100,\"plan_cache_hits\":0,\"plan_cache_misses\":0,\
             \"plan_cache_warm_starts\":0,\"hierarchical\":false}"
        );
    }

    /// The schema-uniformity contract: the main, engine and churn rows
    /// carry the same plan-cache and hierarchical columns, so a mixed
    /// BENCH file can be grouped on them without per-row schema
    /// sniffing.
    #[test]
    fn every_record_carries_the_cache_columns() {
        let engine = engine_row(
            4,
            2,
            StormMode::Wave,
            EngineStormReport {
                transfers: 8,
                events: 64,
                sim_ms: 0.5,
                wall_ms: 3.0,
                fillings: 10,
                frontier_flows: 40,
            },
        );
        assert_eq!(
            engine.to_json(),
            "{\"servers\":\"a100:4\",\"gpus\":16,\"waves\":2,\"storm\":\"wave\",\
             \"transfers\":8,\"events\":64,\"sim_ms\":0.500000,\
             \"wall_ms\":3.000,\"events_per_sec\":21333.3,\"fillings\":10,\
             \"frontier_flows\":40,\"plan_cache_hits\":0,\"plan_cache_misses\":0,\
             \"plan_cache_warm_starts\":0,\"hierarchical\":false}"
        );
        for j in [
            sample().to_json(),
            engine.to_json(),
            churn_sample().to_json(),
        ] {
            for col in [
                "\"plan_cache_hits\":",
                "\"plan_cache_misses\":",
                "\"plan_cache_warm_starts\":",
                "\"hierarchical\":",
            ] {
                assert!(j.contains(col), "{j} lacks {col}");
            }
        }
    }

    fn churn_sample() -> Row {
        let summary = ChurnSummary {
            converged: 180,
            classified: 20,
            rejoins: 97,
            errors: 311,
            plan_hits: 12,
            plan_misses: 200,
            plan_warm_starts: 45,
            violations: Vec::new(),
            total: 200,
        };
        summary.row(&ChurnConfig::default(), 200, 0, 2.0, 15321.7)
    }

    #[test]
    fn churn_record_is_one_line_json() {
        assert_eq!(
            churn_sample().to_json(),
            "{\"seeds\":200,\"seed_base\":0,\"servers\":2,\"size_kib\":1024,\
             \"horizon_ms\":2.000,\"settle_iters\":6,\"converged\":180,\"classified\":20,\
             \"violations\":0,\"rejoins\":97,\"errors\":311,\"plan_cache_hits\":12,\
             \"plan_cache_misses\":200,\"plan_cache_warm_starts\":45,\
             \"hierarchical\":false,\"wall_ms\":15321.700}"
        );
    }

    #[test]
    fn identical_records_serialize_identically() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn service_record_is_one_line_json() {
        let w = ServiceWorkload {
            jobs: 32,
            threads: 8,
            repeat_ratio: 0.75,
            shapes: 2,
            ..ServiceWorkload::default()
        };
        let r = ServiceBenchReport {
            service: ModeReport {
                requests: 136,
                wall_ms: 47.039,
                plans_per_sec: 2891.2,
                p50_us: 45.4,
                p99_us: 21665.7,
                hits: 81,
                warm_starts: 33,
                cold_solves: 8,
                coalesced: 14,
            },
            baseline: ModeReport {
                plans_per_sec: 385.8,
                p50_us: 19273.0,
                p99_us: 31861.2,
                wall_ms: 352.518,
                ..ModeReport::default()
            },
            entries: 9,
            bytes: 4521,
            evictions: 0,
            speedup: 7.49,
        };
        assert_eq!(
            r.row(&w).to_json(),
            "{\"jobs\":32,\"threads\":8,\"repeat_ratio\":0.75,\"shapes\":2,\"requests\":136,\
             \"hits\":81,\"warm_starts\":33,\"cold_solves\":8,\"coalesced\":14,\"entries\":9,\
             \"bytes\":4521,\"evictions\":0,\"plans_per_sec\":2891.2,\"p50_us\":45.4,\
             \"p99_us\":21665.7,\"wall_ms\":47.039,\"baseline_plans_per_sec\":385.8,\
             \"baseline_p50_us\":19273.0,\"baseline_p99_us\":31861.2,\
             \"baseline_wall_ms\":352.518,\"speedup\":7.49}"
        );
    }

    #[test]
    fn escapes_quotes_in_labels() {
        let row = |label: &str| Row::new().str("servers", label).to_json();
        assert_eq!(row("a\"b\\c"), "{\"servers\":\"a\\\"b\\\\c\"}");
        assert_eq!(
            row("tab\tcr\rctl\u{1}"),
            "{\"servers\":\"tab\\tcr\\rctl\\u0001\"}"
        );
    }

    #[test]
    fn append_accumulates_lines() {
        let dir = std::env::temp_dir().join("adapcc_record_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.jsonl");
        let _ = std::fs::remove_file(&path);
        sample().append_to(&path).unwrap();
        sample().append_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert_eq!(line, SAMPLE_JSON);
        }
        let _ = std::fs::remove_file(&path);
    }
}
