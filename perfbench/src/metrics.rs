//! The metric catalogue — the names `BENCHMARK.json` lists, with their
//! units — and the one-line JSON result every run ends with.

use std::fmt::Write as _;

/// Printed by every untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("model_speedup", "x"),
    ("setup_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("job_latency_p50_s", "s"),
];

/// Printed by every traced run (`--trace 1`), on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    // foam-spectral
    ("spectral.analyze_us", "us"),
    ("spectral.analyze_us_p90", "us"),
    ("spectral.synthesize_us", "us"),
    ("spectral.synthesize_us_p90", "us"),
    ("spectral.self_s", "s"),
    ("spectral.calls", "count"),
    // foam-physics
    ("physics.column_us", "us"),
    ("physics.column_us_p90", "us"),
    ("physics.radiation_full_us", "us"),
    ("physics.radiation_full_us_p90", "us"),
    ("physics.self_s", "s"),
    ("physics.rad_cache_hit_ratio", "ratio"),
    // foam-atm
    ("atm.dynamics_self_s", "s"),
    ("atm.busy_s", "s"),
    // foam-ocean
    ("ocean.step_coupled_ms", "ms"),
    ("ocean.baroclinic_s", "s"),
    ("ocean.barotropic_s", "s"),
    ("ocean.tracers_s", "s"),
    ("ocean.polar_filter_s", "s"),
    ("ocean.barotropic_subcycles", "count"),
    // foam-coupler
    ("coupler.step_rows_us", "us"),
    ("coupler.step_rows_us_p90", "us"),
    ("coupler.fluxes_s", "s"),
    ("coupler.rivers_s", "s"),
    ("coupler.sst_wait_s", "s"),
    ("coupler.sst_wait_frac", "ratio"),
    ("coupler.overlap_gain", "x"),
    // foam-mpi
    ("mpi.msgs_per_interval", "count"),
    ("mpi.bytes_per_interval", "B"),
    ("mpi.wait_s", "s"),
    ("mpi.allreduce_us", "us"),
    ("mpi.allreduce_us_p90", "us"),
    ("mpi.bcast_us", "us"),
    ("mpi.bcast_us_p90", "us"),
    // foam (driver + stream)
    ("core.interval_p50_ms", "ms"),
    ("core.allocs_per_interval", "count"),
    ("core.unattributed_frac", "ratio"),
    ("stats.fold_us", "us"),
    ("stats.fold_us_p90", "us"),
    // foam-ckpt
    ("ckpt.encode_ms", "ms"),
    ("ckpt.decode_ms", "ms"),
    ("ckpt.write_ms", "ms"),
    ("ckpt.snapshot_bytes", "B"),
    // foam-server
    ("server.spec_parse_us", "us"),
    ("server.spec_parse_us_p90", "us"),
    ("server.cache_get_us", "us"),
    ("server.cache_get_us_p90", "us"),
    ("server.request_ms.submit", "ms"),
    ("server.request_ms.submit_p90", "ms"),
    ("server.request_ms.state", "ms"),
    ("server.request_ms.state_p90", "ms"),
    ("server.request_ms.progress", "ms"),
    ("server.request_ms.progress_p90", "ms"),
    ("server.request_ms.report", "ms"),
    ("server.request_ms.report_p90", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.executions_per_distinct", "ratio"),
    ("server.jobs_per_s", "jobs/s"),
    ("server.job_latency_p90_s", "s"),
    ("server.hit_latency_p50_ms", "ms"),
    ("server.hit_latency_p90_ms", "ms"),
    // foam-telemetry
    ("telemetry.overhead_frac", "ratio"),
];

/// The catalogue a run of the given mode must fill.
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Metric values collected by a run, in catalogue order when printed.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Record `name` (which must be in one of the catalogues); a later
    /// value replaces an earlier one.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name:?} is not in the catalogue"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Catalogue names this run did not fill, or filled with a value
    /// that is not a finite number.
    pub fn missing(&self, trace: bool) -> Vec<&'static str> {
        catalogue(trace)
            .iter()
            .filter(|(n, _)| !self.get(n).is_some_and(f64::is_finite))
            .map(|(n, _)| *n)
            .collect()
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// The final output line:
/// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, with
/// exactly the catalogue of the run's mode, each value at full
/// precision (Rust's shortest round-trip form).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    trace: bool,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in catalogue(trace).iter().enumerate() {
        let v = metrics.get(name).unwrap_or(f64::NAN);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use foam_telemetry::json::{parse, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(v: &Value, key: &str) -> Vec<(String, String)> {
        match v.get(key) {
            Some(Value::Array(items)) => items
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .expect("metric entries carry name and unit")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json lacks {key}"),
        }
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_names_equal_benchmark_json() {
        let v = benchmark_json();
        assert_eq!(listed(&v, "end_to_end"), ours(END_TO_END));
        assert_eq!(listed(&v, "per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn result_line_prints_exactly_the_catalogue() {
        for trace in [false, true] {
            let mut m = Metrics::default();
            for (name, _) in catalogue(trace) {
                m.set(name, 1.25);
            }
            assert!(m.missing(trace).is_empty());
            let line = result_line(true, 3, 0, &m, trace);
            let v = parse(&line).expect("result line is JSON");
            let Some(Value::Object(printed)) = v.get("metrics") else {
                panic!("metrics object");
            };
            let names: Vec<&str> = printed.keys().map(String::as_str).collect();
            let mut want: Vec<&str> = catalogue(trace).iter().map(|(n, _)| *n).collect();
            want.sort_unstable();
            assert_eq!(names, want);
            assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(3.0));
        }
    }
}
