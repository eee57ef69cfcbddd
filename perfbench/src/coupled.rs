//! The coupled workloads, `paper_r15` and `century_stream`: repeated
//! identical runs through `foam::try_run_coupled_observed`, timed from
//! outside, each checked against its reference bits.

use std::sync::Mutex;
use std::time::Instant;

use foam::{
    try_run_coupled_observed, CoupledError, CoupledOutput, CouplingMode, FoamConfig, ProgressEvent,
    RunObserver, TelemetryReport,
};
use foam_telemetry::alloc::CountingAlloc;

use crate::metrics::Metrics;
use crate::stats::{median, Summary};
use crate::{references, spans, Tally};

/// One model configuration and the span each run of it integrates.
pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    pub cfg: FoamConfig,
    pub days: f64,
}

impl Workload {
    /// The paper's configuration: R15 48×40×18 atmosphere on one rank,
    /// 128×128×16 ocean on one rank, lagged 6-hour coupling, no
    /// checkpoints, no stream, telemetry off.
    pub fn paper_r15(seed: u64) -> Self {
        Workload {
            name: "paper_r15",
            seed,
            cfg: FoamConfig::paper(1, seed),
            days: 1.0,
        }
    }

    /// The century preset (R3 16×12×4 atmosphere, 24×16×4 ocean,
    /// streaming statistics on), one simulated month per run so every
    /// run folds a month into the stream.
    pub fn century_stream(seed: u64) -> Self {
        Workload {
            name: "century_stream",
            seed,
            cfg: FoamConfig::century(seed),
            days: 30.0,
        }
    }

    pub fn intervals(&self) -> usize {
        (self.days * 86_400.0 / self.cfg.dt_couple).round() as usize
    }
}

/// Stamps each coupling interval as the root rank reports it: wall
/// time and the process's allocation count. Sized up front, so the
/// callback itself never allocates.
struct IntervalClock {
    parent: Option<usize>,
    stamps: Mutex<Vec<(Instant, u64)>>,
}

impl IntervalClock {
    fn new(n: usize, parent: Option<usize>) -> Self {
        IntervalClock {
            parent,
            stamps: Mutex::new(Vec::with_capacity(n + 1)),
        }
    }
}

impl RunObserver for IntervalClock {
    fn on_interval(&self, _ev: &ProgressEvent) {
        let _span = spans::open("on_interval", self.parent);
        let allocs = CountingAlloc::stats().allocations;
        if let Ok(mut v) = self.stamps.lock() {
            if v.len() < v.capacity() {
                v.push((Instant::now(), allocs));
            }
        }
    }
}

/// One entry call, timed from outside.
struct Call {
    out: CoupledOutput,
    /// Wall time of the whole entry call.
    outer_s: f64,
    /// Peak live heap during the call.
    peak_bytes: u64,
    /// Wall seconds and allocations of each interval after the first.
    intervals: Vec<(f64, u64)>,
}

impl Call {
    /// The part of the entry call outside the integration loop.
    pub fn setup_s(&self) -> f64 {
        self.outer_s - self.out.wall_seconds
    }
}

fn call(cfg: &FoamConfig, days: f64, n_intervals: usize) -> Result<Call, CoupledError> {
    let span = spans::open("entry_call", None);
    let clock = IntervalClock::new(n_intervals, span.id());
    CountingAlloc::reset_peak();
    let t0 = Instant::now();
    let out = try_run_coupled_observed(cfg, days, &clock)?;
    let outer_s = t0.elapsed().as_secs_f64();
    let peak_bytes = CountingAlloc::stats().peak_bytes;
    drop(span);
    let stamps = clock.stamps.into_inner().unwrap_or_default();
    let intervals = stamps
        .windows(2)
        .map(|w| (w[1].0.duration_since(w[0].0).as_secs_f64(), w[1].1 - w[0].1))
        .collect();
    Ok(Call {
        out,
        outer_s,
        peak_bytes,
        intervals,
    })
}

/// Structural checks every coupled output must pass, whatever its
/// configuration: a clean message-passing teardown, one diagnostic per
/// interval, and a physically plausible mean SST.
fn check_shape(out: &CoupledOutput, n_intervals: usize) -> Result<f64, String> {
    if !out.comm_lint.is_clean() {
        return Err(format!("comm-lint not clean: {}", out.comm_lint));
    }
    if out.mean_sst_series.len() != n_intervals {
        return Err(format!(
            "{} SST diagnostics for {n_intervals} intervals",
            out.mean_sst_series.len()
        ));
    }
    match out.final_mean_sst() {
        Some(t) if t.is_finite() && (-2.0..=40.0).contains(&t) => Ok(t),
        other => Err(format!("implausible final mean SST {other:?}")),
    }
}

/// Checks each run of one (workload, seed) against the stored
/// reference bits, or, for a seed without one, against the first run
/// (and says so loudly: see [`Checker::describe`]).
pub struct Checker {
    key: (&'static str, u64),
    expect: Option<references::Reference>,
    stored: bool,
    /// Compare only `final_mean_sst` (a `serve_mixed` reference's CRC
    /// is of a report, not of the series).
    final_only: bool,
    n_intervals: usize,
}

impl Checker {
    pub fn new(w: &Workload) -> Self {
        let expect = references::lookup(w.name, w.seed);
        Checker {
            key: (w.name, w.seed),
            stored: expect.is_some(),
            expect,
            final_only: false,
            n_intervals: w.intervals(),
        }
    }

    /// Checks runs of `serve_mixed`'s reference job (client 0's first
    /// cold job of workload seed `seed`) against the final mean SST
    /// stored for that seed.
    pub fn serve_job(w: &Workload, seed: u64) -> Self {
        let expect = references::lookup("serve_mixed", seed);
        Checker {
            key: ("serve_mixed", seed),
            stored: expect.is_some(),
            expect,
            final_only: true,
            n_intervals: w.intervals(),
        }
    }

    /// Print the reference the runs are checked against, or the warning
    /// that there is none.
    pub fn describe(&self) {
        match &self.expect {
            Some(r) if self.stored => println!(
                "reference for {} seed {}: final_mean_sst bits {:016x}, crc64 {:016x}",
                self.key.0, self.key.1, r.final_bits, r.series_crc
            ),
            _ => references::warn_unverified(self.key.0, self.key.1),
        }
    }

    pub fn check(&mut self, out: &CoupledOutput) -> Result<(), String> {
        check_shape(out, self.n_intervals)?;
        let mut got = references::Reference::of(out);
        if let (true, Some(want)) = (self.final_only, &self.expect) {
            got.series_crc = want.series_crc;
        }
        match &self.expect {
            Some(want) if *want != got => Err(format!(
                "output bits differ from the reference: final_mean_sst {:016x} vs {:016x}, \
                 series crc64 {:016x} vs {:016x}",
                got.final_bits, want.final_bits, got.series_crc, want.series_crc
            )),
            Some(_) => Ok(()),
            None => {
                self.expect = Some(got);
                Ok(())
            }
        }
    }
}

/// The reference of `w`: one untraced full call, shape-checked.
pub fn reference(w: &Workload) -> Result<references::Reference, String> {
    let c = call(&w.cfg, w.days, w.intervals()).map_err(|e| format!("run failed: {e}"))?;
    check_shape(&c.out, w.intervals())?;
    Ok(references::Reference::of(&c.out))
}

/// Full runs that every timed loop makes, however short `--seconds` is.
const MIN_CALLS: usize = 3;
/// Before each full run, one-interval set-up probes: at least this
/// many...
const MIN_PROBES: usize = 2;
/// ...and more while they take less than this share of a full run,
const PROBE_SHARE: f64 = 0.3;
/// ...up to this many.
const MAX_PROBES: usize = 6;

/// The untraced run: full entry calls for `seconds`, each preceded by
/// a few one-interval set-up probes of the same configuration (set-up
/// does not depend on the run's length, so short runs sample it
/// cheaply, spread over the whole run). The end-to-end metrics are
/// medians over calls.
pub fn run_untraced(
    w: &Workload,
    seconds: f64,
    checker: &mut Checker,
    tally: &mut Tally,
) -> Metrics {
    checker.describe();
    let n = w.intervals();
    let (mut speedup, mut setup, mut peak, mut latency) = (vec![], vec![], vec![], vec![]);
    let one_interval = w.cfg.dt_couple / 86_400.0;
    let t_run = Instant::now();
    let (mut calls, mut probes) = (0, 0);
    loop {
        let gap = Instant::now();
        let gap_budget = PROBE_SHARE * median(&latency).unwrap_or(0.0);
        let mut in_gap = 0;
        while in_gap < MIN_PROBES
            || (in_gap < MAX_PROBES && gap.elapsed().as_secs_f64() < gap_budget)
        {
            in_gap += 1;
            tally.attempted += 1;
            match call(&w.cfg, one_interval, 1) {
                Ok(c) => match check_shape(&c.out, 1) {
                    Ok(_) => setup.push(c.setup_s()),
                    Err(why) => tally.fail(&format!("set-up probe: {why}")),
                },
                Err(e) => tally.fail(&format!("set-up probe failed: {e}")),
            }
        }
        probes += in_gap;
        calls += 1;
        tally.attempted += 1;
        match call(&w.cfg, w.days, n) {
            Ok(c) => match checker.check(&c.out) {
                Ok(()) => {
                    println!(
                        "  call {calls}: {:.0}x real time, setup {:.4} s, entry call {:.3} s",
                        c.out.model_speedup,
                        c.setup_s(),
                        c.outer_s
                    );
                    speedup.push(c.out.model_speedup);
                    setup.push(c.setup_s());
                    peak.push(c.peak_bytes as f64 / (1024.0 * 1024.0));
                    latency.push(c.outer_s);
                }
                Err(why) => tally.fail(&why),
            },
            Err(e) => tally.fail(&format!("run failed: {e}")),
        }
        let elapsed = t_run.elapsed().as_secs_f64();
        let per_call = elapsed / calls as f64;
        if (calls >= MIN_CALLS && elapsed + per_call > seconds) || elapsed > 6.0 * seconds {
            break;
        }
    }
    println!(
        "{calls} calls of {} simulated days and {probes} one-interval set-up probes in {:.1} s",
        w.days,
        t_run.elapsed().as_secs_f64()
    );
    let mut m = Metrics::default();
    for (name, xs, scale, unit) in [
        ("model_speedup", &speedup, 1.0, "x"),
        ("setup_s", &setup, 1.0, "s"),
        ("peak_heap_mib", &peak, 1.0, "MiB"),
        ("job_latency_p50_s", &latency, 1.0, "s"),
    ] {
        if let Some(s) = Summary::of(xs) {
            println!("  {name:<20} {}", s.describe(scale, unit));
            m.set(name, s.p50);
        }
    }
    m
}

/// Wall seconds of a phase path on one rank of a traced report.
fn sum(report: &TelemetryReport, rank: usize, path: &str) -> f64 {
    report
        .ranks
        .get(rank)
        .and_then(|r| r.phases.get(path))
        .map_or(0.0, |p| p.seconds)
}

/// A phase's sum minus the sums of its direct child phases.
fn self_time(report: &TelemetryReport, rank: usize, path: &str) -> f64 {
    let Some(r) = report.ranks.get(rank) else {
        return 0.0;
    };
    let prefix = format!("{path}/");
    let children: f64 = r
        .phases
        .iter()
        .filter(|(p, _)| p.starts_with(&prefix) && !p[prefix.len()..].contains('/'))
        .map(|(_, s)| s.seconds)
        .sum();
    sum(report, rank, path) - children
}

/// Slack allowed between clocks read a few instructions apart.
const CLOCK_SLACK_S: f64 = 1e-4;

/// Print the atmosphere root's self-time ledger — every phase's self
/// time plus the unattributed remainder, which add back up to the
/// rank's traced wall — and reconcile that wall with two clocks the
/// telemetry does not own: it must contain the driver's integration
/// loop (`CoupledOutput::wall_seconds`) and lie within the benchmark's
/// own timing of the entry call. Returns the unattributed share.
fn ledger(report: &TelemetryReport, loop_s: f64, entry_call_s: f64) -> Result<f64, String> {
    if !report.tree_consistent(1e-6) {
        return Err("telemetry timing tree is inconsistent".to_string());
    }
    let r0 = report
        .ranks
        .first()
        .ok_or_else(|| "telemetry report has no ranks".to_string())?;
    let wall = r0.wall_seconds;
    let mut rows: Vec<(String, f64)> = r0
        .phases
        .keys()
        .map(|p| (p.clone(), self_time(report, 0, p)))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top: f64 = r0
        .phases
        .iter()
        .filter(|(p, _)| !p.contains('/'))
        .map(|(_, s)| s.seconds)
        .sum();
    let unattributed = wall - top;
    println!("self-time ledger of the atmosphere root (rank 0, traced wall {wall:.4} s):");
    for (path, s) in &rows {
        println!("  {path:<32} {s:>9.4} s  {:>5.1} %", 100.0 * s / wall);
    }
    println!(
        "  {:<32} {unattributed:>9.4} s  {:>5.1} %",
        "(unattributed)",
        100.0 * unattributed / wall
    );
    println!(
        "  traced wall {wall:.6} s: driver loop {loop_s:.6} s <= traced wall <= entry call \
         {entry_call_s:.6} s"
    );
    if rows.iter().any(|(_, s)| *s < -1e-6) || unattributed < -1e-3 * wall {
        return Err("negative self time in the ledger".to_string());
    }
    if wall < loop_s - CLOCK_SLACK_S || wall > entry_call_s + CLOCK_SLACK_S {
        return Err(format!(
            "traced wall {wall} s is outside [driver loop {loop_s} s, entry call {entry_call_s} s]"
        ));
    }
    Ok(unattributed / wall)
}

/// The traced model pass: alternate untraced and traced runs of `w`
/// for about `budget` seconds, then one traced run with sequential
/// coupling, and fill the per-layer metrics that come from the
/// driver's own telemetry and message counters.
pub fn traced_model_pass(
    w: &Workload,
    budget: f64,
    checker: &mut Checker,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let n = w.intervals();
    let mut traced_cfg = w.cfg.clone();
    traced_cfg.telemetry.enabled = true;
    let (mut plain_wall, mut traced_wall, mut traced_speedup) = (vec![], vec![], vec![]);
    let (mut interval_s, mut interval_allocs) = (vec![], vec![]);
    let mut last: Option<Call> = None;
    let t0 = Instant::now();
    while plain_wall.is_empty() || t0.elapsed().as_secs_f64() < budget {
        tally.attempted += 1;
        match call(&w.cfg, w.days, n) {
            Ok(c) => match checker.check(&c.out) {
                Ok(()) => {
                    plain_wall.push(c.out.wall_seconds);
                    for (s, a) in &c.intervals {
                        interval_s.push(*s);
                        interval_allocs.push(*a as f64);
                    }
                }
                Err(why) => tally.fail(&why),
            },
            Err(e) => tally.fail(&format!("run failed: {e}")),
        }
        tally.attempted += 1;
        match call(&traced_cfg, w.days, n) {
            Ok(c) => match checker.check(&c.out) {
                Ok(()) => {
                    traced_wall.push(c.out.wall_seconds);
                    traced_speedup.push(c.out.model_speedup);
                    last = Some(c);
                }
                Err(why) => tally.fail(&format!("traced run: {why}")),
            },
            Err(e) => tally.fail(&format!("traced run failed: {e}")),
        }
        if t0.elapsed().as_secs_f64() > 6.0 * budget.max(1.0) {
            break;
        }
    }
    let Some(Call { out, outer_s, .. }) = last else {
        return;
    };
    let Some(report) = out.telemetry.as_ref() else {
        tally.fail("traced run returned no telemetry report");
        return;
    };
    let ocean = report.ranks.len() - 1;
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0) as f64;

    match ledger(report, out.wall_seconds, outer_s) {
        Ok(frac) => m.set("core.unattributed_frac", frac),
        Err(why) => tally.fail(&why),
    }
    let spectral = "atmosphere/dynamics/spectral";
    m.set("spectral.self_s", self_time(report, 0, spectral));
    m.set(
        "spectral.calls",
        report.ranks[0].phases.get(spectral).map_or(0, |p| p.calls) as f64,
    );
    m.set("physics.self_s", self_time(report, 0, "atmosphere/physics"));
    let (hits, misses) = (
        counter("atm.radiation.cache_hits"),
        counter("atm.radiation.cache_misses"),
    );
    m.set("physics.rad_cache_hit_ratio", hits / (hits + misses));
    m.set(
        "atm.dynamics_self_s",
        self_time(report, 0, "atmosphere/dynamics"),
    );
    m.set("atm.busy_s", sum(report, 0, "atmosphere"));
    for (name, path) in [
        ("ocean.baroclinic_s", "ocean/baroclinic"),
        ("ocean.barotropic_s", "ocean/barotropic"),
        ("ocean.tracers_s", "ocean/tracers"),
        ("ocean.polar_filter_s", "ocean/polar_filter"),
    ] {
        m.set(name, self_time(report, ocean, path));
    }
    m.set(
        "ocean.barotropic_subcycles",
        counter("ocean.barotropic_subcycles"),
    );
    m.set("coupler.fluxes_s", sum(report, 0, "coupler/fluxes"));
    m.set("coupler.rivers_s", sum(report, 0, "coupler/rivers"));
    let wait = sum(report, 0, "sst_wait") + sum(report, 0, "coupler/sst_wait");
    m.set("coupler.sst_wait_s", wait);
    m.set("coupler.sst_wait_frac", wait / report.ranks[0].wall_seconds);

    // Exact message counts, whole job (every rank, every tag).
    let (mut msgs, mut bytes, mut wait_s) = (0u64, 0u64, 0.0f64);
    for t in &out.traces {
        for s in t.stats.by_tag.values() {
            msgs += s.msgs_sent;
            bytes += s.bytes_sent;
            wait_s += s.wait_seconds;
        }
    }
    m.set("mpi.msgs_per_interval", msgs as f64 / n as f64);
    m.set("mpi.bytes_per_interval", bytes as f64 / n as f64);
    m.set("mpi.wait_s", wait_s);

    // Intervals after the first, untraced runs.
    if let Some(s) = Summary::of(&interval_s) {
        println!("coupling interval wall: {}", s.describe(1e3, "ms"));
        m.set("core.interval_p50_ms", s.p50 * 1e3);
    }
    if let Some(a) = median(&interval_allocs) {
        println!(
            "steady-state allocations per interval (whole process): median {a} over {} intervals",
            interval_allocs.len()
        );
        m.set("core.allocs_per_interval", a);
    }
    let (plain, traced) = (
        median(&plain_wall).unwrap_or(f64::NAN),
        median(&traced_wall).unwrap_or(f64::NAN),
    );
    println!(
        "telemetry overhead: traced wall {traced:.4} s vs untraced {plain:.4} s \
         (medians of {} and {} runs)",
        traced_wall.len(),
        plain_wall.len()
    );
    m.set("telemetry.overhead_frac", traced / plain - 1.0);

    // The lagged scheme's gain over blocking sequential coupling.
    let mut seq = traced_cfg.clone();
    seq.coupling = CouplingMode::Sequential;
    tally.attempted += 1;
    match call(&seq, w.days, n) {
        Ok(c) => match check_shape(&c.out, n) {
            Ok(_) => {
                let lagged = median(&traced_speedup).unwrap_or(f64::NAN);
                println!(
                    "overlap: lagged {lagged:.0}x vs sequential {:.0}x real time",
                    c.out.model_speedup
                );
                m.set("coupler.overlap_gain", lagged / c.out.model_speedup);
            }
            Err(why) => tally.fail(&format!("sequential run: {why}")),
        },
        Err(e) => tally.fail(&format!("sequential run failed: {e}")),
    }
}
