//! The `serve_mixed` workload: an in-process `foam_server::Server` on
//! loopback driven by two closed-loop clients, each following its own
//! script generated from the seed.
//!
//! A script mixes cold submissions — short jobs with distinct seeds and
//! a checkpoint cadence, so each writes checkpoints and a cache entry —
//! with resubmissions of the client's own completed specs, which must
//! come back `cached: true` with the cold report's exact bytes. A
//! resubmission only ever names a job its own client has already
//! finished, so the script alone fixes the hit share; the interleaving
//! of the two clients does not.
//!
//! The cold jobs are the ones the repository's serving smoke benchmark
//! (`crates/bench/src/bin/server_throughput.rs`, run by CI's
//! `server-smoke` job as `--jobs 4 --days 1`) submits: `tiny` preset,
//! one simulated day, a checkpoint every 2 intervals, two tenants, a
//! server with 2 workers. The hit share is an assumption; see
//! [`HIT_SHARE`] and `perfbench/README.md`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use foam::{try_run_coupled_observed, FoamConfig, NullObserver};
use foam_ckpt::crc64;
use foam_server::client::{get, post, Response};
use foam_server::{JobSpec, ResultCache, Server, ServerConfig};
use foam_telemetry::alloc::CountingAlloc;
use foam_telemetry::json::{parse, Value};

use crate::metrics::Metrics;
use crate::references::{self, Reference};
use crate::stats::{median, Summary};
use crate::{spans, Tally};

/// Closed-loop clients (one connection each at a time), one tenant each.
const CLIENTS: usize = 2;
/// Model preset of the cold jobs (`server_throughput`'s).
const PRESET: &str = "tiny";
/// Simulated days per cold job (`server_throughput --days 1` in CI):
/// 4 coupling intervals.
pub const JOB_DAYS: f64 = 1.0;
/// Checkpoint cadence of the cold jobs, in coupling intervals
/// (`server_throughput`'s): two checkpoints per job.
const CKPT_INTERVAL: usize = 2;
/// Server executor threads (`server_throughput`'s, and the default).
const WORKERS: usize = 2;
/// Share of script operations that resubmit a completed job. Nothing in
/// the repository records how often clients resubmit, so this is an
/// assumption: one resubmission per cold job on average, which gives
/// the hit path as many samples as the cold path (both need
/// [`MIN_EACH`]) at almost no cost in run time, since a hit takes about
/// a millisecond.
const HIT_SHARE: f64 = 0.5;
/// Cold jobs, and resubmissions, a run completes before it may stop, so
/// that at least ten latencies of each kind lie beyond the reported p90.
const MIN_EACH: usize = 100;
/// `peak_heap_mib` covers the first this many script operations the
/// clients together finish, so that it does not grow with throughput.
/// Every run that is not cut short reaches it.
const PEAK_OPS: usize = 2 * MIN_EACH;
/// ...cut into windows of this many operations. The peak of one window
/// depends on whether two jobs happened to checkpoint at once; the
/// median over the windows does not.
const PEAK_WINDOW: usize = 25;
/// Operations per client script — more than any run gets through.
const SCRIPT_LEN: usize = 4000;
/// Stretches a timed session is cut into, with server set-up timings
/// between them.
const SEGMENTS: usize = 5;

/// One scripted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Submit a new job with this model seed.
    Cold { seed: u64 },
    /// Resubmit this client's `of`-th cold job.
    Hit { of: usize },
}

/// The script of `client` for workload seed `seed`.
pub fn script(seed: u64, client: usize) -> Vec<Op> {
    let mut state = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(client as u64 + 1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    // Distinct model seeds across both clients, below 2^53 so they
    // survive the JSON round trip exactly.
    let base = (seed % 1_000_000) * 1_000_000 + client as u64 * 100_000;
    let mut cold = 0u64;
    (0..SCRIPT_LEN)
        .map(|i| {
            let hit = i > 0 && (next() as f64 / (1u64 << 53) as f64) < HIT_SHARE;
            if hit {
                Op::Hit {
                    of: (next() % cold) as usize,
                }
            } else {
                cold += 1;
                Op::Cold {
                    seed: base + cold - 1,
                }
            }
        })
        .collect()
}

/// The model configuration a cold job with this seed runs (what the
/// server derives from the spec).
pub fn job_config(seed: u64) -> FoamConfig {
    FoamConfig::tiny(seed)
}

fn spec_body(seed: u64, client: usize) -> String {
    format!(
        r#"{{"preset":"{PRESET}","seed":{seed},"days":{JOB_DAYS},"ckpt_interval":{CKPT_INTERVAL},"tenant":"client-{client}"}}"#
    )
}

/// Per-client measurements.
#[derive(Default)]
struct ClientLog {
    cold_s: Vec<f64>,
    hit_s: Vec<f64>,
    submit_s: Vec<f64>,
    state_s: Vec<f64>,
    progress_s: Vec<f64>,
    report_s: Vec<f64>,
    cached_answers: usize,
    attempted: u64,
    /// Index of the next script operation.
    next: usize,
    failures: Vec<String>,
    /// Each cold job of the script, by index: its report if it completed.
    reports: Vec<Option<ColdReport>>,
    /// The bytes of the first cold report, for the layer pass's cache.
    first_body: Option<Vec<u8>>,
}

/// What a client keeps of a completed cold job: enough to check a
/// resubmission's bytes and to check the job against a reference.
#[derive(Debug, Clone, Copy)]
struct ColdReport {
    seed: u64,
    /// CRC-64 of the report bytes.
    crc: u64,
    final_mean_sst: f64,
}

impl ClientLog {
    fn timed(
        into: &mut Vec<f64>,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> std::io::Result<Response>,
    ) -> Result<Response, String> {
        let _span = spans::open(name, parent);
        let t = Instant::now();
        let r = f().map_err(|e| format!("{name}: {e}"))?;
        into.push(t.elapsed().as_secs_f64());
        if !(200..300).contains(&r.status) {
            return Err(format!("{name}: HTTP {} {}", r.status, r.text()));
        }
        Ok(r)
    }
}

fn json(r: &Response) -> Result<Value, String> {
    parse(&r.text()).map_err(|e| format!("response is not JSON: {e}"))
}

/// Check a cold report's content against what was asked for; its final
/// mean SST.
fn check_report(bytes: &[u8], seed: u64) -> Result<f64, String> {
    let v = parse(&String::from_utf8_lossy(bytes)).map_err(|e| format!("report: {e}"))?;
    let want = (JOB_DAYS * 4.0).round();
    let n = v.get("n_intervals").and_then(Value::as_f64);
    let got_seed = v
        .get("content")
        .and_then(|c| c.get("seed"))
        .and_then(Value::as_f64);
    let sst = v.get("final_mean_sst").and_then(Value::as_f64);
    if n != Some(want) || got_seed != Some(seed as f64) {
        return Err(format!(
            "report for seed {seed}: n_intervals {n:?}, seed {got_seed:?}"
        ));
    }
    match sst {
        Some(t) if t.is_finite() && (-2.0..=40.0).contains(&t) => Ok(t),
        other => Err(format!("report for seed {seed}: final_mean_sst {other:?}")),
    }
}

/// POST the spec of `seed`; the response and the job id it names.
fn submit(
    addr: &str,
    client: usize,
    seed: u64,
    log: &mut ClientLog,
    parent: Option<usize>,
) -> Result<(Value, String), String> {
    let body = spec_body(seed, client);
    let sub = ClientLog::timed(&mut log.submit_s, "http.submit", parent, || {
        post(addr, "/v1/jobs", &body)
    })?;
    let v = json(&sub)?;
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .ok_or("submission without id")?
        .to_string();
    Ok((v, id))
}

fn run_cold(
    addr: &str,
    client: usize,
    seed: u64,
    log: &mut ClientLog,
    parent: Option<usize>,
) -> Result<ColdReport, String> {
    let t0 = Instant::now();
    let (_, id) = submit(addr, client, seed, log, parent)?;
    let progress = ClientLog::timed(&mut log.progress_s, "http.progress", parent, || {
        get(addr, &format!("/v1/jobs/{id}/progress"))
    })?;
    if !progress
        .lines()
        .last()
        .is_some_and(|l| l.contains("\"state\": \"done\""))
    {
        let state = get(addr, &format!("/v1/jobs/{id}")).map(|r| r.text());
        return Err(format!("job {id} (seed {seed}) did not finish: {state:?}"));
    }
    let state = ClientLog::timed(&mut log.state_s, "http.state", parent, || {
        get(addr, &format!("/v1/jobs/{id}"))
    })?;
    let sv = json(&state)?;
    if sv.get("executions").and_then(Value::as_f64) != Some(1.0) {
        return Err(format!("job {id}: executions {:?}", sv.get("executions")));
    }
    let report = ClientLog::timed(&mut log.report_s, "http.report", parent, || {
        get(addr, &format!("/v1/jobs/{id}/report"))
    })?;
    log.cold_s.push(t0.elapsed().as_secs_f64());
    let final_mean_sst = check_report(&report.body, seed)?;
    if log.first_body.is_none() {
        log.first_body = Some(report.body.clone());
    }
    Ok(ColdReport {
        seed,
        crc: crc64(&report.body),
        final_mean_sst,
    })
}

fn run_hit(
    addr: &str,
    client: usize,
    cold: ColdReport,
    log: &mut ClientLog,
    parent: Option<usize>,
) -> Result<(), String> {
    let seed = cold.seed;
    let t0 = Instant::now();
    let (v, id) = submit(addr, client, seed, log, parent)?;
    let report = ClientLog::timed(&mut log.report_s, "http.report", parent, || {
        get(addr, &format!("/v1/jobs/{id}/report"))
    })?;
    log.hit_s.push(t0.elapsed().as_secs_f64());
    if v.get("cached") == Some(&Value::Bool(true)) {
        log.cached_answers += 1;
    } else {
        return Err(format!("resubmission of seed {seed} was not a cache hit"));
    }
    if v.get("executions").and_then(Value::as_f64) != Some(1.0) {
        return Err(format!(
            "resubmission of seed {seed}: executions {:?}",
            v.get("executions")
        ));
    }
    if crc64(&report.body) != cold.crc {
        return Err(format!(
            "hit for seed {seed} served bytes that differ from the cold report"
        ));
    }
    Ok(())
}

/// Counts the clients share across a session.
#[derive(Default)]
struct Shared {
    cold_done: AtomicUsize,
    hits_done: AtomicUsize,
    ops_done: AtomicUsize,
    /// Peak live heap of each finished window of [`PEAK_WINDOW`]
    /// operations, up to [`PEAK_OPS`].
    window_peaks: Mutex<Vec<f64>>,
}

impl Shared {
    /// Count one finished script operation; at the end of a window,
    /// record its peak and start the next.
    fn op_done(&self) {
        let n = self.ops_done.fetch_add(1, Ordering::SeqCst) + 1;
        if n.is_multiple_of(PEAK_WINDOW) && n <= PEAK_OPS {
            let peak = CountingAlloc::stats().peak_bytes as f64;
            CountingAlloc::reset_peak();
            if let Ok(mut v) = self.window_peaks.lock() {
                v.push(peak);
            }
        }
    }
}

/// When a client stretch ends: once `until` has passed — and, with
/// `until_enough`, once the clients together completed [`MIN_EACH`]
/// cold jobs and as many resubmissions — or at `cap` regardless.
struct Stop<'a> {
    until: Instant,
    until_enough: bool,
    cap: Instant,
    shared: &'a Shared,
}

impl Stop<'_> {
    fn reached(&self) -> bool {
        let now = Instant::now();
        let enough = !self.until_enough
            || (self.shared.cold_done.load(Ordering::SeqCst) >= MIN_EACH
                && self.shared.hits_done.load(Ordering::SeqCst) >= MIN_EACH);
        (now >= self.until && enough) || now >= self.cap
    }
}

/// Drive one client's script from `log.next` on, until `stop`.
fn client_loop(addr: &str, client: usize, ops: &[Op], log: &mut ClientLog, stop: &Stop) {
    let root = spans::open("client", None);
    while let Some(op) = ops.get(log.next) {
        if stop.reached() {
            break;
        }
        log.next += 1;
        log.attempted += 1;
        match *op {
            Op::Cold { seed } => {
                let span = spans::open("op.cold", root.id());
                match run_cold(addr, client, seed, log, span.id()) {
                    Ok(report) => {
                        log.reports.push(Some(report));
                        stop.shared.cold_done.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(why) => {
                        log.reports.push(None);
                        log.failures.push(why);
                    }
                }
            }
            Op::Hit { of } => {
                let span = spans::open("op.hit", root.id());
                let result = match log.reports.get(of).copied().flatten() {
                    Some(cold) => run_hit(addr, client, cold, log, span.id()),
                    None => Err(format!("resubmission of failed cold job #{of}")),
                };
                stop.shared.hits_done.fetch_add(1, Ordering::SeqCst);
                if let Err(why) = result {
                    log.failures.push(why);
                }
            }
        }
        stop.shared.op_done();
    }
}

/// Start a server on `root` and time it until `GET /v1/healthz`
/// answers 200.
fn start_timed(root: &Path) -> Result<(Server, f64), String> {
    let mut cfg = ServerConfig::new(root);
    cfg.workers = WORKERS;
    let t0 = Instant::now();
    let server = Server::start(cfg, "127.0.0.1:0").map_err(|e| format!("start: {e}"))?;
    let addr = server.addr().to_string();
    loop {
        match get(&addr, "/v1/healthz") {
            Ok(r) if r.status == 200 => break,
            _ if t0.elapsed().as_secs_f64() > 10.0 => {
                server.shutdown();
                return Err("healthz never answered 200".to_string());
            }
            _ => std::thread::yield_now(),
        }
    }
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// What one scripted session measured.
struct Session {
    setup_s: Vec<f64>,
    wall_s: f64,
    /// Median over windows of [`PEAK_WINDOW`] operations of the peak
    /// live heap, over the first [`PEAK_OPS`] script operations.
    peak_bytes: f64,
    cold_s: Vec<f64>,
    hit_s: Vec<f64>,
    submit_s: Vec<f64>,
    state_s: Vec<f64>,
    progress_s: Vec<f64>,
    report_s: Vec<f64>,
    cached_answers: usize,
    submissions: usize,
    executions_per_distinct: f64,
    /// Client 0's first cold job, if it completed: the job a stored
    /// reference names.
    first: Option<ColdReport>,
    /// The bytes of a completed cold report.
    first_body: Option<Vec<u8>>,
}

/// Time `n` restarts of a server over `root`, an existing state
/// directory with nothing to resume, each shut down again once healthy.
/// (Creating and deleting fresh directories would time the filesystem's
/// metadata writeback more than the server.)
fn time_setups(n: usize, root: &Path, setup_s: &mut Vec<f64>, tally: &mut Tally) {
    for _ in 0..n {
        match start_timed(root) {
            Ok((server, s)) => {
                server.shutdown();
                setup_s.push(s);
            }
            Err(why) => tally.fail(&why),
        }
    }
}

/// Run both client scripts against a fresh server under `work` for
/// `seconds` of client time (and at least [`MIN_EACH`] cold jobs and resubmissions).
/// With `setups > 0`, the session is cut into [`SEGMENTS`] stretches,
/// each preceded by `setups / SEGMENTS` timed restarts of a second
/// server over an idle state directory, so the set-up samples spread
/// over the whole run.
fn session(
    seed: u64,
    seconds: f64,
    setups: usize,
    work: &Path,
    tally: &mut Tally,
) -> Option<Session> {
    let mut setup_s = Vec::with_capacity(setups);
    let setup_root = work.join("setup");
    let root: PathBuf = work.join("server");
    let _ = std::fs::remove_dir_all(&root);
    let server = match start_timed(&root) {
        Ok((server, _)) => server,
        Err(why) => {
            tally.fail(&why);
            return None;
        }
    };
    let addr = server.addr().to_string();
    let scripts: Vec<Vec<Op>> = (0..CLIENTS).map(|c| script(seed, c)).collect();
    let mut logs: Vec<ClientLog> = (0..CLIENTS).map(|_| ClientLog::default()).collect();
    let shared = Shared::default();
    let segments = if setups > 0 { SEGMENTS } else { 1 };
    let stretch = std::time::Duration::from_secs_f64(seconds / segments as f64);
    let started = Instant::now();
    let cap = started + std::time::Duration::from_secs_f64(4.0 * seconds.max(30.0));
    let mut wall_s = 0.0;
    CountingAlloc::reset_peak();
    for segment in 0..segments {
        time_setups(setups / segments, &setup_root, &mut setup_s, tally);
        let last = segment + 1 == segments;
        let t0 = Instant::now();
        let stop = Stop {
            until: t0 + stretch,
            until_enough: last,
            cap,
            shared: &shared,
        };
        std::thread::scope(|s| {
            for (c, (ops, log)) in scripts.iter().zip(logs.iter_mut()).enumerate() {
                let (addr, stop) = (&addr, &stop);
                s.spawn(move || client_loop(addr, c, ops, log, stop));
            }
        });
        wall_s += t0.elapsed().as_secs_f64();
    }
    let window_peaks = shared.window_peaks.into_inner().unwrap_or_default();
    if window_peaks.len() < PEAK_OPS / PEAK_WINDOW {
        tally.fail(&format!(
            "the session was cut before {PEAK_OPS} operations; no peak heap"
        ));
    }
    let peak_bytes = median(&window_peaks).unwrap_or(f64::NAN);

    // Single flight: every distinct spec ran exactly once.
    let executions_per_distinct = match get(&addr, "/v1/jobs").map(|r| json(&r)) {
        Ok(Ok(v)) => {
            let runs: Vec<f64> = v
                .get("jobs")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|j| j.get("executions").and_then(Value::as_f64))
                .collect();
            runs.iter().sum::<f64>() / runs.len().max(1) as f64
        }
        _ => f64::NAN,
    };
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&setup_root);
    if executions_per_distinct != 1.0 {
        tally.fail(&format!(
            "executions per distinct spec {executions_per_distinct}, expected 1"
        ));
    }

    let mut out = Session {
        setup_s,
        wall_s,
        peak_bytes,
        cold_s: vec![],
        hit_s: vec![],
        submit_s: vec![],
        state_s: vec![],
        progress_s: vec![],
        report_s: vec![],
        cached_answers: 0,
        submissions: 0,
        executions_per_distinct,
        first: logs[0].reports.first().copied().flatten(),
        first_body: logs.iter_mut().find_map(|l| l.first_body.take()),
    };
    for log in logs {
        tally.attempted += log.attempted;
        for why in &log.failures {
            tally.fail(why);
        }
        out.submissions += log.cold_s.len() + log.hit_s.len();
        out.cached_answers += log.cached_answers;
        out.cold_s.extend(log.cold_s);
        out.hit_s.extend(log.hit_s);
        out.submit_s.extend(log.submit_s);
        out.state_s.extend(log.state_s);
        out.progress_s.extend(log.progress_s);
        out.report_s.extend(log.report_s);
    }
    println!(
        "{} clients: {} cold jobs and {} resubmissions in {wall_s:.2} s (hit share {:.3})",
        CLIENTS,
        out.cold_s.len(),
        out.hit_s.len(),
        out.hit_s.len() as f64 / (out.cold_s.len() + out.hit_s.len()).max(1) as f64
    );
    Some(out)
}

/// The first cold job of client 0 for workload seed `seed`.
pub fn first_job(seed: u64) -> u64 {
    match script(seed, 0)[0] {
        Op::Cold { seed } => seed,
        Op::Hit { .. } => unreachable!("a script starts with a cold job"),
    }
}

/// A direct in-process run of the job with model seed `job`.
fn direct_final_sst(job: u64) -> Result<f64, String> {
    try_run_coupled_observed(&job_config(job), JOB_DAYS, &NullObserver)
        .map_err(|e| format!("direct run of seed {job} failed: {e}"))?
        .final_mean_sst()
        .ok_or_else(|| format!("direct run of seed {job} has no final SST"))
}

/// Check client 0's first cold report against the reference stored for
/// workload seed `seed` (report CRC-64 and final mean SST bits). A seed
/// with no stored line is checked only against a direct in-process run
/// of the same configuration, and says so loudly.
fn check_first(seed: u64, first: Option<ColdReport>, tally: &mut Tally) {
    let Some(first) = first else {
        return; // its failure is already counted
    };
    tally.attempted += 1;
    let got = Reference {
        final_bits: first.final_mean_sst.to_bits(),
        series_crc: first.crc,
    };
    match references::lookup("serve_mixed", seed) {
        Some(want) if want == got => println!(
            "report of job seed {} matches the stored reference (crc64 {:016x})",
            first.seed, got.series_crc
        ),
        Some(want) => tally.fail(&format!(
            "report of job seed {} differs from the stored reference: crc64 {:016x} vs \
             {:016x}, final_mean_sst bits {:016x} vs {:016x}",
            first.seed, got.series_crc, want.series_crc, got.final_bits, want.final_bits
        )),
        None => {
            references::warn_unverified("serve_mixed", seed);
            match direct_final_sst(first.seed) {
                Ok(t) if t.to_bits() == got.final_bits => println!(
                    "served report of job seed {} matches a direct run bit for bit",
                    first.seed
                ),
                Ok(t) => tally.fail(&format!(
                    "served final_mean_sst {} differs from a direct run's {t}",
                    first.final_mean_sst
                )),
                Err(why) => tally.fail(&why),
            }
        }
    }
}

/// The reference of workload seed `seed`: client 0's first cold job,
/// served by a fresh server and confirmed bit for bit by a direct run.
pub fn reference(seed: u64, work: &Path) -> Result<Reference, String> {
    let root = work.join("reference");
    let _ = std::fs::remove_dir_all(&root);
    let (server, _) = start_timed(&root)?;
    let job = first_job(seed);
    let served = run_cold(
        &server.addr().to_string(),
        0,
        job,
        &mut ClientLog::default(),
        None,
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    let served = served?;
    let direct = direct_final_sst(job)?;
    if direct.to_bits() != served.final_mean_sst.to_bits() {
        return Err(format!(
            "served final_mean_sst {} differs from a direct run's {direct}",
            served.final_mean_sst
        ));
    }
    Ok(Reference {
        final_bits: direct.to_bits(),
        series_crc: served.crc,
    })
}

/// The untraced `serve_mixed` run.
pub fn run_untraced(seed: u64, seconds: f64, work: &Path, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    let Some(s) = session(seed, seconds, 100, work, tally) else {
        return m;
    };
    check_first(seed, s.first, tally);
    let cold = s.cold_s.len() as f64;
    let sim = cold * JOB_DAYS * 86_400.0;
    println!("end-to-end (closed loop, {CLIENTS} clients, cold job = {PRESET} preset, {JOB_DAYS} simulated days):");
    let rows: [(&str, Option<Summary>, f64, &str); 3] = [
        ("setup_s", Summary::of(&s.setup_s), 1.0, "s"),
        ("job_latency", Summary::of(&s.cold_s), 1.0, "s"),
        ("hit_latency", Summary::of(&s.hit_s), 1e3, "ms"),
    ];
    for (name, summary, scale, unit) in rows {
        if let Some(x) = summary {
            println!("  {name:<20} {}", x.describe(scale, unit));
        }
    }
    println!("  jobs_per_s           {:.4} jobs/s", cold / s.wall_s);
    println!(
        "  model_speedup        {:.0} x (simulated seconds served per wall second)",
        sim / s.wall_s
    );
    println!(
        "  peak_heap_mib        {:.3} MiB",
        s.peak_bytes / (1024.0 * 1024.0)
    );
    m.set("model_speedup", sim / s.wall_s);
    if let Some(v) = median(&s.setup_s) {
        m.set("setup_s", v);
    }
    m.set("peak_heap_mib", s.peak_bytes / (1024.0 * 1024.0));
    if let Some(v) = median(&s.cold_s) {
        m.set("job_latency_p50_s", v);
    }
    m
}

fn set_request(m: &mut Metrics, p50: &'static str, p90: &'static str, label: &str, xs: &[f64]) {
    if let Some(s) = Summary::of(xs) {
        println!("  request {label:<10} {}", s.describe(1e3, "ms"));
        m.set(p50, s.p50 * 1e3);
        if let Some(v) = s.p90 {
            m.set(p90, v * 1e3);
        }
    }
}

/// The server's per-layer metrics: a scripted session (the whole
/// workload on `serve_mixed`, [`MIN_EACH`] cold jobs and resubmissions
/// elsewhere) plus direct calls into `JobSpec::parse` and
/// `ResultCache::get`.
pub fn layer_pass(seed: u64, seconds: f64, work: &Path, tally: &mut Tally, m: &mut Metrics) {
    let Some(s) = session(seed, seconds, 0, work, tally) else {
        return;
    };
    check_first(seed, s.first, tally);
    println!("server layer (closed loop, {CLIENTS} clients):");
    set_request(
        m,
        "server.request_ms.submit",
        "server.request_ms.submit_p90",
        "submit",
        &s.submit_s,
    );
    set_request(
        m,
        "server.request_ms.state",
        "server.request_ms.state_p90",
        "state",
        &s.state_s,
    );
    set_request(
        m,
        "server.request_ms.progress",
        "server.request_ms.progress_p90",
        "progress",
        &s.progress_s,
    );
    set_request(
        m,
        "server.request_ms.report",
        "server.request_ms.report_p90",
        "report",
        &s.report_s,
    );
    if let Some(x) = Summary::of(&s.cold_s) {
        println!("  cold job latency   {}", x.describe(1.0, "s"));
        if let Some(v) = x.p90 {
            m.set("server.job_latency_p90_s", v);
        }
    }
    if let Some(x) = Summary::of(&s.hit_s) {
        println!("  hit latency        {}", x.describe(1e3, "ms"));
        m.set("server.hit_latency_p50_ms", x.p50 * 1e3);
        if let Some(v) = x.p90 {
            m.set("server.hit_latency_p90_ms", v * 1e3);
        }
    }
    m.set(
        "server.cache_hit_ratio",
        s.cached_answers as f64 / s.submissions.max(1) as f64,
    );
    m.set("server.executions_per_distinct", s.executions_per_distinct);
    m.set("server.jobs_per_s", s.cold_s.len() as f64 / s.wall_s);

    // Direct calls: spec parsing and a cache read of a real report.
    let (Some(first), Some(bytes)) = (s.first, &s.first_body) else {
        return;
    };
    let body = spec_body(first.seed, 0);
    let parent = spans::open("layer_pass.server", None);
    let time = |name: &'static str, n: usize, f: &mut dyn FnMut()| -> Vec<f64> {
        (0..n)
            .map(|_| {
                let _span = spans::open(name, parent.id());
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .collect()
    };
    let mut digest = String::new();
    let parse_s = time("layer.server.spec_parse", 300, &mut || {
        let spec = JobSpec::parse(std::hint::black_box(&body)).expect("spec parses");
        if digest.is_empty() {
            digest = spec.digest();
        }
    });
    let cache_root = work.join("layer-cache");
    let _ = std::fs::remove_dir_all(&cache_root);
    match ResultCache::open(&cache_root).and_then(|c| c.put(&digest, bytes).map(|()| c)) {
        Ok(cache) => {
            let get_s = time("layer.server.cache_get", 300, &mut || {
                assert_eq!(cache.get(&digest).as_deref(), Some(&bytes[..]));
            });
            for (label, p50, p90, xs) in [
                (
                    "JobSpec::parse",
                    "server.spec_parse_us",
                    "server.spec_parse_us_p90",
                    &parse_s,
                ),
                (
                    "ResultCache::get",
                    "server.cache_get_us",
                    "server.cache_get_us_p90",
                    &get_s,
                ),
            ] {
                if let Some(x) = Summary::of(xs) {
                    println!("  {label:<18} {}", x.describe(1e6, "us"));
                    m.set(p50, x.p50 * 1e6);
                    if let Some(v) = x.p90 {
                        m.set(p90, v * 1e6);
                    }
                }
            }
        }
        Err(e) => tally.fail(&format!("layer cache: {e}")),
    }
    let _ = std::fs::remove_dir_all(&cache_root);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_is_fixed_by_the_seed() {
        assert_eq!(script(7, 0), script(7, 0));
        assert_eq!(script(7, 1), script(7, 1));
        assert_ne!(script(7, 0), script(8, 0));
        assert_ne!(script(7, 0), script(7, 1));
    }

    #[test]
    fn hits_only_name_earlier_cold_jobs_of_the_same_client() {
        for seed in [0, 1, 99] {
            let mut seeds = std::collections::BTreeSet::new();
            for client in 0..CLIENTS {
                let ops = script(seed, client);
                assert!(matches!(ops[0], Op::Cold { .. }));
                let mut cold = 0;
                for op in &ops {
                    match *op {
                        Op::Cold { seed } => {
                            assert!(seeds.insert(seed), "model seeds repeat");
                            assert!(seed < 1 << 53);
                            cold += 1;
                        }
                        Op::Hit { of } => assert!(of < cold),
                    }
                }
                let hits = ops.len() - cold;
                let share = hits as f64 / ops.len() as f64;
                assert!((share - HIT_SHARE).abs() < 0.05, "hit share {share}");
            }
        }
    }
}
