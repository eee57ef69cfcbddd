//! The FOAM-RS benchmark: one command that runs a named workload at a
//! given seed, checks its outputs, and prints every metric by name and
//! unit. The last line of standard output is the machine-readable
//! result; everything above it is the human-readable report.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_r15 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (telemetry off);
//! `--trace 1` is the separate traced run that prints the per-layer
//! ledger. See `perfbench/README.md` for the workloads and metrics.

mod coupled;
mod layers;
mod metrics;
mod references;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use foam_telemetry::alloc::CountingAlloc;

use coupled::{Checker, Workload};
use metrics::Metrics;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const USAGE: &str = "usage: foam-perfbench --workload <paper_r15|century_stream|serve_mixed> \
                     --seed <n> --seconds <n> --trace <0|1>\n       \
                     foam-perfbench --workload <w> --store-references <first>-<last>";

/// Operations attempted and failed, across everything a run checks.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("FAILED: {why}");
        println!("FAILED: {why}");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    /// Store the references of seeds `.1..=.2` of workload `.0`.
    Store(String, u64, u64),
}

fn parse_seeds(text: &str) -> Option<(u64, u64)> {
    let (a, b) = text.split_once('-')?;
    let (a, b) = (a.parse().ok()?, b.parse().ok()?);
    (a <= b).then_some((a, b))
}

fn parse_args() -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut store = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--store-references" => {
                store = Some(parse_seeds(&value).ok_or("--store-references takes <first>-<last>")?)
            }
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(
        workload.as_str(),
        "paper_r15" | "century_stream" | "serve_mixed"
    ) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if let Some((first, last)) = store {
        return Ok(Mode::Store(workload, first, last));
    }
    Ok(Mode::Run(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// Run each seed's reference job once and store what it produced in
/// `references.txt`. A seed whose run fails gets no line.
fn store_references(workload: &str, first: u64, last: u64, work: &std::path::Path) -> ExitCode {
    let mut rows = Vec::new();
    for seed in first..=last {
        let r = match workload {
            "serve_mixed" => serve::reference(seed, work),
            "paper_r15" => coupled::reference(&Workload::paper_r15(seed)),
            _ => coupled::reference(&Workload::century_stream(seed)),
        };
        match r {
            Ok(r) => {
                println!(
                    "{workload} {seed} {:016x} {:016x}",
                    r.final_bits, r.series_crc
                );
                rows.push((seed, r));
            }
            Err(why) => println!("{workload} {seed}: no reference ({why})"),
        }
    }
    match references::store(workload, &rows) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("storing the references: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Print the benchmark's own spans, per name.
fn print_spans() {
    let (by_name, dropped) = spans::summary();
    println!("benchmark spans (name: count, total, self):");
    for (name, s) in by_name {
        println!(
            "  {name:<28} {:>6}  {:>10.4} s  {:>10.4} s",
            s.count, s.total_s, s.self_s
        );
    }
    if dropped > 0 {
        println!("  ({dropped} spans did not fit the buffer)");
    }
}

fn run(args: &Args, work: &std::path::Path, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    let seconds = args.seconds;
    match (args.workload.as_str(), args.trace) {
        ("serve_mixed", false) => m = serve::run_untraced(args.seed, seconds, work, tally),
        ("serve_mixed", true) => {
            spans::enable(1 << 16);
            // The model runs are of client 0's first cold job, the job
            // the stored reference of this seed names.
            let job = serve::first_job(args.seed);
            let w = Workload {
                name: "serve_mixed.job",
                seed: job,
                cfg: serve::job_config(job),
                days: serve::JOB_DAYS,
            };
            layers::run(&w.cfg, args.seed, work, &mut m);
            serve::layer_pass(args.seed, seconds / 2.0, work, tally, &mut m);
            let mut checker = Checker::serve_job(&w, args.seed);
            checker.describe();
            coupled::traced_model_pass(&w, seconds / 4.0, &mut checker, tally, &mut m);
            print_spans();
        }
        (name, trace) => {
            let w = if name == "paper_r15" {
                Workload::paper_r15(args.seed)
            } else {
                Workload::century_stream(args.seed)
            };
            let mut checker = Checker::new(&w);
            if trace {
                spans::enable(1 << 16);
                layers::run(&w.cfg, args.seed, work, &mut m);
                serve::layer_pass(args.seed, 0.0, work, tally, &mut m);
                checker.describe();
                coupled::traced_model_pass(&w, seconds / 3.0, &mut checker, tally, &mut m);
                print_spans();
            } else {
                m = coupled::run_untraced(&w, seconds, &mut checker, tally);
            }
        }
    }
    m
}

fn main() -> ExitCode {
    let mode = match parse_args() {
        Ok(m) => m,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.work"))
        .join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create the work directory {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let args = match mode {
        Mode::Run(args) => args,
        Mode::Store(workload, first, last) => {
            let code = store_references(&workload, first, last, &work);
            let _ = std::fs::remove_dir_all(&work);
            return code;
        }
    };
    println!(
        "foam-perfbench: workload {} seed {} seconds {} trace {} ({} hardware threads)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut tally = Tally::default();
    let m = run(&args, &work, &mut tally);
    let _ = std::fs::remove_dir_all(&work);
    for name in m.missing(args.trace) {
        tally.fail(&format!("metric {name} was not measured"));
    }
    println!(
        "failed_frac {:.6} ({} of {} operations failed)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!(
        "{}",
        metrics::result_line(
            tally.failed == 0,
            tally.attempted.max(1),
            tally.failed,
            &m,
            args.trace
        )
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
