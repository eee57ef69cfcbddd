//! Stored reference outputs, one line per (workload, seed) in
//! `references.txt`:
//!
//! ```text
//! <workload> <seed> <final_mean_sst bits, hex> <crc64, hex>
//! ```
//!
//! For the coupled workloads the CRC-64 is of the bits of
//! `mean_sst_series`; for `serve_mixed` it is of the bytes of the
//! report served for client 0's first cold job (which carries the whole
//! SST series), and the SST is that job's.
//!
//! The file is compiled into the binary. `--store-references <a>-<b>`
//! rewrites the lines of seeds `a..=b` of the run's workload.

use foam::CoupledOutput;

const STORED: &str = include_str!("../references.txt");
const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/references.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub final_bits: u64,
    pub series_crc: u64,
}

impl Reference {
    pub fn of(out: &CoupledOutput) -> Self {
        let bytes: Vec<u8> = out
            .mean_sst_series
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        Reference {
            final_bits: out.final_mean_sst().unwrap_or(f64::NAN).to_bits(),
            series_crc: foam_ckpt::crc64(&bytes),
        }
    }
}

fn parse_line(line: &str) -> Option<(&str, u64, Reference)> {
    let mut it = line.split_whitespace();
    let name = it.next()?;
    let seed = it.next()?.parse().ok()?;
    let final_bits = u64::from_str_radix(it.next()?, 16).ok()?;
    let series_crc = u64::from_str_radix(it.next()?, 16).ok()?;
    Some((
        name,
        seed,
        Reference {
            final_bits,
            series_crc,
        },
    ))
}

pub fn lookup(workload: &str, seed: u64) -> Option<Reference> {
    STORED
        .lines()
        .filter_map(parse_line)
        .find(|(n, s, _)| *n == workload && *s == seed)
        .map(|(_, _, r)| r)
}

/// Say, on both output streams, that a (workload, seed) has no stored
/// reference, so its outputs are checked only against themselves.
pub fn warn_unverified(workload: &str, seed: u64) {
    let msg = format!(
        "WARNING: no stored reference for {workload} seed {seed}: its outputs are \
         UNVERIFIED, checked only for self-consistency (store one with \
         --store-references {seed}-{seed})"
    );
    println!("{msg}");
    eprintln!("{msg}");
}

/// Replace (or add) the stored lines of `workload` for the given seeds,
/// keeping the file sorted. Takes effect in the next build.
pub fn store(workload: &str, rows: &[(u64, Reference)]) -> std::io::Result<()> {
    let current = std::fs::read_to_string(PATH)?;
    let mut all: Vec<(String, u64, Reference)> = current
        .lines()
        .filter_map(parse_line)
        .filter(|(n, s, _)| !(*n == workload && rows.iter().any(|(seed, _)| seed == s)))
        .map(|(n, s, r)| (n.to_string(), s, r))
        .collect();
    all.extend(rows.iter().map(|(s, r)| (workload.to_string(), *s, *r)));
    all.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    let mut text = String::new();
    for (n, s, r) in all {
        text.push_str(&format!(
            "{n} {s} {:016x} {:016x}\n",
            r.final_bits, r.series_crc
        ));
    }
    std::fs::write(PATH, text)
}
