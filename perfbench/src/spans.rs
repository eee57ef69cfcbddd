//! In-memory spans around the benchmark's own calls into FOAM-RS.
//!
//! Only traced runs record. Each span has a name, a start, an end and
//! the span that caused it; all of them stay in one pre-sized buffer
//! until the process ends, when [`summary`] folds them into per-name
//! totals and self times. Recording never allocates once [`enable`]
//! has sized the buffer, so it cannot show up in the allocation
//! counts it sits next to.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Start recording, with room for `capacity` spans (later ones are
/// counted as dropped rather than grown into).
pub fn enable(capacity: usize) {
    SPANS
        .lock()
        .expect("span buffer poisoned")
        .reserve_exact(capacity);
    now();
    ENABLED.store(true, Ordering::SeqCst);
}

/// An open span; records its end when dropped.
pub struct Guard {
    id: Option<usize>,
}

impl Guard {
    /// This span's id, to pass as the parent of the spans it causes.
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let t = now();
            if let Ok(mut spans) = SPANS.lock() {
                spans[id].end = t;
            }
        }
    }
}

/// Open a span named `name`, caused by `parent`. A no-op unless
/// recording is enabled.
pub fn open(name: &'static str, parent: Option<usize>) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { id: None };
    }
    let mut spans = SPANS.lock().expect("span buffer poisoned");
    if spans.len() == spans.capacity() {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return Guard { id: None };
    }
    let t = now();
    spans.push(Span {
        name,
        parent,
        start: t,
        end: t,
    });
    Guard {
        id: Some(spans.len() - 1),
    }
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameStats {
    pub count: usize,
    pub total_s: f64,
    /// Total minus the time covered by child spans.
    pub self_s: f64,
}

/// Fold every recorded span into per-name totals and self times, plus
/// the number of spans that did not fit the buffer.
pub fn summary() -> (BTreeMap<&'static str, NameStats>, u64) {
    let spans = SPANS.lock().expect("span buffer poisoned");
    let mut child_time = vec![0.0f64; spans.len()];
    for s in spans.iter() {
        if let Some(p) = s.parent {
            child_time[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.name).or_default();
        let dur = s.end - s.start;
        e.count += 1;
        e.total_s += dur;
        e.self_s += (dur - child_time[i]).max(0.0);
    }
    (out, DROPPED.load(Ordering::Relaxed))
}
