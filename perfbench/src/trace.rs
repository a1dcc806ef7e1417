//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public entry points (the program itself carries no tracing).
//! Each span has a name (`layer.what`), start and end in nanoseconds since
//! the recorder's epoch, its own id and its parent's id, and the run id it
//! belongs to. Spans sit in per-thread buffers until [`drain`] collects
//! them; [`layer_table`] then reduces them to per-layer self time.
//!
//! Counts live beside the spans in [`Counter`] slots, bumped at the same
//! boundaries, so ratios are measured where the work happens.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The pipeline layers, in ROADMAP order. A span's layer is its name up to
/// the first dot; spans outside these layers are unattributed time.
pub const LAYERS: [&str; 8] = [
    "models",
    "graph",
    "banks",
    "transport",
    "emd",
    "batch",
    "shard",
    "orchestrate",
];

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub run: u32,
}

type Buffer = Arc<Mutex<Vec<Span>>>;

struct Recorder {
    epoch: Instant,
    run: AtomicU64,
    threads: AtomicU64,
    buffers: Mutex<Vec<Buffer>>,
}

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        epoch: Instant::now(),
        run: AtomicU64::new(0),
        threads: AtomicU64::new(0),
        buffers: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// (thread index, next local span number, this thread's buffer).
    static LOCAL: RefCell<Option<(u64, u64, Buffer)>> = const { RefCell::new(None) };
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

/// Sets the run id stamped on spans recorded from here on.
pub fn set_run(run: u32) {
    recorder().run.store(run as u64, Ordering::Relaxed);
}

fn next_id() -> u64 {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let (thread, seq, _) = slot.get_or_insert_with(|| {
            let rec = recorder();
            let thread = rec.threads.fetch_add(1, Ordering::Relaxed) + 1;
            let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
            rec.buffers
                .lock()
                .expect("span registry poisoned")
                .push(Arc::clone(&buffer));
            (thread, 0, buffer)
        });
        *seq += 1;
        (*thread << 40) | *seq
    })
}

fn push(span: Span) {
    LOCAL.with(|cell| {
        let slot = cell.borrow();
        let (_, _, buffer) = slot.as_ref().expect("span id issued on this thread");
        buffer.lock().expect("span buffer poisoned").push(span);
    })
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns recording on or off. With recording off, [`span`] only runs its
/// closure and [`count`] does nothing, so a replay timed that way is the
/// base against which the tracing overhead is measured.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Runs `f` inside a span named `name` under `parent`; `f` receives the
/// new span's id so it can parent spans of its own (on any thread).
pub fn span<R>(name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f(0);
    }
    let id = next_id();
    let start_ns = now_ns();
    let out = f(id);
    let end_ns = now_ns();
    push(Span {
        name,
        start_ns,
        end_ns,
        id,
        parent,
        run: recorder().run.load(Ordering::Relaxed) as u32,
    });
    out
}

/// Takes every span recorded so far, sorted by start time.
pub fn drain() -> Vec<Span> {
    let buffers = recorder().buffers.lock().expect("span registry poisoned");
    let mut out = Vec::new();
    for b in buffers.iter() {
        out.append(&mut b.lock().expect("span buffer poisoned"));
    }
    out.sort_by_key(|s| (s.start_ns, s.id));
    out
}

/// Counts recorded at layer boundaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Counter {
    RowsComputed,
    RowsReused,
    Solves,
    Cells,
    Simplex,
    CostScaling,
    ClosedForm,
    Terms,
    ResidualUsers,
    EdgeCosts,
    TouchedEdges,
    Fresh,
    Steps,
    Fallbacks,
}

const COUNTERS: usize = 14;
static COUNTS: [AtomicU64; COUNTERS] = [const { AtomicU64::new(0) }; COUNTERS];

/// Adds `by` to a counter.
pub fn count(c: Counter, by: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    COUNTS[c as usize].fetch_add(by, Ordering::Relaxed);
}

/// Zeroes every counter.
pub fn reset_counts() {
    for c in &COUNTS {
        c.store(0, Ordering::Relaxed);
    }
}

/// A counter's current value.
pub fn counted(c: Counter) -> u64 {
    COUNTS[c as usize].load(Ordering::Relaxed)
}

/// Per-layer reduction of one traced run.
#[derive(Clone, Debug, Default)]
pub struct LayerTable {
    /// Layer → (self ms summed over threads, span count).
    pub layers: BTreeMap<String, (f64, u64)>,
    /// Span name → inclusive ms summed over spans.
    pub inclusive_ms: BTreeMap<String, f64>,
    /// Self time of spans outside [`LAYERS`] (the root run span and the
    /// replay's own bookkeeping), in ms.
    pub unattributed_ms: f64,
    pub spans: usize,
}

impl LayerTable {
    /// A layer's self ms (0 when it recorded nothing).
    pub fn ms(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |v| v.0)
    }

    /// A layer's span count.
    pub fn count(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |v| v.1)
    }

    /// Inclusive ms of every span named `name`.
    pub fn inclusive(&self, name: &str) -> f64 {
        self.inclusive_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Serializes as `layer NAME MS COUNT` / `span NAME MS` /
    /// `unattributed MS` lines (the child-process hand-off format).
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, (ms, count)) in &self.layers {
            out.push_str(&format!("layer {name} {ms} {count}\n"));
        }
        for (name, ms) in &self.inclusive_ms {
            out.push_str(&format!("span {name} {ms}\n"));
        }
        out.push_str(&format!("unattributed {}\n", self.unattributed_ms));
        out.push_str(&format!("spans {}\n", self.spans));
        out
    }

    /// Parses [`to_lines`](Self::to_lines) output; unknown lines are skipped.
    pub fn from_lines(text: &str) -> LayerTable {
        let mut t = LayerTable::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["layer", name, ms, count] => {
                    if let (Ok(ms), Ok(c)) = (ms.parse(), count.parse()) {
                        t.layers.insert(name.to_string(), (ms, c));
                    }
                }
                ["span", name, ms] => {
                    if let Ok(ms) = ms.parse() {
                        t.inclusive_ms.insert(name.to_string(), ms);
                    }
                }
                ["unattributed", ms] => t.unattributed_ms = ms.parse().unwrap_or(0.0),
                ["spans", n] => t.spans = n.parse().unwrap_or(0),
                _ => {}
            }
        }
        t
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Reduces spans to per-layer self time: a span's self time is its
/// duration minus the part of its interval its child spans cover.
pub fn layer_table(spans: &[Span]) -> LayerTable {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut t = LayerTable {
        spans: spans.len(),
        ..LayerTable::default()
    };
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let kids = children
            .get_mut(&s.id)
            .map_or(0, |k| covered(s.start_ns, s.end_ns, k));
        let self_ms = (dur - kids.min(dur)) as f64 / 1e6;
        *t.inclusive_ms.entry(s.name.to_string()).or_default() += dur as f64 / 1e6;
        let layer = s.name.split('.').next().unwrap_or(s.name);
        if LAYERS.contains(&layer) {
            let e = t.layers.entry(layer.to_string()).or_default();
            e.0 += self_ms;
            e.1 += 1;
        } else {
            t.unattributed_ms += self_ms;
        }
    }
    t
}

/// Writes spans as JSON lines (`name`, `start_ns`, `end_ns`, `id`,
/// `parent`, `run`).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"run\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.run
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_coverage_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 8), (0, 3), (2, 4), (9, 20)];
        assert_eq!(covered(1, 12, &mut iv), 2 + 1 + 3 + 3);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "emd.term",
                start_ns: 0,
                end_ns: 10_000_000,
                id: 1,
                parent: 0,
                run: 1,
            },
            Span {
                name: "graph.sssp_row",
                start_ns: 1_000_000,
                end_ns: 4_000_000,
                id: 2,
                parent: 1,
                run: 1,
            },
        ];
        let t = layer_table(&spans);
        assert!((t.ms("emd") - 7.0).abs() < 1e-9);
        assert!((t.ms("graph") - 3.0).abs() < 1e-9);
        assert_eq!(t.count("graph"), 1);
        let back = LayerTable::from_lines(&t.to_lines());
        assert_eq!(back.count("emd"), 1);
        assert!((back.inclusive("emd.term") - 10.0).abs() < 1e-9);
    }
}
