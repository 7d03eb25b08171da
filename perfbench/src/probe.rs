//! The benchmark's measurement state: an in-memory span recorder and the
//! work counters the forwarding seams bump.
//!
//! Everything is thread-local: the benchmark drives every engine on the
//! caller thread, so the seams reach the recorder without threading a
//! handle through the library's trait objects.
//!
//! Counters are always on (one integer add per seam call). Spans are
//! recorded only while tracing is switched on; with tracing off,
//! [`enter`] reads a thread-local flag and returns without touching the
//! clock.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::time::Instant;

/// Every span the benchmark records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// One `Sim::step` call (contains `daemon.select` and `policy.tick`).
    SimStep,
    /// One call into the `Daemon` seam.
    DaemonSelect,
    /// One call into the `OraclePolicy` seam.
    PolicyTick,
    /// One `CoordinationService::tick` (contains `source.poll`,
    /// `daemon.select` and `policy.tick`).
    ServiceTick,
    /// One call into the `RequestSource` seam.
    SourcePoll,
    /// One stats scrape (`latency_summary` + `queue_wait_summary`).
    ServiceScrape,
    /// One `CoordinationService::checkpoint`.
    ServiceCheckpoint,
    /// One `Sim::mutate`.
    ChurnMutate,
    /// One `Sim::strike`.
    FaultStrike,
    /// One `Sim::snapshot`.
    SnapshotCapture,
    /// One `Snapshot::to_bytes`.
    SnapshotEncode,
}

impl Name {
    /// Number of span names.
    pub const COUNT: usize = 11;

    /// The span's name as written out.
    pub fn label(self) -> &'static str {
        match self {
            Name::SimStep => "sim.step",
            Name::DaemonSelect => "daemon.select",
            Name::PolicyTick => "policy.tick",
            Name::ServiceTick => "service.tick",
            Name::SourcePoll => "source.poll",
            Name::ServiceScrape => "service.scrape",
            Name::ServiceCheckpoint => "service.checkpoint",
            Name::ChurnMutate => "churn.mutate",
            Name::FaultStrike => "fault.strike",
            Name::SnapshotCapture => "snapshot.capture",
            Name::SnapshotEncode => "snapshot.encode",
        }
    }
}

/// Parent index of a root span.
const ROOT: u32 = u32::MAX;

/// One recorded span: times are nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was timed.
    pub name: Name,
    /// Index of the enclosing span, or `ROOT`.
    pub parent: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Work done at the seams, as exact counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeamCounts {
    /// Sum of enabled-set sizes handed to the daemon.
    pub enabled: u64,
    /// Sum of selection sizes (= actions executed).
    pub selected: u64,
    /// Sum of changed-set sizes handed to the policy (a full tick counts
    /// every process).
    pub changed: u64,
    /// Source polls.
    pub polls: u64,
    /// Requests the source delivered.
    pub delivered: u64,
}

thread_local! {
    static TRACING: Cell<bool> = const { Cell::new(false) };
    static COUNTS: Cell<SeamCounts> = Cell::new(SeamCounts::default());
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Switch span recording on or off.
pub fn set_tracing(on: bool) {
    TRACING.with(|t| t.set(on));
}

/// Bump the seam counters.
pub fn count(f: impl FnOnce(&mut SeamCounts)) {
    COUNTS.with(|c| {
        let mut v = c.get();
        f(&mut v);
        c.set(v);
    });
}

/// Read and reset the seam counters.
pub fn take_counts() -> SeamCounts {
    COUNTS.with(|c| c.replace(SeamCounts::default()))
}

/// An open span (or nothing, when tracing is off).
#[must_use]
pub struct Token(Option<u32>);

/// Open a span starting now.
#[inline]
pub fn enter(name: Name) -> Token {
    if !TRACING.with(|t| t.get()) {
        return Token(None);
    }
    enter_at(name, Instant::now())
}

/// Open a span starting at `at`.
#[inline]
pub fn enter_at(name: Name, at: Instant) -> Token {
    if !TRACING.with(|t| t.get()) {
        return Token(None);
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(ROOT);
        let start_ns = at.duration_since(r.epoch).as_nanos() as u64;
        r.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        r.open.push(idx);
        Token(Some(idx))
    })
}

/// Close a span now.
#[inline]
pub fn exit(tok: Token) {
    if tok.0.is_some() {
        exit_at(tok, Instant::now());
    }
}

/// Close a span at `at`.
#[inline]
pub fn exit_at(tok: Token, at: Instant) {
    let Some(idx) = tok.0 else { return };
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = at.duration_since(r.epoch).as_nanos() as u64;
        r.spans[idx as usize].end_ns = end_ns;
        let top = r.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
    });
}

/// Time `f` as one span.
pub fn span<R>(name: Name, f: impl FnOnce() -> R) -> R {
    let tok = enter(name);
    let out = f();
    exit(tok);
    out
}

/// Take every span recorded so far, leaving the recorder empty.
pub fn take_spans() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "spans left open");
        std::mem::take(&mut r.spans)
    })
}

/// Per-name totals over a set of spans: calls, total time, self time
/// (duration minus the part its child spans cover), the last span's
/// duration, and every duration of the names whose tail matters.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Spans per name.
    pub calls: [u64; Name::COUNT],
    /// Total duration per name, ns.
    pub total_ns: [u64; Name::COUNT],
    /// Total self time per name, ns.
    pub self_ns: [u64; Name::COUNT],
    /// Duration of the last span of each name, ns.
    pub last_ns: [u64; Name::COUNT],
    /// Every `sim.step` / `service.tick` duration, ns.
    pub step_durs: Vec<u64>,
}

impl Totals {
    /// Fold a batch of spans (one episode) into the totals.
    pub fn add(&mut self, spans: &[Span]) {
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != ROOT {
                covered[s.parent as usize] += s.dur_ns();
            }
        }
        for (s, cov) in spans.iter().zip(&covered) {
            let i = s.name as usize;
            let d = s.dur_ns();
            self.calls[i] += 1;
            self.total_ns[i] += d;
            self.self_ns[i] += d - cov;
            self.last_ns[i] = d;
            if matches!(s.name, Name::SimStep | Name::ServiceTick) {
                self.step_durs.push(d);
            }
        }
    }

    /// Mean duration of one span, ns (0 when none was recorded).
    pub fn mean_ns(&self, name: Name) -> f64 {
        let i = name as usize;
        if self.calls[i] == 0 {
            0.0
        } else {
            self.total_ns[i] as f64 / self.calls[i] as f64
        }
    }
}

/// Write spans as tab-separated `name start_ns end_ns parent` lines
/// (`parent` is a line index, `-1` for a root span).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name\tstart_ns\tend_ns\tparent")?;
    for s in spans {
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{}\t{}\t{}\t{}",
            s.name.label(),
            s.start_ns,
            s.end_ns,
            parent
        )?;
    }
    w.flush()
}
