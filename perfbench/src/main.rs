//! The repository benchmark: one command runs one named workload from a
//! seed, checks that the program's outputs are correct, and prints every
//! metric by name with its unit.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense-cc1 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run.
//! `--trace 1` alternates untraced and traced episodes and reports the
//! per-layer metrics from the spans the forwarding seams and the episode loop
//! record, plus `trace.overhead`; it writes the last traced episode's spans
//! to `.bench_out/spans-<workload>-seed<seed>.tsv`.
//!
//! A run is a sequence of identical **episodes** (same seed, same inputs):
//! set-up (topology, construction, warm-up), then a fixed amount of timed
//! work. Episodes repeat until `--seconds` have passed (at least
//! `MIN_EPISODES`); host timings are reported as medians over episodes,
//! deterministic counts must agree across all of them. The last line of
//! standard output is one JSON object; see `NOTES.md` for what every
//! workload and metric means.

mod episode;
mod probe;
mod seams;
mod serve;
mod sims;
mod stats;

use episode::{Counts, Episode};
use probe::{Name, Totals};
use serve::ServePlan;
use sims::{Drive, SimPlan};
use sscc_core::{splitmix64, Cc1, Cc2, Cc3, EngineConfig};
use sscc_hypergraph::generators;
use stats::{median, nearest_rank};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest episodes (pairs of episodes, traced) a run measures.
const MIN_EPISODES: usize = 3;

const USAGE: &str = "usage: perfbench --workload <dense-cc1|sharded-cc3|serve-hotspot|churn-cc2> \
--seed <n> --seconds <n> --trace <0|1>";

/// The independent random streams drawn from the run seed.
#[derive(Clone, Copy)]
pub enum Stream {
    /// Topology generation.
    Topology,
    /// The daemon's random choices.
    Daemon,
    /// Request arrivals.
    Traffic,
    /// Placement of the hot pool.
    HotPool,
    /// Fault seeds of the strikes.
    Strike,
    /// Mutation proposals.
    Mutate,
}

/// Draw `k` of `stream` under `seed`.
pub fn sub_seed(seed: u64, stream: Stream, k: u64) -> u64 {
    let s = splitmix64(seed ^ (stream as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    splitmix64(s.wrapping_add(k))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Dense,
    Sharded,
    Serve,
    Churn,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "dense-cc1" => Workload::Dense,
            "sharded-cc3" => Workload::Sharded,
            "serve-hotspot" => Workload::Serve,
            "churn-cc2" => Workload::Churn,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Dense => "dense-cc1",
            Workload::Sharded => "sharded-cc3",
            Workload::Serve => "serve-hotspot",
            Workload::Churn => "churn-cc2",
        }
    }
}

/// Full size for the measured episodes; small for the seam self-test.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Size {
    Full,
    Small,
}

/// Run one episode of `w`.
fn run_episode(w: Workload, size: Size, seed: u64, drive: Drive) -> Result<Episode, String> {
    let full = size == Size::Full;
    let no_churn = SimPlan {
        warmup: 0,
        window: 0,
        strike_every: 0,
        strike_fraction: 0.0,
        mutate_every: 0,
        snapshot_every: 0,
        tail: 0,
    };
    match w {
        Workload::Dense => {
            let n = if full { 1536 } else { 256 };
            let plan = SimPlan {
                warmup: if full { 400 } else { 50 },
                window: if full { 4500 } else { 300 },
                ..no_churn
            };
            let topo_seed = sub_seed(seed, Stream::Topology, 0);
            let topo = move || generators::power_law(n, n, topo_seed);
            sims::episode(
                &topo,
                &Cc1::new,
                EngineConfig::default(),
                &plan,
                seed,
                drive,
            )
        }
        Workload::Sharded => {
            let side = if full { 40 } else { 10 };
            let plan = SimPlan {
                warmup: if full { 4000 } else { 50 },
                window: if full { 40_000 } else { 300 },
                ..no_churn
            };
            let engine: EngineConfig = "dist2".parse().map_err(|e| format!("dist2 mode: {e}"))?;
            let topo = move || generators::grid_pairs(side, side);
            sims::episode(&topo, &Cc3::new_cc3, engine, &plan, seed, drive)
        }
        Workload::Serve => {
            let plan = if full {
                ServePlan {
                    ring: 1536,
                    warmup: 2000,
                    ticks: 30_000,
                    scrape_every: 1000,
                    checkpoint_every: 5000,
                }
            } else {
                ServePlan {
                    ring: 128,
                    warmup: 100,
                    ticks: 1500,
                    scrape_every: 500,
                    checkpoint_every: 1000,
                }
            };
            serve::episode(&plan, seed, drive)
        }
        Workload::Churn => {
            let k = if full { 1536 } else { 128 };
            let plan = if full {
                SimPlan {
                    warmup: 3000,
                    window: 8000,
                    strike_every: 200,
                    strike_fraction: 0.3,
                    mutate_every: 100,
                    snapshot_every: 1000,
                    tail: 1000,
                }
            } else {
                SimPlan {
                    warmup: 50,
                    window: 1200,
                    strike_every: 200,
                    strike_fraction: 0.3,
                    mutate_every: 50,
                    snapshot_every: 300,
                    tail: 400,
                }
            };
            let topo = move || generators::ring(k, 2);
            sims::episode(
                &topo,
                &Cc2::new,
                EngineConfig::default(),
                &plan,
                seed,
                drive,
            )
        }
    }
}

/// The seam self-test: at reduced size, a run through the forwarding
/// adapters with tracing on must end in exactly the state of a bare run.
fn self_test(w: Workload, seed: u64) -> Result<(), String> {
    let bare = run_episode(
        w,
        Size::Small,
        seed,
        Drive {
            wrapped: false,
            traced: false,
        },
    )?;
    let wrapped = run_episode(
        w,
        Size::Small,
        seed,
        Drive {
            wrapped: true,
            traced: true,
        },
    )?;
    if bare.state != wrapped.state {
        return Err(format!(
            "self-test: the wrapped run's Sim::save_state differs from the bare run's \
             ({} vs {} bytes)",
            wrapped.state.len(),
            bare.state.len()
        ));
    }
    if wrapped.spans.is_empty() {
        return Err("self-test: the traced run recorded no spans".into());
    }
    Ok(())
}

/// The checks every run makes on its deterministic counts.
fn check(c: &Counts) -> Result<(), String> {
    if c.violations > 0 {
        return Err(format!("{} specification violations", c.violations));
    }
    Ok(())
}

/// Deterministic counts must repeat exactly.
fn same_counts(first: &Counts, other: &Counts, what: &str) -> Result<(), String> {
    if first == other {
        Ok(())
    } else {
        Err(format!(
            "{what}: deterministic counts differ\n  first: {first:?}\n  other: {other:?}"
        ))
    }
}

/// Peak resident set of this process, MB (`VmHWM`). One process runs one
/// workload, so the figure is that workload's alone.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What a run reports.
struct Report {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
}

/// Attempted operations and failures of one episode: meetings (spec
/// violations fail them), offered requests (shed or unserved after the
/// drain fail them) and recovery clocks (unrecovered ones fail them).
fn failures(c: &Counts) -> (u64, u64) {
    let attempted = c.convenes + c.offered + c.recovery_n + c.unrecovered;
    let failed = c.violations + c.shed + c.unserved + c.unrecovered;
    (attempted, failed)
}

fn describe(w: Workload, c: &Counts, episodes: usize) {
    println!(
        "{}: {} episodes x {} {} | {} actions, {} meetings, {} rounds, {} ledger instances",
        w.name(),
        episodes,
        c.steps,
        if w == Workload::Serve {
            "ticks"
        } else {
            "steps"
        },
        c.actions,
        c.convenes,
        c.rounds,
        c.ledger_len
    );
    println!(
        "failures per episode: spec violations {} / {} meetings; shed {} + unserved {} / {} \
         offered; unrecovered {} / {} recovery clocks",
        c.violations,
        c.convenes,
        c.shed,
        c.unserved,
        c.offered,
        c.unrecovered,
        c.recovery_n + c.unrecovered
    );
    println!(
        "samples: sojourn p99 over {} samples; recovery p99 over {} samples",
        c.sojourn_n, c.recovery_n
    );
}

/// `--trace 0`: episodes until the time is up; end-to-end metrics.
fn untraced(w: Workload, seed: u64, budget: Duration) -> Result<Report, String> {
    let start = Instant::now();
    let drive = Drive {
        wrapped: true,
        traced: false,
    };
    let mut eps: Vec<Episode> = Vec::new();
    while eps.len() < MIN_EPISODES || start.elapsed() < budget {
        let mut ep = run_episode(w, Size::Full, seed, drive)?;
        ep.state = Vec::new();
        let mut t = ep.tick_ns.clone();
        t.sort_unstable();
        eprintln!(
            "episode {}: setup {:.3} s, window {:.3} s, tick p50 {:.2} us, p95 {:.2} us",
            eps.len(),
            ep.setup_s,
            ep.window_s,
            nearest_rank(&t, 0.5) as f64 / 1e3,
            nearest_rank(&t, 0.95) as f64 / 1e3
        );
        if let Some(first) = eps.first() {
            same_counts(&first.counts, &ep.counts, "repeated episode")?;
        }
        eps.push(ep);
    }
    let c = eps[0].counts.clone();
    describe(w, &c, eps.len());
    check(&c)?;
    let per_ep = |f: &dyn Fn(&Episode) -> f64| median(&eps.iter().map(f).collect::<Vec<_>>());
    let tick_p50 = per_ep(&|e: &Episode| {
        let mut t = e.tick_ns.clone();
        t.sort_unstable();
        nearest_rank(&t, 0.50) as f64 / 1e3
    });
    let metrics = vec![
        ("setup_s", per_ep(&|e| e.setup_s), "s"),
        ("peak_rss_mb", eps[0].peak_rss_mb, "MB"),
        (
            "convenes_per_s",
            per_ep(&|e| e.counts.convenes as f64 / e.window_s),
            "1/s",
        ),
        (
            "requests_per_s",
            per_ep(&|e| e.counts.requests as f64 / e.window_s),
            "1/s",
        ),
        ("recovery_p50_rounds", c.recovery_p50, "rounds"),
        ("recovery_p99_rounds", c.recovery_p99, "rounds"),
        ("sojourn_p50_ticks", c.sojourn_p50, "ticks"),
        ("sojourn_p99_ticks", c.sojourn_p99, "ticks"),
        ("tick_p50_us", tick_p50, "us"),
    ];
    let (a, f) = failures(&c);
    Ok(Report {
        metrics,
        attempted: a * eps.len() as u64,
        failed: f * eps.len() as u64,
    })
}

/// `--trace 1`: alternating untraced/traced episode pairs; per-layer
/// metrics from the traced ones.
fn traced(w: Workload, seed: u64, budget: Duration) -> Result<Report, String> {
    let start = Instant::now();
    let mut first: Option<Counts> = None;
    let mut totals = Totals::default();
    let mut overheads = Vec::new();
    let mut last_spans = Vec::new();
    let mut pairs = 0usize;
    while pairs < MIN_EPISODES || start.elapsed() < budget {
        let run = |traced: bool| {
            run_episode(
                w,
                Size::Full,
                seed,
                Drive {
                    wrapped: true,
                    traced,
                },
            )
        };
        // Alternate which side of the pair runs first.
        let (plain, spanned) = if pairs.is_multiple_of(2) {
            let p = run(false)?;
            (p, run(true)?)
        } else {
            let t = run(true)?;
            (run(false)?, t)
        };
        same_counts(&plain.counts, &spanned.counts, "traced vs untraced")?;
        match &first {
            Some(f) => same_counts(f, &plain.counts, "repeated episode")?,
            None => first = Some(plain.counts.clone()),
        }
        overheads.push(spanned.window_s / plain.window_s - 1.0);
        eprintln!(
            "pair {pairs}: untraced {:.3} s, traced {:.3} s, {} spans",
            plain.window_s,
            spanned.window_s,
            spanned.spans.len()
        );
        totals.add(&spanned.spans);
        last_spans = spanned.spans;
        pairs += 1;
    }
    let c = first.expect("at least one pair ran");
    describe(w, &c, pairs * 2);
    check(&c)?;
    let path = std::path::PathBuf::from(format!(".bench_out/spans-{}-seed{seed}.tsv", w.name()));
    probe::write_spans(&path, &last_spans)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans of the last traced episode: {}", path.display());

    let k = pairs as f64;
    let steps = c.steps as f64;
    let per_step = |name: Name| totals.total_ns[name as usize] as f64 / (k * steps);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    // The step's own time: `sim.step` spans on the simulation workloads;
    // inside the service the step is not separable from the tick, so the
    // tick's self time stands in.
    let step_name = if w == Workload::Serve {
        Name::ServiceTick
    } else {
        Name::SimStep
    };
    let step_self = totals.self_ns[step_name as usize] as f64;
    let mut durs = totals.step_durs.clone();
    durs.sort_unstable();
    let service_tick_self = if w == Workload::Serve {
        step_self / (k * steps)
    } else {
        0.0
    };
    let metrics = vec![
        ("daemon.select_ns", per_step(Name::DaemonSelect), "ns"),
        (
            "daemon.enabled_per_step",
            c.enabled as f64 / steps,
            "1/step",
        ),
        (
            "daemon.selected_per_step",
            c.actions as f64 / steps,
            "1/step",
        ),
        ("policy.tick_ns", per_step(Name::PolicyTick), "ns"),
        (
            "policy.changed_per_step",
            c.policy_changed as f64 / steps,
            "1/step",
        ),
        ("sim.step_self_ns", step_self / (k * steps), "ns"),
        (
            "sim.step_p99_us",
            nearest_rank(&durs, 0.99) as f64 / 1e3,
            "us",
        ),
        (
            "sim.self_ns_per_action",
            step_self / (k * c.actions.max(1) as f64),
            "ns",
        ),
        ("sim.convenes_per_step", c.convenes as f64 / steps, "1/step"),
        ("sim.rounds", c.rounds as f64, "count"),
        ("ledger.instances", c.ledger_len as f64, "count"),
        ("monitor.violations", c.violations as f64, "count"),
        ("dist.frames_per_step", c.frames as f64 / steps, "1/step"),
        ("dist.bytes_per_step", c.bytes as f64 / steps, "B/step"),
        ("service.tick_self_ns", service_tick_self, "ns"),
        (
            "service.scrape_us",
            totals.mean_ns(Name::ServiceScrape) / 1e3,
            "us",
        ),
        (
            "service.scrape_last_us",
            totals.last_ns[Name::ServiceScrape as usize] as f64 / 1e3,
            "us",
        ),
        (
            "service.checkpoint_ms",
            totals.mean_ns(Name::ServiceCheckpoint) / 1e6,
            "ms",
        ),
        ("service.checkpoint_bytes", c.checkpoint_bytes as f64, "B"),
        (
            "service.queue_depth_mean",
            c.queue_depth_sum as f64 / steps,
            "requests",
        ),
        (
            "service.queue_wait_p99_ticks",
            c.queue_wait_p99 as f64,
            "ticks",
        ),
        (
            "service.coalesced_ratio",
            ratio(c.coalesced, c.accepted),
            "ratio",
        ),
        ("source.poll_ns", totals.mean_ns(Name::SourcePoll), "ns"),
        (
            "churn.mutate_us",
            totals.mean_ns(Name::ChurnMutate) / 1e3,
            "us",
        ),
        ("churn.applied", c.applied as f64, "count"),
        ("churn.rejected", c.rejected as f64, "count"),
        (
            "fault.strike_us",
            totals.mean_ns(Name::FaultStrike) / 1e3,
            "us",
        ),
        ("fault.struck", c.struck as f64, "count"),
        (
            "snapshot.capture_us",
            totals.mean_ns(Name::SnapshotCapture) / 1e3,
            "us",
        ),
        (
            "snapshot.encode_ms",
            totals.mean_ns(Name::SnapshotEncode) / 1e6,
            "ms",
        ),
        ("snapshot.bytes", c.snapshot_bytes as f64, "B"),
        ("trace.overhead", median(&overheads), "ratio"),
    ];
    let (a, f) = failures(&c);
    Ok(Report {
        metrics,
        attempted: a * 2 * pairs as u64,
        failed: f * 2 * pairs as u64,
    })
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result line: one JSON object.
fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Fix glibc's mmap threshold at its initial 128 KiB. Left to itself, glibc
/// raises the threshold each time a large block is freed and then serves
/// later large blocks from the heap, so a run's peak RSS depends on the
/// order of earlier frees: on `churn-cc2` it lands near either 167 MB or
/// 192 MB, depending on the seed. With the threshold fixed, every block of
/// 128 KiB or more is mapped when allocated and unmapped when freed, and
/// the peak follows the program's live memory.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets an allocator parameter; it is called
    // before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() {}

fn main() -> ExitCode {
    fix_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let result = self_test(args.workload, args.seed).and_then(|()| {
        if args.trace {
            traced(args.workload, args.seed, budget)
        } else {
            untraced(args.workload, args.seed, budget)
        }
    });
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            println!("{}", json_line(false, 1, 1, &Vec::new()));
            return ExitCode::from(1);
        }
    };
    if let Some((name, value, _)) = report.metrics.iter().find(|m| !m.1.is_finite()) {
        eprintln!("perfbench: metric {name} is not a number ({value})");
        println!("{}", json_line(false, 1, 1, &Vec::new()));
        return ExitCode::from(1);
    }
    println!(
        "{}",
        json_line(true, report.attempted, report.failed, &report.metrics)
    );
    ExitCode::SUCCESS
}
