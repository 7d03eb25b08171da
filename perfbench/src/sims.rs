//! The closed-loop simulation workloads: `dense-cc1`, `sharded-cc3` and
//! `churn-cc2` share one episode loop. Every professor runs the eager
//! environment (it asks again as soon as it leaves a meeting); `churn-cc2`
//! adds the benchmark's fault, mutation and snapshot schedule.

use crate::episode::{Book, Clocks, Counts, Episode};
use crate::probe::{self, Name};
use crate::seams::{SeamDaemon, SeamPolicy};
use crate::{sub_seed, Stream};
use rand::rngs::StdRng;
use rand::SeedableRng as _;
use sscc_core::algo::CommitteeAlgorithm;
use sscc_core::{default_daemon, EagerPolicy, EngineConfig, OraclePolicy, Sim};
use sscc_hypergraph::{random_mutation_with_bias, Hypergraph, MutationBias};
use sscc_runtime::prelude::{Daemon, StateCodec};
use sscc_token::WaveToken;
use std::sync::Arc;
use std::time::Instant;

/// Sizes and schedule of one simulation episode.
pub struct SimPlan {
    /// Untimed steps after boot (part of set-up).
    pub warmup: u64,
    /// Timed steps.
    pub window: u64,
    /// Strike every this many window steps (0 = never).
    pub strike_every: u64,
    /// Fraction of the processes each strike hits.
    pub strike_fraction: f64,
    /// Propose a balanced topology mutation every this many steps (0 = never).
    pub mutate_every: u64,
    /// Take an online snapshot every this many steps (0 = never).
    pub snapshot_every: u64,
    /// Strike-free steps at the end of the window.
    pub tail: u64,
}

/// How an episode is driven.
#[derive(Clone, Copy)]
pub struct Drive {
    /// Route the daemon and policy through the forwarding seams.
    pub wrapped: bool,
    /// Record spans in the timed window.
    pub traced: bool,
}

/// Run one episode: boot `make_cc` on `topo()` under `engine`, warm up,
/// then time `plan.window` steps.
pub fn episode<C>(
    topo: &dyn Fn() -> Hypergraph,
    make_cc: &dyn Fn() -> C,
    engine: EngineConfig,
    plan: &SimPlan,
    seed: u64,
    drive: Drive,
) -> Result<Episode, String>
where
    C: CommitteeAlgorithm + 'static,
    C::State: Copy + StateCodec,
{
    let t0 = Instant::now();
    let h = Arc::new(topo());
    let n = h.n();
    let mut daemon: Box<dyn Daemon> = default_daemon(sub_seed(seed, Stream::Daemon, 0), n);
    let mut policy: Box<dyn OraclePolicy> = Box::new(EagerPolicy::new(n, 1));
    if drive.wrapped {
        daemon = Box::new(SeamDaemon(daemon));
        policy = Box::new(SeamPolicy(policy));
    }
    let mut sim = Sim::builder(Arc::clone(&h), make_cc(), WaveToken::new(&h))
        .daemon(daemon)
        .policy(policy)
        .engine(engine)
        .build()
        .map_err(|e| format!("engine configuration rejected: {e}"))?;
    let clocks = if plan.strike_every > 0 {
        Clocks::Strikes
    } else {
        Clocks::Waits
    };
    let mut book = Book::new(n, clocks);
    for _ in 0..plan.warmup {
        if !sim.step() {
            return Err("closed loop reached a terminal configuration".into());
        }
        book.observe(sim.ledger(), sim.last_events(), sim.steps(), sim.rounds());
    }
    let setup_s = t0.elapsed().as_secs_f64();

    probe::take_counts();
    probe::set_tracing(drive.traced);
    let rounds0 = sim.rounds();
    book.open_window(sim.steps(), rounds0);
    let dist0 = sim.dist_stats().unwrap_or_default();
    let mut c = Counts::default();
    let mut tick_ns = Vec::with_capacity(plan.window as usize);
    let mut last_snapshot: Option<(Arc<Hypergraph>, Vec<u8>)> = None;
    let mut mutations = 0u64;
    let w0 = Instant::now();
    for i in 0..plan.window {
        if plan.strike_every > 0 && i % plan.strike_every == 0 && i + plan.tail < plan.window {
            let fault_seed = sub_seed(seed, Stream::Strike, c.strikes);
            let struck = probe::span(Name::FaultStrike, || {
                sim.strike(fault_seed, plan.strike_fraction)
            })
            .map_err(|e| format!("strike rejected: {e}"))?;
            c.strikes += 1;
            c.struck += book.struck(&struck, sim.rounds());
        }
        if plan.mutate_every > 0 && i % plan.mutate_every == 0 {
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, Stream::Mutate, mutations));
            mutations += 1;
            let mu = random_mutation_with_bias(sim.h(), &mut rng, MutationBias::Balanced);
            match probe::span(Name::ChurnMutate, || sim.mutate(&mu)) {
                Ok(_) => c.applied += 1,
                Err(_) => c.rejected += 1,
            }
        }
        if plan.snapshot_every > 0 && i > 0 && i % plan.snapshot_every == 0 {
            let snap = probe::span(Name::SnapshotCapture, || sim.snapshot())
                .ok_or("the sim refused an online snapshot")?;
            let bytes = probe::span(Name::SnapshotEncode, || snap.to_bytes());
            c.snapshots += 1;
            c.snapshot_bytes = bytes.len() as u64;
            last_snapshot = Some((sim.world().h_arc(), bytes));
        }
        let ts = Instant::now();
        let tok = probe::enter_at(Name::SimStep, ts);
        let progressed = sim.step();
        let te = Instant::now();
        probe::exit_at(tok, te);
        tick_ns.push((te - ts).as_nanos() as u64);
        if !progressed {
            return Err("closed loop reached a terminal configuration".into());
        }
        book.observe(sim.ledger(), sim.last_events(), sim.steps(), sim.rounds());
    }
    let window_s = w0.elapsed().as_secs_f64();
    let peak_rss_mb = crate::peak_rss_mb()?;
    probe::set_tracing(false);
    let spans = probe::take_spans();
    let seam = probe::take_counts();

    c.steps = plan.window;
    c.actions = seam.selected;
    c.enabled = seam.enabled;
    c.policy_changed = seam.changed;
    c.rounds = sim.rounds() - rounds0;
    c.ledger_len = sim.ledger().instances().len() as u64;
    c.violations = sim.monitor().violations().len() as u64;
    let dist = sim.dist_stats().unwrap_or_default();
    c.frames = dist.frames - dist0.frames;
    c.bytes = dist.bytes - dist0.bytes;
    book.finish(&mut c);
    c.requests = c.participations;

    if let Some((h_at, bytes)) = last_snapshot {
        let restored = Sim::<C, WaveToken>::restore(
            Arc::clone(&h_at),
            make_cc(),
            WaveToken::new(&h_at),
            &bytes,
        )
        .ok_or("the last snapshot did not restore")?;
        let mut again = Vec::new();
        if !restored.save_state(&mut again) || again != bytes {
            return Err("the restored snapshot saves different bytes".into());
        }
    }
    let mut state = Vec::new();
    if !sim.save_state(&mut state) {
        return Err("Sim::save_state refused".into());
    }
    Ok(Episode {
        setup_s,
        window_s,
        peak_rss_mb,
        tick_ns,
        counts: c,
        spans,
        state,
    })
}
