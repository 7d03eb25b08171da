//! The `serve-hotspot` workload: a `CoordinationService` in front of CC1,
//! fed by the benchmark's own seeded open-loop hotspot generator, with a
//! stats scrape and checkpoint schedule and a final drain.

use crate::episode::{Book, Clocks, Counts, Episode};
use crate::probe::{self, Name};
use crate::seams::{SeamDaemon, SeamPolicy, SeamSource};
use crate::sims::Drive;
use crate::{sub_seed, Stream};
use sscc_core::status::{CommitteeView, Status};
use sscc_core::{default_daemon, splitmix64, Cc1, OpenLoopPolicy, OraclePolicy, Sim};
use sscc_hypergraph::{generators, Hypergraph};
use sscc_runtime::prelude::Daemon;
use sscc_runtime::wire::{self, Reader};
use sscc_service::{
    CoordRequest, CoordinationService, OverloadPolicy, RequestSource, ServiceConfig,
};
use sscc_token::WaveToken;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Sizes and schedule of one serving episode.
pub struct ServePlan {
    /// Committees of the `ring(k, 2)` topology (= professors).
    pub ring: usize,
    /// Untimed ticks after boot (part of set-up).
    pub warmup: u64,
    /// Timed ticks with arrivals; the drain follows.
    pub ticks: u64,
    /// Stats scrape period, ticks.
    pub scrape_every: u64,
    /// Checkpoint period, ticks.
    pub checkpoint_every: u64,
}

/// Expected arrivals per tick per professor.
const RATE_PER_PROFESSOR: f64 = 0.02;
/// Share of arrivals aimed at the hot pool.
const HOT_FRACTION: f64 = 0.8;
/// Hot-pool size as a share of the professors.
const HOT_SHARE: usize = 10;
/// Drain: ticks between two rounds of counterpart hand-offs.
const HANDOFF_EVERY: u64 = 25;
/// Drain: give up (and count the leftovers as failed) after this many ticks.
const MAX_DRAIN: u64 = 50_000;

/// Requests generated and not yet polled, shared between the generator
/// (inside the service) and the episode loop (which hands off counterparts
/// during the drain).
#[derive(Default)]
struct Feed {
    backlog: VecDeque<usize>,
    generated: u64,
    handed: u64,
}

/// Open-loop hotspot arrivals: `Poisson(rate)` requests per tick, a share
/// of them aimed at a contiguous arc of the ring placed by the seed.
/// Counter-based like the library's `TrafficGen`: tick `t`'s arrivals are
/// a pure function of `(seed, t)`, and each is delivered at its own tick,
/// so generator lateness is zero.
struct Hotspot {
    seed: u64,
    n: usize,
    rate: f64,
    hot_start: usize,
    hot_len: usize,
    horizon: u64,
    next_tick: u64,
    feed: Rc<RefCell<Feed>>,
}

impl Hotspot {
    fn draw(&self, t: u64, k: u64) -> u64 {
        splitmix64(splitmix64(self.seed ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(k))
    }

    fn unit(&self, t: u64, k: u64) -> f64 {
        (self.draw(t, k) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn generate_tick(&mut self, t: u64) {
        let limit = (-self.rate).exp();
        let mut k = 0;
        let mut prod = self.unit(t, k);
        k += 1;
        let mut feed = self.feed.borrow_mut();
        while prod > limit {
            let hot = self.unit(t, k) < HOT_FRACTION;
            let pick = self.draw(t, k + 1);
            prod *= self.unit(t, k + 2);
            k += 3;
            let professor = if hot {
                (self.hot_start + (pick % self.hot_len as u64) as usize) % self.n
            } else {
                (pick % self.n as u64) as usize
            };
            feed.backlog.push_back(professor);
            feed.generated += 1;
        }
    }
}

impl RequestSource for Hotspot {
    fn poll(&mut self, now: u64, max: usize, out: &mut Vec<CoordRequest>) -> usize {
        let upto = now.saturating_add(1).min(self.horizon);
        while self.next_tick < upto {
            let t = self.next_tick;
            self.generate_tick(t);
            self.next_tick += 1;
        }
        let mut feed = self.feed.borrow_mut();
        let take = max.min(feed.backlog.len());
        out.extend(
            feed.backlog
                .drain(..take)
                .map(|professor| CoordRequest { professor }),
        );
        take
    }

    fn finished(&self) -> bool {
        self.next_tick >= self.horizon && self.feed.borrow().backlog.is_empty()
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        let feed = self.feed.borrow();
        wire::put_u64(out, self.next_tick);
        let backlog: Vec<usize> = feed.backlog.iter().copied().collect();
        wire::put_usize_slice(out, &backlog);
        true
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let mut r = Reader::new(bytes);
        let (Some(next_tick), Some(backlog)) = (r.u64(), r.usize_vec()) else {
            return false;
        };
        if !r.is_empty() || backlog.iter().any(|&p| p >= self.n) {
            return false;
        }
        self.next_tick = next_tick;
        self.feed.borrow_mut().backlog = backlog.into();
        true
    }
}

/// Drain hand-off: a professor left waiting alone once arrivals stop has
/// no committee whose other members all want to meet, and under open-loop
/// load nobody else will ever ask. Model its client inviting the
/// counterparts: request every idle member of the committee it points at
/// (or of its first committee).
fn hand_off(h: &Hypergraph, sim: &Sim<Cc1, WaveToken>, feed: &RefCell<Feed>) {
    let status = |p: usize| sim.world().state(p).cc.status();
    let mut feed = feed.borrow_mut();
    let mut asked = vec![false; h.n()];
    for p in 0..h.n() {
        if !status(p).is_waiting_state() {
            continue;
        }
        let can_meet = h
            .incident(p)
            .iter()
            .any(|&e| h.members(e).iter().all(|&q| status(q).is_waiting_state()));
        if can_meet {
            continue;
        }
        let e = sim
            .world()
            .state(p)
            .cc
            .pointer()
            .unwrap_or(h.incident(p)[0]);
        for &q in h.members(e) {
            if status(q) == Status::Idle && !asked[q] {
                asked[q] = true;
                feed.backlog.push_back(q);
                feed.handed += 1;
            }
        }
    }
}

/// Run one serving episode.
pub fn episode(plan: &ServePlan, seed: u64, drive: Drive) -> Result<Episode, String> {
    let t0 = Instant::now();
    let h = Arc::new(generators::ring(plan.ring, 2));
    let n = h.n();
    let feed = Rc::new(RefCell::new(Feed::default()));
    let mut source: Box<dyn RequestSource> = Box::new(Hotspot {
        seed: sub_seed(seed, Stream::Traffic, 0),
        n,
        rate: RATE_PER_PROFESSOR * n as f64,
        hot_start: (sub_seed(seed, Stream::HotPool, 0) % n as u64) as usize,
        hot_len: (n / HOT_SHARE).max(1),
        horizon: plan.warmup + plan.ticks,
        next_tick: 0,
        feed: Rc::clone(&feed),
    });
    let mut daemon: Box<dyn Daemon> = default_daemon(sub_seed(seed, Stream::Daemon, 0), n);
    let mut policy: Box<dyn OraclePolicy> = Box::new(OpenLoopPolicy::new(n, 1));
    if drive.wrapped {
        source = Box::new(SeamSource(source));
        daemon = Box::new(SeamDaemon(daemon));
        policy = Box::new(SeamPolicy(policy));
    }
    let sim = Sim::builder(Arc::clone(&h), Cc1::new(), WaveToken::new(&h))
        .daemon(daemon)
        .policy(policy)
        .build()
        .map_err(|e| format!("engine configuration rejected: {e}"))?;
    let cfg = ServiceConfig {
        queue_capacity: 4096,
        overload: OverloadPolicy::Shed,
        ..ServiceConfig::default()
    };
    let mut svc = CoordinationService::new(sim, source, cfg);
    let mut book = Book::new(n, Clocks::Waits);
    for _ in 0..plan.warmup {
        svc.tick();
        book.observe(
            svc.sim().ledger(),
            svc.sim().last_events(),
            svc.ticks(),
            svc.sim().rounds(),
        );
    }
    let setup_s = t0.elapsed().as_secs_f64();

    probe::take_counts();
    probe::set_tracing(drive.traced);
    let rounds0 = svc.sim().rounds();
    book.open_window(svc.ticks(), rounds0);
    let stats0 = *svc.stats();
    let mut c = Counts::default();
    let mut tick_ns = Vec::with_capacity(plan.ticks as usize);
    let mut timed_tick = |svc: &mut CoordinationService<Cc1, WaveToken>, book: &mut Book| {
        let ts = Instant::now();
        let tok = probe::enter_at(Name::ServiceTick, ts);
        svc.tick();
        let te = Instant::now();
        probe::exit_at(tok, te);
        tick_ns.push((te - ts).as_nanos() as u64);
        book.observe(
            svc.sim().ledger(),
            svc.sim().last_events(),
            svc.ticks(),
            svc.sim().rounds(),
        );
    };
    let w0 = Instant::now();
    for i in 1..=plan.ticks {
        timed_tick(&mut svc, &mut book);
        if i % plan.scrape_every == 0 {
            let tok = probe::enter(Name::ServiceScrape);
            std::hint::black_box((svc.latency_summary(), svc.queue_wait_summary()));
            probe::exit(tok);
            c.scrapes += 1;
        }
        if i % plan.checkpoint_every == 0 {
            let blob = probe::span(Name::ServiceCheckpoint, || svc.checkpoint())
                .ok_or("the service refused a checkpoint")?;
            c.checkpoints += 1;
            c.checkpoint_bytes = blob.len() as u64;
        }
    }
    let mut drain = 0;
    while !svc.drained() && drain < MAX_DRAIN {
        if drain % HANDOFF_EVERY == 0 {
            hand_off(&h, svc.sim(), &feed);
        }
        timed_tick(&mut svc, &mut book);
        drain += 1;
    }
    let window_s = w0.elapsed().as_secs_f64();
    let peak_rss_mb = crate::peak_rss_mb()?;
    probe::set_tracing(false);
    let spans = probe::take_spans();
    let seam = probe::take_counts();

    let stats = *svc.stats();
    c.steps = tick_ns.len() as u64;
    c.actions = seam.selected;
    c.enabled = seam.enabled;
    c.policy_changed = seam.changed;
    c.polls = seam.polls;
    c.delivered = seam.delivered;
    c.rounds = svc.sim().rounds() - rounds0;
    c.ledger_len = svc.sim().ledger().instances().len() as u64;
    c.violations = svc.sim().monitor().violations().len() as u64;
    book.finish(&mut c);
    let feed = feed.borrow();
    c.offered = feed.generated + feed.handed;
    c.accepted = stats.accepted;
    c.shed = stats.shed;
    c.coalesced = stats.coalesced;
    c.completed = stats.completed;
    c.requests = stats.completed - stats0.completed;
    let waiting = (svc.queue_depth() + svc.in_flight()) as u64;
    let undelivered = feed.backlog.len() as u64;
    c.unserved = waiting + undelivered;
    c.queue_depth_sum = stats.queue_depth_sum - stats0.queue_depth_sum;
    let lat = svc.latency_summary().ok_or("no request completed")?;
    c.sojourn_p50 = lat.p50 as f64;
    c.sojourn_p99 = lat.p99 as f64;
    c.sojourn_n = lat.completed;
    c.queue_wait_p99 = svc.queue_wait_summary().ok_or("nothing admitted")?.p99;
    if c.accepted != c.completed + c.coalesced + waiting {
        return Err(format!(
            "accepted requests unaccounted for: {} accepted, {} served, {} merged, {} unserved",
            c.accepted, c.completed, c.coalesced, waiting
        ));
    }
    if c.offered != c.accepted + c.shed + undelivered {
        return Err(format!(
            "offered requests unaccounted for: {} offered, {} accepted, {} shed, {} undelivered",
            c.offered, c.accepted, c.shed, undelivered
        ));
    }

    let mut state = Vec::new();
    if !svc.sim().save_state(&mut state) {
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
