//! What one episode measures, and the ledger-event bookkeeping every
//! workload shares.

use crate::probe::Span;
use crate::stats::grouped_quantile;
use sscc_core::{LedgerEvent, MeetingLedger};

/// The deterministic outcome of one episode: a pure function of the
/// workload and the seed. Every episode of a run, traced or not, must
/// produce the same `Counts`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Steps (sim workloads) or service ticks (serve) in the timed window.
    pub steps: u64,
    /// Actions executed in the window (sum of daemon selections).
    pub actions: u64,
    /// Sum of enabled-set sizes handed to the daemon in the window.
    pub enabled: u64,
    /// Sum of changed-set sizes handed to the policy in the window.
    pub policy_changed: u64,
    /// Meetings convened in the window.
    pub convenes: u64,
    /// Professors served by those meetings (one completed request each).
    pub participations: u64,
    /// Requests completed in the window: the participations of a closed
    /// loop, the timed completions of the service.
    pub requests: u64,
    /// Rounds completed in the window.
    pub rounds: u64,
    /// Meeting instances in the ledger at the end.
    pub ledger_len: u64,
    /// Specification violations recorded over the whole episode.
    pub violations: u64,
    /// Sojourn median and p99 (ticks) and the sample count.
    pub sojourn_p50: f64,
    /// See `sojourn_p50`.
    pub sojourn_p99: f64,
    /// See `sojourn_p50`.
    pub sojourn_n: u64,
    /// Recovery median and p99 (rounds) and the sample count.
    pub recovery_p50: f64,
    /// See `recovery_p50`.
    pub recovery_p99: f64,
    /// See `recovery_p50`.
    pub recovery_n: u64,
    /// Recovery clocks still running when the episode ended (failures).
    pub unrecovered: u64,
    /// Boundary frames and bytes sent in the window (distributed engine).
    pub frames: u64,
    /// See `frames`.
    pub bytes: u64,
    /// Serving: requests generated (arrivals plus drain hand-offs).
    pub offered: u64,
    /// Serving: `ServiceStats` counters at the end.
    pub accepted: u64,
    /// See `accepted`.
    pub shed: u64,
    /// See `accepted`.
    pub coalesced: u64,
    /// See `accepted`.
    pub completed: u64,
    /// Serving: accepted requests neither served nor merged after the drain.
    pub unserved: u64,
    /// Serving: sum of per-tick queue depths over the window.
    pub queue_depth_sum: u64,
    /// Serving: queue-wait p99 (ticks) at the end.
    pub queue_wait_p99: u64,
    /// Serving: source polls and requests delivered in the window.
    pub polls: u64,
    /// See `polls`.
    pub delivered: u64,
    /// Serving: scrapes and checkpoints taken, and the last checkpoint's size.
    pub scrapes: u64,
    /// See `scrapes`.
    pub checkpoints: u64,
    /// See `scrapes`.
    pub checkpoint_bytes: u64,
    /// Churn: strikes, professors struck, mutations applied and rejected.
    pub strikes: u64,
    /// See `strikes`.
    pub struck: u64,
    /// See `strikes`.
    pub applied: u64,
    /// See `strikes`.
    pub rejected: u64,
    /// Churn: snapshots taken and the last one's encoded size.
    pub snapshots: u64,
    /// See `snapshots`.
    pub snapshot_bytes: u64,
}

/// One episode: set-up, then a fixed amount of timed work.
pub struct Episode {
    /// Wall time of topology generation, construction and warm-up.
    pub setup_s: f64,
    /// Wall time of the timed window.
    pub window_s: f64,
    /// The process's peak resident set when the window closed, MB — read
    /// before the episode's own checks, which hold a second copy of the
    /// state.
    pub peak_rss_mb: f64,
    /// Host time of every step (or service tick) in the window, ns.
    pub tick_ns: Vec<u64>,
    /// The deterministic outcome.
    pub counts: Counts,
    /// The spans recorded (empty unless traced).
    pub spans: Vec<Span>,
    /// `Sim::save_state` at the end (the self-test compares these).
    pub state: Vec<u8>,
}

/// When a professor's recovery clock starts.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Clocks {
    /// When a strike hits the professor (see [`Book::struck`]).
    Strikes,
    /// Whenever the professor's meeting ends: in a closed loop, where a
    /// professor asks again as soon as it leaves, this is the paper's
    /// waiting time in rounds. Only clocks started in the window count,
    /// and a clock still running at the end is a wait in progress, not a
    /// failure.
    Waits,
}

/// Follows the ledger's convene/terminate events to time two things per
/// professor:
///
/// * **sojourn**: steps from the end of its previous meeting until its
///   next meeting convenes — in a closed loop, the wait for service. Only
///   waits that start inside the timed window count, so the boot
///   transient stays out;
/// * **recovery**: rounds from the start of its clock (see [`Clocks`])
///   until the professor takes part in a meeting convened after it. A
///   professor struck again before recovering keeps its first clock.
pub struct Book {
    clocks: Clocks,
    /// Step and round at which the timed window opened.
    window: Option<(u64, u64)>,
    since: Vec<Option<u64>>,
    pending: Vec<Option<u64>>,
    sojourn: Vec<u64>,
    recovery: Vec<u64>,
    /// Meetings convened while counting.
    pub convenes: u64,
    /// Participations in those meetings.
    pub participations: u64,
}

impl Book {
    /// Bookkeeping for `n` professors.
    pub fn new(n: usize, clocks: Clocks) -> Self {
        Book {
            clocks,
            window: None,
            since: vec![None; n],
            pending: vec![None; n],
            sojourn: Vec::new(),
            recovery: Vec::new(),
            convenes: 0,
            participations: 0,
        }
    }

    /// Open the timed window at `step` steps and `round` rounds.
    pub fn open_window(&mut self, step: u64, round: u64) {
        self.window = Some((step, round));
    }

    /// Start the recovery clock of every struck professor not already
    /// recovering; returns how many clocks started.
    pub fn struck(&mut self, struck: &[usize], round: u64) -> u64 {
        let mut started = 0;
        for &p in struck {
            if self.pending[p].is_none() {
                self.pending[p] = Some(round);
                started += 1;
            }
        }
        started
    }

    /// Fold the events of the step that just ran (`step` steps and `round`
    /// rounds so far).
    pub fn observe(
        &mut self,
        ledger: &MeetingLedger,
        events: &[LedgerEvent],
        step: u64,
        round: u64,
    ) {
        let Some((step0, round0)) = self.window else {
            // Before the window only the clocks' starting points matter.
            for ev in events {
                if let LedgerEvent::Terminated(idx) = *ev {
                    for &p in &ledger.instances()[idx].participants {
                        self.since[p] = Some(step);
                        if self.clocks == Clocks::Waits {
                            self.pending[p] = Some(round);
                        }
                    }
                }
            }
            return;
        };
        for ev in events {
            match *ev {
                LedgerEvent::Convened(idx) => {
                    let inst = &ledger.instances()[idx];
                    self.convenes += 1;
                    self.participations += inst.participants.len() as u64;
                    for &p in &inst.participants {
                        if let Some(s) = self.since[p].take() {
                            if s >= step0 {
                                self.sojourn.push(step - s);
                            }
                        }
                        if let Some(r0) = self.pending[p].take() {
                            if r0 >= round0 || self.clocks == Clocks::Strikes {
                                self.recovery.push(inst.convened_round - r0);
                            }
                        }
                    }
                }
                LedgerEvent::Terminated(idx) => {
                    for &p in &ledger.instances()[idx].participants {
                        self.since[p] = Some(step);
                        if self.clocks == Clocks::Waits {
                            self.pending[p] = Some(round);
                        }
                    }
                }
            }
        }
    }

    /// Write the sojourn and recovery figures into `c`.
    pub fn finish(&self, c: &mut Counts) {
        c.convenes = self.convenes;
        c.participations = self.participations;
        c.sojourn_n = self.sojourn.len() as u64;
        if !self.sojourn.is_empty() {
            c.sojourn_p50 = grouped_quantile(&self.sojourn, 0.50);
            c.sojourn_p99 = grouped_quantile(&self.sojourn, 0.99);
        }
        c.recovery_n = self.recovery.len() as u64;
        if !self.recovery.is_empty() {
            c.recovery_p50 = grouped_quantile(&self.recovery, 0.50);
            c.recovery_p99 = grouped_quantile(&self.recovery, 0.99);
        }
        if self.clocks != Clocks::Waits {
            c.unrecovered = self.pending.iter().filter(|p| p.is_some()).count() as u64;
        }
    }
}
