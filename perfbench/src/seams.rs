//! Forwarding adapters for the program's three public seams.
//!
//! Each adapter forwards **every** trait method to the wrapped object, so
//! the engine takes exactly the path it takes without the adapter: a
//! daemon's own `select_step` (and with it the `Selection::All` /
//! `Selection::Sorted` fast paths), its incremental view, and the save
//! hooks that checkpoints and snapshots depend on. The self-test in
//! `main.rs` checks this: a wrapped run's `Sim::save_state` bytes must
//! equal a bare run's.
//!
//! Around each forwarded call the adapter bumps the seam counters and, when
//! tracing is on, records a span.

use crate::probe::{self, Name};
use sscc_core::{OraclePolicy, PolicyView, RequestFlags};
use sscc_runtime::prelude::{Daemon, Selection};
use sscc_service::{CoordRequest, RequestSource};

/// Forwarding [`Daemon`].
pub struct SeamDaemon(pub Box<dyn Daemon>);

fn count_selection(enabled: usize, selected: usize) {
    probe::count(|c| {
        c.enabled += enabled as u64;
        c.selected += selected as u64;
    });
}

impl Daemon for SeamDaemon {
    fn select(&mut self, enabled: &[usize]) -> Vec<usize> {
        let tok = probe::enter(Name::DaemonSelect);
        let out = self.0.select(enabled);
        probe::exit(tok);
        count_selection(enabled.len(), out.len());
        out
    }

    fn select_step(&mut self, enabled: &[usize]) -> Selection {
        let tok = probe::enter(Name::DaemonSelect);
        let out = self.0.select_step(enabled);
        probe::exit(tok);
        let selected = match &out {
            Selection::All => enabled.len(),
            Selection::Sorted(v) | Selection::Subset(v) => v.len(),
        };
        count_selection(enabled.len(), selected);
        out
    }

    fn select_into(&mut self, enabled: &[usize], out: &mut Vec<usize>) {
        let tok = probe::enter(Name::DaemonSelect);
        self.0.select_into(enabled, out);
        probe::exit(tok);
        count_selection(enabled.len(), out.len());
    }

    fn wants_view(&self) -> bool {
        self.0.wants_view()
    }

    fn observe_delta(&mut self, added: &[usize], removed: &[usize]) {
        // View maintenance is daemon work, so it is timed under the
        // selection's span name.
        probe::span(Name::DaemonSelect, || self.0.observe_delta(added, removed));
    }

    fn set_incremental_view(&mut self, on: bool) {
        self.0.set_incremental_view(on);
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        self.0.save_state(out)
    }
}

/// Forwarding [`OraclePolicy`].
pub struct SeamPolicy(pub Box<dyn OraclePolicy>);

impl OraclePolicy for SeamPolicy {
    fn update(&mut self, flags: &mut RequestFlags, view: &PolicyView) {
        probe::span(Name::PolicyTick, || self.0.update(flags, view));
        probe::count(|c| c.changed += view.status.len() as u64);
    }

    fn update_delta(&mut self, flags: &mut RequestFlags, view: &PolicyView, changed: &[usize]) {
        probe::span(Name::PolicyTick, || {
            self.0.update_delta(flags, view, changed)
        });
        probe::count(|c| c.changed += changed.len() as u64);
    }

    fn quiescence_horizon(&self) -> u64 {
        self.0.quiescence_horizon()
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        self.0.save_state(out)
    }
}

/// Forwarding [`RequestSource`].
pub struct SeamSource(pub Box<dyn RequestSource>);

impl RequestSource for SeamSource {
    fn poll(&mut self, now: u64, max: usize, out: &mut Vec<CoordRequest>) -> usize {
        let got = probe::span(Name::SourcePoll, || self.0.poll(now, max, out));
        probe::count(|c| {
            c.polls += 1;
            c.delivered += got as u64;
        });
        got
    }

    fn finished(&self) -> bool {
        self.0.finished()
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        self.0.save_state(out)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        self.0.restore_state(bytes)
    }
}
