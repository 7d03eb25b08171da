//! Delta-compressed action recordings.
//!
//! A [`StepTrace`] is a [`Trace`] snapshot in
//! a compact durable form. Step and round indices are monotone over the
//! event list, so both are stored as varint *deltas* from the previous
//! event; process and action ids are small varints. A steady-state SSCC
//! event costs 4–6 bytes instead of the 32 of the in-memory struct.
//!
//! Layout:
//!
//! ```text
//! magic    4 bytes  b"STRC"
//! version  u16      2
//! checksum u64      `wire::checksum64` over the encoded event stream
//! count    varint   number of events
//! events   count ×  (Δstep varint, Δround varint, process varint,
//!                    action varint)
//! ```

use sscc_runtime::prelude::{Trace, TraceEvent};
use sscc_runtime::wire::{self, Reader};
use std::fmt;

const MAGIC: [u8; 4] = *b"STRC";
const VERSION: u16 = 2;

/// Why a [`StepTrace`] artifact failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceDecodeError {
    /// Not a step-trace artifact.
    BadMagic,
    /// Version this build cannot read.
    UnsupportedVersion(u16),
    /// Checksum mismatch — truncated or corrupted stream.
    ChecksumMismatch,
    /// Malformed or truncated event stream.
    Truncated,
    /// A delta overflowed `u64` step/round arithmetic.
    Overflow,
}

impl fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDecodeError::BadMagic => write!(f, "not a step trace (bad magic)"),
            TraceDecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported step-trace version {v}")
            }
            TraceDecodeError::ChecksumMismatch => write!(f, "step-trace checksum mismatch"),
            TraceDecodeError::Truncated => write!(f, "step trace truncated or malformed"),
            TraceDecodeError::Overflow => write!(f, "step-trace delta overflow"),
        }
    }
}

impl std::error::Error for TraceDecodeError {}

/// An ordered recording of executed actions, cheap to persist and replay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepTrace {
    events: Vec<TraceEvent>,
}

impl StepTrace {
    /// Wrap an event list (must be ordered by step; [`Trace`] records are).
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        StepTrace { events }
    }

    /// Snapshot a live in-memory trace.
    pub fn from_trace(trace: &Trace) -> Self {
        Self::from_events(trace.events().to_vec())
    }

    /// The recorded events, in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The suffix of events at or after `step` — the replay payload for a
    /// checkpoint taken at step boundary `step`.
    pub fn since(&self, step: u64) -> StepTrace {
        let at = self.events.partition_point(|e| e.step < step);
        StepTrace {
            events: self.events[at..].to_vec(),
        }
    }

    /// Step index of the last recorded event, if any.
    pub fn last_step(&self) -> Option<u64> {
        self.events.last().map(|e| e.step)
    }

    /// Serialize to the compressed artifact format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(self.events.len() * 5 + 4);
        wire::put_varint(&mut body, self.events.len() as u64);
        let (mut step, mut round) = (0u64, 0u64);
        for e in &self.events {
            wire::put_varint(&mut body, e.step - step);
            wire::put_varint(&mut body, e.round - round);
            wire::put_varint(&mut body, e.process as u64);
            wire::put_varint(&mut body, e.action as u64);
            step = e.step;
            round = e.round;
        }
        let mut out = Vec::with_capacity(body.len() + 14);
        out.extend_from_slice(&MAGIC);
        wire::put_u16(&mut out, VERSION);
        wire::put_u64(&mut out, wire::checksum64(&body));
        out.extend_from_slice(&body);
        out
    }

    /// Parse and verify an artifact produced by [`StepTrace::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceDecodeError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(MAGIC.len()).ok_or(TraceDecodeError::Truncated)?;
        if magic != MAGIC {
            return Err(TraceDecodeError::BadMagic);
        }
        let version = r.u16().ok_or(TraceDecodeError::Truncated)?;
        if version != VERSION {
            return Err(TraceDecodeError::UnsupportedVersion(version));
        }
        let expected = r.u64().ok_or(TraceDecodeError::Truncated)?;
        let body = r.take(r.remaining()).expect("remaining take");
        if wire::checksum64(body) != expected {
            return Err(TraceDecodeError::ChecksumMismatch);
        }
        let mut b = Reader::new(body);
        let count = b.varint().ok_or(TraceDecodeError::Truncated)?;
        if count > body.len() as u64 {
            // Each event costs ≥ 4 bytes encoded; a count beyond the body
            // length is corrupt even before we hit the end.
            return Err(TraceDecodeError::Truncated);
        }
        let mut events = Vec::with_capacity(count as usize);
        let (mut step, mut round) = (0u64, 0u64);
        for _ in 0..count {
            let ds = b.varint().ok_or(TraceDecodeError::Truncated)?;
            let dr = b.varint().ok_or(TraceDecodeError::Truncated)?;
            let process = b.varint().ok_or(TraceDecodeError::Truncated)?;
            let action = b.varint().ok_or(TraceDecodeError::Truncated)?;
            step = step.checked_add(ds).ok_or(TraceDecodeError::Overflow)?;
            round = round.checked_add(dr).ok_or(TraceDecodeError::Overflow)?;
            events.push(TraceEvent {
                step,
                round,
                process: usize::try_from(process).map_err(|_| TraceDecodeError::Overflow)?,
                action: usize::try_from(action).map_err(|_| TraceDecodeError::Overflow)?,
            });
        }
        if !b.is_empty() {
            return Err(TraceDecodeError::Truncated);
        }
        Ok(StepTrace { events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        let mut v = Vec::new();
        let mut step = 0;
        for i in 0..500u64 {
            step += i % 3; // repeated steps (several actions per step) and gaps
            v.push(TraceEvent {
                step,
                round: step / 7,
                process: (i % 13) as usize,
                action: (i % 5) as usize,
            });
        }
        v
    }

    #[test]
    fn roundtrips_bit_identical() {
        let t = StepTrace::from_events(sample_events());
        let bytes = t.to_bytes();
        assert_eq!(StepTrace::from_bytes(&bytes).unwrap(), t);
        // Compression: well under the 32 B/event in-memory footprint.
        assert!(
            bytes.len() < t.len() * 8,
            "{} bytes for {} events",
            bytes.len(),
            t.len()
        );
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = StepTrace::default();
        assert_eq!(StepTrace::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn since_slices_at_the_step_boundary() {
        let t = StepTrace::from_events(sample_events());
        let cut = 100;
        let suffix = t.since(cut);
        assert!(suffix.events().iter().all(|e| e.step >= cut));
        assert_eq!(
            t.len(),
            suffix.len() + t.events().iter().filter(|e| e.step < cut).count()
        );
    }

    #[test]
    fn corruption_fails_closed() {
        let t = StepTrace::from_events(sample_events());
        let bytes = t.to_bytes();
        for cut in (0..bytes.len()).step_by(7) {
            assert!(StepTrace::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut b = bytes.clone();
        let last = b.len() - 1;
        b[last] ^= 0x10;
        assert_eq!(
            StepTrace::from_bytes(&b),
            Err(TraceDecodeError::ChecksumMismatch)
        );
    }
}
