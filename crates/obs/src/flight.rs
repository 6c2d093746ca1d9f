//! The flight recorder: a bounded ring of structured operational events.
//!
//! Counters say *how often*; the flight recorder says *what happened,
//! when, in what order* — the last N ejections, re-admissions, guard
//! verdicts (with their EER / min-Cavg deltas), generation swaps,
//! rollbacks, sheds, and deadline expiries. The ring is deliberately
//! small and bounded: it is a black box for the crash report and the
//! post-incident drill, not an event log.
//!
//! Events are drainable over the wire (protocol tag `REQ_FLIGHT` in
//! `lre-serve`) and dumped to stderr when the process panics
//! ([`install_panic_dump`]), so a replica that dies mid-rollout leaves
//! its last decisions on the console CI captures.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A backend was ejected from rotation (detail: its address).
pub const EV_EJECT: u8 = 1;
/// An ejected backend passed its probe and re-entered rotation.
pub const EV_READMIT: u8 = 2;
/// A candidate bundle passed the guard (`x` = EER delta, `y` = min-Cavg
/// delta, both candidate − parent).
pub const EV_GUARD_ACCEPT: u8 = 3;
/// A candidate bundle failed the guard (same delta payload).
pub const EV_GUARD_REJECT: u8 = 4;
/// A new model generation was installed (`a` = generation, `b` =
/// bundle checksum).
pub const EV_SWAP: u8 = 5;
/// A previous generation was reinstalled (`a` = generation after).
pub const EV_ROLLBACK: u8 = 6;
/// A request was shed unscored (queue full or admission cap).
pub const EV_SHED: u8 = 7;
/// An accepted request expired before a worker reached it (`a` = its
/// trace id).
pub const EV_DEADLINE: u8 = 8;
// Kind 9 (`wal_seal`) is retired, not renumbered.
/// Lineage garbage collection reclaimed state (`a` = generations
/// removed, `b` = bytes reclaimed).
pub const EV_WAL_GC: u8 = 10;
/// Crash recovery replayed a write-ahead log (`a` = records replayed,
/// `b` = torn tail records skipped).
pub const EV_WAL_RECOVER: u8 = 11;
/// A scorer panicked under an engine worker; the request failed with a
/// typed reply and the worker lives on (`a` = the request's trace id).
pub const EV_PANIC: u8 = 12;
/// An adaptation coordinator promoted a candidate to every replica it
/// drives (`a` = the replicas' lowest generation after, `b` = bundle
/// checksum, `x` / `y` = the guard deltas). Each replica's install is its
/// own [`EV_SWAP`].
pub const EV_PROMOTE: u8 = 13;
/// An adaptation cycle could not read its guard set back as it was at
/// start-up — the file is gone, damaged or replaced — and ended failed
/// with no verdict (detail: the guard path and the error).
pub const EV_GUARD_FAILED: u8 = 14;
/// An adaptation cycle could not read its parent bundle's file back as
/// the container it installed — gone, damaged or replaced — or could not
/// splice the candidate from it, and ended failed with nothing installed
/// (detail: the parent path and the error, `a` = records drained).
pub const EV_BUNDLE_FAILED: u8 = 15;

/// Stable human name for an event kind (`"unknown"` for anything else,
/// so a newer peer's events still print).
pub fn event_name(kind: u8) -> &'static str {
    match kind {
        EV_EJECT => "eject",
        EV_READMIT => "readmit",
        EV_GUARD_ACCEPT => "guard_accept",
        EV_GUARD_REJECT => "guard_reject",
        EV_SWAP => "swap",
        EV_ROLLBACK => "rollback",
        EV_SHED => "shed",
        EV_DEADLINE => "deadline",
        EV_WAL_GC => "wal_gc",
        EV_WAL_RECOVER => "wal_recover",
        EV_PANIC => "panic",
        EV_PROMOTE => "promote",
        EV_GUARD_FAILED => "guard_failed",
        EV_BUNDLE_FAILED => "bundle_failed",
        _ => "unknown",
    }
}

/// One recorded event. `a`/`b` are kind-specific integers and
/// `x`/`y` kind-specific floats (see the `EV_*` docs); unused fields
/// are zero.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightEvent {
    /// Monotonic sequence number (never reset, so a drained reader can
    /// detect ring overflow as a seq gap).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub at_us: u64,
    pub kind: u8,
    /// Free-form context (a backend address, a stage name); bounded by
    /// the writer, never parsed.
    pub detail: String,
    pub a: u64,
    pub b: u64,
    pub x: f64,
    pub y: f64,
}

impl FlightEvent {
    /// The stable one-line form used by the stderr dump and
    /// `lre-client --flight` (CI greps this).
    pub fn render(&self) -> String {
        format!(
            "flight: seq={} t_us={} kind={} detail={} a={} b={} x={:.6} y={:.6}",
            self.seq,
            self.at_us,
            event_name(self.kind),
            if self.detail.is_empty() {
                "-"
            } else {
                &self.detail
            },
            self.a,
            self.b,
            self.x,
            self.y,
        )
    }
}

/// The bounded event ring. Recording takes one short mutex; events are
/// rare (ejections, swaps, sheds), never per-request-success.
pub struct FlightRecorder {
    start: Instant,
    seq: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<FlightEvent>>,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events (clamped to
    /// ≥ 1); older events are overwritten, their seq numbers leaving a
    /// visible gap.
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            start: Instant::now(),
            seq: AtomicU64::new(0),
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Record one event. `detail` is truncated at 256 bytes so a caller
    /// can never bloat the ring.
    pub fn record(&self, kind: u8, detail: &str, a: u64, b: u64, x: f64, y: f64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let at_us = self.start.elapsed().as_micros() as u64;
        let mut detail = detail.to_string();
        if detail.len() > 256 {
            let mut cut = 256;
            while !detail.is_char_boundary(cut) {
                cut -= 1;
            }
            detail.truncate(cut);
        }
        let ev = FlightEvent {
            seq,
            at_us,
            kind,
            detail,
            a,
            b,
            x,
            y,
        };
        let mut ring = self.ring.lock().expect("flight ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(ev);
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight ring poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (buffered + overwritten).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Copy the buffered events, oldest first, leaving the ring intact.
    pub fn peek(&self) -> Vec<FlightEvent> {
        self.ring
            .lock()
            .expect("flight ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Take the buffered events, oldest first, emptying the ring.
    pub fn drain(&self) -> Vec<FlightEvent> {
        self.ring
            .lock()
            .expect("flight ring poisoned")
            .drain(..)
            .collect()
    }

    /// Print every buffered event to stderr (the panic path; also useful
    /// at orderly shutdown).
    pub fn dump_to_stderr(&self) {
        for ev in self.peek() {
            eprintln!("{}", ev.render());
        }
    }
}

/// Chain a panic hook that dumps the recorder to stderr after the
/// default hook has printed the panic itself. Call once per process.
pub fn install_panic_dump(recorder: &Arc<FlightRecorder>) {
    let recorder = Arc::clone(recorder);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        prev(info);
        eprintln!("flight recorder ({} events buffered):", recorder.len());
        recorder.dump_to_stderr();
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_seq_is_monotonic() {
        let r = FlightRecorder::new(3);
        for i in 0..5u64 {
            r.record(EV_SHED, "q", i, 0, 0.0, 0.0);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 5);
        let evs = r.peek();
        // Oldest two were overwritten: the survivors are seq 2, 3, 4.
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(evs.iter().map(|e| e.a).collect::<Vec<_>>(), [2, 3, 4]);
    }

    #[test]
    fn drain_empties_peek_does_not() {
        let r = FlightRecorder::new(8);
        r.record(EV_EJECT, "127.0.0.1:7713", 0, 0, 0.0, 0.0);
        assert_eq!(r.peek().len(), 1);
        assert_eq!(r.len(), 1);
        let drained = r.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].kind, EV_EJECT);
        assert_eq!(drained[0].detail, "127.0.0.1:7713");
        assert!(r.is_empty());
        // Seq keeps counting across the drain.
        r.record(EV_READMIT, "127.0.0.1:7713", 0, 0, 0.0, 0.0);
        assert_eq!(r.peek()[0].seq, 1);
    }

    #[test]
    fn detail_is_truncated() {
        let r = FlightRecorder::new(2);
        let long = "x".repeat(1000);
        r.record(EV_SWAP, &long, 1, 2, 0.5, -0.5);
        assert_eq!(r.peek()[0].detail.len(), 256);
    }

    #[test]
    fn render_is_stable_and_greppable() {
        let r = FlightRecorder::new(2);
        r.record(EV_GUARD_REJECT, "cand", 4, 9, 0.03125, -0.5);
        let line = r.peek()[0].render();
        assert!(line.starts_with("flight: seq=0 t_us="));
        assert!(line.contains(" kind=guard_reject detail=cand a=4 b=9 x=0.031250 y=-0.500000"));
        let empty = FlightEvent {
            seq: 1,
            at_us: 2,
            kind: EV_DEADLINE,
            detail: String::new(),
            a: 0,
            b: 0,
            x: 0.0,
            y: 0.0,
        };
        assert!(empty.render().contains("kind=deadline detail=- "));
    }

    #[test]
    fn event_names_cover_all_kinds() {
        for kind in [
            EV_EJECT,
            EV_READMIT,
            EV_GUARD_ACCEPT,
            EV_GUARD_REJECT,
            EV_SWAP,
            EV_ROLLBACK,
            EV_SHED,
            EV_DEADLINE,
            EV_WAL_GC,
            EV_WAL_RECOVER,
            EV_PANIC,
            EV_PROMOTE,
            EV_GUARD_FAILED,
            EV_BUNDLE_FAILED,
        ] {
            assert_ne!(event_name(kind), "unknown");
        }
        assert_eq!(event_name(0), "unknown");
        assert_eq!(event_name(9), "unknown");
        assert_eq!(event_name(200), "unknown");
    }
}
