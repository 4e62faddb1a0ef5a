//! Execution tracing for the isolation auditor (`planet-audit`).
//!
//! The protocol actors emit one [`TraceEvent`] per isolation-relevant step —
//! a coordinator observing committed reads, a master minting a committed
//! version, a replica installing one by state transfer, a transaction
//! reaching its terminal outcome. The auditor replays the event stream into
//! an Adya-style dependency graph and searches it for unserializable cycles.
//!
//! Design constraints, in order:
//!
//! * **Deterministic.** Every timestamp is the engine's logical clock
//!   (`ctx.now()`); no wall clock escapes into the stream, so a traced sim
//!   run replays bit-identically and `mck` can trace inside its DFS.
//! * **Cheap when off.** The [`Trace`] handle lives inside
//!   [`ClusterConfig`](crate::ClusterConfig) (every actor already clones the
//!   config), and all emission sites are guarded by [`Trace::is_on`]. With
//!   no sink attached ([`Trace::off`], the default) that is one `Option`
//!   check per site, and no event is constructed.
//! * **Digest-neutral.** `mck_digest` hashes protocol state, never the
//!   config, so attaching a sink cannot perturb model-checker fingerprints.
//!
//! Events cross process boundaries (a live `planetd --trace` per site) as
//! plain text lines — [`TraceEvent::to_line`] / [`TraceEvent::parse_line`] —
//! so traces from several processes can be concatenated and fed to the
//! auditor in any order; the auditor keys everything by (txn, key, version),
//! not by file position.

use std::fmt;

use planet_sim::{SimTime, SiteId};
use planet_storage::{Key, TxnId, VersionNo};

use crate::messages::Outcome;

/// One isolation-relevant step of an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The coordinator completed a transaction's reads: `txn` observed
    /// `key` at committed `version`. Emitted once per touched key (written
    /// keys are read too — the option's base version), at the coordinator's
    /// site.
    Read {
        /// The reading transaction.
        txn: TxnId,
        /// The key read.
        key: Key,
        /// Committed version observed (0 = never written).
        version: VersionNo,
        /// The coordinator's site.
        site: SiteId,
        /// The key's replica shard.
        shard: usize,
        /// Logical time of the observation.
        at: SimTime,
    },
    /// The key's master committed a new version on behalf of `txn` — the
    /// authoritative version-order event (masters serialize all commits to
    /// their keys).
    Commit {
        /// The writing transaction.
        txn: TxnId,
        /// The key written.
        key: Key,
        /// The new committed version number.
        version: VersionNo,
        /// The master's site.
        site: SiteId,
        /// The key's replica shard.
        shard: usize,
        /// Logical commit time at the master.
        at: SimTime,
    },
    /// A non-master replica installed a committed version by `Apply` state
    /// transfer (the `Store`/`Wal` install path). Redundant with the
    /// master's `Commit` for graph building, but it timestamps when each
    /// site's copy converged — the signal the fractured-read analysis of
    /// local reads rests on.
    Install {
        /// The transaction whose write was installed.
        txn: TxnId,
        /// The key.
        key: Key,
        /// The installed version number.
        version: VersionNo,
        /// The installing replica's site.
        site: SiteId,
        /// The key's replica shard.
        shard: usize,
        /// Logical install time.
        at: SimTime,
    },
    /// The coordinator reached a terminal outcome for `txn`.
    Finish {
        /// The transaction.
        txn: TxnId,
        /// Commit / abort / timeout.
        outcome: Outcome,
        /// Logical decision time.
        at: SimTime,
    },
}

impl TraceEvent {
    /// The transaction the event belongs to.
    pub fn txn(&self) -> TxnId {
        match self {
            TraceEvent::Read { txn, .. }
            | TraceEvent::Commit { txn, .. }
            | TraceEvent::Install { txn, .. }
            | TraceEvent::Finish { txn, .. } => *txn,
        }
    }

    /// The event's logical timestamp.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::Read { at, .. }
            | TraceEvent::Commit { at, .. }
            | TraceEvent::Install { at, .. }
            | TraceEvent::Finish { at, .. } => *at,
        }
    }

    /// Serialize to one text line (no trailing newline):
    ///
    /// ```text
    /// R t0.5 <key> <version> <site> <shard> <at_us>
    /// C t0.5 <key> <version> <site> <shard> <at_us>
    /// I t0.5 <key> <version> <site> <shard> <at_us>
    /// F t0.5 <C|A|T> <at_us>
    /// ```
    ///
    /// Keys are percent-escaped so whitespace in a key cannot break the
    /// field structure.
    pub fn to_line(&self) -> String {
        match self {
            TraceEvent::Read {
                txn,
                key,
                version,
                site,
                shard,
                at,
            } => format!(
                "R {txn} {} {version} {} {shard} {}",
                escape_key(key),
                site.0,
                at.as_micros()
            ),
            TraceEvent::Commit {
                txn,
                key,
                version,
                site,
                shard,
                at,
            } => format!(
                "C {txn} {} {version} {} {shard} {}",
                escape_key(key),
                site.0,
                at.as_micros()
            ),
            TraceEvent::Install {
                txn,
                key,
                version,
                site,
                shard,
                at,
            } => format!(
                "I {txn} {} {version} {} {shard} {}",
                escape_key(key),
                site.0,
                at.as_micros()
            ),
            TraceEvent::Finish { txn, outcome, at } => {
                let o = match outcome {
                    Outcome::Committed => "C",
                    Outcome::Aborted => "A",
                    Outcome::TimedOut => "T",
                };
                format!("F {txn} {o} {}", at.as_micros())
            }
        }
    }

    /// Parse a line produced by [`TraceEvent::to_line`]. Returns `None` on
    /// malformed input (blank lines and `#` comments included), so a
    /// truncated trace file degrades to a shorter history rather than an
    /// error.
    pub fn parse_line(line: &str) -> Option<TraceEvent> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let mut f = line.split_ascii_whitespace();
        let kind = f.next()?;
        let txn = parse_txn(f.next()?)?;
        match kind {
            "R" | "C" | "I" => {
                let key = unescape_key(f.next()?);
                let version: VersionNo = f.next()?.parse().ok()?;
                let site = SiteId(f.next()?.parse().ok()?);
                let shard: usize = f.next()?.parse().ok()?;
                let at = SimTime::from_micros(f.next()?.parse().ok()?);
                Some(match kind {
                    "R" => TraceEvent::Read {
                        txn,
                        key,
                        version,
                        site,
                        shard,
                        at,
                    },
                    "C" => TraceEvent::Commit {
                        txn,
                        key,
                        version,
                        site,
                        shard,
                        at,
                    },
                    _ => TraceEvent::Install {
                        txn,
                        key,
                        version,
                        site,
                        shard,
                        at,
                    },
                })
            }
            "F" => {
                let outcome = match f.next()? {
                    "C" => Outcome::Committed,
                    "A" => Outcome::Aborted,
                    "T" => Outcome::TimedOut,
                    _ => return None,
                };
                let at = SimTime::from_micros(f.next()?.parse().ok()?);
                Some(TraceEvent::Finish { txn, outcome, at })
            }
            _ => None,
        }
    }
}

fn escape_key(key: &Key) -> String {
    let s = key.as_str();
    if !s.bytes().any(|b| b == b' ' || b == b'%' || b == b'\n') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 4);
    for b in s.bytes() {
        match b {
            b' ' => out.push_str("%20"),
            b'%' => out.push_str("%25"),
            b'\n' => out.push_str("%0A"),
            _ => out.push(b as char),
        }
    }
    out
}

fn unescape_key(s: &str) -> Key {
    if !s.contains('%') {
        return Key::new(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut bytes = s.bytes();
    while let Some(b) = bytes.next() {
        if b == b'%' {
            let hi = bytes.next().unwrap_or(b'0');
            let lo = bytes.next().unwrap_or(b'0');
            let hex = |c: u8| (c as char).to_digit(16).unwrap_or(0) as u8;
            out.push((hex(hi) * 16 + hex(lo)) as char);
        } else {
            out.push(b as char);
        }
    }
    Key::new(out)
}

fn parse_txn(s: &str) -> Option<TxnId> {
    let rest = s.strip_prefix('t')?;
    let (site, seq) = rest.split_once('.')?;
    Some(TxnId::new(site.parse().ok()?, seq.parse().ok()?))
}

/// Where trace events go. Implementations must be internally synchronized:
/// in live mode every replica/coordinator thread of a process shares one
/// sink.
pub trait TraceSink: Send + Sync {
    /// Record one event.
    fn record(&self, event: TraceEvent);
}

/// A cheaply cloneable handle to an optional [`TraceSink`], carried inside
/// [`ClusterConfig`](crate::ClusterConfig) so it reaches every actor without
/// touching constructor signatures. [`Trace::off`] (the `Default`) records
/// nothing.
#[derive(Clone, Default)]
pub struct Trace {
    sink: Option<std::sync::Arc<dyn TraceSink>>,
}

impl Trace {
    /// A disabled handle (the default).
    pub fn off() -> Self {
        Trace::default()
    }

    /// A handle recording into `sink`.
    pub fn to(sink: std::sync::Arc<dyn TraceSink>) -> Self {
        Trace { sink: Some(sink) }
    }

    /// True if a sink is attached. Emission sites branch on this before
    /// constructing the event, so a disabled trace costs one null check.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    /// Record one event (no-op without a sink).
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(event);
        }
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_on() {
            f.write_str("Trace(on)")
        } else {
            f.write_str("Trace(off)")
        }
    }
}

/// An in-memory sink: events in arrival order behind a mutex. The sim-side
/// capture buffer (`planet-audit --run`, the mck predicate).
#[derive(Default)]
pub struct VecSink {
    events: std::sync::Mutex<Vec<TraceEvent>>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Drain all recorded events.
    pub fn take(&self) -> Vec<TraceEvent> {
        match self.events.lock() {
            Ok(mut g) => std::mem::take(&mut *g),
            Err(_) => Vec::new(),
        }
    }

    /// Copy the recorded events without draining.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        match self.events.lock() {
            Ok(g) => g.clone(),
            Err(_) => Vec::new(),
        }
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().map(|g| g.len()).unwrap_or(0)
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for VecSink {
    fn record(&self, event: TraceEvent) {
        if let Ok(mut g) = self.events.lock() {
            g.push(event);
        }
    }
}

/// A line-per-event file sink for live runs (`planetd --trace`).
/// Buffered; flushed on drop.
pub struct FileSink {
    writer: std::sync::Mutex<std::io::BufWriter<std::fs::File>>,
}

impl FileSink {
    /// Create (truncate) `path` and stream events into it.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(FileSink {
            writer: std::sync::Mutex::new(std::io::BufWriter::new(file)),
        })
    }

    /// Flush buffered lines to the OS.
    pub fn flush(&self) -> std::io::Result<()> {
        use std::io::Write;
        match self.writer.lock() {
            Ok(mut g) => g.flush(),
            Err(_) => Ok(()),
        }
    }
}

impl TraceSink for FileSink {
    fn record(&self, event: TraceEvent) {
        use std::io::Write;
        if let Ok(mut g) = self.writer.lock() {
            let _ = writeln!(g, "{}", event.to_line());
        }
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(e: TraceEvent) {
        let line = e.to_line();
        assert_eq!(TraceEvent::parse_line(&line), Some(e), "line = {line:?}");
    }

    #[test]
    fn line_codec_roundtrips_every_variant() {
        roundtrip(TraceEvent::Read {
            txn: TxnId::new(2, 17),
            key: Key::new("stock:42"),
            version: 3,
            site: SiteId(1),
            shard: 2,
            at: SimTime::from_micros(123_456),
        });
        roundtrip(TraceEvent::Commit {
            txn: TxnId::new(0, 0),
            key: Key::new("a"),
            version: 1,
            site: SiteId(0),
            shard: 0,
            at: SimTime::ZERO,
        });
        roundtrip(TraceEvent::Install {
            txn: TxnId::new(255, u64::MAX),
            key: Key::new("k"),
            version: u64::MAX,
            site: SiteId(255),
            shard: 31,
            at: SimTime::from_secs(9),
        });
        for outcome in [Outcome::Committed, Outcome::Aborted, Outcome::TimedOut] {
            roundtrip(TraceEvent::Finish {
                txn: TxnId::new(1, 5),
                outcome,
                at: SimTime::from_millis(7),
            });
        }
    }

    #[test]
    fn keys_with_spaces_and_percents_survive() {
        roundtrip(TraceEvent::Read {
            txn: TxnId::new(0, 1),
            key: Key::new("odd key %20 name"),
            version: 1,
            site: SiteId(0),
            shard: 0,
            at: SimTime::ZERO,
        });
    }

    #[test]
    fn malformed_lines_parse_to_none() {
        for line in [
            "",
            "# comment",
            "R",
            "R notatxn k 1 0 0 0",
            "F t0.1 X 0",
            "Z t0.1 k 1 0 0 0",
            "R t0.1 k notanumber 0 0 0",
        ] {
            assert_eq!(TraceEvent::parse_line(line), None, "line = {line:?}");
        }
    }

    #[test]
    fn accessors() {
        let e = TraceEvent::Finish {
            txn: TxnId::new(3, 9),
            outcome: Outcome::Committed,
            at: SimTime::from_micros(42),
        };
        assert_eq!(e.txn(), TxnId::new(3, 9));
        assert_eq!(e.at(), SimTime::from_micros(42));
    }

    #[test]
    fn vec_sink_records_in_order() {
        use std::sync::Arc;
        let sink = Arc::new(VecSink::new());
        let trace = Trace::to(sink.clone());
        assert!(trace.is_on());
        assert!(!Trace::off().is_on());
        for seq in 0..3 {
            trace.emit(TraceEvent::Finish {
                txn: TxnId::new(0, seq),
                outcome: Outcome::Committed,
                at: SimTime::from_micros(seq),
            });
        }
        assert_eq!(sink.len(), 3);
        let events = sink.take();
        assert_eq!(events.len(), 3);
        assert!(sink.is_empty());
        assert_eq!(events[2].txn(), TxnId::new(0, 2));
    }
}
