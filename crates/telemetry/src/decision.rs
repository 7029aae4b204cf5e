//! Structured decision records: the control plane's audit trail.
//!
//! §4 of the paper asks how tenants can *trust* the cloud; metrics say
//! what happened, spans say when — decision records say **why**. Every
//! time the scheduler or a resource pool considers a candidate (a
//! device, a server, a rack) it can append one record stating whether
//! the candidate was accepted and, if not, the reason class. The
//! `udc-trace` tool replays these to answer "why did module X land on
//! server Y and not Z".
//!
//! The log is a bounded ring like the flight recorder: old records are
//! evicted (counted, never silently) so a long-running control plane
//! cannot grow without bound.

use crate::ring::Ring;
use crate::{Micros, TraceCtx};

/// Why a candidate was accepted or rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReasonCode {
    /// Candidate won: it was selected for the allocation.
    Accepted,
    /// Not enough free capacity on the candidate.
    Capacity,
    /// Candidate lost on rack/locality preference.
    Locality,
    /// Tenant policy scored the candidate lower (or forbade it).
    Policy,
    /// Pruned before full evaluation (e.g. a segment-tree subtree
    /// whose per-dimension maximum could not fit the demand).
    Prune,
    /// Candidate could not satisfy an exclusivity/isolation demand.
    Exclusivity,
    /// Rejected to preserve failure independence (replica anti-affinity).
    FailureDomain,
    /// Allocation lost to a device crash and freed by the repair loop.
    Evicted,
    /// Candidate excluded because its device is currently crashed.
    CrashExcluded,
    /// Re-placement capacity exhausted; the module entered degraded mode.
    Degraded,
    /// Admission denied: the tenant's plan quota cannot cover the
    /// requested resources (economic denial, audited like capacity).
    QuotaExceeded,
    /// Admission denied or module evicted because the tenant's account
    /// is suspended (overdue past its grace period).
    Suspended,
    /// A spot-market bid lost the auction to a higher bidder.
    Outbid,
    /// A write or isolate launch presented a stale fencing epoch: the
    /// module was re-placed (the presenter is a zombie replica, e.g. on
    /// the far side of a healed partition) and the claim was rejected.
    Fenced,
    /// The module's device missed a heartbeat lease: held out of service
    /// (warm instances retained, no eviction) pending confirmation or
    /// exoneration — the lease detector's reversible middle state.
    Suspected,
}

impl ReasonCode {
    /// Every reason code, in declaration order. Exporters iterate this
    /// so a newly added variant cannot be silently missed (see the
    /// exhaustiveness test below).
    pub const ALL: [ReasonCode; 15] = [
        ReasonCode::Accepted,
        ReasonCode::Capacity,
        ReasonCode::Locality,
        ReasonCode::Policy,
        ReasonCode::Prune,
        ReasonCode::Exclusivity,
        ReasonCode::FailureDomain,
        ReasonCode::Evicted,
        ReasonCode::CrashExcluded,
        ReasonCode::Degraded,
        ReasonCode::QuotaExceeded,
        ReasonCode::Suspended,
        ReasonCode::Outbid,
        ReasonCode::Fenced,
        ReasonCode::Suspected,
    ];

    /// Stable lower-snake name used in JSON exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ReasonCode::Accepted => "accepted",
            ReasonCode::Capacity => "capacity",
            ReasonCode::Locality => "locality",
            ReasonCode::Policy => "policy",
            ReasonCode::Prune => "prune",
            ReasonCode::Exclusivity => "exclusivity",
            ReasonCode::FailureDomain => "failure_domain",
            ReasonCode::Evicted => "evicted",
            ReasonCode::CrashExcluded => "crash_excluded",
            ReasonCode::Degraded => "degraded",
            ReasonCode::QuotaExceeded => "quota_exceeded",
            ReasonCode::Suspended => "suspended",
            ReasonCode::Outbid => "outbid",
            ReasonCode::Fenced => "fenced",
            ReasonCode::Suspected => "suspected",
        }
    }

    /// Parses the stable export name back into a code.
    pub fn from_str_name(name: &str) -> Option<ReasonCode> {
        ReasonCode::ALL.iter().copied().find(|c| c.as_str() == name)
    }
}

/// One decision as reported by a call site (borrowed strings; the log
/// owns copies only if the hub is enabled).
#[derive(Clone, Debug)]
pub struct Decision<'a> {
    /// Trace this decision belongs to, when the request path carries one.
    pub ctx: Option<TraceCtx>,
    /// Which stage decided, e.g. `"sched.place_task"` or `"hal.alloc"`.
    pub stage: &'a str,
    /// The module (or demand) being placed.
    pub module: &'a str,
    /// The candidate considered, e.g. a device or server id.
    pub candidate: &'a str,
    /// Whether the candidate was selected.
    pub accepted: bool,
    /// Reason class for the outcome.
    pub reason: ReasonCode,
    /// Policy score, when the decision was score-driven.
    pub score: Option<i64>,
    /// Free-form detail, e.g. `"free=2 needed=4"`.
    pub detail: String,
}

/// One recorded decision (owned, exported to JSON).
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionRecord {
    /// Arrival order under the recording hub (re-sequenced on absorb).
    pub seq: u64,
    /// Trace id, when the request path carried a [`TraceCtx`].
    pub trace: Option<u64>,
    /// Simulated timestamp.
    pub at_us: Micros,
    /// Deciding stage.
    pub stage: String,
    /// Module being placed.
    pub module: String,
    /// Candidate considered.
    pub candidate: String,
    /// Whether the candidate won.
    pub accepted: bool,
    /// Reason class.
    pub reason: ReasonCode,
    /// Policy score, when score-driven.
    pub score: Option<i64>,
    /// Free-form detail.
    pub detail: String,
}

/// Bounded ring of decision records.
pub(crate) struct DecisionLog {
    pub ring: Ring<DecisionRecord>,
}

impl DecisionLog {
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Ring::new(capacity),
        }
    }

    pub fn record(&mut self, d: Decision<'_>, at: Micros) {
        self.ring.push_with(|seq| DecisionRecord {
            seq,
            trace: d.ctx.map(|c| c.trace_id),
            at_us: at,
            stage: d.stage.to_string(),
            module: d.module.to_string(),
            candidate: d.candidate.to_string(),
            accepted: d.accepted,
            reason: d.reason,
            score: d.score,
            detail: d.detail,
        });
    }

    /// Appends `other`'s records, re-sequencing under this log's
    /// counter (timestamps kept) and shifting trace ids by
    /// `trace_offset` to match the span-store remap.
    pub fn absorb(&mut self, other: &DecisionLog, trace_offset: u64) {
        self.ring.absorb(&other.ring, |r, seq| DecisionRecord {
            seq,
            trace: r.trace.map(|t| t + trace_offset),
            ..r.clone()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk<'a>(
        stage: &'a str,
        candidate: &'a str,
        accepted: bool,
        reason: ReasonCode,
    ) -> Decision<'a> {
        Decision {
            ctx: None,
            stage,
            module: "m0",
            candidate,
            accepted,
            reason,
            score: None,
            detail: String::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut log = DecisionLog::new(2);
        log.record(mk("s", "a", false, ReasonCode::Capacity), 1);
        log.record(mk("s", "b", false, ReasonCode::Policy), 2);
        log.record(mk("s", "c", true, ReasonCode::Accepted), 3);
        let got: Vec<_> = log.ring.records().map(|r| r.candidate.clone()).collect();
        assert_eq!(got, vec!["b", "c"]);
        assert_eq!(log.ring.dropped(), 1);
        // Sequence numbers keep counting past evictions.
        assert_eq!(log.ring.records().last().unwrap().seq, 2);
    }

    #[test]
    fn absorb_resequences_and_offsets_traces() {
        let mut dst = DecisionLog::new(16);
        dst.record(mk("s", "a", true, ReasonCode::Accepted), 1);

        let mut src = DecisionLog::new(16);
        let mut d = mk("s", "b", false, ReasonCode::Locality);
        d.ctx = Some(TraceCtx {
            trace_id: 0,
            span: 3,
        });
        src.record(d, 9);

        dst.absorb(&src, 5);
        let recs: Vec<_> = dst.ring.records().cloned().collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].seq, 1, "re-sequenced under dst counter");
        assert_eq!(recs[1].at_us, 9, "timestamp preserved");
        assert_eq!(recs[1].trace, Some(5), "trace id shifted");
    }

    #[test]
    fn reason_codes_are_exhaustive_and_round_trip() {
        // `ALL` must cover every variant exactly once. The match below
        // fails to compile when a variant is added, forcing both `ALL`
        // and `as_str` to be extended in the same change.
        for code in ReasonCode::ALL {
            match code {
                ReasonCode::Accepted
                | ReasonCode::Capacity
                | ReasonCode::Locality
                | ReasonCode::Policy
                | ReasonCode::Prune
                | ReasonCode::Exclusivity
                | ReasonCode::FailureDomain
                | ReasonCode::Evicted
                | ReasonCode::CrashExcluded
                | ReasonCode::Degraded
                | ReasonCode::QuotaExceeded
                | ReasonCode::Suspended
                | ReasonCode::Outbid
                | ReasonCode::Fenced
                | ReasonCode::Suspected => {}
            }
        }
        // Names are unique and round-trip through the parser.
        let mut seen = std::collections::BTreeSet::new();
        for code in ReasonCode::ALL {
            assert!(
                seen.insert(code.as_str()),
                "duplicate name {}",
                code.as_str()
            );
            assert_eq!(ReasonCode::from_str_name(code.as_str()), Some(code));
        }
        assert_eq!(seen.len(), ReasonCode::ALL.len());
        assert_eq!(ReasonCode::from_str_name("nonsense"), None);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut log = DecisionLog::new(0);
        log.record(mk("s", "a", true, ReasonCode::Accepted), 1);
        assert_eq!(log.ring.records().count(), 0);
        assert_eq!(log.ring.dropped(), 1);
    }
}
