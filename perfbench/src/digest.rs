//! Order-sensitive FNV-1a digests of simulated statistics.
//!
//! A digest folds every simulated count a runner call reports into one
//! 64-bit value, so "the simulation did exactly the same thing" becomes one
//! equality test: pass against pass (determinism), timed pass against the
//! serial check pass (thread independence), and the default seed against
//! the value recorded in `golden_digests.txt`.

use rxl_link::LinkStats;
use rxl_load::LatencyStats;
use rxl_switch::SwitchStats;
use rxl_transport::FailureCounts;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a accumulator over little-endian `u64` words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// The folded value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Folds one word.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds a float by its bit pattern (exact, not rounded).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds every audit counter.
    pub fn failures(&mut self, f: &FailureCounts) -> &mut Self {
        self.u64(f.data_failures)
            .u64(f.ordering_failures)
            .u64(f.duplicate_deliveries)
            .u64(f.lost_messages)
            .u64(f.clean_deliveries)
    }

    /// Folds every link-layer counter.
    pub fn links(&mut self, l: &LinkStats) -> &mut Self {
        self.u64(l.flits_sent)
            .u64(l.flits_retransmitted)
            .u64(l.standalone_acks_sent)
            .u64(l.idle_flits_sent)
            .u64(l.flits_accepted)
            .u64(l.flits_rejected)
            .u64(l.flits_discarded_in_replay)
            .u64(l.nacks_sent)
            .u64(l.acks_sent)
            .u64(l.unchecked_sequence_accepts)
            .u64(l.explicit_sequence_mismatches)
            .u64(l.ecrc_rejections)
    }

    /// Folds every switch counter.
    pub fn switches(&mut self, s: &SwitchStats) -> &mut Self {
        self.u64(s.flits_in)
            .u64(s.flits_forwarded)
            .u64(s.flits_corrected)
            .u64(s.flits_dropped_uncorrectable)
            .u64(s.flits_dropped_no_route)
            .u64(s.flits_dropped_queue_full)
            .u64(s.flits_internally_corrupted)
    }

    /// Folds a latency summary (count, exact mean and max, percentiles).
    pub fn latency(&mut self, s: &LatencyStats) -> &mut Self {
        self.u64(s.count)
            .f64(s.mean)
            .u64(s.p50)
            .u64(s.p90)
            .u64(s.p99)
            .u64(s.p999)
            .u64(s.max)
    }
}

/// Looks up `workload`'s recorded default-seed digest in the text of
/// `golden_digests.txt` (lines of `<workload> <hex digest>`; `#` starts a
/// comment).
pub fn recorded(table: &str, workload: &str) -> Option<u64> {
    table
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter_map(|l| l.split_once(char::is_whitespace))
        .find(|(name, _)| *name == workload)
        .and_then(|(_, hex)| u64::from_str_radix(hex.trim().trim_start_matches("0x"), 16).ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::new();
        a.u64(1).u64(2);
        let mut b = Digest::new();
        b.u64(2).u64(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn recorded_parses_table_lines() {
        let table = "# comment\ndrain_pod 0x00ff\npath_2hop ab  # trailing\n";
        assert_eq!(recorded(table, "drain_pod"), Some(0xff));
        assert_eq!(recorded(table, "path_2hop"), Some(0xab));
        assert_eq!(recorded(table, "load_ladder"), None);
    }
}
