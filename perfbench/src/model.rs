//! The layer cost model: predicted host time of the check pass's serial
//! replay, to set against its measured time.
//!
//! * `path_2hop` is derived entirely from outside: each kernel's isolated
//!   ns/op ([`KernelCosts`]) times the operation counts the replay's link
//!   and switch statistics imply, per protocol.
//! * The fabric workloads use the engine self-profiler instead: the
//!   prediction is the sum of the slot-loop phase times.
//!
//! The leftover, `(measured - predicted) / measured`, is what the model does
//! not explain (idle emits, switch queues and delivery audits for the path;
//! trial construction and inputs, probes outside the slot-loop phases, audit
//! finalisation and timer overhead for the fabric).

use rxl_link::ProtocolVariant;

use crate::kernels::KernelCosts;
use crate::workload::Check;

/// Predicted nanoseconds of the check pass's replay.
pub fn predicted_ns(check: &Check, costs: &KernelCosts) -> f64 {
    if check.path_ops.is_empty() {
        return check.profile.total_nanos() as f64;
    }
    check
        .path_ops
        .iter()
        .map(|ops| {
            let (l, s) = (&ops.links, &ops.switches);
            let rxl = ops.variant == ProtocolVariant::Rxl;
            // Every emitted wire flit is encoded once and crosses the first
            // link; every forwarded flit crosses one more.
            let emitted = (l.flits_sent + l.flits_retransmitted) as f64;
            let encoded =
                (l.flits_sent + l.flits_retransmitted + l.standalone_acks_sent + l.nacks_sent)
                    as f64;
            let received = (l.flits_accepted + l.flits_rejected) as f64;
            let channel = encoded + s.flits_forwarded as f64;
            let (encode, receive, process) = if rxl {
                (costs.rxl_encode, costs.rx_receive, costs.switch_process)
            } else {
                (
                    costs.cxl_encode,
                    costs.rx_receive_cxl,
                    costs.switch_process_regen,
                )
            };
            emitted * costs.tx_emit
                + encoded * encode
                + received * receive
                + s.flits_in as f64 * process
                + channel * costs.channel_apply
        })
        .sum()
}

/// `(measured - predicted) / measured`.
pub fn residual_share(measured_ns: f64, predicted_ns: f64) -> f64 {
    if measured_ns <= 0.0 {
        return 0.0;
    }
    (measured_ns - predicted_ns) / measured_ns
}
