//! Isolated kernel timings: each layer's public hot-path function looped on
//! realistic inputs, reported as median nanoseconds per call.
//!
//! The inputs are real wire flits: a CXL and an RXL link endpoint pair
//! exchange a DataStream workload and the sender's protocol flits are
//! recorded. Each kernel loop is one traced span (`kernel.<name>`), and
//! its ns/op is the median over [`REPS`] repetitions.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rxl_crc::{Crc64, IsnCrc64, FLIT_CRC64};
use rxl_fec::InterleavedFec;
use rxl_flit::{CxlFlitCodec, Flit256, RxlFlitCodec, WireFlit};
use rxl_gf256::Gf256;
use rxl_link::{ChannelErrorModel, LinkConfig, LinkEndpoint, ProtocolVariant, TxEmission};
use rxl_sim::{request_stream, TrafficPattern};
use rxl_switch::{InternalErrorModel, LinkCrcMode, Switch, SwitchConfig};

use crate::stats::median;
use crate::trace::Tracer;

/// Repetitions per kernel; the reported cost is their median.
const REPS: usize = 7;

/// Messages the recording endpoint pair exchanges (one stream, below the
/// size at which message identities start to repeat).
const STREAM_MESSAGES: usize = 12_000;

/// Protocol flits one `tx_emit` repetition emits (below the replay
/// capacity, so every call emits).
const EMITS: usize = 200;

/// Bytes the flit CRC covers (header + payload).
const CRC_COVERED: usize = 242;

/// Median host nanoseconds per call of every timed kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelCosts {
    pub gf256_mul: f64,
    pub crc64: f64,
    pub isn_encode: f64,
    pub isn_verify: f64,
    pub fec_encode: f64,
    pub fec_decode_clean: f64,
    pub fec_decode_corrected: f64,
    pub cxl_encode: f64,
    pub cxl_decode: f64,
    pub rxl_encode: f64,
    pub rxl_decode: f64,
    /// `LinkEndpoint::receive` on in-order RXL wire flits.
    pub rx_receive: f64,
    /// `LinkEndpoint::receive` on in-order CXL wire flits.
    pub rx_receive_cxl: f64,
    /// `LinkEndpoint::receive_trusted` on in-order RXL flits.
    pub rx_trusted: f64,
    /// `LinkEndpoint::emit` of a new protocol flit (message packing and
    /// replay-buffer push).
    pub tx_emit: f64,
    /// `Switch::process_in_place`, pass-through CRC (RXL).
    pub switch_process: f64,
    /// `Switch::process_in_place`, CRC regenerate (CXL).
    pub switch_process_regen: f64,
    pub forward_clean: f64,
    /// `ChannelErrorModel::apply` at the `path_2hop` BER.
    pub channel_apply: f64,
}

/// One recorded protocol flit: logical flit, its sequence number, and its
/// encoded wire image.
struct Recorded {
    flit: Flit256,
    seq: u16,
    wire: WireFlit,
}

/// Runs an endpoint pair to quiescence over an ideal wire and records the
/// sender's first transmissions.
fn record_stream(variant: ProtocolVariant) -> Vec<Recorded> {
    let cfg = LinkConfig::cxl3_x16(variant);
    let mut tx = LinkEndpoint::new(cfg);
    let mut rx = LinkEndpoint::new(cfg);
    tx.enqueue_messages(request_stream(
        STREAM_MESSAGES,
        TrafficPattern::DataStream { cqids: 8 },
        0x5EED,
    ));
    let mut out = Vec::new();
    let mut now = 0.0;
    loop {
        now += cfg.flit_time_ns;
        let emission = tx.emit(now);
        if let Some(wire) = tx.encode_emission(&emission) {
            if let TxEmission::Protocol { flit, seq, .. } = &emission {
                out.push(Recorded {
                    flit: (**flit).clone(),
                    seq: *seq,
                    wire,
                });
            }
            rx.receive(&wire, now);
        }
        let back = rx.emit(now);
        if let Some(wire) = rx.encode_emission(&back) {
            tx.receive(&wire, now);
        }
        if emission.is_idle() && back.is_idle() && tx.is_quiescent() && rx.is_quiescent() {
            return out;
        }
    }
}

/// Times `reps` repetitions of `iters` calls (each repetition is a
/// `kernel.<name>` span) and returns the median ns per call. `prepare`
/// runs untimed before each repetition and hands its state to `body`.
fn time_kernel<S>(
    tracer: &mut Tracer,
    name: &'static str,
    iters: usize,
    mut prepare: impl FnMut() -> S,
    mut body: impl FnMut(&mut S, usize),
) -> f64 {
    let mut per_op = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut state = prepare();
        let t = Instant::now();
        tracer.span(name, |_| {
            for i in 0..iters {
                body(&mut state, i);
            }
        });
        per_op.push(t.elapsed().as_nanos() as f64 / iters as f64);
        black_box(&state);
    }
    median(&per_op)
}

/// Times every kernel (a `kernels` span around `kernel.*` spans).
pub fn measure(tracer: &mut Tracer) -> KernelCosts {
    let rxl = record_stream(ProtocolVariant::Rxl);
    let cxl = record_stream(ProtocolVariant::CxlPiggyback);
    tracer.span("kernels", |t| measure_with(t, &rxl, &cxl))
}

fn measure_with(t: &mut Tracer, rxl: &[Recorded], cxl: &[Recorded]) -> KernelCosts {
    let n = rxl.len();
    let fec = InterleavedFec::cxl_flit();
    let crc = Crc64::flit();
    let isn = IsnCrc64::new(FLIT_CRC64);
    let cxl_codec = CxlFlitCodec::new();
    let rxl_codec = RxlFlitCodec::new();
    let mut c = KernelCosts::default();

    let elems: Vec<Gf256> = rxl[0].wire.iter().map(|&b| Gf256::new(b | 1)).collect();
    c.gf256_mul = time_kernel(
        t,
        "kernel.gf256.mul",
        1 << 20,
        || Gf256::new(1),
        |acc, i| {
            *acc = black_box(*acc * elems[i & 0xFF]);
        },
    );

    c.crc64 = time_kernel(
        t,
        "kernel.crc.crc64",
        20_000,
        || 0u64,
        |acc, i| {
            *acc ^= crc.checksum(black_box(&rxl[i % n].wire[..CRC_COVERED]));
        },
    );
    let headers: Vec<[u8; 2]> = rxl.iter().map(|r| r.flit.header.to_bytes()).collect();
    let crcs: Vec<u64> = rxl
        .iter()
        .zip(&headers)
        .map(|(r, h)| isn.encode(h, &r.flit.payload, r.seq))
        .collect();
    c.isn_encode = time_kernel(
        t,
        "kernel.crc.isn_encode",
        20_000,
        || 0u64,
        |acc, i| {
            let r = &rxl[i % n];
            *acc ^= isn.encode(&headers[i % n], black_box(&r.flit.payload), r.seq);
        },
    );
    c.isn_verify = time_kernel(
        t,
        "kernel.crc.isn_verify",
        20_000,
        || 0usize,
        |ok, i| {
            let r = &rxl[i % n];
            *ok += usize::from(isn.verify(
                &headers[i % n],
                black_box(&r.flit.payload),
                r.seq,
                crcs[i % n],
            ));
        },
    );

    c.fec_encode = time_kernel(
        t,
        "kernel.fec.encode",
        20_000,
        || rxl[0].wire,
        |block, i| {
            block[..CRC_COVERED].copy_from_slice(&rxl[i % n].wire[..CRC_COVERED]);
            fec.encode_into(black_box(block));
        },
    );
    c.fec_decode_clean = time_kernel(
        t,
        "kernel.fec.decode_clean",
        20_000,
        || rxl[0].wire,
        |block, i| {
            *block = rxl[i % n].wire;
            black_box(fec.decode(block));
        },
    );
    // One corrupted symbol per flit (a different way each time) so every
    // decode takes the correcting path; the 256-byte copy is included.
    let corrupted: Vec<WireFlit> = rxl
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut w = r.wire;
            w[(i * 7) % CRC_COVERED] ^= 0x5A;
            w
        })
        .collect();
    c.fec_decode_corrected = time_kernel(
        t,
        "kernel.fec.decode_corrected",
        20_000,
        || rxl[0].wire,
        |block, i| {
            *block = corrupted[i % n];
            black_box(fec.decode(block));
        },
    );

    let nc = cxl.len();
    c.cxl_encode = time_kernel(
        t,
        "kernel.flit.cxl_encode",
        20_000,
        || (),
        |_, i| {
            black_box(cxl_codec.encode(black_box(&cxl[i % nc].flit)));
        },
    );
    c.cxl_decode = time_kernel(
        t,
        "kernel.flit.cxl_decode",
        20_000,
        || (),
        |_, i| {
            black_box(cxl_codec.decode(black_box(&cxl[i % nc].wire)));
        },
    );
    c.rxl_encode = time_kernel(
        t,
        "kernel.flit.rxl_encode",
        20_000,
        || (),
        |_, i| {
            let r = &rxl[i % n];
            black_box(rxl_codec.encode(black_box(&r.flit), r.seq));
        },
    );
    c.rxl_decode = time_kernel(
        t,
        "kernel.flit.rxl_decode",
        20_000,
        || (),
        |_, i| {
            let r = &rxl[i % n];
            black_box(rxl_codec.decode(black_box(&r.wire), r.seq));
        },
    );

    // Receive paths: a fresh receiver per repetition consumes the whole
    // recorded stream in order, so every flit is accepted and delivered.
    let rx_cfg = LinkConfig::cxl3_x16(ProtocolVariant::Rxl);
    c.rx_receive = time_kernel(
        t,
        "kernel.link.rx_receive",
        n,
        || LinkEndpoint::new(rx_cfg),
        |ep, i| {
            black_box(ep.receive(&rxl[i].wire, i as f64));
        },
    );
    let cxl_cfg = LinkConfig::cxl3_x16(ProtocolVariant::CxlPiggyback);
    c.rx_receive_cxl = time_kernel(
        t,
        "kernel.link.rx_receive_cxl",
        nc,
        || LinkEndpoint::new(cxl_cfg),
        |ep, i| {
            black_box(ep.receive(&cxl[i].wire, i as f64));
        },
    );
    c.rx_trusted = time_kernel(
        t,
        "kernel.link.rx_trusted",
        n,
        || LinkEndpoint::new(rx_cfg),
        |ep, i| {
            black_box(ep.receive_trusted(&rxl[i].flit, rxl[i].seq, i as f64));
        },
    );

    // Emission: a fresh endpoint with a full backlog emits protocol flits
    // until just short of its replay capacity (no ACKs come back).
    let backlog = request_stream(3_000, TrafficPattern::DataStream { cqids: 8 }, 0x5EED);
    c.tx_emit = time_kernel(
        t,
        "kernel.link.tx_emit",
        EMITS,
        || {
            let mut ep = LinkEndpoint::new(rx_cfg);
            ep.enqueue_messages(backlog.iter().copied());
            ep
        },
        |ep, i| {
            black_box(ep.emit(i as f64));
        },
    );

    // Clean flits are fixed points of the switch pipeline, so the same
    // buffer can be processed again without a copy.
    let switch = |crc_mode| {
        Switch::new(SwitchConfig {
            ports: 2,
            queue_capacity: 64,
            internal_error: InternalErrorModel::none(),
            crc_mode,
        })
    };
    let mut rng = StdRng::seed_from_u64(7);
    let mut wires: Vec<WireFlit> = rxl.iter().map(|r| r.wire).collect();
    c.switch_process = time_kernel(
        t,
        "kernel.switch.process",
        20_000,
        || switch(LinkCrcMode::Passthrough),
        |sw, i| {
            black_box(sw.process_in_place(&mut wires[i % n], &mut rng));
        },
    );
    let mut cxl_wires: Vec<WireFlit> = cxl.iter().map(|r| r.wire).collect();
    c.switch_process_regen = time_kernel(
        t,
        "kernel.switch.process_regen",
        20_000,
        || switch(LinkCrcMode::Regenerate),
        |sw, i| {
            black_box(sw.process_in_place(&mut cxl_wires[i % nc], &mut rng));
        },
    );
    c.forward_clean = time_kernel(
        t,
        "kernel.switch.forward_clean",
        1 << 20,
        || switch(LinkCrcMode::Passthrough),
        |sw, _| {
            black_box(&mut *sw).forward_clean();
        },
    );

    let channel = ChannelErrorModel::random(crate::workload::PATH_BER);
    c.channel_apply = time_kernel(
        t,
        "kernel.link.channel_apply",
        100_000,
        || rxl[0].wire,
        |w, _| {
            black_box(channel.apply(black_box(&mut w[..]), &mut rng));
        },
    );
    c
}
