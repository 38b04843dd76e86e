//! Benchmark entry point: one workload per process.
//!
//! ```text
//! rxl-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--out-dir <dir>]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the run's provenance. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones and writes the span trace to `--out-dir`.

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rxl_fabric::EnginePhase;
use rxl_perfbench::digest::{self, Digest};
use rxl_perfbench::kernels::{self, KernelCosts};
use rxl_perfbench::model;
use rxl_perfbench::stats::{iqr_share, median, peak_rss_mib};
use rxl_perfbench::trace::Tracer;
use rxl_perfbench::workload::{Check, Kind, PassResult, Workload, DEFAULT_SEED};

/// Default-seed digests, `<workload> <hex>` per line.
const GOLDEN: &str = include_str!("../golden_digests.txt");

/// The workload is set up in batches: `SETUP_BATCHES` of them before the
/// first pass, then one more before every timed pass, each replacing the
/// workload the pass runs. The batch size doubles from one until a batch
/// takes `SETUP_BATCH_SECONDS` (those sizing batches are not counted), and
/// `setup_s` is the median batch mean. The cost of a microsecond set-up
/// drifts over milliseconds, so each sample averages many of them, as one
/// heavy set-up does; and it drifts by up to 2x with the host's load over
/// minutes, so the samples span the whole run, as the timed passes do.
const SETUP_BATCHES: usize = 5;
const SETUP_BATCH_SECONDS: f64 = 1e-3;
/// Minimum timed passes, however long they take.
const MIN_PASSES: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out_dir = ".bench_out".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--out-dir" => out_dir = value,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one pass and returns it with its wall-clock seconds.
fn timed(pass: impl FnOnce() -> PassResult) -> (PassResult, f64) {
    let t = Instant::now();
    let r = pass();
    (r, t.elapsed().as_secs_f64())
}

/// A fixed integer-mixing loop: ns per iteration tracks the host's speed at
/// the moment, independent of the simulator's code.
fn calibrate() -> f64 {
    const ITERS: u64 = 1 << 21;
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..ITERS {
                // SplitMix64's finaliser, kept here so simulator changes
                // cannot move it.
                x ^= i;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^= x >> 31;
            }
            black_box(x);
            t.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    median(&reps)
}

/// One named metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn secs(ns: &[u64]) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&n| n as f64 * 1e-9).collect();
    median(&v)
}

/// The per-layer metrics of a traced run that come from one pass, the
/// check pass, the kernel loops and the trace.
fn per_layer(
    first: &PassResult,
    check: &Check,
    costs: &KernelCosts,
    tracer: &Tracer,
) -> Vec<Metric> {
    let c = &check.counts;
    let (l, s, f) = (&c.links, &c.switches, &c.failures);
    let p = &check.profile;
    let predicted = model::predicted_ns(check, costs);
    let measured = check.replay_ns as f64;
    let mut out = vec![
        m("fabric.slots", c.slots as f64, "count"),
        m("fabric.hop_flits", c.hop_flits as f64, "count"),
        m("fabric.credit_stalls", c.credit_stalls as f64, "count"),
        m(
            "fabric.idle_slot_share",
            ratio(c.slots - c.busy_slots, c.slots),
            "ratio",
        ),
        m("fabric.ns_per_slot", ratio(p.total_nanos(), p.slots), "ns"),
    ];
    for (phase, name) in EnginePhase::ALL.into_iter().zip([
        "fabric.phase_share.paced_release",
        "fabric.phase_share.endpoint_tx",
        "fabric.phase_share.switch_forward",
        "fabric.phase_share.stage_merge",
    ]) {
        out.push(m(name, p.share(phase), "ratio"));
    }
    for (span, name) in [
        ("trial.new", "fabric.trial.new_s"),
        ("trial.begin", "fabric.trial.begin_s"),
        ("trial.step", "fabric.trial.step_s"),
        ("trial.finish", "fabric.trial.finish_s"),
    ] {
        out.push(m(name, secs(&tracer.durations(span)), "s"));
    }
    out.extend([
        m("link.payload_flits", l.flits_sent as f64, "count"),
        m("link.nacks", l.nacks_sent as f64, "count"),
        m(
            "link.standalone_acks",
            l.standalone_acks_sent as f64,
            "count",
        ),
        m(
            "link.discarded_in_replay",
            l.flits_discarded_in_replay as f64,
            "count",
        ),
        m(
            "link.retx_per_payload",
            ratio(l.flits_retransmitted, l.flits_sent),
            "ratio",
        ),
        m("link.rx_receive_ns", costs.rx_receive, "ns"),
        m("link.rx_receive_cxl_ns", costs.rx_receive_cxl, "ns"),
        m("link.rx_trusted_ns", costs.rx_trusted, "ns"),
        m("link.tx_emit_ns", costs.tx_emit, "ns"),
        m("link.channel_apply_ns", costs.channel_apply, "ns"),
        m("switch.flits_in", s.flits_in as f64, "count"),
        m(
            "switch.dropped_uncorrectable",
            s.flits_dropped_uncorrectable as f64,
            "count",
        ),
        m(
            "switch.error_share",
            ratio(
                s.flits_corrected + s.flits_dropped_uncorrectable,
                s.flits_in,
            ),
            "ratio",
        ),
        m("switch.process_ns", costs.switch_process, "ns"),
        m("switch.process_regen_ns", costs.switch_process_regen, "ns"),
        m("switch.forward_clean_ns", costs.forward_clean, "ns"),
        m("fec.encode_ns", costs.fec_encode, "ns"),
        m("fec.decode_clean_ns", costs.fec_decode_clean, "ns"),
        m("fec.decode_corrected_ns", costs.fec_decode_corrected, "ns"),
        m("crc.crc64_ns", costs.crc64, "ns"),
        m("crc.isn_encode_ns", costs.isn_encode, "ns"),
        m("crc.isn_verify_ns", costs.isn_verify, "ns"),
        m("gf256.mul_ns", costs.gf256_mul, "ns"),
        m("flit.cxl_encode_ns", costs.cxl_encode, "ns"),
        m("flit.cxl_decode_ns", costs.cxl_decode, "ns"),
        m("flit.rxl_encode_ns", costs.rxl_encode, "ns"),
        m("flit.rxl_decode_ns", costs.rxl_decode, "ns"),
        m("load.injected", first.load_injected as f64, "count"),
        m("load.delivered", first.load_delivered as f64, "count"),
        m("load.efficiency", first.load_efficiency, "ratio"),
        m(
            "telemetry.requests_completed",
            first.requests_completed as f64,
            "count",
        ),
        m(
            "telemetry.spans_dropped",
            first.spans_dropped as f64,
            "count",
        ),
        m("transport.clean", f.clean_deliveries as f64, "count"),
        m("transport.failures", f.total_failures() as f64, "count"),
        m("model.predicted_s", predicted * 1e-9, "s"),
        m("model.measured_s", measured * 1e-9, "s"),
        m(
            "model.residual_share",
            model::residual_share(measured, predicted),
            "ratio",
        ),
    ]);
    out
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, x) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    s.push('}');
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rxl-perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    // Set-up, repeated (see `SETUP_BATCHES`); the last build is the one run.
    // Only the builds are timed, not dropping the previous one.
    let mut w = Workload::setup(args.kind, args.seed);
    let setup_batch = |w: &mut Workload, n: usize| {
        let mut sum = 0.0;
        for _ in 0..n {
            let t = Instant::now();
            let next = Workload::setup(args.kind, args.seed);
            sum += t.elapsed().as_secs_f64();
            *w = next;
        }
        sum
    };
    let mut batch = 1;
    while setup_batch(&mut w, batch) < SETUP_BATCH_SECONDS {
        batch *= 2;
    }
    let mut setup_s: Vec<f64> = (0..SETUP_BATCHES)
        .map(|_| setup_batch(&mut w, batch) / batch as f64)
        .collect();
    let calib_ns = calibrate();

    let pool_of = |threads| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("the thread pool builds")
    };
    let mut tracer = Tracer::new(args.trace);
    let mut untraced = Tracer::new(false);

    // One warm-up pass, then untraced timed passes for `--seconds`, all on
    // one worker.
    let single = pool_of(1);
    let mut passes = vec![single.install(|| w.run_pass(&mut untraced))];
    let mut rates = Vec::new();
    let (mut timed_s, mut timed_messages) = (0.0, 0);
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    let start = Instant::now();
    while rates.len() < MIN_PASSES || start.elapsed() < budget {
        setup_s.push(setup_batch(&mut w, batch) / batch as f64);
        let (r, s) = timed(|| single.install(|| w.run_pass(&mut untraced)));
        rates.push(r.messages as f64 / s);
        timed_s += s;
        timed_messages += r.messages;
        passes.push(r);
    }
    // Peak memory of set-up and the one-worker passes, read before the
    // two-worker pass: how that pass's concurrent trials overlap in time,
    // and so its peak, changes from run to run on the same inputs.
    let peak_rss = peak_rss_mib().unwrap_or(0.0);
    // One pass on every available worker (at most two), so each run also
    // compares thread counts. It and a traced run's traced pass are checked
    // and counted, not timed.
    passes.push(pool_of(nproc().min(2)).install(|| w.run_pass(&mut untraced)));
    if args.trace {
        passes.push(single.install(|| tracer.span("pass", |tr| w.run_pass(tr))));
    }

    let check = tracer.span("check", |tr| w.check(tr));
    let costs = if args.trace {
        kernels::measure(&mut tracer)
    } else {
        KernelCosts::default()
    };

    // Output checks: every pass must match the first (determinism) and the
    // serial replay (thread independence), and the default seed must match
    // its recorded digest. A mismatching pass fails all its trials; a
    // matching one fails the trials the replay classified as failed.
    let first = &passes[0];
    let mut golden = Digest::new();
    golden.u64(first.digest).u64(check.extra);
    let golden = golden.value();
    let recorded = digest::recorded(GOLDEN, args.kind.name());
    let golden_ok = args.seed != DEFAULT_SEED || recorded == Some(golden);
    let mut attempted = 0;
    let mut failed = 0;
    let mut mismatched_passes = 0;
    for p in &passes {
        attempted += p.trials;
        if golden_ok && p.digest == first.digest && p.cross == check.cross {
            failed += check.failed_trials;
        } else {
            mismatched_passes += 1;
            failed += p.trials;
        }
    }
    let failed_share = ratio(failed, attempted);

    let metrics = if args.trace {
        let mut metrics = per_layer(first, &check, &costs, &tracer);
        // The traced, profiled serial replay of one pass against the
        // untraced one-worker passes of the same trials just before it
        // (the host's speed drifts over seconds).
        let untraced_s = first.messages as f64 / median(&rates[rates.len() - MIN_PASSES..]);
        metrics.extend([
            m(
                "trace.overhead",
                1.0 - untraced_s / (check.replay_ns as f64 * 1e-9),
                "ratio",
            ),
            m("calib.ns_per_op", calib_ns, "ns"),
            m("ops.failed_share", failed_share, "ratio"),
        ]);
        metrics
    } else {
        vec![
            m("msgs_per_s", timed_messages as f64 / timed_s, "1/s"),
            m("setup_s", median(&setup_s), "s"),
            m("peak_rss_mib", peak_rss, "MiB"),
        ]
    };

    if args.trace {
        let path = format!(
            "{}/trace-{}-seed{}.json",
            args.out_dir,
            args.kind.name(),
            args.seed
        );
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|_| std::fs::write(&path, tracer.to_json()));
        if let Err(e) = written {
            eprintln!("rxl-perfbench: cannot write {path}: {e}");
        }
    }

    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"compare_threads\": {}, \"timed_threads\": 1, \"nproc\": {}, \"setup_batches\": {}, \"setup_batch\": {}, \"passes\": {}, \"pass_rate_iqr_share\": {}, \"pass_rates\": {:?}, \"trials_per_pass\": {}, \"seconds\": {}, \"calib_ns_per_op\": {}, \"digest\": \"{:016x}\", \"recorded_digest\": {}, \"mismatched_passes\": {}, \"failed_trials_per_pass\": {}}}}}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        nproc().min(2),
        nproc(),
        setup_s.len(),
        batch,
        passes.len(),
        iqr_share(&rates),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        w.trials_per_pass(),
        args.seconds,
        calib_ns,
        golden,
        recorded.map_or("null".to_string(), |d| format!("\"{d:016x}\"")),
        mismatched_passes,
        check.failed_trials,
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
