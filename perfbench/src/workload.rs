//! The four workloads: inputs built from `--seed`, one timed runner pass,
//! and the serial check pass that replays every trial of a pass through the
//! engines' public APIs.
//!
//! A *pass* is one call of each workload's runner (`FabricMonteCarlo::run`,
//! `MonteCarlo::run`, `LoadSweep::run`, `RequestSweep::run_detailed`) on
//! fixed inputs; its Monte-Carlo trials are the benchmark's operations.
//! Set-up builds only what the runners are given: topology, configuration,
//! the runner objects and, for the drain workloads, the message streams.
//! The runners build routing tables and the paced workloads' per-trial
//! streams and arrival schedules inside each timed call. The check pass
//! rebuilds each trial's seed and inputs exactly as the runner does, one
//! trial at a time, runs them one after another with bench-side probes, and
//! must reproduce the runner's statistics bit for bit — which also proves
//! them independent of the worker-thread count the timed pass used.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rxl_fabric::{
    FabricConfig, FabricMonteCarlo, FabricMonteCarloReport, FabricReport, FabricSim,
    FabricTopology, FabricWorkload, InjectionPacing, NullProbe, Probe, RoutingTable, StepOutcome,
};
use rxl_flit::{Message, MESSAGES_PER_FLIT};
use rxl_link::{ChannelErrorModel, LinkStats, ProtocolVariant};
use rxl_load::{
    ArrivalProcess, FanoutShape, LatencyHistogram, LatencyStats, LoadSweep, LoadSweepConfig,
    RequestGenerator, RequestMap, TrafficMatrix,
};
use rxl_sim::{
    request_stream, response_stream, trial_seed, MonteCarlo, MonteCarloReport, PathSim, SimConfig,
    TrafficPattern,
};
use rxl_switch::SwitchStats;
use rxl_telemetry::{
    EngineProfiler, MetricsProbe, PhaseProfile, RequestProbe, RequestSweep, RequestSweepConfig,
};
use rxl_transport::FailureCounts;

use crate::digest::Digest;
use crate::probe::SlotProbe;
use crate::trace::Tracer;

/// The seed whose simulated-statistics digests `golden_digests.txt` records.
pub const DEFAULT_SEED: u64 = 1;

/// Channel BER of `path_2hop` (accelerated; the paper's Fig. 4/5 regime).
pub const PATH_BER: f64 = 3e-5;
/// Channel BER of `drain_pod` (the paper's real operating point).
const DRAIN_BER: f64 = 1e-6;

/// `drain_pod`: messages per session per direction, and trials per protocol
/// per pass.
const DRAIN_MESSAGES: usize = 15_000;
const DRAIN_TRIALS: u64 = 2;
/// `path_2hop`: switch levels, downstream messages per trial (upstream is
/// half), and trials per protocol per pass.
const PATH_LEVELS: u32 = 2;
const PATH_MESSAGES: usize = 6_000;
const PATH_TRIALS: u64 = 32;
/// `load_ladder`: the offered-load ladder, messages per stream and trials
/// per rung.
const LADDER_LOADS: [f64; 7] = [0.05, 0.10, 0.15, 0.20, 0.30, 0.50, 0.80];
const LADDER_MESSAGES: usize = 6_000;
const LADDER_TRIALS: u64 = 2;
/// `serve_incast`: the request ladder (per-session message load), trials
/// per rung and the open-system horizon parameters of `request_tail`.
const SERVE_LOADS: [f64; 6] = [0.05, 0.10, 0.20, 0.30, 0.40, 0.60];
const SERVE_TRIALS: u64 = 2;
const SERVE_FANOUT: usize = 2;
const SERVE_QUEUE_CAPACITY: usize = 8;
const SERVE_MEASURE_SLOTS: u64 = 4_000;
const SERVE_WINDOW_SLOTS: u64 = 400;
const SERVE_TRACE_CAPACITY: usize = 512;

/// Arrival-RNG salts of `LoadSweep` and `RequestSweep`. They are private to
/// those crates; the check pass needs them to rebuild each trial's arrival
/// schedule, and any drift shows up as a cross-digest mismatch.
const LOAD_ARRIVAL_SALT: u64 = 0xA11A_170A_D5EE_D000;
const REQUEST_ARRIVAL_SALT: u64 = 0x9E0_5751_CA1E_D000;

/// The two protocols `drain_pod` and `path_2hop` compare: baseline CXL
/// (piggybacked ACKs) and RXL.
const VARIANTS: [ProtocolVariant; 2] = [ProtocolVariant::CxlPiggyback, ProtocolVariant::Rxl];

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    DrainPod,
    Path2Hop,
    LoadLadder,
    ServeIncast,
}

impl Kind {
    /// Every workload, in documentation order.
    pub const ALL: [Kind; 4] = [
        Kind::DrainPod,
        Kind::Path2Hop,
        Kind::LoadLadder,
        Kind::ServeIncast,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DrainPod => "drain_pod",
            Kind::Path2Hop => "path_2hop",
            Kind::LoadLadder => "load_ladder",
            Kind::ServeIncast => "serve_incast",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// What one timed pass produced, as visible from the runners' outputs.
#[derive(Clone, Debug, PartialEq)]
pub struct PassResult {
    /// Monte-Carlo trials the pass ran.
    pub trials: u64,
    /// Messages the pass offered to the simulated fabric.
    pub messages: u64,
    /// Digest of every simulated statistic the runners report.
    pub digest: u64,
    /// Digest of the subset the check pass can recompute per trial.
    pub cross: u64,
    /// `rxl_load` outputs (zero outside `load_ladder`).
    pub load_injected: u64,
    pub load_delivered: u64,
    /// Mean delivered/offered efficiency over the ladder's rungs.
    pub load_efficiency: f64,
    /// `rxl_telemetry` outputs (zero outside `serve_incast`).
    pub requests_completed: u64,
    pub spans_dropped: u64,
}

/// Exact per-pass layer counts from the check pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Engine slots over every fabric trial.
    pub slots: u64,
    /// Slots in which at least one flit crossed a link.
    pub busy_slots: u64,
    /// Switch-ingress flits of the fabric trials.
    pub hop_flits: u64,
    /// Credit-stall slots of the fabric trials.
    pub credit_stalls: u64,
    /// Link-layer counters over every trial of the workload.
    pub links: LinkStats,
    /// Switch counters over every trial of the workload.
    pub switches: SwitchStats,
    /// Delivery audits over every trial of the workload.
    pub failures: FailureCounts,
}

/// Per-protocol link and switch counters of `path_2hop` (the cost model's
/// operation counts).
#[derive(Clone, Copy, Debug)]
pub struct PathOps {
    pub variant: ProtocolVariant,
    pub links: LinkStats,
    pub switches: SwitchStats,
}

/// The check pass's findings.
#[derive(Clone, Debug)]
pub struct Check {
    /// Must equal every timed pass's [`PassResult::cross`].
    pub cross: u64,
    /// Digest of counts only the check pass sees (slots, busy slots, …).
    pub extra: u64,
    /// Trials of one pass that failed (see [`Workload::check`]).
    pub failed_trials: u64,
    /// Exact layer counts of one pass.
    pub counts: Counts,
    /// Engine self-profile summed over the replayed fabric trials.
    pub profile: PhaseProfile,
    /// Host nanoseconds of the serial replay the cost model explains.
    pub replay_ns: u64,
    /// `path_2hop` only: per-protocol operation counts.
    pub path_ops: Vec<PathOps>,
}

/// A workload with its inputs built.
pub struct Workload(Inputs);

enum Inputs {
    DrainPod(DrainPod),
    Path2Hop(Path2Hop),
    LoadLadder(Box<LoadSweep>),
    ServeIncast(Box<ServeIncast>),
}

struct DrainPod {
    workload: FabricWorkload,
    runners: Vec<FabricMonteCarlo>,
}

struct Path2Hop {
    down: Vec<Message>,
    up: Vec<Message>,
    runners: Vec<(SimConfig, MonteCarlo)>,
}

/// One paced fabric trial's engine inputs, rebuilt as its runner builds
/// them.
struct PacedTrial {
    config: FabricConfig,
    workload: FabricWorkload,
    pacing: InjectionPacing,
}

impl PacedTrial {
    fn inputs(&self) -> TrialRef<'_> {
        TrialRef {
            config: self.config,
            workload: &self.workload,
            pacing: Some(&self.pacing),
        }
    }
}

/// Borrowed engine inputs of one trial to replay (`pacing: None` is a
/// greedy drain).
#[derive(Clone, Copy)]
struct TrialRef<'a> {
    config: FabricConfig,
    workload: &'a FabricWorkload,
    pacing: Option<&'a InjectionPacing>,
}

struct RequestTrial {
    trial: PacedTrial,
    map: RequestMap,
    horizon: u64,
}

struct ServeIncast {
    sweep: RequestSweep,
    /// The engine and sweep configurations the sweep was built from, for
    /// the check pass to rebuild its trials.
    base: FabricConfig,
    config: RequestSweepConfig,
}

/// A per-workload seed stream derived from `--seed`.
fn derive(seed: u64, salt: u64) -> u64 {
    trial_seed(salt, seed)
}

impl Workload {
    /// Builds `kind`'s inputs from `seed`: what the runners are given.
    pub fn setup(kind: Kind, seed: u64) -> Workload {
        Workload(match kind {
            Kind::DrainPod => Inputs::DrainPod(drain_pod(seed)),
            Kind::Path2Hop => Inputs::Path2Hop(path_2hop(seed)),
            Kind::LoadLadder => Inputs::LoadLadder(Box::new(load_ladder(seed))),
            Kind::ServeIncast => Inputs::ServeIncast(Box::new(serve_incast(seed))),
        })
    }

    /// Trials in one pass.
    pub fn trials_per_pass(&self) -> u64 {
        match &self.0 {
            Inputs::DrainPod(w) => w.runners.iter().map(|r| r.trials()).sum(),
            Inputs::Path2Hop(w) => w.runners.iter().map(|(_, r)| r.trials()).sum(),
            Inputs::LoadLadder(_) => LADDER_LOADS.len() as u64 * LADDER_TRIALS,
            Inputs::ServeIncast(_) => SERVE_LOADS.len() as u64 * SERVE_TRIALS,
        }
    }

    /// One timed pass: every runner call of the workload, each inside a
    /// `runner.run` span.
    pub fn run_pass(&self, tracer: &mut Tracer) -> PassResult {
        let mut full = Digest::new();
        let mut cross = Digest::new();
        let mut out = PassResult {
            trials: self.trials_per_pass(),
            messages: 0,
            digest: 0,
            cross: 0,
            load_injected: 0,
            load_delivered: 0,
            load_efficiency: 0.0,
            requests_completed: 0,
            spans_dropped: 0,
        };
        match &self.0 {
            Inputs::DrainPod(w) => {
                for runner in &w.runners {
                    let r = tracer.span("runner.run", |_| runner.run(&w.workload));
                    fold_fabric_mc(&mut cross, &r);
                    out.messages += r.trials * w.workload.total_messages() as u64;
                }
                full = cross;
            }
            Inputs::Path2Hop(w) => {
                for (_, runner) in &w.runners {
                    let r = tracer.span("runner.run", |_| runner.run(&w.down, &w.up));
                    fold_sim_mc(&mut cross, &r);
                    out.messages += r.trials * (w.down.len() + w.up.len()) as u64;
                }
                full = cross;
            }
            Inputs::LoadLadder(sweep) => {
                let r = tracer.span("runner.run", |_| sweep.run());
                let mut eff = 0.0;
                for p in &r.points {
                    fold_load_point(
                        &mut cross,
                        [
                            p.injected_messages,
                            p.delivered_messages,
                            p.untracked_deliveries,
                            p.slots,
                            p.drained_trials,
                        ],
                        &p.failures,
                        &p.stats,
                    );
                    out.load_injected += p.injected_messages;
                    out.load_delivered += p.delivered_messages;
                    eff += p.efficiency;
                }
                out.messages = out.load_injected;
                out.load_efficiency = eff / r.points.len() as f64;
                full = cross;
                full.u64(r.knee.map_or(u64::MAX, |k| k as u64));
            }
            Inputs::ServeIncast(w) => {
                let (r, rungs) = tracer.span("runner.run", |_| w.sweep.run_detailed());
                for p in &r.points {
                    let messages = p.requests_offered * SERVE_FANOUT as u64;
                    cross
                        .u64(p.slots)
                        .u64(p.requests_completed)
                        .u64(p.unresolved)
                        .u64(messages);
                    out.messages += messages;
                    full.u64(p.slots)
                        .u64(p.requests_completed)
                        .u64(p.unresolved)
                        .u64(p.requests_offered)
                        .u64(p.warmup_window as u64)
                        .u64(p.peak_inflight)
                        .u64(p.steady.injected)
                        .u64(p.steady.clean)
                        .f64(p.steady.availability)
                        .latency(&p.steady.stats);
                    out.requests_completed += p.requests_completed;
                }
                for rung in &rungs {
                    out.spans_dropped += rung.probe.trace().map_or(0, |t| t.dropped_spans());
                }
                full.u64(out.spans_dropped);
            }
        }
        out.digest = full.value();
        out.cross = cross.value();
        out
    }

    /// The serial check pass: replays every trial of one pass through the
    /// engines' public APIs with bench-side probes (the engine
    /// self-profiler and the busy-slot counter), recomputes the cross
    /// digest, and classifies each trial. A trial fails if a drain-mode
    /// trial does not drain, any trial wedges (stall guard or
    /// post-delivery wedge), or an RXL trial audits any failure — except
    /// that messages still in flight at an open-system horizon are by
    /// design, not lost. The paced workloads' trial inputs are rebuilt one
    /// trial at a time (a `trial.inputs` span), as their runners build
    /// them; each replayed fabric trial is stepped inside
    /// `trial.new`/`trial.begin`/`trial.step`/`trial.finish` spans.
    pub fn check(&self, tracer: &mut Tracer) -> Check {
        let mut check = Check {
            cross: 0,
            extra: 0,
            failed_trials: 0,
            counts: Counts::default(),
            profile: PhaseProfile::default(),
            replay_ns: 0,
            path_ops: Vec::new(),
        };
        let mut cross = Digest::new();
        let mut extra = Digest::new();
        let start = Instant::now();
        match &self.0 {
            Inputs::DrainPod(w) => {
                for runner in &w.runners {
                    let routing = RoutingTable::new(runner.topology());
                    let base = runner.config();
                    let mut agg = FabricMonteCarloReport {
                        trials: runner.trials(),
                        ..Default::default()
                    };
                    for trial in 0..runner.trials() {
                        let t = TrialRef {
                            config: base.with_seed(trial_seed(base.seed, trial)),
                            workload: &w.workload,
                            pacing: None,
                        };
                        let r = replay(tracer, runner.topology(), &routing, t, NullProbe, None);
                        let failed = !r.report.drained
                            || r.report.post_delivery_wedge
                            || (base.variant == ProtocolVariant::Rxl
                                && !r.report.total_failures().is_clean());
                        check.failed_trials += u64::from(failed);
                        extra.u64(r.report.slots).u64(r.busy_slots);
                        merge_fabric_mc(&mut agg, &r.report);
                        check.absorb(&r);
                    }
                    fold_fabric_mc(&mut cross, &agg);
                }
            }
            Inputs::Path2Hop(w) => {
                for (config, runner) in &w.runners {
                    let mut agg = MonteCarloReport {
                        trials: runner.trials(),
                        ..Default::default()
                    };
                    for trial in 0..runner.trials() {
                        let seeded = config.with_seed(trial_seed(config.seed, trial));
                        let r =
                            tracer.span("trial.run", |_| PathSim::new(seeded).run(&w.down, &w.up));
                        let failed = !r.drained
                            || (config.variant == ProtocolVariant::Rxl
                                && !r.total_failures().is_clean());
                        check.failed_trials += u64::from(failed);
                        extra.u64(r.slots);
                        agg.failures.merge(&r.total_failures());
                        agg.links.merge(&r.host_link);
                        agg.links.merge(&r.device_link);
                        agg.switches.merge(&r.switches);
                        agg.drained_trials += u64::from(r.drained);
                        agg.ordering_rates.push(r.ordering_failure_rate());
                        agg.bandwidth_overheads.push(r.bandwidth_overhead());
                    }
                    fold_sim_mc(&mut cross, &agg);
                    check.counts.links.merge(&agg.links);
                    check.counts.switches.merge(&agg.switches);
                    check.counts.failures.merge(&agg.failures);
                    check.path_ops.push(PathOps {
                        variant: config.variant,
                        links: agg.links,
                        switches: agg.switches,
                    });
                }
            }
            Inputs::LoadLadder(sweep) => {
                let topology = sweep.topology();
                let routing = RoutingTable::new(topology);
                for (rung, &load) in LADDER_LOADS.iter().enumerate() {
                    let mut sums = [0u64; 5];
                    let mut failures = FailureCounts::default();
                    let mut hist = LatencyHistogram::new();
                    for trial in 0..LADDER_TRIALS {
                        let global = rung as u64 * LADDER_TRIALS + trial;
                        let t = tracer.span("trial.inputs", |_| ladder_trial(sweep, load, global));
                        let r = replay(tracer, topology, &routing, t.inputs(), NullProbe, None);
                        let samples = r.report.latency.as_ref().expect("telemetry was enabled");
                        let failed = !r.report.drained || !r.report.total_failures().is_clean();
                        check.failed_trials += u64::from(failed);
                        sums[0] += t.workload.total_messages() as u64;
                        sums[1] += samples.len() as u64;
                        sums[2] += samples.untracked;
                        sums[3] += r.report.slots;
                        sums[4] += u64::from(r.report.drained);
                        failures.merge(&r.report.total_failures());
                        hist.record_samples(samples);
                        check.absorb(&r);
                    }
                    fold_load_point(
                        &mut cross,
                        sums,
                        &failures,
                        &LatencyStats::from_histogram(&hist),
                    );
                }
                extra.u64(check.counts.busy_slots);
            }
            Inputs::ServeIncast(w) => {
                let topology = w.sweep.topology();
                let routing = RoutingTable::new(topology);
                let sessions = topology.session_count();
                let loaded = w.config.shape.loaded_sessions(topology).len();
                for (rung, &load) in SERVE_LOADS.iter().enumerate() {
                    let (mut slots, mut completed, mut inflight, mut messages) = (0, 0, 0, 0);
                    for trial in 0..SERVE_TRIALS {
                        let global = rung as u64 * SERVE_TRIALS + trial;
                        let t = tracer.span("trial.inputs", |_| {
                            serve_trial(w, topology, loaded, load, global)
                        });
                        // The probes `RequestSweep` attaches, so the replay
                        // does the runner's work plus the bench's probes.
                        let probe = (
                            RequestProbe::with_trace(
                                &t.map,
                                sessions,
                                SERVE_WINDOW_SLOTS,
                                SERVE_TRACE_CAPACITY,
                            ),
                            MetricsProbe::for_topology(topology, w.base.vc_count),
                        );
                        let r = replay(
                            tracer,
                            topology,
                            &routing,
                            t.trial.inputs(),
                            probe,
                            Some(t.horizon),
                        );
                        let f = r.report.total_failures();
                        let wedged =
                            !matches!(r.outcome, StepOutcome::Horizon | StepOutcome::Drained);
                        let failed = wedged
                            || f.data_failures + f.ordering_failures + f.duplicate_deliveries > 0;
                        check.failed_trials += u64::from(failed);
                        slots += r.report.slots;
                        completed += r.probe.0.completed();
                        inflight += r.probe.0.inflight();
                        messages += t.map.total_messages() as u64;
                        check.absorb(&r);
                    }
                    cross.u64(slots).u64(completed).u64(inflight).u64(messages);
                }
                extra.u64(check.counts.busy_slots);
            }
        }
        check.replay_ns = start.elapsed().as_nanos() as u64;
        let c = &check.counts;
        extra
            .links(&c.links)
            .switches(&c.switches)
            .failures(&c.failures);
        check.cross = cross.value();
        check.extra = extra.value();
        check
    }
}

/// One replayed fabric trial.
struct Replayed<P> {
    report: FabricReport,
    probe: P,
    busy_slots: u64,
    profile: PhaseProfile,
    outcome: StepOutcome,
}

impl Check {
    /// Adds one replayed fabric trial: engine counts and profile, plus its
    /// link, switch and audit counters.
    fn absorb<P>(&mut self, r: &Replayed<P>) {
        let c = &mut self.counts;
        c.slots += r.report.slots;
        c.busy_slots += r.busy_slots;
        c.hop_flits += r.report.switches.flits_in;
        c.credit_stalls += r.report.credit_stalls;
        for (sum, n) in self.profile.nanos.iter_mut().zip(r.profile.nanos) {
            *sum += n;
        }
        self.profile.slots += r.profile.slots;
        c.links.merge(&r.report.links);
        c.switches.merge(&r.report.switches);
        c.failures.merge(&r.report.total_failures());
    }
}

/// Steps one fabric trial through `FabricSim`'s public API, one span per
/// phase: paced trials enable latency telemetry as `LoadSweep` does, and a
/// `horizon` runs open-system mode as `RequestSweep` does.
fn replay<P: Probe>(
    tracer: &mut Tracer,
    topology: &FabricTopology,
    routing: &RoutingTable,
    t: TrialRef<'_>,
    probe: P,
    horizon: Option<u64>,
) -> Replayed<P> {
    let probes = (probe, (EngineProfiler::new(), SlotProbe::default()));
    let mut sim = tracer.span("trial.new", |_| {
        FabricSim::with_probe(topology, routing, t.config, probes)
    });
    tracer.span("trial.begin", |_| match t.pacing {
        Some(pacing) => {
            if horizon.is_none() {
                sim.enable_latency_telemetry();
            }
            sim.begin_paced(t.workload, pacing);
        }
        None => sim.begin(t.workload),
    });
    let outcome = tracer.span("trial.step", |_| match horizon {
        Some(h) => sim.run_to_horizon(h),
        None => sim.step(u64::MAX),
    });
    let (report, (probe, (profiler, slots))) =
        tracer.span("trial.finish", |_| sim.finish_with_probe());
    Replayed {
        report,
        probe,
        busy_slots: slots.busy_slots(),
        profile: profiler.profile(),
        outcome,
    }
}

/// Aggregates one trial into a `FabricMonteCarlo`-style report, exactly as
/// `FabricMonteCarlo::run` does.
fn merge_fabric_mc(agg: &mut FabricMonteCarloReport, r: &FabricReport) {
    agg.failures.merge(&r.total_failures());
    agg.links.merge(&r.links);
    agg.switches.merge(&r.switches);
    agg.undetected_drop_events += r.undetected_drop_events;
    agg.protocol_flit_drops += r.protocol_flit_drops;
    agg.payload_drops += r.payload_drops;
    agg.eligible_payload_drops += r.eligible_payload_drops;
    agg.replay_leak_events += r.replay_leak_events;
    agg.credit_stalls += r.credit_stalls;
    agg.drained_trials += u64::from(r.drained);
    agg.post_delivery_wedge_trials += u64::from(r.post_delivery_wedge);
    agg.event_rates.push(r.event_rate());
}

fn fold_fabric_mc(d: &mut Digest, r: &FabricMonteCarloReport) {
    d.u64(r.trials)
        .failures(&r.failures)
        .links(&r.links)
        .switches(&r.switches)
        .u64(r.undetected_drop_events)
        .u64(r.protocol_flit_drops)
        .u64(r.payload_drops)
        .u64(r.eligible_payload_drops)
        .u64(r.replay_leak_events)
        .u64(r.credit_stalls)
        .u64(r.drained_trials)
        .u64(r.post_delivery_wedge_trials);
    for &x in &r.event_rates {
        d.f64(x);
    }
}

fn fold_sim_mc(d: &mut Digest, r: &MonteCarloReport) {
    d.u64(r.trials)
        .failures(&r.failures)
        .links(&r.links)
        .switches(&r.switches)
        .u64(r.drained_trials);
    for &x in r.ordering_rates.iter().chain(&r.bandwidth_overheads) {
        d.f64(x);
    }
}

/// `[injected, delivered, untracked, slots, drained]`, audits and latency.
fn fold_load_point(d: &mut Digest, sums: [u64; 5], failures: &FailureCounts, stats: &LatencyStats) {
    for s in sums {
        d.u64(s);
    }
    d.failures(failures).latency(stats);
}

fn drain_pod(seed: u64) -> DrainPod {
    let topology = FabricTopology::leaf_spine(4, 2, 4);
    let workload = FabricWorkload::symmetric(
        topology.session_count(),
        DRAIN_MESSAGES,
        8,
        derive(seed, 0x7E57),
    );
    let runners = VARIANTS
        .iter()
        .map(|&v| {
            let config = FabricConfig::new(v)
                .with_channel(ChannelErrorModel::random(DRAIN_BER))
                .with_seed(derive(seed, 0xBEEF));
            FabricMonteCarlo::new(topology.clone(), config, DRAIN_TRIALS)
        })
        .collect();
    DrainPod { workload, runners }
}

fn path_2hop(seed: u64) -> Path2Hop {
    let down = request_stream(
        PATH_MESSAGES,
        TrafficPattern::DataStream { cqids: 8 },
        derive(seed, 77),
    );
    let up = response_stream(PATH_MESSAGES / 2, 8, derive(seed, 78));
    let runners = VARIANTS
        .iter()
        .map(|&v| {
            let config = SimConfig::new(v, PATH_LEVELS)
                .with_channel(ChannelErrorModel::random(PATH_BER))
                .with_seed(derive(seed, 0x2409));
            (config, MonteCarlo::new(config, PATH_TRIALS))
        })
        .collect();
    Path2Hop { down, up, runners }
}

fn load_ladder(seed: u64) -> LoadSweep {
    let base = FabricConfig::new(ProtocolVariant::Rxl)
        .with_channel(ChannelErrorModel::ideal())
        .with_seed(derive(seed, 0x10AD));
    let config = LoadSweepConfig {
        loads: LADDER_LOADS.to_vec(),
        messages_per_session: LADDER_MESSAGES,
        cqids: 8,
        trials: LADDER_TRIALS,
        matrix: TrafficMatrix::Uniform,
        arrival: ArrivalProcess::poisson(1.0),
    };
    LoadSweep::new(FabricTopology::leaf_spine(2, 1, 2), base, config)
}

/// Trial `global` of `sweep` at `load`, rebuilt exactly as
/// `LoadSweep::run_trial` builds it (same seeds, same stream and schedule
/// order).
fn ladder_trial(sweep: &LoadSweep, load: f64, global: u64) -> PacedTrial {
    let (base, config) = (sweep.config(), sweep.sweep_config());
    let session_loads = config.matrix.session_loads(sweep.topology(), load);
    let engine_seed = trial_seed(base.seed, global);
    let mut rng = StdRng::seed_from_u64(trial_seed(base.seed ^ LOAD_ARRIVAL_SALT, global));
    let mut workload = FabricWorkload {
        downstream: Vec::new(),
        upstream: Vec::new(),
    };
    let mut pacing = InjectionPacing::default();
    for (s, sl) in session_loads.iter().enumerate() {
        let (msgs, slots) = if sl.downstream > 0.0 {
            let msgs = request_stream(
                config.messages_per_session,
                config.matrix.request_pattern(s, config.cqids),
                engine_seed ^ (0x10AD_0000 + s as u64),
            );
            let slots = config
                .arrival
                .scaled(sl.downstream)
                .schedule(msgs.len(), &mut rng);
            (msgs, slots)
        } else {
            (Vec::new(), Vec::new())
        };
        workload.downstream.push(msgs);
        pacing.downstream.push(slots);
    }
    for (s, sl) in session_loads.iter().enumerate() {
        let (msgs, slots) = if sl.upstream > 0.0 {
            let msgs = response_stream(
                config.messages_per_session,
                config.cqids,
                engine_seed ^ (0x10AD_8000 + s as u64),
            );
            let slots = config
                .arrival
                .scaled(sl.upstream)
                .schedule(msgs.len(), &mut rng);
            (msgs, slots)
        } else {
            (Vec::new(), Vec::new())
        };
        workload.upstream.push(msgs);
        pacing.upstream.push(slots);
    }
    let horizon = pacing
        .downstream
        .iter()
        .chain(&pacing.upstream)
        .filter_map(|s| s.last().copied())
        .max()
        .unwrap_or(0);
    PacedTrial {
        config: FabricConfig {
            seed: engine_seed,
            max_slots: horizon.saturating_add(base.max_slots),
            ..*base
        },
        workload,
        pacing,
    }
}

fn serve_incast(seed: u64) -> ServeIncast {
    let base = FabricConfig {
        queue_capacity: SERVE_QUEUE_CAPACITY,
        ..FabricConfig::new(ProtocolVariant::Rxl)
            .with_channel(ChannelErrorModel::ideal())
            .with_seed(derive(seed, 0x5E4E))
    };
    let config = RequestSweepConfig {
        loads: SERVE_LOADS.to_vec(),
        fanout: SERVE_FANOUT,
        shape: FanoutShape::Incast { leaf: 1 },
        trials: SERVE_TRIALS,
        arrival: ArrivalProcess::poisson(1.0),
        measure_slots: SERVE_MEASURE_SLOTS,
        window_slots: SERVE_WINDOW_SLOTS,
        trace_capacity: SERVE_TRACE_CAPACITY,
        ..RequestSweepConfig::default()
    };
    ServeIncast {
        sweep: RequestSweep::new(FabricTopology::leaf_spine(2, 1, 2), base, config.clone()),
        base,
        config,
    }
}

/// Trial `global` of `w` at `load`, rebuilt exactly as
/// `RequestSweep::run_trial` builds it; `loaded` is the number of sessions
/// the fanout shape loads.
fn serve_trial(
    w: &ServeIncast,
    topology: &FabricTopology,
    loaded: usize,
    load: f64,
    global: u64,
) -> RequestTrial {
    let per_slot = load * loaded as f64 / SERVE_FANOUT as f64 * MESSAGES_PER_FLIT as f64;
    let generator = RequestGenerator {
        fanout: SERVE_FANOUT,
        requests: ((SERVE_MEASURE_SLOTS as f64 * per_slot).ceil() as usize).max(1),
        shape: w.config.shape,
        arrival: w.config.arrival,
        cqids: w.config.cqids,
    };
    let engine_seed = trial_seed(w.base.seed, global);
    let mut rng = StdRng::seed_from_u64(trial_seed(w.base.seed ^ REQUEST_ARRIVAL_SALT, global));
    let (workload, pacing, map) = generator.build(topology, load, engine_seed, &mut rng);
    let horizon = map.last_arrival() + SERVE_WINDOW_SLOTS;
    RequestTrial {
        trial: PacedTrial {
            config: FabricConfig {
                seed: engine_seed,
                max_slots: u64::MAX,
                ..w.base
            },
            workload,
            pacing,
        },
        map,
        horizon,
    }
}
