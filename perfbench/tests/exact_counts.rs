//! Exact per-layer counts: every simulated statistic, count and digest a
//! pass produces repeats bit for bit across runs, across fresh set-ups, and
//! between one and two worker threads, and the serial check pass
//! reproduces the runners' statistics.
//!
//! Every workload runs at full size. Run with `cargo test --release` (the
//! fabric trials are slow unoptimised).

use rayon::ThreadPool;
use rxl_perfbench::trace::Tracer;
use rxl_perfbench::workload::{Kind, Workload};

fn pool(threads: usize) -> ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the thread pool builds")
}

#[test]
fn counts_repeat_across_runs_and_thread_counts() {
    let mut off = Tracer::new(false);
    for kind in Kind::ALL {
        let name = kind.name();
        let w = Workload::setup(kind, 7);
        let one = pool(1).install(|| w.run_pass(&mut off));
        let two = pool(2).install(|| w.run_pass(&mut off));
        assert_eq!(one, two, "{name}: one vs two workers");
        let again = Workload::setup(kind, 7);
        assert_eq!(
            pool(2).install(|| again.run_pass(&mut off)),
            one,
            "{name}: fresh set-up"
        );

        let a = w.check(&mut off);
        let b = w.check(&mut off);
        assert_eq!(a.cross, one.cross, "{name}: check pass vs runner");
        assert_eq!(a.counts, b.counts, "{name}: check-pass counts");
        assert_eq!(a.extra, b.extra, "{name}: check-pass digest");
        assert_eq!(a.failed_trials, 0, "{name}: failed trials");
        assert!(a.counts.links.flits_sent > 0, "{name}: counted nothing");
        // `path_2hop` runs no fabric engine, so its fabric counts stay 0.
        assert_eq!(
            a.counts.slots > 0,
            kind != Kind::Path2Hop,
            "{name}: fabric slots"
        );
    }
}

#[test]
fn a_different_seed_changes_the_inputs() {
    let mut off = Tracer::new(false);
    for kind in Kind::ALL {
        let a = Workload::setup(kind, 7).run_pass(&mut off);
        let b = Workload::setup(kind, 8).run_pass(&mut off);
        assert_ne!(a.digest, b.digest, "{}", kind.name());
    }
}
