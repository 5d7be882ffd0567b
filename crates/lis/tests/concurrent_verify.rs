//! `verify_chain` runs its clean and stalled drives on two threads. These
//! tests pin that the concurrency changes nothing: each verified run is
//! the run a serial `run_chain` call gives, and two `verify_chain` calls
//! on two threads at once give the same results as one at a time, so no
//! state is shared between simulations.

use mtf_lis::{run_chain, verification_stalls, verify_chain, ChainDrive, ChainRun, ChainSpec};

const ITEMS: usize = 40;

/// The four `chains` scenarios (mcrs, asrs, mixed, baseline) at capacity 4.
fn scenarios() -> Vec<ChainSpec> {
    vec![
        ChainSpec::new(8, 4)
            .segment(10_000, 0, 2)
            .boundary("mixed_clock_rs")
            .segment(13_000, 2_400, 2)
            .boundary("mixed_clock_rs")
            .segment(8_000, 1_100, 2),
        ChainSpec::new(8, 4)
            .with_async_head(4)
            .segment(10_000, 0, 3),
        ChainSpec::new(8, 4)
            .with_async_head(3)
            .segment(9_000, 0, 2)
            .boundary("mixed_clock_rs")
            .segment(12_000, 3_000, 2)
            .boundary("mixed_clock_rs")
            .segment(10_000, 500, 1),
        ChainSpec::new(8, 4)
            .segment(10_000, 0, 2)
            .boundary("sync_rs")
            .segment(10_000, 0, 2)
            .boundary("sync_rs")
            .segment(10_000, 0, 2),
    ]
}

/// What a run observed: its streams and the `Debug` rendering of its
/// report (the report holds an `f64`, so it has no `Eq`).
type Observed = (Vec<u64>, Vec<u64>, String);

/// A run's [`Observed`] values.
fn observed(run: &ChainRun) -> Observed {
    (
        run.sent.clone(),
        run.delivered.clone(),
        format!("{:?}", run.report),
    )
}

/// Every scenario's verified clean and stalled runs.
fn verified_runs() -> Vec<(Observed, Observed)> {
    scenarios()
        .iter()
        .map(|spec| {
            let v = verify_chain(spec, ITEMS).expect("scenario verifies");
            (observed(&v.clean), observed(&v.stalled))
        })
        .collect()
}

#[test]
fn verified_runs_equal_serial_run_chain_calls() {
    let verified = verified_runs();
    for (spec, (clean, stalled)) in scenarios().iter().zip(&verified) {
        let w = spec.width;
        let serial_clean = run_chain(spec, &ChainDrive::clean(11, ITEMS, w)).expect("runs");
        let drive = ChainDrive::with_stalls(13, ITEMS, w, verification_stalls());
        let serial_stalled = run_chain(spec, &drive).expect("runs");
        assert_eq!(clean, &observed(&serial_clean), "clean run of {spec:?}");
        assert_eq!(
            stalled,
            &observed(&serial_stalled),
            "stalled run of {spec:?}"
        );
    }
}

#[test]
fn verify_calls_on_two_threads_agree() {
    let alone = verified_runs();
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(verified_runs);
        let b = scope.spawn(verified_runs);
        (a.join().expect("thread a"), b.join().expect("thread b"))
    });
    assert_eq!(a, alone);
    assert_eq!(b, alone);
}
