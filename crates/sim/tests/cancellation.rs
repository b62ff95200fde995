//! Cooperative cancellation and deadline tests.
//!
//! The contract: a cancelled or deadline-expired job returns a
//! structured [`SimError`] (never a partial result), its workers exit
//! at the next shot-chunk / batch-strip boundary (so the thread pool
//! is freed, not pinned), and jobs sharing a batch with a cancelled
//! job produce bit-identical results to a serial replay.

use ca_circuit::{schedule_asap, Circuit, GateDurations, ScheduledCircuit};
use ca_device::{uniform_device, Topology};
use ca_sim::session::{Job, Session};
use ca_sim::{CancelToken, Engine, InsertionSet, NoiseConfig, SimError, Simulator};
use std::time::Duration;

fn noisy_session(n: usize, engine: Engine) -> Session {
    let mut dev = uniform_device(Topology::line(n), 60.0);
    for q in 0..n {
        dev.calibration.qubits[q].t1_us = 80.0;
        dev.calibration.qubits[q].t2_us = 90.0;
        dev.calibration.qubits[q].readout_err = 0.02;
        dev.calibration.qubits[q].gate_err_1q = 0.002;
    }
    let sim = Simulator::with_engine(dev, NoiseConfig::default(), engine);
    Session::with_capacity(sim, 8)
}

fn workload(n: usize) -> ScheduledCircuit {
    let mut qc = Circuit::new(n, n);
    for q in 0..n {
        qc.h(q);
    }
    for q in (0..n - 1).step_by(2) {
        qc.ecr(q, q + 1);
    }
    for q in 0..n {
        qc.measure(q, q);
    }
    schedule_asap(&qc, GateDurations::default())
}

#[test]
fn pre_cancelled_job_returns_cancelled_without_running() {
    let session = noisy_session(3, Engine::FrameBatch);
    let token = CancelToken::new();
    token.cancel();
    let job = Job::counts(workload(3), 256, 5).with_cancel(token);
    assert!(matches!(session.run(&job), Err(SimError::Cancelled)));
}

#[test]
fn expired_deadline_returns_deadline_exceeded() {
    let session = noisy_session(3, Engine::FrameBatch);
    let job = Job::counts(workload(3), 256, 5).with_deadline(Duration::ZERO);
    // Arming happens at submission; by the first cooperative check the
    // deadline has passed.
    assert!(matches!(session.run(&job), Err(SimError::DeadlineExceeded)));
}

#[test]
fn cancellation_is_observed_at_shot_chunk_boundaries() {
    // Drive the compiled artifact directly so the cancel fires inside
    // the worker fan-out (the session-level pre-check is bypassed),
    // proving the chunk-boundary poll works and the join is clean.
    for engine in [Engine::Statevector, Engine::Stabilizer, Engine::FrameBatch] {
        let session = noisy_session(3, engine);
        let compiled = session.compiled(&workload(3), 9).expect("compile");
        let token = CancelToken::new();
        token.cancel();
        let none = InsertionSet::empty();
        let got = compiled.run_counts_cancel(4096, &none, Some(2), Some(&token));
        assert!(
            matches!(got, Err(SimError::Cancelled)),
            "engine {engine:?}: expected Cancelled, got {got:?}"
        );
    }
}

#[test]
fn deadline_is_observed_at_shot_chunk_boundaries() {
    let session = noisy_session(3, Engine::FrameBatch);
    let compiled = session.compiled(&workload(3), 9).expect("compile");
    let token = CancelToken::new();
    token.set_deadline_in(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(1));
    let none = InsertionSet::empty();
    let got = compiled.run_counts_cancel(4096, &none, Some(2), Some(&token));
    assert!(
        matches!(got, Err(SimError::DeadlineExceeded)),
        "got {got:?}"
    );
}

#[test]
fn cancelled_job_leaves_batch_neighbours_bit_identical() {
    let session = noisy_session(5, Engine::FrameBatch);
    let a = Job::counts(workload(5), 257, 21);
    let b = Job::counts(workload(5), 193, 22);

    // Serial reference, no cancellation anywhere.
    let ref_a = session.run(&a).expect("serial a");
    let ref_b = session.run(&b).expect("serial b");

    let token = CancelToken::new();
    token.cancel();
    let doomed = Job::counts(workload(5), 999, 23).with_cancel(token);
    let out = session.submit(&[a, doomed, b]);

    assert_eq!(out[0].as_ref().expect("job a"), &ref_a);
    assert!(matches!(out[1], Err(SimError::Cancelled)));
    assert_eq!(out[2].as_ref().expect("job b"), &ref_b);
}

#[test]
fn session_worker_is_freed_after_cancellation() {
    let session = noisy_session(3, Engine::FrameBatch);
    let token = CancelToken::new();
    token.cancel();
    let doomed = Job::counts(workload(3), 512, 5).with_cancel(token);
    assert!(matches!(session.run(&doomed), Err(SimError::Cancelled)));

    // The same session (and its fan-out) still executes fresh jobs:
    // nothing is pinned by the cancelled one.
    let healthy = Job::counts(workload(3), 512, 5);
    let first = session.run(&healthy).expect("post-cancel run");
    let second = session.run(&healthy).expect("repeat run");
    assert_eq!(first, second, "cancellation must not perturb later jobs");
}

#[test]
fn mid_run_cancel_from_another_thread_stops_the_job() {
    // A genuinely concurrent cancel: the job is large enough that the
    // canceller thread wins the race against completion by a wide
    // margin (the job takes seconds; the cancel lands in ~10ms).
    let session = noisy_session(5, Engine::FrameBatch);
    // Warm the plan cache so the timing below is all execution.
    session
        .run(&Job::counts(workload(5), 64, 31))
        .expect("warm");

    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            token.cancel();
        })
    };
    let big = Job::counts(workload(5), 50_000_000, 31).with_cancel(token);
    let got = session.run(&big);
    canceller.join().expect("canceller thread");
    assert!(matches!(got, Err(SimError::Cancelled)), "got {got:?}");
}
