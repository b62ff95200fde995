//! Regression tests for the session layer's failure isolation,
//! observability contract and shot-count check.
//!
//! Three bugs pinned here:
//!
//! * The single-job `submit` path used to return before the
//!   `session/submit` span, the `session.workers` gauge, and the
//!   `session/job.queue_wait` histogram fired, so a tenant sending
//!   jobs one at a time was invisible to `/stats`. Both paths must now
//!   move the same instruments.
//! * A panicking job used to unwind through the scoped fan-out and
//!   take the whole `submit` batch (and its caller) down. A panic must
//!   fail *that job* with [`SimError::JobPanicked`] and leave every
//!   other job's result untouched.
//! * A zero-shot run used to return `[NaN]` expectations and a count
//!   result whose probabilities were NaN, on every engine. It must
//!   fail with [`SimError::ZeroShots`] instead.

use ca_circuit::{schedule_asap, Circuit, GateDurations, PauliString, ScheduledCircuit};
use ca_device::{uniform_device, Topology};
use ca_sim::session::{Job, Session};
use ca_sim::{Engine, InsertionSet, NoiseConfig, SimError, Simulator};

fn noisy_session(n: usize) -> Session {
    let mut dev = uniform_device(Topology::line(n), 60.0);
    for q in 0..n {
        dev.calibration.qubits[q].t1_us = 80.0;
        dev.calibration.qubits[q].t2_us = 90.0;
        dev.calibration.qubits[q].readout_err = 0.02;
    }
    let sim = Simulator::with_engine(dev, NoiseConfig::default(), Engine::FrameBatch);
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

/// A circuit that addresses more qubits than the session's device
/// has: compiling it indexes past the calibration table and panics,
/// standing in for any internal invariant violation.
fn oversized_workload() -> ScheduledCircuit {
    workload(7)
}

#[test]
fn single_job_submit_moves_the_same_instruments_as_batches() {
    ca_obs::set_level(ca_obs::Level::Summary);
    let session = noisy_session(3);
    let job = Job::counts(workload(3), 64, 11);

    let base = ca_obs::snapshot();
    let out = session.submit(std::slice::from_ref(&job));
    assert_eq!(out.len(), 1);
    assert!(out[0].is_ok(), "job failed: {:?}", out[0]);
    let delta = ca_obs::snapshot().since(&base);

    // The span, gauge, and queue-wait histogram all fire for a
    // single-job submit, not just for batches.
    assert!(
        delta.counter("session.jobs") >= 1,
        "session.jobs did not move"
    );
    let submit = delta
        .histogram("session/submit")
        .expect("session/submit span missing on the single-job path");
    assert!(submit.count() >= 1);
    let wait = delta
        .histogram("session/job.queue_wait")
        .expect("session/job.queue_wait missing on the single-job path");
    assert!(wait.count() >= 1);
    assert!(
        ca_obs::snapshot().gauges.contains_key("session.workers"),
        "session.workers gauge missing on the single-job path"
    );
}

#[test]
fn panicking_job_fails_alone_in_a_batch() {
    let session = noisy_session(3);
    let good = Job::counts(workload(3), 128, 7);
    let bad = Job::counts(oversized_workload(), 128, 7);

    // Serial reference for the healthy jobs.
    let expect_first = session.run(&good).expect("healthy job");

    let out = session.submit(&[good.clone(), bad, good.clone()]);
    assert_eq!(out.len(), 3);
    assert_eq!(
        out[0].as_ref().expect("first job unaffected"),
        &expect_first
    );
    assert_eq!(
        out[2].as_ref().expect("third job unaffected"),
        &expect_first
    );
    match &out[1] {
        Err(SimError::JobPanicked { message }) => {
            assert!(!message.is_empty(), "panic message should be captured");
        }
        other => panic!("expected JobPanicked, got {other:?}"),
    }
}

#[test]
fn panicking_single_job_returns_structured_error() {
    let session = noisy_session(2);
    let out = session.submit(&[Job::counts(oversized_workload(), 32, 3)]);
    assert!(
        matches!(&out[0], Err(SimError::JobPanicked { .. })),
        "expected JobPanicked, got {:?}",
        out[0]
    );
    // The session stays usable after absorbing the panic.
    session
        .run(&Job::counts(workload(2), 32, 3))
        .expect("session survives a panicked job");
}

#[test]
fn zero_shots_is_a_structured_error_on_every_engine() {
    let sc = workload(3);
    let obs = [PauliString::parse("ZZI").unwrap()];
    let none = InsertionSet::empty();
    for engine in [Engine::Statevector, Engine::Stabilizer, Engine::FrameBatch] {
        let dev = uniform_device(Topology::line(3), 60.0);
        let sim = Simulator::with_engine(dev, NoiseConfig::default(), engine);
        let compiled = sim.compile(&sc, 3).expect("compile");
        assert_eq!(compiled.engine_name(), engine.name());
        assert_eq!(
            compiled.run_counts(0, &none, None),
            Err(SimError::ZeroShots),
            "{engine:?}"
        );
        assert_eq!(
            compiled.expect_paulis(&obs, 0, &none, None),
            Err(SimError::ZeroShots),
            "{engine:?}"
        );
        assert_eq!(
            compiled.expect_flips(&obs, 0, &none, None),
            Err(SimError::ZeroShots),
            "{engine:?}"
        );
        let session = Session::with_capacity(sim, 4);
        for job in [
            Job::counts(sc.clone(), 0, 3),
            Job::expect(sc.clone(), obs.to_vec(), 0, 3),
        ] {
            assert_eq!(
                session.run(&job),
                Err(SimError::ZeroShots),
                "{engine:?} job"
            );
        }
    }
}
