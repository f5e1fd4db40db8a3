//! Cross-layer flight-recorder invariants on a real assisted migration.
//!
//! One derby run is recorded end to end; the tests then check the causal
//! ordering the paper's Figure 4 workflow implies, the presence of every
//! instrumented subsystem, the span-derived downtime breakdown, and that
//! the exporters are byte-deterministic for identical seeds.

use javmm::orchestrator::{run_scenario_recorded, Scenario, ScenarioOutcome};
use javmm::vm::JavaVmConfig;
use migrate::config::MigrationConfig;
use simkit::telemetry::{export, Event, RunTelemetry, Value};
use simkit::{Recorder, SimDuration, SimTime, Subsystem};
use workloads::catalog;

fn recorded_run(seed: u64) -> ScenarioOutcome {
    run_scenario_recorded(
        &Scenario::quick(
            JavaVmConfig::paper(catalog::derby(), true, seed),
            MigrationConfig::javmm_default(),
            SimDuration::from_secs(20),
            SimDuration::from_secs(5),
        ),
        Recorder::new(),
    )
    .expect("scenario failed")
}

fn str_field<'a>(e: &'a Event, key: &str) -> Option<&'a str> {
    e.fields
        .iter()
        .rev()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
}

/// The instant a uniquely-named engine event fired.
fn engine_at(t: &RunTelemetry, name: &str) -> SimTime {
    let evs = t.events_named(Subsystem::Engine, name);
    assert_eq!(evs.len(), 1, "exactly one engine `{name}` event");
    evs[0].at
}

#[test]
fn recorder_covers_every_layer_in_causal_order() {
    let outcome = recorded_run(5);
    let t = &outcome.report.telemetry;
    assert!(t.enabled, "run was recorded");

    // Every instrumented subsystem shows up in the event stream or spans.
    // Fleet is the exception: only multi-VM drains write to it, and only
    // the three histogram families their fleet digests merge.
    for sub in Subsystem::ALL {
        if sub == Subsystem::Fleet {
            continue;
        }
        let seen = t.events.iter().any(|e| e.subsystem == sub)
            || t.spans.iter().any(|s| s.subsystem == sub);
        assert!(seen, "subsystem {sub} produced no telemetry");
    }

    // Sequence numbers are globally strictly increasing in record order.
    for w in t.events.windows(2) {
        assert!(
            w[0].seq < w[1].seq,
            "seqs out of order: {:?}",
            (&w[0], &w[1])
        );
    }

    // Timestamps never go backwards within a subsystem's own stream.
    for sub in Subsystem::ALL {
        let mut last = SimTime::ZERO;
        for e in t.events.iter().filter(|e| e.subsystem == sub) {
            assert!(e.at >= last, "{sub} time went backwards at seq {}", e.seq);
            last = e.at;
        }
    }

    // The Figure 4 causal chain. Note the assisted engine pushes one more
    // iteration_start (the waiting iteration) after notifying the LKM, so
    // iteration starts are bounded by the pause, not by the notification.
    let begin = engine_at(t, "begin");
    let notified = engine_at(t, "notified_lkm");
    let ready = engine_at(t, "ready_received");
    let paused = engine_at(t, "paused");
    let resumed = engine_at(t, "resumed");
    let iter_starts = t.events_named(Subsystem::Engine, "iteration_start");
    assert!(!iter_starts.is_empty());
    assert!(begin <= iter_starts[0].at);
    for ev in &iter_starts {
        assert!(ev.at <= paused, "iteration started after the pause");
    }
    assert!(notified < ready, "LKM notified before it reported ready");
    assert!(ready <= paused, "pause follows readiness");
    assert!(paused < resumed, "resume follows pause");
}

#[test]
fn enforced_gc_lands_inside_the_lkm_preparation_window() {
    let outcome = recorded_run(5);
    let t = &outcome.report.telemetry;

    let state_at = |to: &str| {
        let evs: Vec<_> = t
            .events_named(Subsystem::Lkm, "state_transition")
            .into_iter()
            .filter(|e| str_field(e, "to") == Some(to))
            .collect();
        assert_eq!(evs.len(), 1, "exactly one transition to {to}");
        evs[0].at
    };
    let t_enter = state_at("ENTERING_LAST_ITER");
    let t_ready = state_at("SUSPENSION_READY");
    assert!(t_enter < t_ready);

    // Exactly one enforced GC, entirely inside the preparation window.
    let enforced = t.spans_named(Subsystem::Gc, "enforced_gc");
    assert_eq!(enforced.len(), 1, "exactly one enforced GC");
    assert!(enforced[0].start >= t_enter && enforced[0].end <= t_ready);

    // The report's downtime breakdown is derived from these spans.
    assert_eq!(outcome.report.downtime.enforced_gc, enforced[0].duration());
    let final_update = t.spans_named(Subsystem::Lkm, "final_bitmap_update");
    assert_eq!(final_update.len(), 1);
    assert_eq!(
        outcome.report.downtime.final_update,
        final_update[0].duration()
    );

    // The post-hoc span table has the §5.3 latency rows.
    let table = t.span_table();
    for (sub, name) in [
        (Subsystem::Lkm, "final_bitmap_update"),
        (Subsystem::Engine, "resume"),
        (Subsystem::Engine, "stop_and_copy"),
        (Subsystem::Gc, "enforced_gc"),
        (Subsystem::Jvm, "safepoint_hold"),
    ] {
        let row = table
            .iter()
            .find(|r| r.subsystem == sub && r.name == name)
            .unwrap_or_else(|| panic!("span table misses {sub}/{name}"));
        assert!(row.count >= 1);
        assert!(row.max >= row.mean && row.p95 <= row.max);
    }
}

#[test]
fn exports_are_byte_identical_for_identical_seeds() {
    let a = recorded_run(7);
    let b = recorded_run(7);
    let ja = export::jsonl_to_string(&a.report.telemetry);
    let jb = export::jsonl_to_string(&b.report.telemetry);
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "JSONL export must be byte-deterministic");
    let ca = export::chrome_trace_to_string(&a.report.telemetry);
    let cb = export::chrome_trace_to_string(&b.report.telemetry);
    assert_eq!(ca, cb, "Chrome trace export must be byte-deterministic");
    // Each JSONL line is tagged with one of the six subsystem lanes.
    for line in ja.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "line: {line}");
        assert!(line.contains("\"sub\":"), "untagged line: {line}");
    }
}
