//! Deterministic exporters: JSONL and Chrome trace-event JSON.
//!
//! Both formats are emitted with hand-rolled serialisation (no external
//! JSON dependency) and fully deterministic ordering/formatting, so two
//! same-seed runs produce byte-identical files. The Chrome trace output
//! follows the trace-event format understood by Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`: one `M` metadata
//! record naming each subsystem lane, `X` complete events for spans, `i`
//! instant events, and `C` counter events for gauge samples.

use std::fmt::Write as _;

use super::recorder::{Event, EventKind, RunTelemetry, Value};
use super::Subsystem;

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (non-finite values become `null`).
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        // Rust's shortest-roundtrip Display never uses an exponent, so the
        // output is always a valid JSON number; it is also deterministic.
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn fmt_value(v: &Value) -> String {
    match v {
        Value::U64(x) => format!("{x}"),
        Value::F64(x) => fmt_f64(*x),
        Value::Bool(b) => format!("{b}"),
        Value::Str(s) => format!("\"{}\"", escape_json(s)),
        Value::Dur(d) => format!("{}", d.as_nanos()),
    }
}

fn fmt_fields(fields: &[(&'static str, Value)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", escape_json(k), fmt_value(v));
    }
    out.push('}');
    out
}

/// Microseconds with fixed 3-decimal nanosecond precision, via integer
/// math so formatting is exact and deterministic.
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Serialises the telemetry as JSON Lines: one record per line — events in
/// sequence order, then spans by `(start, id)`, then counters, then gauge
/// summaries, then histogram summaries, then bounded-series summaries.
/// Byte-identical across same-seed runs.
pub fn jsonl_to_string(t: &RunTelemetry) -> String {
    let mut out = String::new();
    for e in &t.events {
        let _ = write!(
            out,
            "{{\"type\":\"event\",\"seq\":{},\"at_ns\":{},\"sub\":\"{}\",\"name\":\"{}\"",
            e.seq,
            e.at.as_nanos(),
            e.subsystem,
            escape_json(e.name),
        );
        match e.kind {
            EventKind::Instant => out.push_str(",\"kind\":\"instant\""),
            EventKind::Gauge(v) => {
                let _ = write!(out, ",\"kind\":\"gauge\",\"value\":{}", fmt_f64(v));
            }
        }
        if !e.fields.is_empty() {
            let _ = write!(out, ",\"fields\":{}", fmt_fields(&e.fields));
        }
        out.push_str("}\n");
    }
    for s in &t.spans {
        let _ = write!(
            out,
            "{{\"type\":\"span\",\"sub\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"dur_ns\":{}",
            s.subsystem,
            escape_json(s.name),
            s.start.as_nanos(),
            s.end.as_nanos(),
            s.duration().as_nanos(),
        );
        if !s.fields.is_empty() {
            let _ = write!(out, ",\"fields\":{}", fmt_fields(&s.fields));
        }
        out.push_str("}\n");
    }
    for c in &t.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"sub\":\"{}\",\"name\":\"{}\",\"value\":{}}}",
            c.subsystem,
            escape_json(c.name),
            c.value,
        );
    }
    for g in &t.gauges {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"sub\":\"{}\",\"name\":\"{}\",\"last\":{},\"min\":{},\"max\":{},\"samples\":{}}}",
            g.subsystem,
            escape_json(g.name),
            fmt_f64(g.last),
            fmt_f64(g.min),
            fmt_f64(g.max),
            g.samples,
        );
    }
    for h in &t.hists {
        let _ = writeln!(
            out,
            "{{\"type\":\"hist\",\"sub\":\"{}\",\"name\":\"{}\",\"count\":{},\"min\":{},\"max\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            h.subsystem,
            escape_json(h.name),
            h.hist.count(),
            h.hist.min(),
            h.hist.max(),
            h.hist.sum(),
            h.hist.quantile(0.50),
            h.hist.quantile(0.95),
            h.hist.quantile(0.99),
        );
    }
    for s in &t.series {
        let _ = writeln!(
            out,
            "{{\"type\":\"series\",\"sub\":\"{}\",\"name\":\"{}\",\"count\":{},\"dropped\":{},\"cadence_ns\":{},\"first_ns\":{},\"mean\":{},\"last\":{},\"p50\":{},\"p95\":{}}}",
            s.subsystem,
            escape_json(s.name),
            s.series.len(),
            s.series.dropped(),
            s.series.cadence_ns(),
            s.series.first_ns(),
            fmt_f64(s.series.mean()),
            fmt_f64(s.series.last().unwrap_or(f64::NAN)),
            fmt_f64(s.series.quantile(0.50)),
            fmt_f64(s.series.quantile(0.95)),
        );
    }
    out
}

fn chrome_instant(out: &mut String, e: &Event) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{}",
        escape_json(e.name),
        e.subsystem,
        e.subsystem.lane(),
        fmt_us(e.at.as_nanos()),
    );
    if !e.fields.is_empty() {
        let _ = write!(out, ",\"args\":{}", fmt_fields(&e.fields));
    }
    out.push('}');
}

fn chrome_gauge(out: &mut String, e: &Event, value: f64) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{\"value\":{}}}}}",
        escape_json(e.name),
        e.subsystem,
        e.subsystem.lane(),
        fmt_us(e.at.as_nanos()),
        fmt_f64(value),
    );
}

/// Serialises the telemetry in Chrome trace-event format (a JSON object
/// with a `traceEvents` array), loadable in Perfetto. Spans become `X`
/// complete events so overlapping phases in one lane render correctly.
pub fn chrome_trace_to_string(t: &RunTelemetry) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
    };
    for sub in Subsystem::ALL {
        push(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            sub.lane(),
            sub,
        );
    }
    for s in &t.spans {
        push(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
            escape_json(s.name),
            s.subsystem,
            s.subsystem.lane(),
            fmt_us(s.start.as_nanos()),
            fmt_us(s.duration().as_nanos()),
        );
        if !s.fields.is_empty() {
            let _ = write!(out, ",\"args\":{}", fmt_fields(&s.fields));
        }
        out.push('}');
    }
    for e in &t.events {
        push(&mut out, &mut first);
        match e.kind {
            EventKind::Instant => chrome_instant(&mut out, e),
            EventKind::Gauge(v) => chrome_gauge(&mut out, e, v),
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Serialises the metrics registry in Prometheus text exposition format,
/// for human `diff`ing across runs: counters as `javmm_counter`, gauges as
/// `javmm_gauge` (last value), histograms as `javmm_hist_count/_sum`,
/// quantile-labelled `javmm_hist` samples and `javmm_hist_max`, and
/// bounded series as `javmm_series_count/_mean/_last` plus
/// quantile-labelled `javmm_series` samples. Ordering follows the
/// registry's `(subsystem, name)` sort, so output is byte-deterministic.
pub fn prometheus_to_string(t: &RunTelemetry) -> String {
    let mut out = String::new();
    out.push_str("# TYPE javmm_counter counter\n");
    for c in &t.counters {
        let _ = writeln!(
            out,
            "javmm_counter{{sub=\"{}\",name=\"{}\"}} {}",
            c.subsystem,
            escape_json(c.name),
            c.value,
        );
    }
    out.push_str("# TYPE javmm_gauge gauge\n");
    for g in &t.gauges {
        let _ = writeln!(
            out,
            "javmm_gauge{{sub=\"{}\",name=\"{}\"}} {}",
            g.subsystem,
            escape_json(g.name),
            fmt_f64(g.last),
        );
    }
    out.push_str("# TYPE javmm_hist summary\n");
    for h in &t.hists {
        let base = format!("sub=\"{}\",name=\"{}\"", h.subsystem, escape_json(h.name));
        let _ = writeln!(out, "javmm_hist_count{{{base}}} {}", h.hist.count());
        let _ = writeln!(out, "javmm_hist_sum{{{base}}} {}", h.hist.sum());
        for (label, q) in [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)] {
            let _ = writeln!(
                out,
                "javmm_hist{{{base},quantile=\"{label}\"}} {}",
                h.hist.quantile(q),
            );
        }
        let _ = writeln!(out, "javmm_hist_max{{{base}}} {}", h.hist.max());
    }
    out.push_str("# TYPE javmm_series gauge\n");
    for s in &t.series {
        let base = format!("sub=\"{}\",name=\"{}\"", s.subsystem, escape_json(s.name));
        let _ = writeln!(out, "javmm_series_count{{{base}}} {}", s.series.len());
        let _ = writeln!(
            out,
            "javmm_series_mean{{{base}}} {}",
            fmt_f64(s.series.mean())
        );
        let _ = writeln!(
            out,
            "javmm_series_last{{{base}}} {}",
            fmt_f64(s.series.last().unwrap_or(f64::NAN)),
        );
        for (label, q) in [("0.5", 0.50), ("0.95", 0.95)] {
            let _ = writeln!(
                out,
                "javmm_series{{{base},quantile=\"{label}\"}} {}",
                fmt_f64(s.series.quantile(q)),
            );
        }
    }
    out
}

/// Borrowed view of one network pipe's sampled timelines, for Prometheus
/// export. `simkit` cannot see the network simulator's topology types, so
/// callers (the bench harness, integration tests) construct these views
/// over whatever owns the series and pass them in pipe order.
pub struct PipeSeriesView<'a> {
    /// Pipe name as labelled in the topology (e.g. `core`, `rack-a:ingress`).
    pub name: &'a str,
    /// Bounded utilization-fraction series (`0.0..=1.0` per sample).
    pub utilization: &'a super::SampleSeries,
    /// Bounded queued-demand series (bytes/sec of admitted minimum rates).
    pub queued_demand: &'a super::SampleSeries,
}

fn pipe_family<'a>(
    out: &mut String,
    family: &str,
    pipes: &'a [PipeSeriesView<'a>],
    pick: &dyn Fn(&'a PipeSeriesView<'a>) -> &'a super::SampleSeries,
) {
    let _ = writeln!(out, "# TYPE {family} gauge");
    for p in pipes {
        let series = pick(p);
        let base = format!("pipe=\"{}\"", escape_json(p.name));
        let _ = writeln!(
            out,
            "{family}{{{base}}} {}",
            fmt_f64(series.last().unwrap_or(f64::NAN)),
        );
        let _ = writeln!(out, "{family}_mean{{{base}}} {}", fmt_f64(series.mean()));
        for (label, q) in [("0.5", 0.50), ("0.95", 0.95)] {
            let _ = writeln!(
                out,
                "{family}{{{base},quantile=\"{label}\"}} {}",
                fmt_f64(series.quantile(q)),
            );
        }
    }
}

/// Serialises per-pipe utilization and queued-demand timelines in
/// Prometheus text exposition format: the `javmm_pipe_utilization` and
/// `javmm_pipe_queued_demand` gauge families, each with a `pipe`-labelled
/// latest sample, a `_mean` over the retained window, and
/// quantile-labelled summaries. Pipes are emitted in caller order, so two
/// same-seed runs produce byte-identical expositions.
pub fn pipes_prometheus_to_string(pipes: &[PipeSeriesView<'_>]) -> String {
    let mut out = String::new();
    pipe_family(&mut out, "javmm_pipe_utilization", pipes, &|p| {
        p.utilization
    });
    pipe_family(&mut out, "javmm_pipe_queued_demand", pipes, &|p| {
        p.queued_demand
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Recorder;
    use crate::time::{SimDuration, SimTime};

    fn sample() -> RunTelemetry {
        let rec = Recorder::new();
        let t1 = SimTime::from_nanos(1_500);
        rec.instant(
            t1,
            Subsystem::Engine,
            "begin",
            vec![("label", "say \"hi\"\n".into()), ("iter", 3u64.into())],
        );
        rec.gauge(
            SimTime::from_nanos(2_000),
            Subsystem::Net,
            "utilization",
            0.25,
        );
        rec.record_span(
            t1,
            Subsystem::Gc,
            "minor_gc",
            SimDuration::from_nanos(4_500),
            vec![("promoted", 7u64.into()), ("enforced", false.into())],
        );
        rec.counter_add(Subsystem::Lkm, "pages_walked", 42);
        rec.snapshot()
    }

    #[test]
    fn escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(
            escape_json("a\"b\\c\nd\te\u{1}"),
            "a\\\"b\\\\c\\nd\\te\\u0001"
        );
        assert_eq!(escape_json("plain"), "plain");
    }

    #[test]
    fn jsonl_has_one_record_per_line_in_fixed_order() {
        let text = jsonl_to_string(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("\"type\":\"event\"") && lines[0].contains("\"seq\":0"));
        assert!(lines[0].contains("\"label\":\"say \\\"hi\\\"\\n\""));
        assert!(lines[1].contains("\"kind\":\"gauge\"") && lines[1].contains("\"value\":0.25"));
        assert!(lines[2].contains("\"type\":\"span\"") && lines[2].contains("\"dur_ns\":4500"));
        assert!(lines[3].contains("\"type\":\"counter\"") && lines[3].contains("\"value\":42"));
        assert!(lines[4].contains("\"type\":\"gauge\"") && lines[4].contains("\"samples\":1"));
        // Every line is a balanced JSON object.
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            let opens = line.matches('{').count();
            assert_eq!(opens, line.matches('}').count());
        }
    }

    #[test]
    fn chrome_trace_contains_all_record_shapes() {
        let text = chrome_trace_to_string(&sample());
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        // Lane metadata for all six subsystems.
        for sub in Subsystem::ALL {
            assert!(text.contains(&format!("\"args\":{{\"name\":\"{sub}\"}}")));
        }
        // Span -> X with microsecond ts/dur (1500 ns = 1.500 us).
        assert!(text.contains("\"ph\":\"X\"") && text.contains("\"ts\":1.500"));
        assert!(text.contains("\"dur\":4.500"));
        // Instant and gauge records.
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"ph\":\"C\""));
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample();
        let b = sample();
        assert_eq!(jsonl_to_string(&a), jsonl_to_string(&b));
        assert_eq!(chrome_trace_to_string(&a), chrome_trace_to_string(&b));
        assert_eq!(prometheus_to_string(&a), prometheus_to_string(&b));
    }

    fn sample_with_hist() -> RunTelemetry {
        let rec = Recorder::new();
        rec.counter_add(Subsystem::Lkm, "pages_walked", 42);
        for v in [100u64, 200, 300] {
            rec.hist(Subsystem::Engine, "iteration_pages_sent", v);
        }
        rec.snapshot()
    }

    #[test]
    fn jsonl_appends_hist_lines_after_gauges() {
        let text = jsonl_to_string(&sample_with_hist());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"counter\""));
        assert!(lines[1].contains("\"type\":\"hist\""));
        assert!(lines[1].contains("\"sub\":\"engine\""));
        assert!(lines[1].contains("\"count\":3"));
        assert!(lines[1].contains("\"sum\":600"));
    }

    #[test]
    fn prometheus_exposition_names_every_metric_family() {
        let text = prometheus_to_string(&sample_with_hist());
        assert!(text.contains("javmm_counter{sub=\"lkm\",name=\"pages_walked\"} 42"));
        assert!(text.contains("javmm_hist_count{sub=\"engine\",name=\"iteration_pages_sent\"} 3"));
        assert!(text.contains("javmm_hist_sum{sub=\"engine\",name=\"iteration_pages_sent\"} 600"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("javmm_hist_max{sub=\"engine\",name=\"iteration_pages_sent\"}"));
        assert!(text.contains("# TYPE javmm_series gauge"));
    }

    fn sample_with_series() -> RunTelemetry {
        let rec = Recorder::new();
        for (i, v) in [40.0, 10.0, 30.0, 20.0].iter().enumerate() {
            rec.series_push(
                Subsystem::Jvm,
                "dirty_rate_bps",
                500_000_000,
                3,
                SimTime::from_nanos(i as u64 * 500_000_000),
                *v,
            );
        }
        rec.series_push(
            Subsystem::Engine,
            "iteration_dirty_pages",
            0,
            8,
            SimTime::from_nanos(1),
            77.0,
        );
        rec.snapshot()
    }

    #[test]
    fn jsonl_appends_series_lines_after_hists() {
        let text = jsonl_to_string(&sample_with_series());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        // Engine sorts before Jvm; the single-sample series reports its
        // one observation as every quantile.
        assert!(lines[0].contains("\"type\":\"series\""));
        assert!(lines[0].contains("\"sub\":\"engine\""));
        assert!(lines[0].contains("\"count\":1"));
        assert!(lines[0].contains("\"p50\":77") && lines[0].contains("\"p95\":77"));
        // The Jvm ring (capacity 3) dropped the first sample; summaries
        // are over the sorted retained window [10,20,30].
        assert!(lines[1].contains("\"sub\":\"jvm\""));
        assert!(lines[1].contains("\"count\":3") && lines[1].contains("\"dropped\":1"));
        assert!(lines[1].contains("\"cadence_ns\":500000000"));
        assert!(lines[1].contains("\"last\":20") && lines[1].contains("\"p50\":20"));
        assert!(lines[1].contains("\"p95\":30"));
    }

    #[test]
    fn pipe_exposition_is_labelled_and_deterministic() {
        use crate::telemetry::SampleSeries;
        let mut util = SampleSeries::new(0, 8);
        let mut demand = SampleSeries::new(0, 8);
        for (i, (u, d)) in [(0.5, 1e8), (0.75, 2e8), (1.0, 1.5e8)].iter().enumerate() {
            util.push(i as u64 * 1_000, *u);
            demand.push(i as u64 * 1_000, *d);
        }
        let views = [PipeSeriesView {
            name: "core",
            utilization: &util,
            queued_demand: &demand,
        }];
        let text = pipes_prometheus_to_string(&views);
        assert!(text.contains("# TYPE javmm_pipe_utilization gauge"));
        assert!(text.contains("# TYPE javmm_pipe_queued_demand gauge"));
        assert!(text.contains("javmm_pipe_utilization{pipe=\"core\"} 1"));
        assert!(text.contains("javmm_pipe_utilization_mean{pipe=\"core\"} 0.75"));
        assert!(text.contains("javmm_pipe_utilization{pipe=\"core\",quantile=\"0.95\"} 1"));
        assert!(text.contains("javmm_pipe_queued_demand{pipe=\"core\"} 150000000"));
        assert_eq!(text, pipes_prometheus_to_string(&views));
        // Empty series expose as null samples, never a panic.
        let empty = SampleSeries::new(0, 2);
        let bare = [PipeSeriesView {
            name: "idle",
            utilization: &empty,
            queued_demand: &empty,
        }];
        assert!(pipes_prometheus_to_string(&bare)
            .contains("javmm_pipe_utilization{pipe=\"idle\"} null"));
    }

    #[test]
    fn prometheus_exports_series_family() {
        let text = prometheus_to_string(&sample_with_series());
        assert!(text.contains("javmm_series_count{sub=\"jvm\",name=\"dirty_rate_bps\"} 3"));
        assert!(text.contains("javmm_series_mean{sub=\"jvm\",name=\"dirty_rate_bps\"} 20"));
        assert!(text.contains("javmm_series_last{sub=\"jvm\",name=\"dirty_rate_bps\"} 20"));
        assert!(
            text.contains("javmm_series{sub=\"jvm\",name=\"dirty_rate_bps\",quantile=\"0.95\"} 30")
        );
        assert!(
            text.contains("javmm_series_count{sub=\"engine\",name=\"iteration_dirty_pages\"} 1")
        );
    }
}
