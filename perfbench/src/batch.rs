//! The batch workloads: single-thread `generate_with_report` calls with the
//! QA pipeline and the verification pipeline. A workload is a list of
//! batches; one pass calls both pipelines on every batch, and a latency is
//! one call, the time a caller of the batch API waits.

use crate::host::{self, SpeedProbe};
use crate::ledger::{Funnel, Ledger};
use crate::stats::{median, samples_digest};
use crate::trace::Tracer;
use crate::{Outcome, Timed, MIN_BEYOND_P90};
use std::hint::black_box;
use std::time::Instant;
use uctr::{PipelineReport, Sample, TableWithContext, TemplateBank, UctrConfig, UctrPipeline};

/// Pipeline pairs built to time set-up; the median is reported.
const SETUP_REPEATS: usize = 31;

/// A window runs at least this many calls, so its p90 has ten beyond it.
const MIN_CALLS: usize = 10 * MIN_BEYOND_P90;

fn setup(probe: &mut SpeedProbe) -> (f64, [UctrPipeline; 2]) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let scale = probe.scale();
        let started = Instant::now();
        let pair = black_box([
            UctrPipeline::new(UctrConfig::qa()),
            UctrPipeline::new(UctrConfig::verification()),
        ]);
        times.push(started.elapsed().as_secs_f64() * scale);
        built = Some(pair);
    }
    (median(&times), built.expect("at least one set-up"))
}

/// The calls of one pass, in order: both pipelines on each batch.
fn calls<'a>(
    pipelines: &'a [UctrPipeline; 2],
    batches: &'a [Vec<TableWithContext>],
) -> impl Iterator<Item = (&'a UctrPipeline, &'a [TableWithContext])> {
    batches.iter().flat_map(move |b| pipelines.iter().map(move |p| (p, b.as_slice())))
}

/// Same samples and same deterministic report as the reference call.
fn matches(reference: &(Vec<Sample>, PipelineReport), got: &(Vec<Sample>, PipelineReport)) -> bool {
    reference.0 == got.0 && reference.1.deterministic_eq(&got.1)
}

/// Untraced passes until the calls' summed wall time reaches `seconds` and
/// at least [`MIN_CALLS`] calls ran.
fn window(
    pipelines: &[UctrPipeline; 2],
    batches: &[Vec<TableWithContext>],
    reference: &[(Vec<Sample>, PipelineReport)],
    seconds: f64,
    probe: &mut SpeedProbe,
) -> Timed {
    let mut timed = Timed::default();
    while timed.raw_secs < seconds || timed.latencies_ms.len() < MIN_CALLS {
        for ((pipeline, batch), want) in calls(pipelines, batches).zip(reference) {
            let scale = probe.scale();
            let started = Instant::now();
            let got = pipeline.generate_with_report(batch);
            let secs = started.elapsed().as_secs_f64();
            timed.book(secs, scale, got.0.len() as u64, matches(want, &got));
        }
    }
    timed
}

pub fn run(batches: &[Vec<TableWithContext>], seconds: f64, trace: Option<&mut Tracer>) -> Outcome {
    let mut probe = SpeedProbe::default();
    let (setup_s, pipelines) = setup(&mut probe);
    // The first pass warms lazy state and is the reference every later
    // call must reproduce.
    let reference: Vec<(Vec<Sample>, PipelineReport)> =
        calls(&pipelines, batches).map(|(p, b)| p.generate_with_report(b)).collect();
    let mut funnel = Funnel::default();
    reference.iter().for_each(|(_, r)| funnel.add(r));
    let samples: Vec<Sample> = reference.iter().flat_map(|(s, _)| s.iter().cloned()).collect();
    let mut out = Outcome::default();
    out.note(format!(
        "output digest {:016x} ({} samples per pass)",
        samples_digest(&samples),
        funnel.accepted
    ));
    let cpu_before = host::cpu_times();

    let Some(tracer) = trace else {
        let timed = window(&pipelines, batches, &reference, seconds, &mut probe);
        out.note(format!(
            "unscaled: {:.1} samples/s over {:.1} s; reference work took {:.3} ms (median of {})",
            timed.raw_rate(),
            timed.raw_secs,
            median(&probe.probes_ms),
            probe.probes_ms.len()
        ));
        out.absorb(&timed);
        out.metric("samples_per_sec", timed.rate());
        out.latency(&timed);
        out.metric("setup_s", setup_s);
        out.metric("peak_rss_mb", host::peak_rss_mb(None).unwrap_or(0.0));
        out.note_host(cpu_before);
        return out;
    };

    // Traced run: half the window untraced, half traced, for the overhead.
    let plain = window(&pipelines, batches, &reference, seconds / 2.0, &mut probe);
    let bank = TemplateBank::builtin();
    let mut ledger = Ledger { funnel, ..Ledger::default() };
    let mut traced = Timed::default();
    while traced.raw_secs < seconds / 2.0 {
        let id = ledger.passes;
        let root = tracer.open("pass", id, None);
        for ((pipeline, batch), want) in calls(&pipelines, batches).zip(&reference) {
            let scale = probe.scale();
            let (got, ns) =
                ledger.generate(tracer, id, Some(root), || pipeline.generate_with_report(batch));
            traced.book(ns as f64 / 1e9, scale, got.0.len() as u64, matches(want, &got));
        }
        tracer.close(root);
        // The layers the report does not time, outside the pass span.
        for (_, batch) in calls(&pipelines, batches) {
            ledger.direct_calls(tracer, id, None, &bank, batch);
        }
        ledger.passes += 1;
    }
    out.absorb(&plain);
    out.absorb(&traced);
    out.ledger(&ledger);
    out.metric("trace.overhead_share", 1.0 - traced.rate() / plain.rate());
    out.serve_layers_absent();
    out.note_host(cpu_before);
    out
}
