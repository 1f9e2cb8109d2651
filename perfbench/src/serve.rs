//! The `serve_tcp` workload: a closed loop of client connections from this
//! process against a `uctr-served` process. Each client sends its next
//! request when the previous reply has arrived, walking the seeded request
//! rotation. Every `ok` reply must carry exactly the samples an in-process
//! `UctrPipeline::generate_request` produced for the same request before
//! the window opened.

use crate::host::{self, SpeedProbe};
use crate::inputs::serve_rotation;
use crate::ledger::{Funnel, Ledger};
use crate::stats::{median, nearest_rank};
use crate::trace::Tracer;
use crate::{Outcome, Timed};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};
use uctr::serve::{read_frame, write_frame, MAX_FRAME_BYTES};
use uctr::{
    GenRequest, GenResponse, GenScratch, PipelineReport, Sample, ServeConfig, TableWithContext,
    TelemetryBank, TemplateBank, UctrConfig, UctrPipeline,
};

const CONNECTIONS: usize = 2;
const SHARDS: usize = 2;
/// Daemon start-ups timed per run; the median is `setup_s`.
const SETUP_REPEATS: usize = 31;
/// Requests each connection sends before the window opens.
const WARMUP_REQUESTS: usize = 9;
/// How long a request may keep being rejected after the window closes.
const RETRY_GRACE: Duration = Duration::from_secs(10);
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon; dropping it kills the process and waits for it.
struct Served {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn(daemon: &Path) -> Result<Served, String> {
    let mut child = Command::new(daemon)
        .args(["--addr", "127.0.0.1:0", "--shards", &SHARDS.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", daemon.display()))?;
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err("daemon stdout is not piped".into());
    };
    // From here the guard owns the process.
    let mut served = Served { child, _stdout: BufReader::new(stdout), addr: String::new() };
    let mut line = String::new();
    served._stdout.read_line(&mut line).map_err(|e| format!("daemon ready line: {e}"))?;
    // "uctr-served listening on HOST:PORT shards=N queue_bound=M"
    served.addr = line
        .strip_prefix("uctr-served listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or_else(|| format!("unexpected daemon ready line {line:?}"))?
        .to_string();
    Ok(served)
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    s.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    Ok(s)
}

/// Median time of daemon spawn until its ready line plus the client
/// connects, scaled to the host's speed like the batch set-up; returns the
/// last daemon and its connections.
fn setup(daemon: &Path, probe: &mut SpeedProbe) -> Result<(f64, Served, Vec<TcpStream>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let scale = probe.scale();
        let started = Instant::now();
        let served = spawn(daemon)?;
        let conns =
            (0..CONNECTIONS).map(|_| connect(&served.addr)).collect::<Result<Vec<_>, _>>()?;
        times.push(started.elapsed().as_secs_f64() * scale);
        last = Some((served, conns));
    }
    let (served, conns) = last.ok_or("no set-up ran")?;
    Ok((median(&times), served, conns))
}

/// One exchange as the client saw it.
struct Reply {
    response: GenResponse,
    encode_ns: u64,
    decode_ns: u64,
}

fn exchange(stream: &mut TcpStream, request: &GenRequest) -> Result<Reply, String> {
    let t0 = Instant::now();
    let json = serde_json::to_string(request).map_err(|e| e.to_string())?;
    write_frame(stream, json.as_bytes()).map_err(|e| e.to_string())?;
    let encode_ns = t0.elapsed().as_nanos() as u64;
    let frame = read_frame(stream, MAX_FRAME_BYTES)
        .map_err(|e| e.to_string())?
        .ok_or("connection closed before a reply")?;
    let t2 = Instant::now();
    let text = std::str::from_utf8(&frame).map_err(|e| e.to_string())?;
    let response: GenResponse = serde_json::from_str(text).map_err(|e| e.to_string())?;
    Ok(Reply { response, encode_ns, decode_ns: t2.elapsed().as_nanos() as u64 })
}

/// One request of the window, as booked.
#[derive(Clone, Copy, Default)]
struct Rec {
    started: Option<Instant>,
    latency_ns: u64,
    queue_ns: u64,
    service_ns: u64,
    encode_ns: u64,
    decode_ns: u64,
    samples: u64,
    rejections: u64,
    ok: bool,
    error: bool,
}

/// Sends `request` until it is not rejected. Latency runs from the first
/// send to the final reply, so retries count.
fn drive(
    stream: &mut TcpStream,
    request: &GenRequest,
    give_up: Instant,
    reference: &[Sample],
) -> Rec {
    let started = Instant::now();
    let mut rec = Rec { started: Some(started), ..Rec::default() };
    loop {
        let reply = match exchange(stream, request) {
            Ok(r) => r,
            Err(_) => {
                rec.error = true;
                return rec;
            }
        };
        if reply.response.is_rejected() && Instant::now() < give_up {
            rec.rejections += 1;
            thread::sleep(Duration::from_millis(reply.response.retry_after_ms.max(1)));
            continue;
        }
        rec.latency_ns = started.elapsed().as_nanos() as u64;
        rec.queue_ns = reply.response.queue_ns;
        rec.service_ns = reply.response.service_ns;
        rec.encode_ns = reply.encode_ns;
        rec.decode_ns = reply.decode_ns;
        rec.samples = reply.response.samples.len() as u64;
        rec.error = !reply.response.is_ok() && !reply.response.is_rejected();
        rec.ok = reply.response.is_ok() && reply.response.samples == reference;
        return rec;
    }
}

/// Runs every connection in a closed loop until `secs` have passed;
/// returns the records and the window's wall seconds.
fn window(
    conns: &mut [TcpStream],
    rotation: &[GenRequest],
    reference: &[Vec<Sample>],
    next_slot: &mut [usize],
    secs: f64,
) -> (Vec<Rec>, f64) {
    let barrier = Barrier::new(conns.len());
    let opened = std::sync::OnceLock::new();
    let results: Vec<Vec<Rec>> = thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(next_slot.iter_mut())
            .map(|(stream, slot)| {
                let (barrier, opened) = (&barrier, &opened);
                scope.spawn(move || {
                    barrier.wait();
                    let start: Instant = *opened.get_or_init(Instant::now);
                    let deadline = start + Duration::from_secs_f64(secs);
                    let mut recs = Vec::new();
                    while Instant::now() < deadline {
                        let request = &rotation[*slot % rotation.len()];
                        let reference = &reference[*slot % rotation.len()];
                        *slot += 1;
                        recs.push(drive(stream, request, deadline + RETRY_GRACE, reference));
                    }
                    recs
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let start = *opened.get().expect("window opened");
    (results.into_iter().flatten().collect(), start.elapsed().as_secs_f64())
}

fn timed_of(recs: &[Rec], secs: f64) -> Timed {
    Timed {
        latencies_ms: recs.iter().filter(|r| r.ok).map(|r| r.latency_ns as f64 / 1e6).collect(),
        secs,
        raw_secs: secs,
        samples: recs.iter().filter(|r| r.ok).map(|r| r.samples).sum(),
        attempted: recs.len() as u64,
        failed: recs.iter().filter(|r| !r.ok).count() as u64,
    }
}

fn p_ms(values: impl Iterator<Item = u64>, q: f64) -> f64 {
    let mut v: Vec<f64> = values.map(|ns| ns as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, q).unwrap_or(0.0)
}

/// The daemon's pipeline and per-request configs, as `Daemon::start`
/// builds them.
struct Reference {
    pipeline: UctrPipeline,
    qa: UctrConfig,
    verification: UctrConfig,
}

impl Reference {
    fn new() -> Reference {
        let noise = ServeConfig::default().noise;
        let qa = UctrConfig { noise, ..UctrConfig::qa() };
        let verification = UctrConfig { noise, ..UctrConfig::verification() };
        Reference { pipeline: UctrPipeline::new(qa.clone()), qa, verification }
    }

    fn inputs(request: &GenRequest) -> Vec<TableWithContext> {
        request
            .tables
            .iter()
            .map(|t| t.to_input().unwrap_or_else(|e| panic!("rotation table: {e}")))
            .collect()
    }

    fn generate(
        &self,
        request: &GenRequest,
        inputs: &[TableWithContext],
    ) -> (Vec<Sample>, PipelineReport) {
        let base = if request.spec.task == "qa" { &self.qa } else { &self.verification };
        let cfg = UctrConfig { seed: request.spec.seed, ..base.clone() };
        let tel = TelemetryBank::new();
        let mut out = Vec::new();
        self.pipeline.generate_request(&cfg, inputs, &mut out, &tel, &mut GenScratch::default());
        (out, tel.report(1))
    }
}

pub fn run(daemon: &Path, seed: u64, seconds: f64, trace: Option<&mut Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let rotation = serve_rotation(seed);
    let reference_gen = Reference::new();
    let rotation_inputs: Vec<Vec<TableWithContext>> =
        rotation.iter().map(Reference::inputs).collect();
    let reference: Vec<(Vec<Sample>, PipelineReport)> = rotation
        .iter()
        .zip(&rotation_inputs)
        .map(|(r, inputs)| reference_gen.generate(r, inputs))
        .collect();
    let reference_samples: Vec<Vec<Sample>> = reference.iter().map(|(s, _)| s.clone()).collect();
    let cpu_before = host::cpu_times();

    let mut probe = SpeedProbe::default();
    let (setup_s, served, mut conns) = match setup(daemon, &mut probe) {
        Ok(s) => s,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    // Offset the connections by half a rotation so they mix table sizes.
    let mut slots: Vec<usize> =
        (0..conns.len()).map(|c| c * rotation.len() / conns.len()).collect();
    let warm = warm_up(&mut conns, &rotation, &reference_samples, &mut slots, WARMUP_REQUESTS);
    if warm.iter().any(|r| !r.ok) {
        out.fail("a warm-up request failed".into());
        return out;
    }

    let Some(tracer) = trace else {
        let (recs, secs) = window(&mut conns, &rotation, &reference_samples, &mut slots, seconds);
        let timed = timed_of(&recs, secs);
        out.absorb(&timed);
        out.metric("samples_per_sec", timed.rate());
        out.latency(&timed);
        out.metric("setup_s", setup_s);
        out.metric("peak_rss_mb", host::peak_rss_mb(Some(served.child.id())).unwrap_or(0.0));
        out.note(format!(
            "requests: {} rejection retries, {} errors",
            recs.iter().map(|r| r.rejections).sum::<u64>(),
            recs.iter().filter(|r| r.error).count()
        ));
        out.note_host(cpu_before);
        return out;
    };

    let (plain_recs, plain_secs) =
        window(&mut conns, &rotation, &reference_samples, &mut slots, seconds / 2.0);
    let (recs, secs) = window(&mut conns, &rotation, &reference_samples, &mut slots, seconds / 2.0);
    let (plain, traced) = (timed_of(&plain_recs, plain_secs), timed_of(&recs, secs));
    out.absorb(&plain);
    out.absorb(&traced);
    for (id, r) in recs.iter().enumerate().filter(|(_, r)| r.ok) {
        let id = id as u64;
        let start = tracer.ns_at(r.started.expect("booked requests have a start"));
        tracer.record("request", id, None, start, r.latency_ns);
        let root = tracer.spans.len() - 1;
        tracer.record("client.encode", id, Some(root), start, r.encode_ns);
        let waited = r.latency_ns.saturating_sub(r.encode_ns + r.decode_ns);
        tracer.record("client.wait", id, Some(root), start + r.encode_ns, waited);
        let wait = tracer.spans.len() - 1;
        tracer.record("daemon.queue", id, Some(wait), start + r.encode_ns, r.queue_ns);
        tracer.record(
            "daemon.service",
            id,
            Some(wait),
            start + r.encode_ns + r.queue_ns,
            r.service_ns,
        );
        tracer.record("client.decode", id, Some(root), start + r.encode_ns + waited, r.decode_ns);
    }
    let ok: Vec<&Rec> = recs.iter().filter(|r| r.ok).collect();
    out.note(format!("serve percentiles: {} traced requests", ok.len()));
    if ok.len() < 10 * crate::MIN_BEYOND_P90 {
        out.fail(format!("only {} traced requests; a p90 needs 100", ok.len()));
    }
    out.metric("serve.queue_wait_p50_ms", p_ms(ok.iter().map(|r| r.queue_ns), 0.5));
    out.metric("serve.queue_wait_p90_ms", p_ms(ok.iter().map(|r| r.queue_ns), 0.9));
    out.metric("serve.service_p50_ms", p_ms(ok.iter().map(|r| r.service_ns), 0.5));
    out.metric(
        "serve.wire_p50_ms",
        p_ms(
            ok.iter().map(|r| {
                r.latency_ns.saturating_sub(r.queue_ns + r.service_ns + r.encode_ns + r.decode_ns)
            }),
            0.5,
        ),
    );
    out.metric("serve.client_encode_ms", p_ms(ok.iter().map(|r| r.encode_ns), 0.5));
    out.metric("serve.client_decode_ms", p_ms(ok.iter().map(|r| r.decode_ns), 0.5));
    // Frame payload sizes over one rotation. The reply is rendered with
    // zeroed timings so its size does not depend on how long it took.
    let mean_len = |lens: Vec<usize>| lens.iter().sum::<usize>() as f64 / lens.len().max(1) as f64;
    out.metric(
        "serve.request_bytes",
        mean_len(
            rotation.iter().map(|r| serde_json::to_string(r).map_or(0, |s| s.len())).collect(),
        ),
    );
    out.metric(
        "serve.response_bytes",
        mean_len(
            rotation
                .iter()
                .zip(&reference_samples)
                .map(|(r, samples)| {
                    let reply = GenResponse {
                        id: r.id,
                        status: "ok".into(),
                        retry_after_ms: 0,
                        message: String::new(),
                        samples: samples.clone(),
                        queue_ns: 0,
                        service_ns: 0,
                        stats: None,
                    };
                    serde_json::to_string(&reply).map_or(0, |s| s.len())
                })
                .collect(),
        ),
    );
    let all = plain_recs.iter().chain(&recs);
    out.metric("serve.rejections", all.clone().map(|r| r.rejections).sum::<u64>() as f64);
    out.metric("serve.errors", all.filter(|r| r.error).count() as f64);
    match connect(&served.addr).and_then(|mut s| exchange(&mut s, &GenRequest::stats(0))) {
        Ok(Reply { response: GenResponse { stats: Some(st), .. }, .. }) => {
            let lookups = (st.pool_hits + st.pool_misses).max(1);
            out.metric("serve.pool_hit_rate", st.pool_hits as f64 / lookups as f64);
            out.metric(
                "serve.stolen_share",
                st.requests_stolen as f64 / st.requests_completed.max(1) as f64,
            );
        }
        Ok(_) => out.fail("the stats op returned no stats".into()),
        Err(e) => out.fail(format!("stats op: {e}")),
    }
    out.metric("trace.overhead_share", 1.0 - traced.rate() / plain.rate());

    // The generation layers of the same rotation, in process.
    let bank = TemplateBank::builtin();
    let mut ledger = Ledger::default();
    let mut funnel = Funnel::default();
    reference.iter().for_each(|(_, r)| funnel.add(r));
    ledger.funnel = funnel;
    for pass in 1..=3u64 {
        let root = tracer.open("rotation", pass, None);
        for (request, inputs) in rotation.iter().zip(&rotation_inputs) {
            ledger.generate(tracer, pass, Some(root), || reference_gen.generate(request, inputs));
        }
        tracer.close(root);
        for inputs in &rotation_inputs {
            ledger.direct_calls(tracer, pass, None, &bank, inputs);
        }
        ledger.passes += 1;
    }
    out.ledger(&ledger);
    out.note_host(cpu_before);
    drop(served);
    out
}

/// Sends `n` requests per connection, outside any window.
fn warm_up(
    conns: &mut [TcpStream],
    rotation: &[GenRequest],
    reference: &[Vec<Sample>],
    slots: &mut [usize],
    n: usize,
) -> Vec<Rec> {
    let mut recs = Vec::new();
    for _ in 0..n {
        for (stream, slot) in conns.iter_mut().zip(slots.iter_mut()) {
            let i = *slot % rotation.len();
            *slot += 1;
            recs.push(drive(stream, &rotation[i], Instant::now() + RETRY_GRACE, &reference[i]));
        }
    }
    recs
}
