//! The four workloads, their passes, and the metrics computed from them.
//!
//! Every input is generated from the run's seed; the program under test only ever sees
//! the generated requests. A run makes one untraced pass, whose numbers are the
//! end-to-end metrics; a traced run repeats the same inputs with the layer wrappers of
//! [`crate::layers`] installed and reports the per-layer metrics.

use crate::host::{peak_rss_mib, HostStamp};
use crate::inputs::inputs;
use crate::layers::{Ledger, TimedEngine, TracedHook};
use crate::stats::{beyond, json_str, median, percentile, ratio, Metrics};
use realm_inject::{BitFlipModel, ErrorInjector, VoltageBerCurve};
use realm_llm::{GemmHook, Model, ModelConfig, NoopHook};
use realm_net::http::ChunkDecoder;
use realm_net::{
    encode_gen_body, parse_event, stream_generate, ClientError, GenBody, NetConfig, NetServer,
    TraceRequest, WireEvent,
};
use realm_serve::{EngineStats, ServeConfig, ServeEngine, TokenEvent};
use realm_tensor::EngineKind;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Weight seed of every model: the weights belong to the program, the requests are the
/// seeded input.
const MODEL_SEED: u64 = 7;
/// GEMM backend of every served model: the single-thread SIMD kernel. The default
/// `EngineKind::auto()` shards larger GEMMs over threads spawned per call, which on a
/// two-core host next to the load generator makes prefill time swing from run to run.
const ENGINE: EngineKind = EngineKind::Simd;
/// Set-ups timed per run, at least: `setup_s` is the median of at least this many, and of
/// as many more as fit in [`SETUP_MIN_SECONDS`].
const SETUPS: usize = 9;
/// Set-up keeps repeating until this much time has passed, so cheap set-ups get a
/// median over many samples.
const SETUP_MIN_SECONDS: f64 = 0.5;
/// Batch slots of the in-process engine (chat, long_context, fault_campaign).
const SLOTS: usize = 4;
/// Per-step token budget of the in-process engine.
const STEP_BUDGET: usize = 64;
/// Context of the OPT-1.3B proxy, raised from 64 so the longest prompt plus output fits.
const PROXY_CONTEXT: usize = 320;
/// Context of `tiny_opt`, raised from 32 so the longest prompt plus output fits.
const TINY_CONTEXT: usize = 128;
/// Supply voltage of `fault_campaign` on the default 14 nm curve.
const FAULT_VOLTAGE: f64 = 0.70;
/// Closed-loop clients (and connections) of `http_stream`.
const HTTP_CLIENTS: usize = 2;
/// Per-request client timeout.
const TIMEOUT: Duration = Duration::from_secs(30);

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop short chat requests against the in-process engine.
    Chat,
    /// `chat` at a lower rate with a fifth of the prompts long.
    LongContext,
    /// Offline batch under an undervolted, fault-injected datapath.
    FaultCampaign,
    /// Closed-loop token streaming through the HTTP front end.
    HttpStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Chat,
        Workload::LongContext,
        Workload::FaultCampaign,
        Workload::HttpStream,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Chat => "chat",
            Workload::LongContext => "long_context",
            Workload::FaultCampaign => "fault_campaign",
            Workload::HttpStream => "http_stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Latency limits `(ttft_ms, mean_gap_ms)` a request must meet to count toward
    /// `slo_met_frac`. The offline batch has no TTFT limit: its requests all wait from
    /// t = 0 by construction.
    pub fn slo(self) -> (f64, f64) {
        match self {
            Workload::Chat => (250.0, 25.0),
            Workload::LongContext => (500.0, 40.0),
            Workload::FaultCampaign => (f64::INFINITY, 60.0),
            Workload::HttpStream => (5.0, 1.0),
        }
    }

    fn faulty(self) -> bool {
        self == Workload::FaultCampaign
    }
}

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
    /// Whether to add the traced pass and report per-layer metrics.
    pub trace: bool,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Requests the reported pass sent.
    pub attempted: u64,
    /// Requests of the reported pass that failed, were refused or timed out.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// One JSON object with the host stamp, seed, sample counts and ledger closure.
    pub record: String,
}

/// One request as the benchmark saw it.
#[derive(Debug, Clone, Default)]
struct Req {
    /// When the request was due, from the start of the pass.
    due: Duration,
    late_ns: u64,
    sent: bool,
    completed: bool,
    ttft_ns: Option<u64>,
    gaps_ns: Vec<u64>,
    tokens: Vec<u32>,
    queued_steps: u64,
    detections: u64,
    recoveries: u64,
}

impl Req {
    fn mean_gap_ms(&self) -> f64 {
        ratio(
            self.gaps_ns.iter().sum::<u64>() as f64,
            self.gaps_ns.len() as f64,
        ) / 1e6
    }
}

/// Client-side spans of the HTTP calls of a traced pass.
#[derive(Debug, Clone, Default)]
struct NetSpans {
    connect_ns: Vec<u64>,
    head_ns: Vec<u64>,
    bytes: u64,
    non200: u64,
}

/// One pass over a workload's inputs.
#[derive(Debug)]
struct Pass {
    reqs: Vec<Req>,
    wall: Duration,
    /// Benchmark spans around `step` (in-process) or the hook's step spans (HTTP).
    step_ns: Vec<u64>,
    submit_ns: Vec<u64>,
    engine: EngineStats,
    net: NetSpans,
}

impl Pass {
    fn tokens(&self) -> u64 {
        self.reqs.iter().map(|r| r.tokens.len() as u64).sum()
    }

    fn sent(&self) -> u64 {
        self.reqs.iter().filter(|r| r.sent).count() as u64
    }

    fn failed(&self) -> u64 {
        self.reqs.iter().filter(|r| r.sent && !r.completed).count() as u64
    }

    /// Engine-busy nanoseconds per committed token.
    fn busy_ns_per_token(&self) -> f64 {
        ratio(
            self.step_ns.iter().sum::<u64>() as f64,
            self.tokens() as f64,
        )
    }
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The served model of `workload`.
fn model_config(workload: Workload) -> ModelConfig {
    match workload {
        Workload::HttpStream => ModelConfig {
            max_seq_len: TINY_CONTEXT,
            engine: ENGINE,
            ..ModelConfig::tiny_opt()
        },
        _ => ModelConfig {
            max_seq_len: PROXY_CONTEXT,
            engine: ENGINE,
            ..ModelConfig::opt_1_3b_proxy()
        },
    }
}

/// The in-process engine configuration shared by the proxy workloads.
pub fn serve_config() -> ServeConfig {
    ServeConfig::with_slots(SLOTS).with_step_token_budget(STEP_BUDGET)
}

fn net_config() -> NetConfig {
    NetConfig {
        workers: HTTP_CLIENTS,
        shed_queue_age_tokens: None,
        read_timeout: TIMEOUT,
        serve: ServeConfig::with_slots(2),
        ..NetConfig::default()
    }
}

/// The fault hook of `fault_campaign`: uniform bit flips at the BER of
/// [`FAULT_VOLTAGE`], in every GEMM.
fn injector(seed: u64) -> ErrorInjector<BitFlipModel> {
    let ber = VoltageBerCurve::default_14nm().ber_at(FAULT_VOLTAGE);
    ErrorInjector::everywhere(BitFlipModel::uniform(ber), seed)
}

/// Clean solo outputs (`Model::generate` with no hook) of `bodies`, on two threads.
fn references(model: &Model, bodies: &[&GenBody]) -> Vec<Vec<u32>> {
    let half = bodies.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = bodies
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|b| {
                            model
                                .generate(&b.prompt, b.max_new_tokens, &mut NoopHook)
                                .expect("generated inputs fit the model")
                                .tokens
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread never panics"))
            .collect()
    })
}

/// Times repeated constructions of the workload's model and engine or server (see
/// [`SETUPS`]) and returns the last model with the median construction time in seconds.
fn setup(workload: Workload) -> (Model, f64) {
    let config = model_config(workload);
    let mut times = Vec::new();
    let mut kept = None;
    let started = Instant::now();
    while times.len() < SETUPS || started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        let started = Instant::now();
        let model = Model::new(&config, MODEL_SEED).expect("workload model config is valid");
        if workload == Workload::HttpStream {
            let server = NetServer::bind(net_config()).expect("loopback bind");
            std::hint::black_box(&server);
        } else {
            let engine = ServeEngine::new(&model, serve_config());
            std::hint::black_box(&engine);
        }
        times.push(started.elapsed().as_secs_f64());
        kept = Some(model);
    }
    (kept.expect("at least one set-up"), median(&times))
}

/// Replays `inputs` against an in-process engine: requests are submitted when due
/// (all at once for the offline batch) and the engine is stepped while it has work.
fn serve_pass(
    model: &Model,
    inputs: &[TraceRequest],
    hook: Option<Box<dyn GemmHook + Send>>,
) -> Pass {
    let mut engine = ServeEngine::new(model, serve_config());
    if let Some(hook) = hook {
        engine = engine.with_fault_hook(hook);
    }
    let mut reqs: Vec<Req> = inputs
        .iter()
        .map(|r| Req {
            due: Duration::from_micros(r.arrival_us),
            ..Req::default()
        })
        .collect();
    let mut live = Vec::new();
    let mut last_token: Vec<Option<Instant>> = vec![None; inputs.len()];
    let (mut step_ns, mut submit_ns) = (Vec::new(), Vec::new());
    let mut next = 0;
    let start = Instant::now();
    loop {
        let now = Instant::now();
        while next < inputs.len() && start + reqs[next].due <= now {
            let request = inputs[next].body.to_request();
            let before = Instant::now();
            let submitted = engine.submit(request);
            submit_ns.push(nanos(before.elapsed()));
            let req = &mut reqs[next];
            req.sent = true;
            req.late_ns = nanos(before.saturating_duration_since(start + req.due));
            if let Ok((_, rx)) = submitted {
                live.push((next, rx));
            }
            next += 1;
        }
        if engine.has_work() {
            let before = Instant::now();
            engine.step().expect("generated requests never fail a step");
            let after = Instant::now();
            step_ns.push(nanos(after - before));
            live.retain(|(i, rx)| {
                let req = &mut reqs[*i];
                for event in rx.try_iter() {
                    match event {
                        TokenEvent::Token { token, .. } => {
                            match last_token[*i] {
                                None => req.ttft_ns = Some(nanos(after - (start + req.due))),
                                Some(prev) => req.gaps_ns.push(nanos(after - prev)),
                            }
                            last_token[*i] = Some(after);
                            req.tokens.push(token);
                        }
                        TokenEvent::Done(summary) => {
                            req.completed = true;
                            req.queued_steps = summary.queued_steps;
                            req.detections = summary.attribution.detections;
                            req.recoveries = summary.attribution.recoveries;
                            return false;
                        }
                    }
                }
                true
            });
        } else if next < inputs.len() {
            // Spin rather than sleep: a sleeping thread lets its core go idle, and on a
            // shared host the wake-up can come milliseconds late, straight into the TTFT.
            while Instant::now() < start + reqs[next].due {
                std::hint::spin_loop();
            }
        } else {
            break;
        }
    }
    Pass {
        reqs,
        wall: start.elapsed(),
        step_ns,
        submit_ns,
        engine: engine.stats(),
        net: NetSpans::default(),
    }
}

/// What one streamed HTTP call returned, from either client.
struct Streamed {
    status: u16,
    ttft_ns: Option<u64>,
    tpot_ns: Vec<u64>,
    tokens: Vec<u32>,
    done: Option<WireEvent>,
    connect_ns: u64,
    head_ns: u64,
    bytes: u64,
}

/// `realm_net::stream_generate`, the untraced client.
fn plain_stream(addr: SocketAddr, body: &GenBody) -> Result<Streamed, ClientError> {
    let result = stream_generate(addr, body, None, TIMEOUT)?;
    Ok(Streamed {
        status: result.status,
        ttft_ns: result.ttft_ns,
        tpot_ns: result.tpot_ns.clone(),
        done: result.done().cloned(),
        tokens: result.tokens,
        connect_ns: 0,
        head_ns: 0,
        bytes: 0,
    })
}

/// The same exchange as `stream_generate`, with spans: connect time, request written →
/// status line, and bytes read. Used by the traced pass only.
fn traced_stream(addr: SocketAddr, body: &GenBody) -> Result<Streamed, ClientError> {
    let payload = encode_gen_body(body);
    let started = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    let connect_ns = nanos(started.elapsed());
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "POST /generate HTTP/1.1\r\nHost: realm\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        payload.len()
    )?;
    stream.write_all(payload.as_bytes())?;
    stream.flush()?;
    let sent_at = Instant::now();
    let protocol = |detail: &str| ClientError::Protocol(detail.into());
    let mut buf = [0u8; 4096];
    let mut head = Vec::new();
    let mut bytes = 0u64;
    let (status, body_start, head_ns) = loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(protocol("connection closed before head"));
        }
        bytes += n as u64;
        head.extend_from_slice(&buf[..n]);
        if let Some(end) = head.windows(4).position(|w| w == b"\r\n\r\n") {
            let line = std::str::from_utf8(&head[..end]).map_err(|_| protocol("head"))?;
            let status = line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse::<u16>().ok())
                .ok_or_else(|| protocol("status line"))?;
            break (status, end + 4, nanos(sent_at.elapsed()));
        }
    };
    let mut out = Streamed {
        status,
        ttft_ns: None,
        tpot_ns: Vec::new(),
        tokens: Vec::new(),
        done: None,
        connect_ns,
        head_ns,
        bytes,
    };
    if status != 200 {
        let mut rest = Vec::new();
        out.bytes += stream.read_to_end(&mut rest).unwrap_or(0) as u64;
        return Ok(out);
    }
    let mut decoder = ChunkDecoder::new();
    decoder.feed(&head[body_start..]);
    let mut line = Vec::new();
    let mut last: Option<Instant> = None;
    loop {
        while let Some(chunk) = decoder.next_chunk().map_err(|e| protocol(&e.to_string()))? {
            line.extend_from_slice(&chunk);
            while let Some(nl) = line.iter().position(|&b| b == b'\n') {
                let text: Vec<u8> = line.drain(..=nl).collect();
                let text = std::str::from_utf8(&text).map_err(|_| protocol("utf-8"))?;
                let event = parse_event(text).map_err(ClientError::Protocol)?;
                let now = Instant::now();
                match event {
                    WireEvent::Token { token, .. } => {
                        match last {
                            None => out.ttft_ns = Some(nanos(now - sent_at)),
                            Some(prev) => out.tpot_ns.push(nanos(now - prev)),
                        }
                        last = Some(now);
                        out.tokens.push(token);
                    }
                    done @ WireEvent::Done { .. } => out.done = Some(done),
                }
            }
        }
        if decoder.is_done() {
            return Ok(out);
        }
        match stream.read(&mut buf)? {
            0 => return Ok(out),
            n => {
                out.bytes += n as u64;
                decoder.feed(&buf[..n]);
            }
        }
    }
}

/// Runs `HTTP_CLIENTS` closed-loop clients against a loopback `NetServer` for
/// `seconds`, each sending its next request as soon as the previous stream ends.
fn http_pass(
    model: &Model,
    inputs: &[TraceRequest],
    seconds: f64,
    hook: Option<Box<dyn GemmHook + Send>>,
    traced: bool,
) -> Pass {
    let server = NetServer::bind(net_config()).expect("loopback bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let next = AtomicUsize::new(0);
    let window = Duration::from_secs_f64(seconds);
    let (results, wall, report) = std::thread::scope(|s| {
        let serving = s.spawn(|| server.serve_with_hook(model, hook));
        let start = Instant::now();
        let next = &next;
        let clients: Vec<_> = (0..HTTP_CLIENTS)
            .map(|_| {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while start.elapsed() < window {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(input) = inputs.get(i) else { break };
                        let call = if traced { traced_stream } else { plain_stream };
                        mine.push((i, call(addr, &input.body)));
                    }
                    mine
                })
            })
            .collect();
        let results: Vec<_> = clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread never panics"))
            .collect();
        let wall = start.elapsed();
        handle.drain();
        let report = serving
            .join()
            .expect("server thread never panics")
            .expect("generated requests never fail a step");
        (results, wall, report)
    });
    // Every index a client drew was sent, so the results cover `0..results.len()`.
    let mut reqs = vec![Req::default(); results.len()];
    let mut net = NetSpans::default();
    for (i, result) in results {
        let req = &mut reqs[i];
        req.sent = true;
        let Ok(streamed) = result else { continue };
        net.connect_ns.push(streamed.connect_ns);
        net.head_ns.push(streamed.head_ns);
        net.bytes += streamed.bytes;
        net.non200 += u64::from(streamed.status != 200);
        if let Some(WireEvent::Done {
            queued_steps,
            detections,
            recoveries,
            ..
        }) = streamed.done
        {
            req.completed = streamed.status == 200;
            req.queued_steps = queued_steps;
            req.detections = detections;
            req.recoveries = recoveries;
        }
        req.ttft_ns = streamed.ttft_ns;
        req.gaps_ns = streamed.tpot_ns;
        req.tokens = streamed.tokens;
    }
    Pass {
        reqs,
        wall,
        step_ns: Vec::new(),
        submit_ns: Vec::new(),
        engine: report.engine,
        net,
    }
}

fn pass(
    cfg: &RunConfig,
    model: &Model,
    inputs: &[TraceRequest],
    hook: Option<Box<dyn GemmHook + Send>>,
    traced: bool,
) -> Pass {
    match cfg.workload {
        Workload::HttpStream => http_pass(model, inputs, cfg.seconds, hook, traced),
        _ => serve_pass(model, inputs, hook),
    }
}

/// `(matched, compared)` token positions of `pass` against `refs`; a request that
/// produced fewer tokens than its reference misses the rest.
fn token_match(pass: &Pass, refs: &[Vec<u32>]) -> (u64, u64) {
    pass.reqs
        .iter()
        .zip(refs)
        .filter(|(r, _)| r.sent)
        .fold((0, 0), |(m, c), (r, reference)| {
            let matched = r
                .tokens
                .iter()
                .zip(reference)
                .filter(|(a, b)| a == b)
                .count();
            (
                m + matched as u64,
                c + reference.len().max(r.tokens.len()) as u64,
            )
        })
}

/// Runs one workload as `cfg` asks and computes its metrics.
pub fn run(cfg: &RunConfig) -> RunResult {
    let workload = cfg.workload;
    let (model, setup_s) = setup(workload);
    let stamp = HostStamp::detect(model.engine().name());
    let inputs = inputs(workload, cfg.seed, cfg.seconds, model.config().vocab_size);
    let bodies = |n: usize| -> Vec<&GenBody> { inputs[..n].iter().map(|r| &r.body).collect() };
    let untraced_hook = workload
        .faulty()
        .then(|| Box::new(injector(cfg.seed)) as Box<dyn GemmHook + Send>);

    let plain = pass(cfg, &model, &inputs, untraced_hook, false);
    let refs = references(&model, &bodies(plain.reqs.len()));
    let mut checks = Checks::default();
    checks.pass(workload, &plain, &refs);

    let mut notes = Vec::new();
    let (reported, metrics) = if cfg.trace {
        let ledger = Ledger::shared();
        let mut traced_model = model.clone();
        let inner = model.config().engine.build();
        traced_model.set_engine(Arc::new(TimedEngine::new(inner, Arc::clone(&ledger))));
        let hook: Box<dyn GemmHook + Send> = if workload.faulty() {
            Box::new(TracedHook::wrapping(
                injector(cfg.seed),
                Arc::clone(&ledger),
            ))
        } else {
            Box::new(TracedHook::observer(Arc::clone(&ledger)))
        };
        let traced = pass(cfg, &traced_model, &inputs, Some(hook), true);
        // A closed loop may send more requests in the traced pass than in the plain one.
        let n = traced.reqs.len();
        let traced_refs = if n <= refs.len() {
            refs[..n].to_vec()
        } else {
            references(&model, &bodies(n))
        };
        checks.pass(workload, &traced, &traced_refs);
        if workload.faulty() {
            checks.same_program(&plain, &traced);
        }
        let ledger = ledger.lock().expect("ledger lock").clone();
        let metrics = per_layer(workload, &plain, &traced, ledger, &mut notes);
        (traced, metrics)
    } else {
        let metrics = end_to_end(workload, &plain, &refs, setup_s);
        (plain, metrics)
    };

    let tpot_n: usize = reported.reqs.iter().map(|r| r.gaps_ns.len()).sum();
    let ttft_n = reported.reqs.iter().filter(|r| r.ttft_ns.is_some()).count();
    notes.extend(checks.failures.iter().cloned());
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, {}, \
         \"requests\": {{\"sent\": {}, \"completed\": {}, \"failed\": {}}}, \
         \"samples\": {{\"ttft\": {ttft_n}, \"ttft_beyond_p90\": {}, \"tpot\": {tpot_n}, \
         \"tpot_beyond_p90\": {}}}, \"notes\": [{}], \"metrics\": {}}}",
        json_str(workload.name()),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        stamp.json_fields(),
        reported.sent(),
        reported.sent() - reported.failed(),
        reported.failed(),
        beyond(ttft_n, 0.9),
        beyond(tpot_n, 0.9),
        notes
            .iter()
            .map(|n| json_str(n))
            .collect::<Vec<_>>()
            .join(", "),
        metrics.to_json(),
    );
    RunResult {
        correct: checks.failures.is_empty(),
        attempted: reported.sent(),
        failed: reported.failed(),
        metrics,
        record,
    }
}

/// Output checks; every failure is described.
#[derive(Debug, Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(failure());
        }
    }

    /// Every request completed with its full budget; clean workloads match their solo
    /// references exactly and see no detection.
    fn pass(&mut self, workload: Workload, pass: &Pass, refs: &[Vec<u32>]) {
        self.check(pass.sent() > 0, || "no request was sent".into());
        self.check(pass.failed() == 0, || {
            format!("{} of {} requests failed", pass.failed(), pass.sent())
        });
        let short = pass
            .reqs
            .iter()
            .zip(refs)
            .filter(|(r, reference)| r.completed && r.tokens.len() != reference.len())
            .count();
        self.check(short == 0, || {
            format!("{short} requests ended short of their budget")
        });
        // The per-request summaries and the engine's totals are two views of one count.
        let charged = pass.reqs.iter().fold((0, 0), |(d, r), req| {
            (d + req.detections, r + req.recoveries)
        });
        self.check(
            charged == (pass.engine.detections, pass.engine.recoveries),
            || {
                format!(
                    "requests were charged {}/{} detections/recoveries, the engine counted {}/{}",
                    charged.0, charged.1, pass.engine.detections, pass.engine.recoveries
                )
            },
        );
        if !workload.faulty() {
            let (matched, compared) = token_match(pass, refs);
            self.check(matched == compared, || {
                format!(
                    "{} of {compared} tokens differ from solo generate",
                    compared - matched
                )
            });
            self.check(pass.engine.detections == 0, || {
                format!("{} detections on a clean workload", pass.engine.detections)
            });
        }
    }

    /// The traced pass computed exactly what the untraced pass did.
    fn same_program(&mut self, plain: &Pass, traced: &Pass) {
        let same_tokens = plain
            .reqs
            .iter()
            .zip(&traced.reqs)
            .all(|(a, b)| a.tokens == b.tokens);
        self.check(same_tokens, || "traced tokens differ from untraced".into());
        self.check(
            (plain.engine.detections, plain.engine.recoveries)
                == (traced.engine.detections, traced.engine.recoveries),
            || {
                format!(
                    "traced detections/recoveries {}/{} differ from untraced {}/{}",
                    traced.engine.detections,
                    traced.engine.recoveries,
                    plain.engine.detections,
                    plain.engine.recoveries
                )
            },
        );
    }
}

fn end_to_end(workload: Workload, pass: &Pass, refs: &[Vec<u32>], setup_s: f64) -> Metrics {
    let ttft = ms(&pass
        .reqs
        .iter()
        .filter_map(|r| r.ttft_ns)
        .collect::<Vec<_>>());
    let gaps = ms(&pass
        .reqs
        .iter()
        .flat_map(|r| r.gaps_ns.iter().copied())
        .collect::<Vec<_>>());
    let (ttft_limit, gap_limit) = workload.slo();
    let met = pass
        .reqs
        .iter()
        .filter(|r| {
            r.completed
                && r.ttft_ns.is_some_and(|t| t as f64 / 1e6 <= ttft_limit)
                && r.mean_gap_ms() <= gap_limit
        })
        .count();
    let (matched, compared) = token_match(pass, refs);
    let sent = pass.sent() as f64;
    let mut m = Metrics::default();
    m.push("ttft_p50_ms", median(&ttft), "ms");
    m.push("ttft_p90_ms", percentile(&ttft, 0.9), "ms");
    m.push("tpot_p50_ms", median(&gaps), "ms");
    m.push("tpot_p90_ms", percentile(&gaps, 0.9), "ms");
    m.push("slo_met_frac", ratio(met as f64, sent), "ratio");
    m.push(
        "tokens_per_s",
        ratio(pass.tokens() as f64, pass.wall.as_secs_f64()),
        "tok/s",
    );
    m.push(
        "token_match_rate",
        ratio(matched as f64, compared as f64),
        "ratio",
    );
    m.push(
        "succeeded_frac",
        ratio(sent - pass.failed() as f64, sent),
        "ratio",
    );
    m.push("setup_s", setup_s, "s");
    m.push("peak_rss_mb", peak_rss_mib(), "MiB");
    m
}

fn per_layer(
    workload: Workload,
    plain: &Pass,
    traced: &Pass,
    mut ledger: Ledger,
    notes: &mut Vec<String>,
) -> Metrics {
    ledger.close_step();
    let step_ns: &[u64] = if workload == Workload::HttpStream {
        &ledger.hook_step_ns
    } else {
        &traced.step_ns
    };
    let step_total = step_ns.iter().sum::<u64>() as f64;
    let steps = traced.engine.steps as f64;
    let per_step = |ns: u64| ratio(ns as f64, steps) / 1e3;
    let residual_ns = step_total - ledger.gemm_ns as f64 - ledger.inject_ns as f64;
    let tokens = traced.tokens() as f64;
    let detections = traced.engine.detections as f64;
    let queued: Vec<f64> = traced
        .reqs
        .iter()
        .filter(|r| r.completed)
        .map(|r| r.queued_steps as f64)
        .collect();
    let us = |ns: &[u64]| ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>();
    let to_f = |v: &[u64]| v.iter().map(|&n| n as f64).collect::<Vec<_>>();
    let overhead = if workload == Workload::HttpStream {
        ratio(
            plain.tokens() as f64 / plain.wall.as_secs_f64(),
            tokens / traced.wall.as_secs_f64(),
        ) - 1.0
    } else {
        ratio(traced.busy_ns_per_token(), plain.busy_ns_per_token()) - 1.0
    };
    let (gemm, inject) = (ledger.gemm_ns as f64, ledger.inject_ns as f64);
    let dominant = [
        ("gemm", gemm),
        ("inject", inject),
        ("residual", residual_ns),
    ]
    .into_iter()
    .max_by(|a, b| a.1.total_cmp(&b.1))
    .map_or("none", |d| d.0);
    notes.push(format!(
        "ledger: step {:.1} us = gemm {:.1} + inject {:.1} + residual {:.1} us per step; \
         largest share: {dominant}; injector dominates: {}",
        ratio(step_total, steps) / 1e3,
        per_step(ledger.gemm_ns),
        per_step(ledger.inject_ns),
        ratio(residual_ns, steps) / 1e3,
        if dominant == "inject" { "yes" } else { "no" },
    ));
    if ledger.unlabelled_hook_calls > 0 {
        notes.push(format!(
            "{} hook calls had no decorator call to label",
            ledger.unlabelled_hook_calls
        ));
    }

    let mut m = Metrics::default();
    m.push("driver.sent", traced.sent() as f64, "count");
    m.push(
        "driver.completed",
        (traced.sent() - traced.failed()) as f64,
        "count",
    );
    m.push("driver.failed", traced.failed() as f64, "count");
    let late: Vec<f64> = traced
        .reqs
        .iter()
        .filter(|r| r.sent)
        .map(|r| r.late_ns as f64 / 1e6)
        .collect();
    m.push("driver.late_p99_ms", percentile(&late, 0.99), "ms");

    let net = &traced.net;
    m.push("net.connect_us_p50", median(&us(&net.connect_ns)), "us");
    m.push("net.head_us_p50", median(&us(&net.head_ns)), "us");
    m.push(
        "net.bytes_per_token",
        ratio(net.bytes as f64, tokens),
        "B/tok",
    );
    m.push("net.non200", net.non200 as f64, "count");

    m.push("serve.steps", steps, "count");
    m.push("serve.step_us_p50", median(&us(step_ns)), "us");
    m.push("serve.step_us_p99", percentile(&us(step_ns), 0.99), "us");
    m.push("serve.submit_us_p50", median(&us(&traced.submit_ns)), "us");
    m.push(
        "serve.decode_rows_p50",
        median(&to_f(&ledger.decode_rows)),
        "rows",
    );
    m.push(
        "serve.prefill_chunks",
        traced.engine.prefill_chunks as f64,
        "count",
    );
    m.push(
        "serve.queue_wait_steps_p90",
        percentile(&queued, 0.9),
        "steps",
    );
    m.push(
        "serve.budget_utilization",
        traced.engine.step_budget_utilization,
        "ratio",
    );
    m.push(
        "serve.idle_frac",
        1.0 - ratio(step_total / 1e9, traced.wall.as_secs_f64()),
        "ratio",
    );

    m.push("tensor.gemm_calls", ledger.gemm_calls as f64, "count");
    m.push("tensor.gemm_us_per_step", per_step(ledger.gemm_ns), "us");
    m.push("tensor.gemm_frac", ratio(gemm, step_total), "ratio");
    m.push(
        "tensor.attn_gemm_frac",
        ratio(ledger.attn_gemm_ns as f64, gemm),
        "ratio",
    );
    m.push(
        "tensor.gmacs_per_s",
        ratio(ledger.gemm_macs as f64, gemm),
        "GMAC/s",
    );
    m.push(
        "tensor.bytes_per_step",
        ratio(ledger.gemm_bytes as f64, steps),
        "B",
    );
    let calls = ledger.gemm_calls as f64;
    m.push(
        "tensor.checksummed_frac",
        ratio(ledger.checksummed_calls as f64, calls),
        "ratio",
    );
    m.push(
        "tensor.packed_frac",
        ratio(ledger.packed_calls as f64, calls),
        "ratio",
    );

    m.push("inject.us_per_step", per_step(ledger.inject_ns), "us");
    m.push("inject.frac", ratio(inject, step_total), "ratio");
    m.push("inject.errors", ledger.inject_errors as f64, "count");
    m.push(
        "inject.gemms_corrupted",
        ledger.inject_gemms_corrupted as f64,
        "count",
    );

    m.push("abft.detections", detections, "count");
    m.push("abft.recoveries", traced.engine.recoveries as f64, "count");
    m.push(
        "abft.recoveries_per_detection",
        ratio(traced.engine.recoveries as f64, detections),
        "ratio",
    );
    m.push(
        "abft.detections_per_ktok",
        ratio(detections * 1e3, tokens),
        "1/ktok",
    );

    m.push("llm.forwards", ledger.forwards as f64, "count");
    m.push(
        "llm.rows_per_forward_p50",
        median(&to_f(&ledger.rows_per_forward)),
        "rows",
    );
    m.push(
        "llm.workspace_high_water_bytes",
        traced.engine.workspace_high_water_bytes as f64,
        "B",
    );
    m.push(
        "step.residual_us_per_step",
        ratio(residual_ns, steps) / 1e3,
        "us",
    );
    m.push(
        "step.residual_frac",
        ratio(residual_ns, step_total),
        "ratio",
    );
    m.push("trace.overhead_frac", overhead, "ratio");
    m
}
