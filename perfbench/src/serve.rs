//! The `serve-mixed` workload: an open loop feeding `experiments::serve::serve_session`
//! in process, two workers, at a fixed Poisson rate from one generator.
//!
//! Requests ask the proposed arm with the paper solver for a scenario of 10, 20 or 50
//! devices at one of the paper's five weight pairs. A fixed quarter re-send one of the
//! last eight distinct scenarios (`repeat`, the warm cache's case); the rest are new
//! (`fresh`). The session reads from a [`PacedInput`] that hands each request line over
//! at its due time and writes to a [`TimedOutput`] that timestamps each response line,
//! so every latency runs from the request's due time to its response line.

use crate::probe::{self, Case, Kind};
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Recorder, Span};
use crate::{Args, THREADS};
use experiments::json::Json;
use experiments::serve::{serve_session, ServeOptions, ServeStats};
use experiments::spec::{ScenarioSpec, SolverSpec};
use fedopt_core::SolverWorkspace;
use flsys::{Allocation, Scenario, ScenarioBuilder, Weights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, BufRead, Read, Write};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Offered load, requests per second, frozen. At the commit that introduced the
/// benchmark the two workers are about 25% busy at this rate on a quiet 2-vCPU host; the
/// host's slow phases (service up to ~1.7× slower) then stay clear of saturation, which
/// a ~60% load did not (`NOTES.md`).
pub const RATE_PER_S: f64 = 30.0;

/// A request answered `ok` later than this after its due time misses the latency limit
/// (about the fresh class's p90 at this commit, so `within_slo` and the goodput it
/// yields move both ways).
pub const SLO_MS: f64 = 60.0;

/// Length of the unmeasured warm-up session, seconds.
const WARMUP_S: f64 = 1.0;

/// Device counts requests draw from.
const DEVICES: [usize; 3] = [10, 20, 50];

/// The device-count mix, one cycle: ¼ n = 10, ½ n = 20, ¼ n = 50. Solve cost grows
/// steeply with n, so a uniform mix leaves each class's median in the sparse gap between
/// the n = 20 and n = 50 latency modes, where a few hundred samples cannot pin it down;
/// with half the requests at n = 20 the median sits inside that mode.
const DEVICE_MIX: [usize; 4] = [10, 20, 20, 50];

/// Every `REPEAT_EVERY`-th request (in expectation, at shuffled positions) is a repeat.
const REPEAT_EVERY: usize = 4;

/// A repeat re-sends one of this many most recent distinct scenarios.
const REPEAT_WINDOW: usize = 8;

/// Relative slack of the allocation box and bandwidth-budget checks.
const BOX_TOL: f64 = 1e-9;

/// Relative slack between a response's energy/time and their recomputation.
const COST_TOL: f64 = 1e-9;

/// Request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Fresh,
    Repeat,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Self::Fresh => "fresh",
            Self::Repeat => "repeat",
        }
    }
}

/// One generated request.
#[derive(Debug, Clone)]
struct Request {
    class: Class,
    devices: usize,
    seed: u64,
    weights: Weights,
    /// Due time, from the session's base instant.
    due: Duration,
    line: String,
}

impl Request {
    /// The builder the service applies this request's scenario patch to.
    fn builder(&self) -> ScenarioBuilder {
        let patch = ScenarioSpec { devices: Some(self.devices), ..ScenarioSpec::default() };
        patch.apply(ScenarioBuilder::paper_default())
    }

    fn scenario(&self) -> Result<Scenario, String> {
        self.builder().build(self.seed).map_err(|e| e.to_string())
    }
}

/// A uniform draw from `0..n` (`n` ≥ 1; the modulo bias is below 2⁻⁵⁰ here).
fn below(rng: &mut StdRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, below(rng, i + 1));
    }
}

/// Generates the requests of a `secs`-second session: a Poisson stream at [`RATE_PER_S`]
/// (its arrival count fixed at the mean, so the due times are sorted uniform draws over
/// the session), exactly a quarter of them repeats at shuffled positions (never first),
/// the fresh ones spread evenly over every ([`DEVICE_MIX`] entry, weight pair)
/// combination in shuffled order, and the repeats cycling through [`DEVICE_MIX`], so
/// every seed offers the same work mix.
fn generate(rng: &mut StdRng, secs: f64) -> Vec<Request> {
    let n = request_count(secs);
    let mut dues: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * secs).collect();
    dues.sort_by(f64::total_cmp);
    let mut repeat = vec![false; n];
    for flag in repeat.iter_mut().take(n / REPEAT_EVERY) {
        *flag = true;
    }
    shuffle(rng, &mut repeat);
    if let Some(first_fresh) = repeat.iter().position(|&r| !r) {
        repeat.swap(0, first_fresh);
    }
    let weights = Weights::paper_sweep();
    let mut mix: Vec<(usize, Weights)> = (0..n - n / REPEAT_EVERY)
        .map(|i| {
            (DEVICE_MIX[i % DEVICE_MIX.len()], weights[(i / DEVICE_MIX.len()) % weights.len()])
        })
        .collect();
    shuffle(rng, &mut mix);
    let mut mix = mix.into_iter();

    let mut requests: Vec<Request> = Vec::with_capacity(n);
    let mut recent: Vec<usize> = Vec::new();
    let mut repeats = 0;
    for (is_repeat, due) in repeat.into_iter().zip(dues) {
        let due = Duration::from_secs_f64(due);
        let req = if is_repeat {
            // Repeats cycle through the device mix too, so their mix is as fixed as the
            // fresh one: pick among the recent scenarios of this repeat's count.
            let want = DEVICE_MIX[repeats % DEVICE_MIX.len()];
            repeats += 1;
            let matching: Vec<usize> =
                recent.iter().copied().filter(|&i| requests[i].devices == want).collect();
            let pool = if matching.is_empty() { &recent } else { &matching };
            let pick = pool[below(rng, pool.len())];
            Request { class: Class::Repeat, due, ..requests[pick].clone() }
        } else {
            let (devices, weights) = mix.next().expect("one mix entry per fresh request");
            let seed = rng.gen::<u64>() >> 11;
            let line = format!(
                "{{\"schema_version\":1,\"seed\":{seed},\"scenario\":{{\"devices\":{devices}}},\
                 \"arm\":{{\"kind\":\"proposed\",\"w1\":{},\"w2\":{}}}}}",
                weights.energy(),
                weights.time()
            );
            recent.push(requests.len());
            if recent.len() > REPEAT_WINDOW {
                recent.remove(0);
            }
            Request { class: Class::Fresh, devices, seed, weights, due, line }
        };
        requests.push(req);
    }
    requests
}

/// Request lines handed over at their due times; EOF after the last one.
struct PacedInput<'a> {
    requests: &'a [Request],
    base: Instant,
    next: usize,
    buf: Vec<u8>,
    pos: usize,
    emitted: Vec<Instant>,
    recorder: Option<(&'a Recorder, usize)>,
}

impl Read for PacedInput<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PacedInput<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.buf.len() && self.next < self.requests.len() {
            let req = &self.requests[self.next];
            let due = self.base + req.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let emitted = Instant::now();
            if let Some((rec, session)) = self.recorder {
                rec.record("gen.emit", due, emitted, Some(session), Some(self.next as u64), None);
            }
            self.emitted.push(emitted);
            self.buf.clear();
            self.buf.extend_from_slice(req.line.as_bytes());
            self.buf.push(b'\n');
            self.pos = 0;
            self.next += 1;
        }
        Ok(&self.buf[self.pos.min(self.buf.len())..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// Response bytes, with the instant each line was flushed.
struct TimedOutput<'a> {
    bytes: Vec<u8>,
    scanned: usize,
    written: Vec<Instant>,
    trace: Option<(&'a Recorder, usize, &'a [Request], Instant)>,
}

impl Write for TimedOutput<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let now = Instant::now();
        let lines = self.bytes[self.scanned..].iter().filter(|&&b| b == b'\n').count();
        self.scanned = self.bytes.len();
        for _ in 0..lines {
            if let Some((rec, session, requests, base)) = self.trace {
                let k = self.written.len();
                let due = requests.get(k).map_or(now, |r| base + r.due);
                rec.record("serve.response", due, now, Some(session), Some(k as u64), None);
            }
            self.written.push(now);
        }
        Ok(())
    }
}

fn options() -> ServeOptions {
    ServeOptions {
        workers: THREADS,
        timing: true,
        warm_start: Some(true),
        ..ServeOptions::default()
    }
}

/// Input that records when the session first asks for a request, then reports EOF.
struct FirstRead(Option<Instant>);

impl Read for FirstRead {
    fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
        self.fill_buf().map(<[u8]>::len)
    }
}

impl BufRead for FirstRead {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.0.get_or_insert_with(Instant::now);
        Ok(&[])
    }

    fn consume(&mut self, _: usize) {}
}

/// `reps` times from calling `serve_session` until its workers are spawned and it asks
/// for the first request, seconds.
fn setup_s(reps: usize) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut input = FirstRead(None);
        let start = Instant::now();
        serve_session(&mut input, io::sink(), &options(), &AtomicBool::new(false))
            .map_err(|e| format!("serve session: {e}"))?;
        let ready = input.0.ok_or("session never read its input")?;
        samples.push(ready.duration_since(start).as_secs_f64());
    }
    Ok(samples)
}

/// What a session answered, request by request.
struct Session {
    stats: ServeStats,
    emitted: Vec<Instant>,
    written: Vec<Instant>,
    responses: Vec<Json>,
    base: Instant,
}

fn run_session(requests: &[Request], recorder: Option<&Recorder>) -> Result<Session, String> {
    let session_span = recorder.map(|r| r.open("serve.session", None));
    let base = Instant::now();
    let trace_in = recorder.zip(session_span);
    let mut input = PacedInput {
        requests,
        base,
        next: 0,
        buf: Vec::new(),
        pos: 0,
        emitted: Vec::with_capacity(requests.len()),
        recorder: trace_in,
    };
    let mut output = TimedOutput {
        bytes: Vec::new(),
        scanned: 0,
        written: Vec::with_capacity(requests.len()),
        trace: trace_in.map(|(r, s)| (r, s, requests, base)),
    };
    let stats = serve_session(&mut input, &mut output, &options(), &AtomicBool::new(false))
        .map_err(|e| format!("serve session: {e}"))?;
    if let (Some(r), Some(s)) = (recorder, session_span) {
        r.close(s);
    }
    let text = String::from_utf8(output.bytes).map_err(|e| format!("response bytes: {e}"))?;
    let responses = text
        .lines()
        .map(|l| Json::parse(l).map_err(|e| format!("response line: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Session { stats, emitted: input.emitted, written: output.written, responses, base })
}

/// Why a response fails the output checks, if it does.
fn check_response(req: &Request, resp: &Json) -> Result<(), String> {
    let status = resp.get("status").and_then(Json::as_str).unwrap_or("missing");
    if status != "ok" {
        return Err(format!("status {status}"));
    }
    let num = |key: &str| resp.get(key).and_then(Json::as_f64).ok_or(format!("no {key}"));
    let lane = |key: &str| -> Result<Vec<f64>, String> {
        resp.get("allocation")
            .and_then(|a| a.get(key))
            .and_then(Json::as_array)
            .ok_or(format!("no allocation.{key}"))?
            .iter()
            .map(|v| v.as_f64().ok_or(format!("allocation.{key}: not a number")))
            .collect()
    };
    let (energy, time) = (num("energy_j")?, num("time_s")?);
    let alloc = Allocation::new(lane("powers_w")?, lane("frequencies_hz")?, lane("bandwidths_hz")?);
    let scenario = req.scenario()?;
    alloc.check_shape(&scenario).map_err(|e| format!("allocation shape: {e}"))?;
    let inside = |v: f64, lo: f64, hi: f64| {
        v.is_finite() && v >= lo * (1.0 - BOX_TOL) && v <= hi * (1.0 + BOX_TOL)
    };
    let budget = scenario.params.total_bandwidth.value();
    for (i, d) in scenario.devices.iter().enumerate() {
        if !inside(alloc.powers_w[i], d.p_min.value(), d.p_max.value()) {
            return Err(format!("device {i}: power {} outside its box", alloc.powers_w[i]));
        }
        if !inside(alloc.frequencies_hz[i], d.f_min.value(), d.f_max.value()) {
            return Err(format!(
                "device {i}: frequency {} outside its box",
                alloc.frequencies_hz[i]
            ));
        }
        if !(alloc.bandwidths_hz[i].is_finite() && alloc.bandwidths_hz[i] > 0.0) {
            return Err(format!("device {i}: bandwidth {}", alloc.bandwidths_hz[i]));
        }
    }
    let used: f64 = alloc.bandwidths_hz.iter().sum();
    if used > budget * (1.0 + BOX_TOL) {
        return Err(format!("bandwidth {used} Hz over the {budget} Hz budget"));
    }
    let cost = scenario.cost(&alloc).map_err(|e| format!("cost: {e}"))?;
    let close = |a: f64, b: f64| (a - b).abs() <= COST_TOL * a.abs().max(b.abs());
    if !(close(cost.total_energy_j, energy) && close(cost.total_time_s, time)) {
        return Err(format!(
            "reported ({energy} J, {time} s) vs recomputed ({} J, {} s)",
            cost.total_energy_j, cost.total_time_s
        ));
    }
    Ok(())
}

/// Per-request timings of a session, ms: due→response, service, generator lateness;
/// the share of sent requests answered `ok` within [`SLO_MS`]; and the goodput, those
/// requests per second from the session's start to its last response.
struct Timings {
    latency: Vec<f64>,
    service: Vec<f64>,
    late: Vec<f64>,
    within_slo: f64,
    goodput_per_s: f64,
}

/// Checks a session's responses, counts outcomes per class, and returns its timings.
fn account(requests: &[Request], s: &Session, report: &mut Report) -> Timings {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut t = Timings {
        latency: Vec::new(),
        service: Vec::new(),
        late: Vec::new(),
        within_slo: 0.0,
        goodput_per_s: 0.0,
    };
    // Per class: sent, ok, degraded, shed, invalid, wrong (ok but failing a check).
    let mut counts = [[0u64; 6]; 2];
    let mut within = 0u64;
    for (i, req) in requests.iter().enumerate() {
        let due = s.base + req.due;
        let c = &mut counts[req.class as usize];
        c[0] += 1;
        let (Some(resp), Some(&written)) = (s.responses.get(i), s.written.get(i)) else {
            report.check_failures.push(format!("request {i}: no response"));
            report.count(1, 1);
            continue;
        };
        let latency = ms(written.saturating_duration_since(due));
        t.latency.push(latency);
        t.late.push(s.emitted.get(i).map_or(0.0, |&e| ms(e.saturating_duration_since(due))));
        t.service.push(resp.get("latency_us").and_then(Json::as_f64).unwrap_or(0.0) / 1e3);
        let seq = resp.get("seq").and_then(Json::as_u64);
        let verdict = if seq == Some(i as u64) {
            check_response(req, resp)
        } else {
            Err(format!("response out of order (seq {seq:?})"))
        };
        match resp.get("status").and_then(Json::as_str) {
            Some("ok") => c[1] += 1,
            Some("degraded") => c[2] += 1,
            Some("shed") => c[3] += 1,
            _ => c[4] += 1,
        }
        match verdict {
            Ok(()) => {
                within += u64::from(latency <= SLO_MS);
                report.count(1, 0);
            }
            Err(why) => {
                if resp.get("status").and_then(Json::as_str) == Some("ok") {
                    c[5] += 1;
                    report.note(format!("request {i}: check failed: {why}"));
                }
                report.count(1, 1);
            }
        }
    }
    for class in [Class::Fresh, Class::Repeat] {
        let [sent, ok, degraded, shed, invalid, wrong] = counts[class as usize];
        report.note(format!(
            "{}: sent {sent}, ok {ok}, degraded {degraded}, shed {shed}, invalid {invalid}, \
             ok but failing a check {wrong}",
            class.name()
        ));
    }
    report.note(format!(
        "within_slo base: {within} of {} sent answered ok within {SLO_MS} ms",
        requests.len()
    ));
    check_backlog(requests, s, report);
    t.within_slo = within as f64 / requests.len().max(1) as f64;
    let span = s.written.last().map_or(0.0, |w| w.saturating_duration_since(s.base).as_secs_f64());
    t.goodput_per_s = if span > 0.0 { within as f64 / span } else { 0.0 };
    t
}

/// Fails the run if the backlog (requests due but not yet answered, sampled at each due
/// time) grows: its mean over the second half of the session must stay within
/// 1.5 × the first half's mean + 2 (one per worker).
fn check_backlog(requests: &[Request], s: &Session, report: &mut Report) {
    let mut answered = 0;
    let backlog: Vec<f64> = requests
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let due = s.base + req.due;
            while answered < s.written.len() && s.written[answered] <= due {
                answered += 1;
            }
            (i + 1 - answered.min(i + 1)) as f64
        })
        .collect();
    let (first, second) = backlog.split_at(backlog.len() / 2);
    let (a, b) = (stats::mean(first), stats::mean(second));
    report.note(format!("backlog: mean {a:.2} in the first half, {b:.2} in the second"));
    if b > 1.5 * a + THREADS as f64 {
        report.check_failures.push(format!("backlog grows: mean {a:.2} then {b:.2}"));
    }
}

/// Distinct fresh scenarios of a session, at most `per_size` of each device count,
/// solved as a warm-cache miss would solve them.
fn probe_cases(requests: &[Request], per_size: usize) -> Result<Vec<Case>, String> {
    let mut cases = Vec::new();
    for &n in &DEVICES {
        for req in
            requests.iter().filter(|r| r.class == Class::Fresh && r.devices == n).take(per_size)
        {
            cases.push(Case { scenario: req.scenario()?, kind: Kind::Weighted(req.weights) });
        }
    }
    Ok(cases)
}

/// Each class's due-to-response p50 and tail as `(name, ms, unit)`, noting the tail's
/// percentile and sample count.
fn class_latencies(
    requests: &[Request],
    t: &Timings,
    report: &mut Report,
) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    for class in [Class::Fresh, Class::Repeat] {
        let lat: Vec<f64> = requests
            .iter()
            .zip(&t.latency)
            .filter(|(r, _)| r.class == class)
            .map(|(_, &l)| l)
            .collect();
        let (p, tail) = stats::tail(&lat);
        report.note(format!(
            "{}.tail_ms is p{p} of {} samples ({} beyond it)",
            class.name(),
            lat.len(),
            lat.iter().filter(|&&l| l > tail).count()
        ));
        out.push((format!("{}.p50_ms", class.name()), stats::median(&lat), "ms"));
        out.push((format!("{}.tail_ms", class.name()), tail, "ms"));
    }
    out
}

/// Number of requests for a run of `secs` seconds at [`RATE_PER_S`].
fn request_count(secs: f64) -> usize {
    (RATE_PER_S * secs).round().max(REPEAT_EVERY as f64) as usize
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    // Set-up is timed before the warm-up and again after the measured session, so its
    // median spans the run rather than one instant of host load.
    let mut setups = setup_s(16)?;
    // Warm the process (allocator, caches, clock) with a short session of its own draws,
    // so the measured stream does not start cold; its responses are not checked.
    let warmup = generate(&mut StdRng::seed_from_u64(!args.seed), WARMUP_S);
    run_session(&warmup, None)?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut report = Report::default();
    let secs = args.seconds.as_secs_f64();

    if !args.trace {
        let requests = generate(&mut rng, secs);
        let session = run_session(&requests, None)?;
        let t = account(&requests, &session, &mut report);
        setups.extend(setup_s(15)?);
        report.metric("setup_s", stats::median(&setups), "s");
        report.note(format!("within_slo {:.4}", t.within_slo));
        report.metric("ops_per_s", t.goodput_per_s, "1/s");
        // The class latencies are printed for people and gated nowhere; the traced run
        // reports them as per-layer metrics (`NOTES.md` records their spread).
        for (name, value, _) in class_latencies(&requests, &t, &mut report) {
            report.note(format!("{name} {value:.3} ms"));
        }
        report.note(format!(
            "open loop: {} requests at {RATE_PER_S} req/s, {THREADS} workers; service p50 \
             {:.3} ms, generator lateness p50 {:.3} ms, tail {:.3} ms",
            requests.len(),
            stats::median(&t.service),
            stats::median(&t.late),
            stats::tail(&t.late).1
        ));
        return Ok(report);
    }

    // Traced run: a stream of 45% of the budget untraced, then again with spans on; the
    // rest of the budget goes to the warm-up and the core probes.
    let requests = generate(&mut rng, 0.45 * secs);
    let plain = run_session(&requests, None)?;
    let plain_t = account(&requests, &plain, &mut report);
    for (name, value, unit) in class_latencies(&requests, &plain_t, &mut report) {
        report.metric(name, value, unit);
    }
    let recorder = Recorder::default();
    let traced = run_session(&requests, Some(&recorder))?;
    let t = account(&requests, &traced, &mut report);
    let spans = recorder.spans();

    let late: Vec<f64> = trace::named(&spans, "gen.emit").map(|s| s.us() / 1e3).collect();
    let due_to_response: Vec<f64> =
        trace::named(&spans, "serve.response").map(|s| s.us() / 1e3).collect();
    let queue: Vec<f64> = due_to_response
        .iter()
        .zip(&t.service)
        .zip(&late)
        .map(|((d, s), l)| (d - s - l).max(0.0))
        .collect();
    let st = &traced.stats;
    let session_ms = trace::total_ms(&spans, "serve.session");
    report.metric("serve.service_p50_ms", stats::median(&t.service), "ms");
    report.metric("serve.service_tail_ms", stats::tail(&t.service).1, "ms");
    report.metric("serve.queue_wait_p50_ms", stats::median(&queue), "ms");
    report.metric("serve.queue_wait_tail_ms", stats::tail(&queue).1, "ms");
    report.metric(
        "serve.busy_share",
        t.service.iter().sum::<f64>() / (THREADS as f64 * session_ms),
        "ratio",
    );
    let lookups = st.warm_hits + st.warm_misses;
    report.metric(
        "serve.warm_hit_ratio",
        if lookups > 0 { st.warm_hits as f64 / lookups as f64 } else { 0.0 },
        "ratio",
    );
    let jong: Vec<f64> = traced
        .responses
        .iter()
        .filter_map(|r| {
            r.get("counters").and_then(|c| c.get("jong_iterations")).and_then(Json::as_f64)
        })
        .collect();
    report.metric("serve.jong_per_request", stats::mean(&jong), "count");
    report.metric("serve.shed", st.shed as f64, "count");
    report.metric("serve.degraded", st.degraded as f64, "count");
    report.metric("serve.worker_restarts", st.worker_restarts as f64, "count");
    report.metric("serve.warm_refreshes", st.warm_refreshes as f64, "count");
    report.metric("gen.late_tail_ms", stats::tail(&late).1, "ms");
    report.note(format!(
        "warm_hit_ratio base: {} hits of {lookups} lookups (refreshes excluded)",
        st.warm_hits
    ));

    let builds: Vec<(ScenarioBuilder, u64)> =
        requests.iter().map(|r| (r.builder(), r.seed)).collect();
    let (build_calls, build_ms) = probe::time_builds(&builds)?;
    report.metric("flsys.build.calls", build_calls as f64, "count");
    report.metric("flsys.build.ms", build_ms, "ms");

    // Core work of a warm-cache miss, replayed on the session's own fresh scenarios.
    let config = SolverSpec::default().resolve().with_warm_start(true);
    let optimizer = fedopt_core::JointOptimizer::new(config);
    let mut ws = SolverWorkspace::new();
    for case in &probe_cases(&requests, 10)? {
        ws.reset_warm_start();
        probe::solve(&optimizer, case, &mut ws, Some((&recorder, None)))
            .map_err(|e| format!("replayed solve: {e}"))?;
    }
    let spans: Vec<Span> = recorder.spans();
    let sub = probe::sub_calls(&probe_cases(&requests, 3)?, config, 3)?;
    probe::core_metrics(&mut report, &spans, sub);
    report.metric(
        "trace.overhead",
        stats::median(&t.latency) / stats::median(&plain_t.latency),
        "ratio",
    );
    report.note(format!(
        "serve-mixed: {} requests per session; trace.overhead = traced / untraced median \
         due-to-response latency of the same stream",
        requests.len()
    ));
    trace::save(&recorder, "serve-mixed", args.seed);
    Ok(report)
}
