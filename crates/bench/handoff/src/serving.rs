//! The online half of the hand-off: a closed-loop client against a real
//! `GeoPrivServer`, the wire-level correctness checks, and the in-process
//! probes that split a served update by layer.

use geopriv_core::{GeoIndistinguishabilityFactory, LppmFactory};
use geopriv_lppm::{open_stream, Lppm};
use geopriv_mobility::{Dataset, UserId};
use geopriv_serve::metrics::RequestMetrics;
use geopriv_serve::middleware::{MetricsLayer, PanicCatch, RateLimit, Timeout};
use geopriv_serve::protocol::protect_response_json;
use geopriv_serve::{
    derive_user_seed, AssignmentRegistry, GeoPrivServer, Handler, HttpClient, HttpRequest,
    HttpResponse, MiddlewareStack, ProtectRequest, ServeConfig,
};
use std::sync::Arc;
use std::time::Instant;

use crate::handoff::BoxError;
use geopriv_handoff_bench::report::Checks;
use geopriv_handoff_bench::stats::{median, tail_percentile, Tally};
use geopriv_handoff_bench::trace::Tracer;

/// Updates per timed chunk of the serving loop.
pub const CHUNK: usize = 2_000;

/// Updates per throughput window: short windows let a stall of the shared
/// host slow a few windows instead of every chunk it falls in.
pub const RATE_WINDOW: usize = 250;

/// Seconds between two updates of one user.
const UPDATE_INTERVAL_S: f64 = 30.0;

/// Each user's update source: the locations of her first trace, replayed
/// in a loop at one fix per [`UPDATE_INTERVAL_S`].
pub struct Traffic {
    users: Vec<u64>,
    locations: Vec<Vec<(f64, f64)>>,
    sent: Vec<usize>,
}

impl Traffic {
    /// The traffic of every user of `dataset`.
    pub fn of(dataset: &Dataset) -> Traffic {
        let mut users = Vec::new();
        let mut locations = Vec::new();
        for user in dataset.users() {
            if let Some(trace) = dataset.traces_of(user).first() {
                users.push(user.value());
                locations.push(
                    trace
                        .latitudes()
                        .iter()
                        .copied()
                        .zip(trace.longitudes().iter().copied())
                        .collect(),
                );
            }
        }
        let sent = vec![0; users.len()];
        Traffic { users, locations, sent }
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// The next update of the `index`-th user.
    pub fn next(&mut self, index: usize) -> ProtectRequest {
        let user = self.users.get(index).copied().unwrap_or(0);
        let sequence = self.sent.get(index).copied().unwrap_or(0);
        if let Some(sent) = self.sent.get_mut(index) {
            *sent += 1;
        }
        let (lat, lon) = self
            .locations
            .get(index)
            .and_then(|l| l.get(sequence % l.len().max(1)).copied())
            .unwrap_or((0.0, 0.0));
        ProtectRequest { user, t: sequence as f64 * UPDATE_INTERVAL_S, lat, lon }
    }
}

/// End-to-end figures of a serving phase: medians over the timed chunks
/// of [`CHUNK`] updates (throughput: over windows of [`RATE_WINDOW`]).
pub struct Served {
    /// Updates per second.
    pub updates_per_s: f64,
    /// Median update latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile update latency, microseconds.
    pub p99_us: f64,
    /// Requests the server answered (its own count).
    pub requests: u64,
    /// Responses other than 200 (the server's own count).
    pub non200: u64,
    /// Live sessions after the loop.
    pub sessions: usize,
}

/// A serving phase in progress: a `GeoPrivServer` with the default
/// configuration (rate limiter on) and one keep-alive client sending
/// round-robin `POST /protect` updates, each sent after the previous reply
/// (a closed loop).
///
/// The timed loop runs in chunks of [`CHUNK`] updates; each chunk gives a
/// median and a p99 latency (twenty samples beyond it) and one throughput
/// per window of [`RATE_WINDOW`] updates, and the phase reports the median
/// of each, so a few busy seconds of the host do not decide the figures.
pub struct Serving {
    server: GeoPrivServer,
    client: HttpClient,
    traffic: Traffic,
    sent: usize,
    sample_stride: usize,
    sampled: Vec<Vec<(ProtectRequest, String)>>,
    latencies: Vec<f64>,
    chunks: usize,
    rates: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
}

impl Serving {
    /// Starts the server on `registry` and sends one warm-up update per
    /// user of `dataset`.
    pub fn start(
        registry: AssignmentRegistry,
        dataset: &Dataset,
        tally: &mut Tally,
    ) -> Result<Serving, BoxError> {
        let traffic = Traffic::of(dataset);
        let users = traffic.len().max(1);
        let server = GeoPrivServer::start(registry, &ServeConfig::default())?;
        let client = HttpClient::connect(server.local_addr())?;
        let mut serving = Serving {
            server,
            client,
            traffic,
            sent: 0,
            sample_stride: (users / 16).max(1),
            sampled: vec![Vec::new(); users],
            latencies: Vec::with_capacity(CHUNK),
            chunks: 0,
            rates: Vec::new(),
            p50s: Vec::new(),
            p99s: Vec::new(),
        };
        for index in 0..users {
            serving.exchange(index, tally)?;
        }
        Ok(serving)
    }

    fn exchange(&mut self, index: usize, tally: &mut Tally) -> Result<f64, BoxError> {
        let request = self.traffic.next(index);
        let body = request.to_json();
        let started = Instant::now();
        let (status, response) = self.client.post("/protect", &body)?;
        let elapsed = started.elapsed().as_secs_f64();
        tally.response(status);
        if index % self.sample_stride == 0 {
            if let Some(log) = self.sampled.get_mut(index) {
                log.push((request, response));
            }
        }
        Ok(elapsed)
    }

    /// Sends one timed chunk of [`CHUNK`] updates.
    pub fn chunk(&mut self, tally: &mut Tally) -> Result<(), BoxError> {
        let users = self.traffic.len().max(1);
        self.latencies.clear();
        let mut window = Instant::now();
        for i in 1..=CHUNK {
            let latency = self.exchange(self.sent % users, tally)?;
            self.latencies.push(latency);
            self.sent += 1;
            if i % RATE_WINDOW == 0 {
                self.rates.push(RATE_WINDOW as f64 / window.elapsed().as_secs_f64());
                window = Instant::now();
            }
        }
        self.chunks += 1;
        self.p50s.push(median(&self.latencies).ok_or("no timed updates")?);
        self.p99s.push(
            tail_percentile(&self.latencies, 0.99)
                .ok_or("too few updates for a p99 with ten samples beyond it")?,
        );
        Ok(())
    }

    /// Timed chunks sent so far.
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Ends the phase: checks a sample of users' wire releases against
    /// offline `open_stream` output under `derive_user_seed`, replays their
    /// first updates against a twin server on `twin` for byte-identical
    /// bodies, and shuts both servers down.
    pub fn finish(
        self,
        twin: AssignmentRegistry,
        seed: u64,
        tally: &mut Tally,
        checks: &mut Checks,
    ) -> Result<Served, BoxError> {
        let metrics = self.server.metrics();
        let served = Served {
            updates_per_s: median(&self.rates).ok_or("no timed chunk")?,
            p50_us: median(&self.p50s).ok_or("no timed chunk")? * 1e6,
            p99_us: median(&self.p99s).ok_or("no timed chunk")? * 1e6,
            requests: metrics.total(),
            non200: metrics.total() - metrics.count("/protect", 200),
            sessions: self.server.registry().active_sessions(),
        };
        eprintln!("served {} timed updates in {} chunks of {CHUNK}", self.sent, self.chunks());

        let mut offline_ok = true;
        let mut detail = String::new();
        for (index, log) in self.sampled.iter().enumerate().filter(|(_, log)| !log.is_empty()) {
            let user = self.traffic.users.get(index).copied().unwrap_or(0);
            let id = UserId::new(user);
            let point = self.server.registry().assignment_for(user).point;
            let lppm: Arc<dyn Lppm> =
                Arc::from(GeoIndistinguishabilityFactory::new().instantiate_at(&point)?);
            let mut stream = open_stream(lppm, id, derive_user_seed(seed, id));
            for (k, (request, body)) in log.iter().enumerate() {
                let released = stream.push(request.record()?)?;
                if protect_response_json(user, &released, k + 1) != *body {
                    offline_ok = false;
                    detail = format!("user {user}, update {}: wire {body}", k + 1);
                    break;
                }
            }
        }
        checks
            .check("sampled wire releases equal offline open_stream output", offline_ok, || detail);

        let twin_server = GeoPrivServer::start(twin, &ServeConfig::default())?;
        let mut twin_ok = true;
        let mut client = HttpClient::connect(twin_server.local_addr())?;
        for log in self.sampled.iter().filter(|log| !log.is_empty()) {
            for (request, body) in log.iter().take(8) {
                let (status, twin_body) = client.post("/protect", &request.to_json())?;
                tally.response(status);
                twin_ok &= twin_body == *body;
            }
        }
        drop(client);
        twin_server.shutdown();
        checks.check("a twin instance releases byte-identical bodies", twin_ok, || {
            "twin response differs".to_string()
        });
        drop(self.client);
        self.server.shutdown();
        Ok(served)
    }
}

/// Median over `batches` of the mean per-call time of `f`, nanoseconds.
fn per_call_ns(batches: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(batches);
    for batch in 0..batches {
        let started = Instant::now();
        for i in 0..calls {
            f(batch * calls + i);
        }
        samples.push(started.elapsed().as_secs_f64() * 1e9 / calls as f64);
    }
    median(&samples).unwrap_or(0.0)
}

/// In-process split of one served update, on a twin registry: protocol
/// parse and encode, `registry.protect`, and the middleware stack (in
/// `GeoPrivServer::start`'s order) around a constant handler minus that
/// handler. Returns `(parse, encode, protect, middleware)` in nanoseconds.
pub fn update_probe(
    registry: &AssignmentRegistry,
    dataset: &Dataset,
    tracer: &Tracer,
) -> Result<(f64, f64, f64, f64), BoxError> {
    const BATCHES: usize = 7;
    const CALLS: usize = 4_000;
    let mut traffic = Traffic::of(dataset);
    let users = traffic.len().max(1);
    let requests: Vec<ProtectRequest> =
        (0..BATCHES * CALLS).map(|i| traffic.next(i % users)).collect();
    let bodies: Vec<String> = requests.iter().map(ProtectRequest::to_json).collect();
    let pick = |i: usize| i % requests.len().max(1);

    let parse = tracer.span("serve.protocol.parse", || {
        per_call_ns(BATCHES, CALLS, |i| {
            let _ = std::hint::black_box(ProtectRequest::from_json(&bodies[pick(i)]));
        })
    });
    let mut released = Vec::with_capacity(requests.len());
    for request in &requests {
        released.push(registry.protect(request.user, request.record()?)?);
    }
    let protect = tracer.span("serve.registry.protect", || {
        per_call_ns(BATCHES, CALLS, |i| {
            let request = requests[pick(i)];
            if let Ok(record) = request.record() {
                let _ = std::hint::black_box(registry.protect(request.user, record));
            }
        })
    });
    let encode = tracer.span("serve.protocol.encode", || {
        per_call_ns(BATCHES, CALLS, |i| {
            let (record, count) = &released[pick(i)];
            std::hint::black_box(protect_response_json(requests[pick(i)].user, record, *count));
        })
    });

    let config = ServeConfig::default();
    let handler = |_: &HttpRequest| HttpResponse::json(200, String::from("{}"));
    let mut stack = MiddlewareStack::new()
        .layer(PanicCatch)
        .layer(MetricsLayer::new(Arc::new(RequestMetrics::new())));
    if let Some((burst, per_second)) = config.rate_limit {
        stack = stack.layer(RateLimit::new(burst, per_second));
    }
    let stacked =
        stack.layer(Timeout::new(config.timeout).exempt("/protect")).service(Box::new(handler));
    let http: Vec<HttpRequest> = bodies
        .iter()
        .map(|body| HttpRequest {
            method: tiny_http::Method::Post,
            path: "/protect".to_string(),
            body: body.clone(),
        })
        .collect();
    let middleware = tracer.span("serve.middleware", || {
        let wrapped = per_call_ns(BATCHES, CALLS, |i| {
            std::hint::black_box(stacked.handle(&http[pick(i)]));
        });
        let bare = per_call_ns(BATCHES, CALLS, |i| {
            std::hint::black_box(handler.handle(&http[pick(i)]));
        });
        wrapped - bare
    });
    Ok((parse, encode, protect, middleware))
}
