//! The deployments and their timed windows.
//!
//! * `hot-reuse`: one in-process session, closed loop, small tree,
//!   unbounded cache. After warm-up every answer comes from the cache,
//!   so the remote, wire and server layers sit idle: the control for
//!   remote-side changes and the stage for IE and executor work.
//! * `cold-fetch`: one in-process session, closed loop, bound probes of
//!   a 364-person tree through a cache capped at a tenth of the working
//!   set, remote behind a loopback TCP server with real (sleeping)
//!   latency: inserts, evictions and remote fetches instead of hits.
//! * `server-mixed`: the cold-fetch deployment behind the braid server's
//!   worker pool, a closed loop on each of two connections, each over its
//!   own block stream: the front door, the pool, parking and
//!   cross-session single-flight.
//! * `server-open`: the same deployment driven open-loop, seeded Poisson
//!   arrivals per connection, latency charged from the due time. Its p99
//!   is head-of-line waiting behind a handful of near-root `ancestor`
//!   probes per run, which makes it too unsteady to gate changes on; it
//!   is run on demand, not listed in `BENCHMARK.json`.

use crate::oracle::Oracle;
use crate::spans::LayerTally;
use crate::stats::{percentile_of, ratio};
use crate::streams;
use braid::{
    BraidClient, BraidConfig, BraidError, BraidServer, BraidServerConfig, BraidSystem,
    CheckedSolutions, CmsConfig, CombinedMetrics, CostModel, LatencyModel, PoolStats, RemoteDbms,
    RemoteTcpServer, RingSink, SessionHandle, Strategy, TcpServerConfig,
};
use braid_remote::{TcpClientConfig, TransportConfig};
use braid_sim::Dataset;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Every query runs under the conjunction-compiled strategy.
pub const STRATEGY: Strategy = Strategy::ConjunctionCompiled;
/// The capped cache (the working set is ~358 KB).
pub const COLD_CACHE_BYTES: usize = 30 * 1024;
/// Remote latency: real sleeps of this many microseconds per cost unit.
pub const REMOTE_UNIT_MICROS: u64 = 1;
/// The server workloads: client connections and pool workers.
pub const SERVER_CONNS: usize = 2;
pub const SERVER_WORKERS: usize = 2;
const SERVER_STEP_BUDGET: usize = 8;
/// server-open's offered rate per connection.
pub const OPEN_RATE_PER_CONN: u32 = 150;
/// Warm-up lengths of the capped deployments (fixed lists, see
/// [`streams::cold_warmup`]).
const COLD_WARMUP: usize = 400;
const SERVER_WARMUP: usize = 200;
/// Per-query event capacity of the benchmark's ring (drained after
/// every AI query in process, continuously behind the server).
const RING_EVENTS: usize = 1 << 16;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotReuse,
    ColdFetch,
    ServerMixed,
    ServerOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotReuse,
        Workload::ColdFetch,
        Workload::ServerMixed,
        Workload::ServerOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotReuse => "hot-reuse",
            Workload::ColdFetch => "cold-fetch",
            Workload::ServerMixed => "server-mixed",
            Workload::ServerOpen => "server-open",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn dataset(self) -> Dataset {
        match self {
            Workload::HotReuse => streams::HOT_DATASET,
            _ => streams::COLD_DATASET,
        }
    }

    /// The deployment in one line, printed with every result.
    pub fn describe(self) -> String {
        match self {
            Workload::HotReuse => format!(
                "genealogy 3x2 (15 persons), in-process session, closed loop, unbounded cache, \
                 in-process remote (counted latency), {STRATEGY:?}"
            ),
            Workload::ColdFetch => format!(
                "genealogy 5x3 (364 persons), in-process session, closed loop, cache cap \
                 {COLD_CACHE_BYTES} B vs ~358 KB working set, remote over loopback TCP with \
                 Real {{ unit_micros: {REMOTE_UNIT_MICROS} }}, {STRATEGY:?}"
            ),
            Workload::ServerMixed => format!(
                "cold-fetch deployment behind BraidServer ({SERVER_WORKERS} workers), \
                 {SERVER_CONNS} connections, closed loop, {STRATEGY:?}"
            ),
            Workload::ServerOpen => format!(
                "cold-fetch deployment behind BraidServer ({SERVER_WORKERS} workers), \
                 {SERVER_CONNS} connections, open loop, Poisson {OPEN_RATE_PER_CONN}/s per \
                 connection, {STRATEGY:?}"
            ),
        }
    }
}

/// Connection-pool counters that matter per window.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetCounts {
    pub connects: u64,
    pub health_checks: u64,
    pub requests: u64,
    pub resumes: u64,
}

impl NetCounts {
    fn of(p: Option<PoolStats>) -> NetCounts {
        p.map_or_else(NetCounts::default, |p| NetCounts {
            connects: p.connects,
            health_checks: p.health_checks,
            requests: p.requests,
            resumes: p.resumes,
        })
    }

    fn since(self, e: NetCounts) -> NetCounts {
        NetCounts {
            connects: self.connects - e.connects,
            health_checks: self.health_checks - e.health_checks,
            requests: self.requests - e.requests,
            resumes: self.resumes - e.resumes,
        }
    }
}

/// Counter snapshot of a deployment.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// CMS counters, and the remote counters of the DBMS that actually
    /// served the fetches.
    pub metrics: CombinedMetrics,
    pub net: NetCounts,
}

impl Counters {
    fn since(&self, e: &Counters) -> Counters {
        Counters {
            metrics: self.metrics.since(&e.metrics),
            net: self.net.since(e.net),
        }
    }
}

/// What one timed window measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Queries sent, failed with an error, answered wrongly.
    pub attempted: u64,
    pub errors: u64,
    pub mismatches: u64,
    /// Correct answers per second of the window.
    pub qps: f64,
    /// The time each correct answer took until it was in hand (from the
    /// due time in open loop).
    pub latencies_ms: Vec<f64>,
    /// Open loop only: how late each query was sent.
    pub lags_ms: Vec<f64>,
    /// Every query's solve call: how many, and their summed length. The
    /// benchmark's own work between calls is outside it.
    pub solved: u64,
    pub solve_secs: f64,
    /// Counter deltas over the window.
    pub counters: Counters,
    /// Cache population at the end of the window.
    pub cache_elements: usize,
    pub cache_bytes: usize,
    /// Server workloads: the pool's run-queue high-water mark.
    pub run_queue_peak: u64,
    /// Traced runs only: per-layer sums and ring losses.
    pub tally: Option<LayerTally>,
    pub ring_dropped: u64,
    /// Server workloads: why the server failed to drain, if it did.
    pub undrained: Option<String>,
}

impl Window {
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }

    /// Count one answered query; `true` when it matches the oracle.
    fn check(
        &mut self,
        oracle: &Oracle,
        id: usize,
        result: Result<CheckedSolutions, BraidError>,
    ) -> bool {
        self.attempted += 1;
        match result {
            Ok(answer) if oracle.matches(id, &answer) => true,
            Ok(_) => {
                self.mismatches += 1;
                false
            }
            Err(_) => {
                self.errors += 1;
                false
            }
        }
    }

    /// Fold in one connection's counts and samples.
    fn merge(&mut self, o: Window) {
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.mismatches += o.mismatches;
        self.latencies_ms.extend(o.latencies_ms);
        self.lags_ms.extend(o.lags_ms);
        self.solved += o.solved;
        self.solve_secs += o.solve_secs;
    }

    /// Latency percentile `p` over every correct answer of the window.
    /// Pooling the whole window reads steadier than a median over parts
    /// of it: the host shares its CPUs with other tenants and slows in
    /// phases, and a part holds too few queries to average its own mix.
    pub fn latency_ms(&self, p: f64) -> f64 {
        percentile_of(&self.latencies_ms, p)
    }

    /// Latency samples, one per correct answer.
    pub fn samples(&self) -> usize {
        self.latencies_ms.len()
    }

    /// Queries solved per second of solve time.
    pub fn solve_rate(&self) -> f64 {
        ratio(self.solved as f64, self.solve_secs)
    }
}

/// Closed loop over `stream` (cycled) until `seconds` have passed; the
/// query in flight at the deadline completes and counts. `solve` answers
/// one query text and reports how long the answer took. Returns how long
/// the loop ran.
fn closed_loop(
    oracle: &Oracle,
    stream: &[usize],
    seconds: f64,
    w: &mut Window,
    mut solve: impl FnMut(&str) -> (Result<CheckedSolutions, BraidError>, Duration),
) -> f64 {
    let start = Instant::now();
    for &id in stream.iter().cycle() {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let (result, took) = solve(oracle.text(id));
        w.solved += 1;
        w.solve_secs += took.as_secs_f64();
        if w.check(oracle, id, result) {
            w.latencies_ms.push(millis(took));
        }
    }
    start.elapsed().as_secs_f64()
}

/// A loopback TCP remote with real latency, and a handle on the DBMS it
/// serves so the window can read the remote counters.
struct Remote {
    server: RemoteTcpServer,
    dbms: RemoteDbms,
}

impl Remote {
    fn start(dataset: &Dataset) -> Result<Remote, String> {
        let dbms = RemoteDbms::new(
            dataset.catalog(),
            CostModel::default(),
            LatencyModel::Real {
                unit_micros: REMOTE_UNIT_MICROS,
            },
        );
        let server = RemoteTcpServer::serve(dbms.clone(), TcpServerConfig::default())
            .map_err(|e| format!("remote listen failed: {e}"))?;
        Ok(Remote { server, dbms })
    }

    fn config(&self, ring: Option<&Arc<RingSink>>) -> BraidConfig {
        let cms = CmsConfig::braid()
            .with_capacity(COLD_CACHE_BYTES)
            .with_transport(TransportConfig::Tcp(TcpClientConfig::to(
                self.server.addr().to_string(),
            )));
        with_ring(BraidConfig::with_cms(cms), ring)
    }
}

fn with_ring(config: BraidConfig, ring: Option<&Arc<RingSink>>) -> BraidConfig {
    match ring {
        Some(r) => config.with_trace(Arc::clone(r) as Arc<dyn braid::trace::TraceSink>),
        None => config,
    }
}

/// The benchmark's own span around the CAQL parser: one timed
/// `parse_query` call on the query text, in nanoseconds.
fn time_parse(text: &str) -> u64 {
    let t0 = Instant::now();
    let _ = black_box(braid::parse_query(black_box(text)));
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// An in-process deployment: one session over a system whose remote is
/// either in-process (hot-reuse) or a loopback TCP server (cold-fetch).
struct Local {
    session: SessionHandle,
    system: BraidSystem,
    remote: Option<Remote>,
}

impl Local {
    fn start(
        workload: Workload,
        ring: Option<&Arc<RingSink>>,
        oracle: &Oracle,
        warmup: &[usize],
    ) -> Result<Local, String> {
        let dataset = workload.dataset();
        let (system, remote) = match workload {
            Workload::HotReuse => (
                BraidSystem::new(
                    dataset.catalog(),
                    dataset.knowledge_base(),
                    with_ring(BraidConfig::default(), ring),
                ),
                None,
            ),
            _ => {
                let remote = Remote::start(&dataset)?;
                let system = BraidSystem::new(
                    dataset.catalog(),
                    dataset.knowledge_base(),
                    remote.config(ring),
                );
                (system, Some(remote))
            }
        };
        let mut session = system.session_owned();
        for &id in warmup {
            warm(oracle, id, session.solve_checked(oracle.text(id), STRATEGY))?;
        }
        Ok(Local {
            session,
            system,
            remote,
        })
    }

    fn counters(&self) -> Counters {
        let mut metrics = self.system.metrics();
        if let Some(r) = &self.remote {
            metrics.remote = r.dbms.metrics();
        }
        Counters {
            metrics,
            net: NetCounts::of(self.system.cms().transport_pool_stats()),
        }
    }

    fn run(
        &mut self,
        oracle: &Oracle,
        stream: &[usize],
        seconds: f64,
        ring: Option<&RingSink>,
    ) -> Window {
        let mut w = Window::default();
        let mut tally = ring.map(|_| LayerTally::default());
        let dropped_before = ring.map_or(0, |r| {
            let _ = r.drain();
            r.dropped()
        });
        let before = self.counters();
        let session = &mut self.session;
        let secs = closed_loop(oracle, stream, seconds, &mut w, |text| {
            if let Some(t) = tally.as_mut() {
                t.parses += 1;
                t.parse_ns += time_parse(text);
            }
            let t0 = Instant::now();
            let result = session.solve_checked(text, STRATEGY);
            let took = t0.elapsed();
            if let (Some(t), Some(r)) = (tally.as_mut(), ring) {
                t.add_local(r.drain(), micros(took));
            }
            (result, took)
        });
        w.qps = ratio(w.samples() as f64, secs);
        w.counters = self.counters().since(&before);
        w.cache_elements = self.system.cms().cache_len();
        w.cache_bytes = self.system.cms().shared_cache().used_bytes();
        w.tally = tally;
        w.ring_dropped = ring.map_or(0, |r| r.dropped() - dropped_before);
        w
    }

    fn stop(self) {
        let Local {
            session,
            system,
            remote,
        } = self;
        drop(session);
        drop(system);
        if let Some(mut r) = remote {
            r.server.shutdown();
        }
    }
}

/// A warm-up answer must be right before anything is timed.
fn warm(
    oracle: &Oracle,
    id: usize,
    result: Result<CheckedSolutions, BraidError>,
) -> Result<(), String> {
    match result {
        Ok(answer) if oracle.matches(id, &answer) => Ok(()),
        Ok(_) => Err(format!("warm-up `{}` answered wrongly", oracle.text(id))),
        Err(e) => Err(format!("warm-up `{}` failed: {e}", oracle.text(id))),
    }
}

/// One query through a client connection. Traced, it goes through
/// `solve_explained` and its grafted spans and round trip are folded
/// into `tally`.
fn solve_remote(
    client: &mut BraidClient,
    text: &str,
    tally: Option<&Mutex<LayerTally>>,
) -> (Result<CheckedSolutions, BraidError>, Duration) {
    let Some(tally) = tally else {
        let t0 = Instant::now();
        let result = client.solve_checked(text, STRATEGY);
        return (result, t0.elapsed());
    };
    let parse_ns = time_parse(text);
    let t0 = Instant::now();
    let result = client.solve_explained(text, STRATEGY);
    let took = t0.elapsed();
    let result = result.map(|e| {
        let mut t = tally.lock().expect("tally lock poisoned");
        t.parses += 1;
        t.parse_ns += parse_ns;
        t.add_remote(e.report.events, micros(took));
        CheckedSolutions {
            solutions: e.solutions,
            completeness: e.completeness,
        }
    });
    (result, took)
}

/// How the server workloads load the server.
enum ServerLoad {
    /// Each connection runs its own closed loop over its stream.
    Closed(Vec<Vec<usize>>),
    /// Open-loop episodes, run back to back.
    Open(Vec<Episode>),
}

/// One open-loop episode: per connection, its query ids and due times
/// (microseconds from the episode start).
struct Episode {
    streams: Vec<Vec<usize>>,
    schedules: Vec<Vec<u64>>,
}

/// The server deployment: remote, braid server, and the benchmark's
/// client connections.
struct Served {
    clients: Vec<BraidClient>,
    server: BraidServer,
    remote: Remote,
}

impl Served {
    fn start(
        ring: Option<&Arc<RingSink>>,
        oracle: &Oracle,
        warmup: &[usize],
    ) -> Result<Served, String> {
        let dataset = streams::COLD_DATASET;
        let remote = Remote::start(&dataset)?;
        let system = BraidSystem::new(
            dataset.catalog(),
            dataset.knowledge_base(),
            remote.config(ring),
        );
        let server = BraidServer::start(
            system,
            BraidServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: SERVER_WORKERS,
                step_budget: SERVER_STEP_BUDGET,
            },
        )
        .map_err(|e| format!("braid server start failed: {e}"))?;
        let mut clients = (0..SERVER_CONNS)
            .map(|_| BraidClient::connect_timeout(server.local_addr(), Duration::from_secs(5)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("client connect failed: {e}"))?;
        for &id in warmup {
            warm(
                oracle,
                id,
                clients[0].solve_checked(oracle.text(id), STRATEGY),
            )?;
        }
        Ok(Served {
            clients,
            server,
            remote,
        })
    }

    fn counters(&self) -> Counters {
        let mut metrics = self.server.metrics();
        metrics.remote = self.remote.dbms.metrics();
        Counters {
            metrics,
            net: NetCounts::of(self.server.system().cms().transport_pool_stats()),
        }
    }

    /// Run the load, then close the connections: the server must drain.
    fn run(
        mut self,
        oracle: &Oracle,
        load: &ServerLoad,
        seconds: f64,
        ring: Option<&RingSink>,
    ) -> Window {
        let tally = ring.map(|_| Mutex::new(LayerTally::default()));
        let tally = tally.as_ref();
        let mut w = Window::default();
        let dropped_before = ring.map_or(0, RingSink::dropped);
        let before = self.counters();
        let draining = AtomicBool::new(true);
        let clients = &mut self.clients;
        std::thread::scope(|s| {
            if let Some(ring) = ring {
                // The system-wide ring sees every session's spans; the
                // per-query forests come from the grafted EXPLAIN events,
                // so this thread only keeps the ring from overflowing.
                let draining = &draining;
                s.spawn(move || {
                    while draining.load(Ordering::SeqCst) {
                        let _ = ring.drain();
                        std::thread::sleep(Duration::from_millis(1));
                    }
                });
            }
            match load {
                ServerLoad::Closed(streams) => {
                    let conns: Vec<_> = clients
                        .iter_mut()
                        .zip(streams)
                        .map(|(client, stream)| {
                            s.spawn(move || {
                                let mut cw = Window::default();
                                let secs = closed_loop(oracle, stream, seconds, &mut cw, |text| {
                                    solve_remote(client, text, tally)
                                });
                                (cw, secs)
                            })
                        })
                        .collect();
                    // A panicked connection counts as an error rather than
                    // unwinding past the ring drainer, which would never stop.
                    // The window lasts until the last connection is done.
                    let mut secs = 0.0_f64;
                    for h in conns {
                        match h.join() {
                            Ok((cw, s)) => {
                                w.merge(cw);
                                secs = secs.max(s);
                            }
                            Err(_) => w.errors += 1,
                        }
                    }
                    w.qps = ratio(w.samples() as f64, secs);
                }
                ServerLoad::Open(episodes) => {
                    let secs: f64 = episodes
                        .iter()
                        .map(|ep| open_loop(clients, oracle, ep, tally, &mut w))
                        .sum();
                    w.qps = ratio(w.samples() as f64, secs);
                }
            }
            draining.store(false, Ordering::SeqCst);
        });
        for client in std::mem::take(&mut self.clients) {
            client.goodbye();
        }

        // Every client said goodbye: give the connection tasks a bounded
        // moment to finish, then the server must be fully drained.
        let quiesce = Instant::now();
        while self.server.stats().active != 0 && quiesce.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let (stats, pool) = (self.server.stats(), self.server.pool_snapshot());
        if stats.active != 0 || pool.spawned != pool.finished || pool.parked != 0 {
            w.undrained = Some(format!(
                "server did not drain: active={} spawned={} finished={} parked={}",
                stats.active, pool.spawned, pool.finished, pool.parked
            ));
        }
        w.counters = self.counters().since(&before);
        let cms = self.server.system().cms();
        w.cache_elements = cms.cache_len();
        w.cache_bytes = cms.shared_cache().used_bytes();
        w.run_queue_peak = cms.metrics().run_queue_depth;
        w.tally = tally.map(|t| t.lock().expect("tally lock poisoned").clone());
        w.ring_dropped = ring.map_or(0, |r| r.dropped() - dropped_before);
        self.stop();
        w
    }

    fn stop(self) {
        let Served {
            clients,
            server,
            mut remote,
        } = self;
        clients.into_iter().for_each(BraidClient::goodbye);
        server.shutdown();
        remote.server.shutdown();
    }
}

/// Run one open-loop episode, one thread per connection: wait for each
/// query's due time, send, and charge its latency from the due time, so
/// a stall shows in every query it delays. Returns the episode's length
/// (to its last answer).
fn open_loop(
    clients: &mut [BraidClient],
    oracle: &Oracle,
    ep: &Episode,
    tally: Option<&Mutex<LayerTally>>,
    w: &mut Window,
) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        let conns: Vec<_> = clients
            .iter_mut()
            .zip(ep.streams.iter().zip(&ep.schedules))
            .map(|(client, (stream, schedule))| {
                s.spawn(move || {
                    let mut cw = Window::default();
                    let mut latencies = Vec::with_capacity(stream.len());
                    let mut last_done = Duration::ZERO;
                    for (&due_us, &id) in schedule.iter().zip(stream) {
                        let due = Duration::from_micros(due_us);
                        if let Some(wait) = due.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        cw.lags_ms.push(millis(start.elapsed().saturating_sub(due)));
                        let (result, took) = solve_remote(client, oracle.text(id), tally);
                        last_done = start.elapsed();
                        cw.solved += 1;
                        cw.solve_secs += took.as_secs_f64();
                        if cw.check(oracle, id, result) {
                            latencies.push(millis(last_done.saturating_sub(due)));
                        }
                    }
                    (cw, latencies, last_done)
                })
            })
            .collect();
        conns
            .into_iter()
            .map(|h| match h.join() {
                Ok((cw, latencies, last_done)) => {
                    w.merge(cw);
                    w.latencies_ms.extend(latencies);
                    last_done.as_secs_f64()
                }
                Err(_) => {
                    w.errors += 1;
                    0.0
                }
            })
            .fold(0.0, f64::max)
    })
}

/// One benchmark run's results.
#[derive(Debug)]
pub struct Outcome {
    /// Seconds per set-up (deployment up, warm-up done).
    pub setup_s: Vec<f64>,
    /// The measured window (traced when the run was traced).
    pub window: Window,
    /// Traced runs: the [`Window::solve_rate`] of an untraced window of
    /// the same length, run first.
    pub untraced_solve_rate: Option<f64>,
    /// Queries sent and failed over every window of the run.
    pub attempted: u64,
    pub failed: u64,
    /// Drain failures of any window.
    pub problems: Vec<String>,
}

impl Outcome {
    fn new(setup_s: Vec<f64>, mut windows: Vec<Window>) -> Outcome {
        let attempted = windows.iter().map(|w| w.attempted).sum();
        let failed = windows.iter().map(Window::failed).sum();
        let problems = windows.iter().filter_map(|w| w.undrained.clone()).collect();
        let window = windows.pop().expect("a run has a window");
        Outcome {
            setup_s,
            untraced_solve_rate: windows.first().map(Window::solve_rate),
            window,
            attempted,
            failed,
            problems,
        }
    }
}

/// What a prepared workload runs.
enum Load {
    Local(Vec<usize>),
    Server(ServerLoad),
}

/// A prepared workload: oracle answers and seeded streams, ready to set
/// up and time.
pub struct Plan {
    workload: Workload,
    oracle: Oracle,
    warmup: Vec<usize>,
    load: Load,
}

impl Plan {
    /// Generate the streams for `seed` and compute every expected answer.
    ///
    /// # Errors
    /// The reference model failing on a generated query.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Result<Plan, String> {
        // Enough queries that a faster program still cycles rarely.
        let long = |per_sec: f64| ((seconds * per_sec) as usize).clamp(1_000, 40_000);
        let (warmup, streams, schedules) = match workload {
            Workload::HotReuse => (
                streams::hot_warmup(),
                vec![streams::hot_stream(seed, 16 * streams::HOT_BLOCK)],
                Vec::new(),
            ),
            Workload::ColdFetch => (
                streams::cold_warmup(COLD_WARMUP),
                vec![streams::cold_stream(seed, long(1_500.0))],
                Vec::new(),
            ),
            Workload::ServerMixed => (
                streams::cold_warmup(SERVER_WARMUP),
                (0..SERVER_CONNS)
                    .map(|c| {
                        streams::cold_stream(streams::derive(seed, 10 + c as u64), long(800.0))
                    })
                    .collect(),
                Vec::new(),
            ),
            Workload::ServerOpen => {
                // Episodes of one whole block each, so every episode holds
                // each near-root `ancestor` probe exactly once.
                let offered = seconds * (SERVER_CONNS as f64) * f64::from(OPEN_RATE_PER_CONN);
                let episodes = (offered / streams::COLD_BLOCK as f64).round().max(1.0) as u64;
                let per_conn = streams::COLD_BLOCK / SERVER_CONNS;
                let mut streams_all = Vec::new();
                let mut schedules = Vec::new();
                for e in 0..episodes {
                    let ep_seed = streams::derive(seed, e);
                    streams_all.extend(streams::dealt_streams(ep_seed, SERVER_CONNS, per_conn));
                    schedules.push(
                        (0..SERVER_CONNS)
                            .map(|c| streams::arrivals_us(ep_seed, c, OPEN_RATE_PER_CONN, per_conn))
                            .collect::<Vec<_>>(),
                    );
                }
                (streams::cold_warmup(SERVER_WARMUP), streams_all, schedules)
            }
        };
        let mut oracle = Oracle::new(
            &workload.dataset(),
            warmup.iter().chain(streams.iter().flatten()),
        )?;
        let warmup = oracle.intern(&warmup)?;
        let mut streams = streams
            .iter()
            .map(|s| oracle.intern(s))
            .collect::<Result<Vec<_>, _>>()?;
        let load = match workload {
            Workload::HotReuse | Workload::ColdFetch => Load::Local(streams.remove(0)),
            Workload::ServerMixed => Load::Server(ServerLoad::Closed(streams)),
            Workload::ServerOpen => Load::Server(ServerLoad::Open(
                schedules
                    .into_iter()
                    .zip(streams.chunks(SERVER_CONNS))
                    .map(|(schedules, streams)| Episode {
                        streams: streams.to_vec(),
                        schedules,
                    })
                    .collect(),
            )),
        };
        Ok(Plan {
            workload,
            oracle,
            warmup,
            load,
        })
    }

    fn window(&self, seconds: f64, ring: Option<&Arc<RingSink>>) -> Result<(f64, Window), String> {
        let t0 = Instant::now();
        Ok(match &self.load {
            Load::Server(load) => {
                let d = Served::start(ring, &self.oracle, &self.warmup)?;
                let setup = t0.elapsed().as_secs_f64();
                (
                    setup,
                    d.run(&self.oracle, load, seconds, ring.map(|r| &**r)),
                )
            }
            Load::Local(stream) => {
                let mut d = Local::start(self.workload, ring, &self.oracle, &self.warmup)?;
                let setup = t0.elapsed().as_secs_f64();
                let window = d.run(&self.oracle, stream, seconds, ring.map(|r| &**r));
                d.stop();
                (setup, window)
            }
        })
    }

    fn setup_only(&self) -> Result<f64, String> {
        let t0 = Instant::now();
        match self.load {
            Load::Server(_) => Served::start(None, &self.oracle, &self.warmup)?.stop(),
            Load::Local(_) => Local::start(self.workload, None, &self.oracle, &self.warmup)?.stop(),
        }
        Ok(t0.elapsed().as_secs_f64())
    }

    /// Untraced: `setups` set-ups, half before and half after the timed
    /// window (one of them is the set-up the window runs on), so that one
    /// phase of host interference rarely covers them all.
    ///
    /// # Errors
    /// Set-up failures (including wrong warm-up answers).
    pub fn run(&self, seconds: f64, setups: usize) -> Result<Outcome, String> {
        let before = setups.div_ceil(2).max(1);
        let mut setup_s = (1..before)
            .map(|_| self.setup_only())
            .collect::<Result<Vec<_>, _>>()?;
        let (setup, window) = self.window(seconds, None)?;
        setup_s.push(setup);
        for _ in before..setups {
            setup_s.push(self.setup_only()?);
        }
        Ok(Outcome::new(setup_s, vec![window]))
    }

    /// Traced: an untraced window for the overhead baseline, then a fresh
    /// set-up with the benchmark's ring installed, timed the same way.
    ///
    /// # Errors
    /// Set-up failures (including wrong warm-up answers).
    pub fn run_traced(&self, seconds: f64) -> Result<Outcome, String> {
        let (_, plain) = self.window(seconds, None)?;
        let ring = Arc::new(RingSink::new(RING_EVENTS));
        let (setup, traced) = self.window(seconds, Some(&ring))?;
        Ok(Outcome::new(vec![setup], vec![plain, traced]))
    }
}
