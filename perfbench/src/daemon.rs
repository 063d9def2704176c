//! The `daemon-mixed` workload: `pmss serve` on loopback TCP with two
//! client connections, each streaming one tenant's frames in a closed
//! loop with a read query after every acked BLOCK.
//!
//! TCP is the daemon's default transport, and it is kept on purpose:
//! each request currently pays a fixed ~88 ms round trip there (see the
//! README), and that floor should show in the numbers until it is fixed.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::Barrier;
use std::time::Instant;

use pmss_columns::{CodecConfig, EncodedBlock};
use pmss_core::EnergyLedger;
use pmss_econ::{EconSeries, EconTrace};
use pmss_pipeline::query::{answer, Query};
use pmss_pipeline::spec::{ScalePreset, ScenarioSpec};
use pmss_pipeline::stage::Pipeline;
use pmss_sched::{catalog, generate};
use pmss_stream::{StreamConfig, StreamEngine, StreamState};
use pmss_telemetry::{Pair, ResidentFleet};
use pmssd::client::{ClientError, Connection, Target};
use pmssd::proto::code::BACKPRESSURE;

use crate::proc::{self, Usage};
use crate::stats::{median, percentile, ratio, Metric};
use crate::trace::{SpanId, Trace, NONE};
use crate::{Env, Outcome, Tally};

/// Workload name.
pub const NAME: &str = "daemon-mixed";

/// Blocks between the daemon's snapshot publishes; passed to `pmss
/// serve` explicitly.  Reads start once the first publish is in, since a
/// query before it is rejected.
const SYNC_INTERVAL: usize = 8;

/// Tenants, one per client connection.
const TENANTS: u64 = 2;

/// Set-up-only daemon starts per run; `setup_s` is their median.
const SETUP_ONLY: usize = 12;

/// One tenant's generated inputs and its reference answers.
struct Tenant {
    name: String,
    spec: ScenarioSpec,
    frames: Vec<Vec<u8>>,
    rows: Vec<u64>,
    /// Every query kind once, in the order the connections cycle them.
    queries: Vec<Query>,
    /// `query::answer` over a batch replay of the frames, per query.
    reference: Vec<String>,
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Tenant `k`'s scenario: the `quick` shape priced by the `diurnal`
/// trace, seeded from the workload seed.
fn tenant_spec(env: &Env, k: u64) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec::preset(ScalePreset::Quick);
    spec.seed = env.seed.wrapping_mul(2).wrapping_add(k);
    spec.econ = Some(EconTrace::preset("diurnal").ok_or("no diurnal econ preset")?);
    Ok(spec)
}

/// Every query kind once; the what-if asks for the middle power cap.
fn queries(spec: &ScenarioSpec) -> Result<Vec<Query>, String> {
    let whatif_w = spec.power_caps_w[spec.power_caps_w.len() / 2].to_string();
    [
        &["projection"][..],
        &["coverage"],
        &["ledger"],
        &["whatif", "power_w", &whatif_w],
        &["econ"],
    ]
    .iter()
    .map(|a| Query::from_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>()))
    .collect::<Result<Vec<_>, _>>()
    .map_err(err)
}

fn path(env: &Env, k: u64, suffix: &str) -> std::path::PathBuf {
    env.out_path(NAME, &format!("-t{k}{suffix}"))
}

/// Set-up, run in a child process (see [`crate::prepare_in_child`]):
/// writes both tenants' spec files, captured frames (each a `u32` LE
/// length and an `EncodedBlock::to_bytes` frame) and reference answers.
pub fn prepare(env: &Env) -> Result<(), String> {
    for k in 0..TENANTS {
        let spec = tenant_spec(env, k)?;
        std::fs::write(
            path(env, k, ".spec.json"),
            spec.to_json().to_string_pretty(),
        )
        .map_err(err)?;
        let mut p = Pipeline::new(spec.clone()).map_err(err)?;
        let table3 = p.table3().map_err(err)?.clone();
        let schedule = generate(spec.trace_params(), &catalog());
        let resident = ResidentFleet::capture(&schedule, &p.fleet_config()).map_err(err)?;
        let mut frames = Vec::new();
        for block in resident.blocks() {
            let bytes = block.to_bytes();
            frames.extend_from_slice(&u32::try_from(bytes.len()).map_err(err)?.to_le_bytes());
            frames.extend_from_slice(&bytes);
        }
        std::fs::write(path(env, k, ".frames"), frames).map_err(err)?;
        let pair: Pair<EnergyLedger, EconSeries> = resident.replay(&schedule).map_err(err)?;
        let state = StreamState::with_econ(pair.a, pair.b, spec.frontier_factor());
        for q in queries(&spec)? {
            let answer = answer(&state, &table3, spec.active_econ(), &q).map_err(err)?;
            let file = path(env, k, &format!(".answer-{}.json", q.kind()));
            std::fs::write(file, answer.to_string_pretty()).map_err(err)?;
        }
    }
    Ok(())
}

/// Runs the set-up in a child process and loads what it wrote.
fn load(env: &Env) -> Result<Vec<Tenant>, String> {
    crate::prepare_in_child(env, NAME)?;
    (0..TENANTS)
        .map(|k| {
            let spec = tenant_spec(env, k)?;
            let data = std::fs::read(path(env, k, ".frames")).map_err(err)?;
            let mut frames = Vec::new();
            let mut rest = &data[..];
            while let Some((len, tail)) = rest.split_first_chunk::<4>() {
                let len = u32::from_le_bytes(*len) as usize;
                let frame = tail.get(..len).ok_or("truncated frames file")?;
                frames.push(frame.to_vec());
                rest = &tail[len..];
            }
            let rows = frames
                .iter()
                .map(|f| EncodedBlock::from_bytes(f).map(|b| b.rows()))
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)?;
            let queries = queries(&spec)?;
            let reference = queries
                .iter()
                .map(|q| {
                    std::fs::read_to_string(path(env, k, &format!(".answer-{}.json", q.kind())))
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)?;
            Ok(Tenant {
                name: format!("t{k}"),
                spec,
                frames,
                rows,
                queries,
                reference,
            })
        })
        .collect()
}

/// A running `pmss serve`, killed and reaped if dropped before
/// [`Daemon::finish`].
struct Daemon {
    child: Child,
    stderr: Option<BufReader<ChildStderr>>,
    addr: String,
    reaped: bool,
}

impl Daemon {
    /// Starts the daemon and waits for its readiness line.
    fn spawn(env: &Env) -> Result<Daemon, String> {
        proc::reset_peak_rss().map_err(|e| format!("resetting the peak-RSS mark: {e}"))?;
        let mut child = Command::new(&env.pmss)
            .args(["serve", "--listen", "127.0.0.1:0", "--sync-interval"])
            .arg(SYNC_INTERVAL.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning pmss serve: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut daemon = Daemon {
            child,
            stderr: None,
            addr: String::new(),
            reaped: false,
        };
        let mut lines = BufReader::new(stderr);
        let mut line = String::new();
        loop {
            line.clear();
            if lines.read_line(&mut line).map_err(err)? == 0 {
                return Err("pmss serve exited before listening".to_string());
            }
            if let Some(addr) = line.trim().strip_prefix("pmssd listening on ") {
                daemon.addr = addr.to_string();
                break;
            }
        }
        daemon.stderr = Some(lines);
        Ok(daemon)
    }

    /// Waits for the daemon to exit after SHUTDOWN.
    fn finish(mut self) -> Result<Usage, String> {
        if let Some(mut s) = self.stderr.take() {
            let mut rest = String::new();
            let _ = s.read_to_string(&mut rest);
            eprint!("{rest}");
        }
        self.reaped = true;
        proc::reap(&self.child).map_err(err)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = proc::reap(&self.child);
        }
    }
}

/// What one connection saw.
#[derive(Default)]
struct ConnLog {
    tally: Tally,
    opened: Option<Instant>,
    first_block: Option<Instant>,
    last_flush: Option<Instant>,
    open_s: f64,
    flush_s: f64,
    block_ms: Vec<f64>,
    query_ms: Vec<f64>,
    block_attempts: u64,
    blocks_acked: u64,
    rows_acked: u64,
    retries: u64,
}

/// What one daemon start saw.
struct Session {
    tally: Tally,
    setup_s: f64,
    /// First BLOCK sent to last FLUSH acked; 0 for a set-up-only start.
    wall_s: f64,
    rows_acked: u64,
    conns: Vec<ConnLog>,
    usage: Usage,
    lifetime_s: f64,
    root: SpanId,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Starts `pmss serve`, opens both tenants and, when `full`, drives the
/// mixed load to the final answers; then shuts the daemon down.
fn session(env: &Env, tenants: &[Tenant], tr: &Trace, full: bool) -> Result<Session, String> {
    let t_spawn = Instant::now();
    let root = tr.begin("daemon.session", NONE, 0);
    let daemon = tr.span("pmssd.spawn", root, || Daemon::spawn(env))?;
    let target = Target::Tcp(daemon.addr.clone());
    let ready = Barrier::new(tenants.len());
    let conns: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(k, t)| {
                let (target, ready) = (&target, &ready);
                s.spawn(move || drive(t, k as u64, target, ready, tr, root, full))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection threads do not panic"))
            .collect()
    });
    let mut tally = Tally::default();
    let sid = tr.begin("pmssd.shutdown", root, 0);
    tally.check(
        Connection::connect(&target)
            .and_then(|mut c| c.shutdown())
            .is_ok(),
    );
    tr.end(sid, 0, 0);
    let usage = daemon.finish()?;
    tally.check(usage.success);
    tr.end(root, 0, 0);
    let lifetime_s = t_spawn.elapsed().as_secs_f64();

    for c in &conns {
        tally.merge(&c.tally);
    }
    let setup_s = conns
        .iter()
        .filter_map(|c| c.opened)
        .max()
        .map_or(0.0, |t| t.duration_since(t_spawn).as_secs_f64());
    let first = conns.iter().filter_map(|c| c.first_block).min();
    let last = conns.iter().filter_map(|c| c.last_flush).max();
    let wall_s = match (first, last) {
        (Some(a), Some(b)) if full => b.duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    Ok(Session {
        tally,
        setup_s,
        wall_s,
        rows_acked: conns.iter().map(|c| c.rows_acked).sum(),
        conns,
        usage,
        lifetime_s,
        root,
    })
}

/// One connection: OPEN, wait for the other connection's OPEN, then
/// stream every frame with a query after each acked BLOCK once the first
/// snapshot is published, FLUSH, and ask every query kind once more.
fn drive(
    t: &Tenant,
    k: u64,
    target: &Target,
    ready: &Barrier,
    tr: &Trace,
    root: SpanId,
    full: bool,
) -> ConnLog {
    let mut log = ConnLog::default();
    let conn_span = tr.begin("pmssd.conn", root, k);
    // Request ids: connection in the high bits, frame sequence below.
    let req = |seq: u64| (k << 32) | seq;
    let opened = Connection::connect(target).and_then(|mut c| {
        let t0 = Instant::now();
        let sid = tr.begin("pmssd.open", conn_span, req(0));
        let r = c.open(&t.name, Some(&t.spec));
        tr.end(sid, 0, 0);
        log.open_s = t0.elapsed().as_secs_f64();
        r.map(|()| c)
    });
    log.tally.check(opened.is_ok());
    log.opened = opened.is_ok().then(Instant::now);
    ready.wait();
    let Ok(mut conn) = opened else {
        tr.end(conn_span, 0, 0);
        return log;
    };
    if !full {
        tr.end(conn_span, 0, 0);
        return log;
    }

    let mut next_query = 0usize;
    log.first_block = Some(Instant::now());
    for (i, frame) in t.frames.iter().enumerate() {
        let t0 = Instant::now();
        let sid = tr.begin("pmssd.block", conn_span, req(i as u64 + 1));
        let acked = loop {
            log.block_attempts += 1;
            match conn.send_block_raw(frame) {
                Ok(()) => break true,
                Err(ClientError::Rejected { code, .. }) if code == BACKPRESSURE => log.retries += 1,
                Err(_) => break false,
            }
        };
        tr.end(sid, t.rows[i], frame.len() as u64);
        log.block_ms.push(ms_since(t0));
        log.tally.check(acked);
        if acked {
            log.blocks_acked += 1;
            log.rows_acked += t.rows[i];
        }
        if i + 1 >= SYNC_INTERVAL {
            let q = &t.queries[next_query % t.queries.len()];
            next_query += 1;
            let t0 = Instant::now();
            let sid = tr.begin("pmssd.query", conn_span, req(i as u64 + 1));
            let r = conn.query(q);
            tr.end(sid, 0, r.as_ref().map_or(0, |a| a.len() as u64));
            log.query_ms.push(ms_since(t0));
            log.tally.check(r.is_ok());
        }
    }
    let t0 = Instant::now();
    let sid = tr.begin("pmssd.flush", conn_span, req(t.frames.len() as u64 + 1));
    log.tally.check(conn.flush().is_ok());
    tr.end(sid, 0, 0);
    log.flush_s = t0.elapsed().as_secs_f64();
    log.last_flush = Some(Instant::now());
    for (q, want) in t.queries.iter().zip(&t.reference) {
        let t0 = Instant::now();
        let sid = tr.begin(
            "pmssd.final_query",
            conn_span,
            req(t.frames.len() as u64 + 2),
        );
        let r = conn.query(q);
        tr.end(sid, 0, r.as_ref().map_or(0, |a| a.len() as u64));
        log.query_ms.push(ms_since(t0));
        log.tally.check(r.is_ok_and(|a| a == *want));
    }
    tr.end(conn_span, 0, 0);
    log
}

fn all<'a>(sessions: &'a [Session], f: impl Fn(&'a ConnLog) -> &'a [f64] + 'a) -> Vec<f64> {
    sessions
        .iter()
        .flat_map(|s| s.conns.iter().flat_map(|c| f(c).iter().copied()))
        .collect()
}

/// An untraced run: set-up-only starts, pinned to one CPU, for
/// `setup_s`; then full sessions, unpinned, until the run's time is up.
pub fn run(env: &Env) -> Result<Outcome, String> {
    let tenants = load(env)?;
    let off = Trace::new(false);
    let mut tally = Tally::default();
    let mut setup = Vec::new();
    proc::on_first_cpu(|| -> Result<(), String> {
        for _ in 0..if env.smoke { 1 } else { SETUP_ONLY } {
            let s = session(env, &tenants, &off, false)?;
            tally.merge(&s.tally);
            setup.push(s.setup_s);
        }
        Ok(())
    })
    .map_err(|e| format!("pinning set-up samples: {e}"))??;
    let mut sessions = Vec::new();
    let t0 = Instant::now();
    while env.more(t0, sessions.len()) {
        let s = session(env, &tenants, &off, true)?;
        tally.merge(&s.tally);
        sessions.push(s);
    }
    let wall: Vec<f64> = sessions.iter().map(|s| s.wall_s).collect();
    let rate: Vec<f64> = sessions
        .iter()
        .map(|s| ratio(s.rows_acked as f64, s.wall_s))
        .collect();
    let rss: Vec<f64> = sessions.iter().map(|s| s.usage.peak_rss_mb).collect();
    let blocks = all(&sessions, |c| &c.block_ms);
    let queries = all(&sessions, |c| &c.query_ms);
    Ok(Outcome {
        metrics: vec![
            Metric::median("wall_s", "s", &wall),
            Metric::median("windows_per_s", "1/s", &rate),
            Metric::median("peak_rss_mb", "MiB", &rss),
            Metric::median("setup_s", "s", &setup),
        ],
        extra: vec![
            Metric::percentile("block_ack_p50_ms", "ms", &blocks, 50.0),
            Metric::percentile("block_ack_p90_ms", "ms", &blocks, 90.0),
            Metric::percentile("query_p50_ms", "ms", &queries, 50.0),
            Metric::percentile("query_p90_ms", "ms", &queries, 90.0),
            Metric::single(
                "error_rate",
                "ratio",
                ratio(tally.failed as f64, tally.attempted as f64),
            ),
        ],
        notes: vec![format!(
            "{} full session(s), {} set-up-only start(s); {} frames and {} rows per tenant",
            sessions.len(),
            setup.len(),
            tenants[0].frames.len(),
            tenants[0].rows.iter().sum::<u64>()
        )],
        tally,
    })
}

/// A traced run: one untraced and one traced session, then an
/// in-process replay of the same frames through decode, ingest,
/// snapshot and answer, as the daemon's tenant worker runs them.
pub fn traced(env: &Env) -> Result<Outcome, String> {
    let tenants = load(env)?;
    let plain = session(env, &tenants, &Trace::new(false), true)?;
    let tr = Trace::new(true);
    let traced = session(env, &tenants, &tr, true)?;
    let mut tally = Tally::default();
    tally.merge(&plain.tally);
    tally.merge(&traced.tally);

    let mut per_block_ms = Vec::new();
    let mut buffer_peak = 0usize;
    for t in &tenants {
        replay(t, &tr, &mut tally, &mut per_block_ms, &mut buffer_peak)?;
    }

    let totals = tr.totals();
    let blocks = all(std::slice::from_ref(&plain), |c| &c.block_ms);
    let queries = all(std::slice::from_ref(&plain), |c| &c.query_ms);
    let block_p50 = percentile(&blocks, 50.0);
    let attempts: u64 = plain.conns.iter().map(|c| c.block_attempts).sum();
    let acked: u64 = plain.conns.iter().map(|c| c.blocks_acked).sum();
    let opens: Vec<f64> = plain.conns.iter().map(|c| c.open_s).collect();
    let flushes: Vec<f64> = plain.conns.iter().map(|c| c.flush_s).collect();
    let mut layer = crate::layer_metrics_from(&totals);
    layer.extend([
        Metric::single("stream.buffer_bytes_peak", "bytes", buffer_peak as f64),
        Metric::median("pmssd.open_s", "s", &opens),
        Metric::percentile("pmssd.block_ack_p50_ms", "ms", &blocks, 50.0),
        Metric::percentile("pmssd.block_ack_p90_ms", "ms", &blocks, 90.0),
        Metric::percentile("pmssd.query_p50_ms", "ms", &queries, 50.0),
        Metric::percentile("pmssd.query_p90_ms", "ms", &queries, 90.0),
        Metric::single(
            "pmssd.transport_ms",
            "ms",
            block_p50 - median(&per_block_ms),
        ),
        Metric::single(
            "pmssd.backpressure_retries",
            "count",
            plain.conns.iter().map(|c| c.retries).sum::<u64>() as f64,
        ),
        Metric::single(
            "pmssd.block_accept_ratio",
            "ratio",
            ratio(acked as f64, attempts as f64),
        ),
        Metric::median("pmssd.flush_s", "s", &flushes),
        Metric::single("proc.cpu_s", "s", plain.usage.cpu_s),
        Metric::single(
            "proc.cpu_util",
            "ratio",
            ratio(plain.usage.cpu_s, plain.lifetime_s),
        ),
        Metric::single("trace.coverage", "ratio", tr.coverage(traced.root)),
        Metric::single(
            "trace.overhead",
            "ratio",
            traced.wall_s / plain.wall_s - 1.0,
        ),
    ]);
    tr.write_jsonl(&env.trace_path(NAME))
        .map_err(|e| format!("writing the trace: {e}"))?;
    Ok(Outcome {
        tally,
        metrics: layer,
        extra: Vec::new(),
        notes: crate::trace_report(&totals, traced.wall_s, plain.wall_s),
    })
}

fn answer_span(q: &Query) -> &'static str {
    match q.kind() {
        "projection" => "pipeline.answer.projection",
        "coverage" => "pipeline.answer.coverage",
        "ledger" => "pipeline.answer.ledger",
        "whatif" => "pipeline.answer.whatif",
        _ => "pipeline.answer.econ",
    }
}

/// Replays one tenant in-process the way its daemon worker does: OPEN's
/// schedule and Table III, then per frame a decode and an ingest, a
/// snapshot every [`SYNC_INTERVAL`] blocks, and the same query cycle.
fn replay(
    t: &Tenant,
    tr: &Trace,
    tally: &mut Tally,
    per_block_ms: &mut Vec<f64>,
    buffer_peak: &mut usize,
) -> Result<(), String> {
    let schedule = tr.span("sched.generate", NONE, || {
        generate(t.spec.trace_params(), &catalog())
    });
    let table3 = tr
        .span("pipeline.table3_stage", NONE, || {
            Pipeline::new(t.spec.clone()).and_then(|mut p| p.table3().cloned())
        })
        .map_err(err)?;
    let econ = t.spec.active_econ();
    let factor = t.spec.frontier_factor();
    let cfg = StreamConfig::for_plan(t.spec.active_faults());
    let mut engine =
        StreamEngine::<Pair<EnergyLedger, EconSeries>>::new(&schedule, cfg).map_err(err)?;
    let mut state = StreamState::capture_pair(&engine, factor);
    let mut next_query = 0usize;
    for (i, frame) in t.frames.iter().enumerate() {
        let req = i as u64 + 1;
        let t0 = Instant::now();
        let sid = tr.begin("columns.decode", NONE, req);
        let block = EncodedBlock::from_bytes(frame).and_then(|e| e.decode(CodecConfig::default()));
        tr.end(sid, t.rows[i], frame.len() as u64);
        let block = block.map_err(err)?;
        let sid = tr.begin("stream.ingest", NONE, req);
        let ingested = engine.ingest_block(&block);
        tr.end(sid, t.rows[i], 0);
        per_block_ms.push(ms_since(t0));
        tally.check(ingested.is_ok());
        *buffer_peak = (*buffer_peak).max(engine.buffer_bytes());
        if (i + 1) % SYNC_INTERVAL == 0 {
            state = tr.span("stream.snapshot", NONE, || {
                StreamState::capture_pair(&engine, factor)
            });
        }
        if i + 1 >= SYNC_INTERVAL {
            let q = &t.queries[next_query % t.queries.len()];
            next_query += 1;
            let r = tr.span(answer_span(q), NONE, || answer(&state, &table3, econ, q));
            tally.check(r.is_ok());
        }
    }
    let state = tr.span("stream.snapshot", NONE, || {
        StreamState::capture_pair(&engine, factor)
    });
    for (q, want) in t.queries.iter().zip(&t.reference) {
        let r = tr.span(answer_span(q), NONE, || answer(&state, &table3, econ, q));
        tally.check(r.is_ok_and(|j| j.to_string_pretty() == *want));
    }
    let proj = tr.span("core.project", NONE, || state.projection(&table3));
    tally.check(proj.is_ok());
    Ok(())
}
