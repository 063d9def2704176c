//! The pmss benchmark: end-to-end numbers from untraced runs of the real
//! `pmss` binary, and per-layer numbers from a separate traced run.
//!
//! ```text
//! pmss-perfbench --pmss PATH --out DIR --workload NAME --seed N
//!                --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `perfbench/run.py` builds this binary and `pmss`, then runs it; see
//! `perfbench/README.md` for the workloads and metrics.  The last line
//! of stdout is the run's result as one JSON object.

mod batch;
mod daemon;
mod proc;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use stats::{ratio, Metric};
use trace::Totals;

/// The workloads, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = [batch::COLD.name, batch::SWEEP.name, daemon::NAME];

/// Untraced-run metrics, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("windows_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Traced-run metrics, as `BENCHMARK.json` lists them.  A layer the
/// workload never calls reports 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("sched.generate_s", "s"),
    ("telemetry.emit_s", "s"),
    ("telemetry.emit_windows", "count"),
    ("telemetry.fleet_run_s", "s"),
    ("telemetry.template_cache_hit_rate", "ratio"),
    ("gpu.engine_executions", "count"),
    ("gpu.exec_cache_hit_rate", "ratio"),
    ("faults.emit_s", "s"),
    ("faults.injected", "count"),
    ("columns.fold_s", "s"),
    ("columns.fold_windows_per_s", "1/s"),
    ("columns.decode_s", "s"),
    ("columns.decode_rows_per_s", "1/s"),
    ("columns.wire_bytes", "bytes"),
    ("stream.ingest_s", "s"),
    ("stream.ingest_rows_per_s", "1/s"),
    ("stream.snapshot_s", "s"),
    ("stream.buffer_bytes_peak", "bytes"),
    ("core.project_s", "s"),
    ("core.project_calls", "count"),
    ("pipeline.fleet_stage_s", "s"),
    ("pipeline.table3_stage_s", "s"),
    ("pipeline.artifact_s", "s"),
    ("pipeline.render_s", "s"),
    ("pipeline.drop_s", "s"),
    ("pipeline.answer.projection_s", "s"),
    ("pipeline.answer.coverage_s", "s"),
    ("pipeline.answer.ledger_s", "s"),
    ("pipeline.answer.whatif_s", "s"),
    ("pipeline.answer.econ_s", "s"),
    ("pmssd.open_s", "s"),
    ("pmssd.block_ack_p50_ms", "ms"),
    ("pmssd.block_ack_p90_ms", "ms"),
    ("pmssd.query_p50_ms", "ms"),
    ("pmssd.query_p90_ms", "ms"),
    ("pmssd.transport_ms", "ms"),
    ("pmssd.backpressure_retries", "count"),
    ("pmssd.block_accept_ratio", "ratio"),
    ("pmssd.flush_s", "s"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_util", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Settings shared by every workload of one invocation.
pub struct Env {
    /// The `pmss` binary under test.
    pub pmss: PathBuf,
    /// Directory for generated specs and trace files.
    pub out: PathBuf,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long a run keeps taking samples.
    pub seconds: f64,
    /// Quick shapes and a single sample per run.
    pub smoke: bool,
}

impl Env {
    /// Whether a run that started sampling at `t0` and has `done`
    /// samples takes another: always at least one, then until the run's
    /// seconds are up (one only, in smoke mode).
    pub fn more(&self, t0: Instant, done: usize) -> bool {
        done == 0 || (!self.smoke && t0.elapsed().as_secs_f64() < self.seconds)
    }

    /// Where a traced run of `workload` writes its spans.
    pub fn trace_path(&self, workload: &str) -> PathBuf {
        self.out_path(workload, ".trace.jsonl")
    }

    /// A file under `out` for `workload` and this seed, by suffix.
    pub fn out_path(&self, workload: &str, suffix: &str) -> PathBuf {
        self.out
            .join(format!("{workload}-seed{}{suffix}", self.seed))
    }
}

/// Runs `workload`'s set-up (`--prepare`) in a child process that writes
/// the generated inputs under `env.out`.
///
/// Set-up simulates fleets in-process, and the process-wide template
/// cache it fills is never freed.  A measured child inherits its
/// parent's resident size into its own peak-RSS record when it execs
/// (see [`proc::reset_peak_rss`]), so the process that spawns measured
/// children must never do that work itself.
pub fn prepare_in_child(env: &Env, workload: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--prepare", "--workload", workload, "--seed"])
        .arg(env.seed.to_string())
        .arg("--pmss")
        .arg(&env.pmss)
        .arg("--out")
        .arg(&env.out);
    if env.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("running set-up: {e}"))?;
    if !status.success() {
        return Err(format!("set-up of {workload} failed ({status})"));
    }
    Ok(())
}

/// Operations attempted and failed.  A failure is a nonzero exit, an
/// output mismatch, a transport error, or a typed rejection other than
/// backpressure.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One run's result.
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The metrics the result line carries.
    pub metrics: Vec<Metric>,
    /// Metrics printed in the report only.
    pub extra: Vec<Metric>,
    /// Report lines printed before the metric table.
    pub notes: Vec<String>,
}

/// The per-layer metrics that follow from span totals alone.
pub fn layer_metrics_from(totals: &BTreeMap<&'static str, Totals>) -> Vec<Metric> {
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let secs = |metric: &str, span: &str| Metric::single(metric, "s", t(span).total_s);
    let rate = |metric: &str, span: &str| {
        Metric::single(metric, "1/s", ratio(t(span).rows as f64, t(span).total_s))
    };
    vec![
        secs("sched.generate_s", "sched.generate"),
        secs("telemetry.emit_s", "telemetry.emit"),
        Metric::single(
            "telemetry.emit_windows",
            "count",
            t("telemetry.emit").rows as f64,
        ),
        secs("columns.fold_s", "columns.fold"),
        rate("columns.fold_windows_per_s", "columns.fold"),
        secs("columns.decode_s", "columns.decode"),
        rate("columns.decode_rows_per_s", "columns.decode"),
        Metric::single(
            "columns.wire_bytes",
            "bytes",
            t("columns.decode").bytes as f64,
        ),
        secs("stream.ingest_s", "stream.ingest"),
        rate("stream.ingest_rows_per_s", "stream.ingest"),
        secs("stream.snapshot_s", "stream.snapshot"),
        secs("core.project_s", "core.project"),
        Metric::single(
            "core.project_calls",
            "count",
            t("core.project").count as f64,
        ),
        secs("pipeline.fleet_stage_s", "pipeline.fleet_stage"),
        secs("pipeline.table3_stage_s", "pipeline.table3_stage"),
        secs("pipeline.artifact_s", "pipeline.artifact"),
        secs("pipeline.render_s", "pipeline.render"),
        secs("pipeline.drop_s", "pipeline.drop"),
        secs("pipeline.answer.projection_s", "pipeline.answer.projection"),
        secs("pipeline.answer.coverage_s", "pipeline.answer.coverage"),
        secs("pipeline.answer.ledger_s", "pipeline.answer.ledger"),
        secs("pipeline.answer.whatif_s", "pipeline.answer.whatif"),
        secs("pipeline.answer.econ_s", "pipeline.answer.econ"),
    ]
}

/// The traced run's layer table: self time, share of the traced wall,
/// rows and bytes per span name, largest self time first.
pub fn trace_report(
    totals: &BTreeMap<&'static str, Totals>,
    traced_s: f64,
    untraced_s: f64,
) -> Vec<String> {
    let mut rows: Vec<_> = totals.iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    let mut out = vec![
        format!(
            "traced wall {traced_s:.4} s, untraced wall {untraced_s:.4} s; \
             share = self time / traced wall (probes run after it)"
        ),
        format!(
            "  {:<30} {:>7} {:>11} {:>11} {:>7} {:>12} {:>12} {:>12}",
            "span", "count", "total_s", "self_s", "share", "rows", "rows/s", "bytes"
        ),
    ];
    for (name, t) in rows {
        out.push(format!(
            "  {:<30} {:>7} {:>11.4} {:>11.4} {:>6.1}% {:>12} {:>12.4e} {:>12}",
            name,
            t.count,
            t.total_s,
            t.self_s,
            100.0 * ratio(t.self_s, traced_s),
            t.rows,
            ratio(t.rows as f64, t.total_s),
            t.bytes
        ));
    }
    out
}

/// Orders `metrics` as `list` names them, filling absent ones with 0.
fn complete(mut metrics: Vec<Metric>, list: &[(&str, &'static str)]) -> Vec<Metric> {
    for m in &metrics {
        assert!(
            list.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "metric {} ({}) is not in BENCHMARK.json",
            m.name,
            m.unit
        );
    }
    list.iter()
        .map(
            |&(name, unit)| match metrics.iter().position(|m| m.name == name) {
                Some(i) => metrics.swap_remove(i),
                None => Metric::single(name, unit, 0.0),
            },
        )
        .collect()
}

fn run_one(workload: &str, env: &Env, traced: bool) -> Result<Outcome, String> {
    let mut out = match (workload, traced) {
        ("batch-cold", false) => batch::run(&batch::COLD, env)?,
        ("batch-cold", true) => batch::traced(&batch::COLD, env)?,
        ("batch-sweep", false) => batch::run(&batch::SWEEP, env)?,
        ("batch-sweep", true) => batch::traced(&batch::SWEEP, env)?,
        (_, false) => daemon::run(env)?,
        (_, true) => daemon::traced(env)?,
    };
    out.metrics = complete(out.metrics, if traced { &PER_LAYER } else { &END_TO_END });
    Ok(out)
}

fn print_report(workload: &str, env: &Env, traced: bool, out: &Outcome) {
    println!(
        "== {workload} seed={} seconds={} trace={} smoke={} ==",
        env.seed,
        env.seconds,
        u8::from(traced),
        env.smoke
    );
    for line in &out.notes {
        println!("{line}");
    }
    println!(
        "  {:<34} {:>6} {:>14} {:>14} {:>14} {:>6}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    for m in out.metrics.iter().chain(&out.extra) {
        println!(
            "  {:<34} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>6}",
            m.name, m.unit, m.value, m.q1, m.q3, m.n
        );
    }
    println!(
        "  attempted={} failed={} error_rate={}",
        out.tally.attempted,
        out.tally.failed,
        ratio(out.tally.failed as f64, out.tally.attempted as f64)
    );
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(tally: Tally, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        fields.join(",")
    )
}

struct Args {
    env: Env,
    workload: String,
    traced: bool,
    prepare: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut pmss, mut out, mut workload) = (None, None, None);
    let (mut seed, mut seconds, mut traced, mut smoke) = (1u64, 10.0f64, false, false);
    let mut prepare = false;
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--pmss" => pmss = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds takes a number")?,
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--smoke" => smoke = true,
            "--prepare" => prepare = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        env: Env {
            pmss: pmss.ok_or("--pmss is required")?,
            out: out.ok_or("--out is required")?,
            seed,
            seconds,
            smoke,
        },
        workload,
        traced,
        prepare,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pmss-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let env = &args.env;
    if let Err(e) = std::fs::create_dir_all(&env.out) {
        eprintln!("pmss-perfbench: creating {}: {e}", env.out.display());
        return ExitCode::FAILURE;
    }
    if args.prepare {
        let prepared = match args.workload.as_str() {
            "batch-cold" => batch::prepare(&batch::COLD, env),
            "batch-sweep" => batch::prepare(&batch::SWEEP, env),
            "daemon-mixed" => daemon::prepare(env),
            other => Err(format!("cannot prepare {other:?}")),
        };
        return match prepared {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("pmss-perfbench: set-up of {}: {e}", args.workload);
                ExitCode::FAILURE
            }
        };
    }
    match run_one(&args.workload, env, args.traced) {
        Ok(out) if out.metrics.iter().any(|m| !m.value.is_finite()) => {
            print_report(&args.workload, env, args.traced, &out);
            eprintln!("pmss-perfbench: {}: a metric is not finite", args.workload);
            ExitCode::FAILURE
        }
        Ok(out) => {
            print_report(&args.workload, env, args.traced, &out);
            println!("{}", result_json(out.tally, &out.metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pmss-perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
