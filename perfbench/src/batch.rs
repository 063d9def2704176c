//! The two batch workloads: one fresh `pmss` process per sample.
//!
//! `batch-cold` runs `pmss table 5`: one fleet simulation, where the
//! shared template and execution caches see no reuse.  `batch-sweep`
//! runs `pmss faults`: the same schedule simulated once clean plus once
//! per fault preset and gap policy, the only place the caches are hit.
//! Both check every process's stdout byte for byte against the same
//! artifact rendered in-process.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use pmss_columns::{ColumnBlock, FleetObserver};
use pmss_core::project::{project, ProjectionInput};
use pmss_core::EnergyLedger;
use pmss_econ::EconSeries;
use pmss_faults::{FaultPlan, GapPolicy, PRESETS};
use pmss_pipeline::json::Json;
use pmss_pipeline::spec::{ScalePreset, ScenarioSpec};
use pmss_pipeline::stage::Pipeline;
use pmss_pipeline::ArtifactId;
use pmss_sched::{catalog, generate, Schedule};
use pmss_telemetry::{fleet_window_blocks, DomainHistograms, FleetConfig, Pair, SystemHistogram};

use crate::stats::{ratio, Metric};
use crate::trace::{SpanId, Trace, NONE};
use crate::{proc, Env, Outcome, Tally};

/// One batch workload.
pub struct Batch {
    /// Workload name.
    pub name: &'static str,
    /// The artifact the CLI renders.
    pub id: ArtifactId,
    /// The CLI arguments selecting it.
    pub args: &'static [&'static str],
    /// Whether the artifact is the fault sweep.
    pub sweep: bool,
}

/// `pmss table 5` at the `medium` shape.
pub const COLD: Batch = Batch {
    name: "batch-cold",
    id: ArtifactId::Table5,
    args: &["table", "5"],
    sweep: false,
};

/// `pmss faults` at the `medium` shape.
pub const SWEEP: Batch = Batch {
    name: "batch-sweep",
    id: ArtifactId::Faults,
    args: &["faults"],
    sweep: true,
};

/// Times `pmss spec --spec S` is run per run for `setup_s`.
const SETUP_REPEATS: usize = 21;

/// The pipeline's fleet-stage observer set (see `Pipeline::fleet`).
type StageObs = Pair<Pair<SystemHistogram, DomainHistograms>, Pair<EnergyLedger, EconSeries>>;

/// The faulted configurations `pmss faults` simulates after the clean
/// fleet stage, in its order: the `none` preset once, every other preset
/// under each gap policy.
fn sweep_plans() -> Result<Vec<FaultPlan>, String> {
    let mut plans = Vec::new();
    for preset in PRESETS {
        let base = FaultPlan::preset(preset).map_err(|e| e.to_string())?;
        if base.is_noop() {
            plans.push(base);
            continue;
        }
        for policy in GapPolicy::all() {
            plans.push(FaultPlan {
                gap_policy: policy,
                ..base.clone()
            });
        }
    }
    Ok(plans)
}

/// The workload's scenario for `seed`, and the spec file it is written to.
fn scenario(b: &Batch, env: &Env) -> (ScenarioSpec, PathBuf) {
    let preset = if env.smoke {
        ScalePreset::Quick
    } else {
        ScalePreset::Medium
    };
    let mut spec = ScenarioSpec::preset(preset);
    spec.seed = env.seed;
    (spec, env.out_path(b.name, ".spec.json"))
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Window events one fleet simulation of `spec` emits.
fn count_windows(schedule: &Schedule, cfg: &FleetConfig) -> u64 {
    let mut rows = 0u64;
    fleet_window_blocks(schedule, cfg, |blk| rows += blk.len() as u64);
    rows
}

/// Set-up for an untraced run, run in a child process so the harness
/// stays small (see [`crate::prepare_in_child`]): the spec file, the
/// in-process reference rendering and the window count.
pub fn prepare(b: &Batch, env: &Env) -> Result<(), String> {
    let (spec, spec_path) = scenario(b, env);
    std::fs::write(&spec_path, spec.to_json().to_string_pretty()).map_err(err)?;
    let mut p = Pipeline::new(spec.clone()).map_err(err)?;
    let reference = p.artifact(b.id).map_err(err)?.render_ascii();
    let runs = if b.sweep { 1 + sweep_plans()?.len() } else { 1 };
    let schedule = generate(spec.trace_params(), &catalog());
    let windows = count_windows(&schedule, &p.fleet_config()) * runs as u64;
    std::fs::write(env.out_path(b.name, ".reference.txt"), reference).map_err(err)?;
    std::fs::write(env.out_path(b.name, ".windows"), windows.to_string()).map_err(err)
}

/// An untraced run: the end-to-end metrics.
pub fn run(b: &Batch, env: &Env) -> Result<Outcome, String> {
    crate::prepare_in_child(env, b.name)?;
    let (spec, spec_path) = scenario(b, env);
    let reference = std::fs::read(env.out_path(b.name, ".reference.txt")).map_err(err)?;
    let windows: u64 = std::fs::read_to_string(env.out_path(b.name, ".windows"))
        .map_err(err)?
        .parse()
        .map_err(err)?;

    let mut tally = Tally::default();
    let mut setup = Vec::new();
    let mut echo = Command::new(&env.pmss);
    echo.args(["spec", "--json", "--spec"]).arg(&spec_path);
    proc::on_first_cpu(|| -> Result<(), String> {
        for _ in 0..if env.smoke { 1 } else { SETUP_REPEATS } {
            let r = proc::run(&mut echo).map_err(|e| format!("spawning pmss: {e}"))?;
            let echoed = std::str::from_utf8(&r.stdout)
                .ok()
                .and_then(|t| Json::parse(t).ok())
                .and_then(|j| ScenarioSpec::from_json(&j).ok());
            tally.check(r.usage.success && echoed.as_ref() == Some(&spec));
            setup.push(r.wall_s);
        }
        Ok(())
    })
    .map_err(|e| format!("pinning set-up samples: {e}"))??;

    let mut cli = Command::new(&env.pmss);
    cli.args(b.args).arg("--spec").arg(&spec_path);
    let (mut wall, mut rate, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while env.more(t0, wall.len()) {
        let r = proc::run(&mut cli).map_err(|e| format!("spawning pmss: {e}"))?;
        tally.check(r.usage.success && r.stdout == reference);
        wall.push(r.wall_s);
        rate.push(windows as f64 / r.wall_s);
        rss.push(r.usage.peak_rss_mb);
    }
    Ok(Outcome {
        tally,
        metrics: vec![
            Metric::median("wall_s", "s", &wall),
            Metric::median("windows_per_s", "1/s", &rate),
            Metric::median("peak_rss_mb", "MiB", &rss),
            Metric::median("setup_s", "s", &setup),
        ],
        extra: Vec::new(),
        notes: vec![format!(
            "{windows} window events per process, spec {}",
            spec_path.display()
        )],
    })
}

/// What an in-process replica of the CLI run leaves for the probes.
struct Replica {
    text: String,
    wall_s: f64,
    cpu_s: f64,
    metrics: pmss_obs::Metrics,
    ledger: EnergyLedger,
    factor: f64,
    table3: pmss_workloads::Table3,
    cfg: FleetConfig,
}

/// Does in-process what the CLI does for `b`, stage by stage, including
/// dropping the pipeline, with one span per stage under `root`.  With a
/// disabled trace this is the untraced replica: the same calls, no spans.
fn replica(b: &Batch, spec: &ScenarioSpec, tr: &Trace, root: SpanId) -> Result<Replica, String> {
    let cpu0 = proc::self_cpu_s();
    let t = Instant::now();
    let mut p = Pipeline::with_metrics(spec.clone()).map_err(err)?;
    tr.span("pipeline.fleet_stage", root, || p.fleet().map(|_| ()))
        .map_err(err)?;
    tr.span("pipeline.table3_stage", root, || p.table3().map(|_| ()))
        .map_err(err)?;
    let art = tr
        .span("pipeline.artifact", root, || p.artifact(b.id))
        .map_err(err)?;
    let text = tr.span("pipeline.render", root, || art.render_ascii());
    let metrics = p.metrics_report().unwrap_or_default();
    let fleet = p.fleet().map_err(err)?;
    let (ledger, factor) = (fleet.ledger.clone(), fleet.frontier_factor);
    let table3 = p.table3().map_err(err)?.clone();
    let cfg = p.fleet_config();
    // The CLI pays for tearing the pipeline down before it exits.
    tr.span("pipeline.drop", root, || drop(p));
    Ok(Replica {
        text,
        wall_s: t.elapsed().as_secs_f64(),
        cpu_s: proc::self_cpu_s() - cpu0,
        metrics,
        ledger,
        factor,
        table3,
        cfg,
    })
}

/// A traced run: the same artifact computed in-process, once untraced
/// and once with spans around each pipeline stage, followed by probes
/// that split the fleet stage into its layers.
pub fn traced(b: &Batch, env: &Env) -> Result<Outcome, String> {
    let (spec, _) = scenario(b, env);
    let mut tally = Tally::default();

    // The reference rendering (the CLI's default, unmetered path) also
    // warms the process up: the first pipeline in a process runs slower
    // than later ones.  The untraced and traced replicas then differ only
    // by the spans, so their ratio is the tracing overhead.
    let reference = Pipeline::new(spec.clone())
        .and_then(|mut p| p.artifact(b.id))
        .map_err(err)?
        .render_ascii();
    let untraced = replica(b, &spec, &Trace::new(false), NONE)?;
    tally.check(untraced.text == reference);
    let tr = Trace::new(true);
    let root = tr.begin("batch.replica", NONE, 0);
    let r = replica(b, &spec, &tr, root)?;
    tr.end(root, 0, 0);
    tally.check(r.text == reference);
    let (untraced_s, traced_s, cpu_s) = (untraced.wall_s, tr.duration_s(root), r.cpu_s);

    // Layer probes, each its own root span after the replica.
    let schedule = tr.span("sched.generate", NONE, || {
        generate(spec.trace_params(), &catalog())
    });
    let cfg = r.cfg.clone();
    let emit = |name: &'static str, cfg: &FleetConfig| {
        let id = tr.begin(name, NONE, 0);
        let rows = count_windows(&schedule, cfg);
        tr.end(id, rows, 0);
        tr.duration_s(id)
    };
    emit("telemetry.emit", &cfg);
    let mut faults_emit_s = 0.0;
    let plans = if b.sweep { sweep_plans()? } else { Vec::new() };
    if b.sweep {
        // Warm clean emission is the baseline each faulted one adds to.
        let clean_s = emit("telemetry.emit_warm", &cfg);
        for plan in plans.iter().filter(|p| !p.is_noop()) {
            let faulted = FleetConfig {
                faults: Some(plan.clone()),
                ..cfg.clone()
            };
            faults_emit_s += emit("faults.emit", &faulted) - clean_s;
        }
    }
    let folded = fold_probe(&tr, &schedule, &cfg);
    tally.check(folded.b.a == r.ledger);
    // One projection per row the artifact projects.
    for _ in 0..plans.len().max(1) {
        let proj = tr.span("core.project", NONE, || {
            r.ledger
                .scaled(r.factor)
                .and_then(|l| project(ProjectionInput::from_ledger(&l), &r.table3))
        });
        tally.check(proj.is_ok());
    }

    let totals = tr.totals();
    let m = &r.metrics;
    let fleet_runs = m.counter("fleet.runs");
    let injected: u64 = ["dropped", "duplicated", "glitched", "reordered"]
        .iter()
        .map(|k| m.counter(&format!("faults.{k}")))
        .sum();
    let mut layer = crate::layer_metrics_from(&totals);
    layer.extend([
        Metric::single(
            "telemetry.fleet_run_s",
            "s",
            ratio(m.gauge("fleet.wall_s").unwrap_or(0.0), fleet_runs as f64),
        ),
        Metric::single(
            "gpu.engine_executions",
            "count",
            m.counter("engine.executions") as f64,
        ),
        Metric::single(
            "gpu.exec_cache_hit_rate",
            "ratio",
            m.gauge("exec_cache.hit_rate").unwrap_or(0.0),
        ),
        Metric::single(
            "telemetry.template_cache_hit_rate",
            "ratio",
            m.gauge("template_cache.hit_rate").unwrap_or(0.0),
        ),
        Metric::single("faults.emit_s", "s", faults_emit_s),
        Metric::single("faults.injected", "count", injected as f64),
        Metric::single("proc.cpu_s", "s", cpu_s),
        Metric::single("proc.cpu_util", "ratio", ratio(cpu_s, traced_s)),
        Metric::single("trace.coverage", "ratio", tr.coverage(root)),
        Metric::single("trace.overhead", "ratio", traced_s / untraced_s - 1.0),
    ]);
    tr.write_jsonl(&env.trace_path(b.name))
        .map_err(|e| format!("writing the trace: {e}"))?;
    Ok(Outcome {
        tally,
        metrics: layer,
        extra: Vec::new(),
        notes: crate::trace_report(&totals, traced_s, untraced_s),
    })
}

/// Re-emits the fleet and folds the pipeline's observer set over each
/// node's materialized blocks, one span per node.
fn fold_probe(tr: &Trace, schedule: &Schedule, cfg: &FleetConfig) -> StageObs {
    let mut obs = StageObs::default();
    let mut pending: Vec<ColumnBlock> = Vec::new();
    let fold = |obs: &mut StageObs, pending: &mut Vec<ColumnBlock>| {
        if pending.is_empty() {
            return;
        }
        let id = tr.begin("columns.fold", NONE, u64::from(pending[0].node()));
        let mut rows = 0u64;
        for blk in pending.iter() {
            rows += blk.len() as u64;
            if StageObs::CHANNEL_GROUPED {
                let mut chan = StageObs::default();
                chan.fold_block(schedule, blk);
                obs.merge(chan);
            } else {
                obs.fold_block(schedule, blk);
            }
        }
        tr.end(
            id,
            rows,
            pending.iter().map(|b| b.column_bytes() as u64).sum(),
        );
        pending.clear();
    };
    fleet_window_blocks(schedule, cfg, |blk| {
        if pending.first().is_some_and(|p| p.node() != blk.node()) {
            fold(&mut obs, &mut pending);
        }
        pending.push(blk.clone());
    });
    fold(&mut obs, &mut pending);
    obs
}
