//! `perfbench`: the repository benchmark.
//!
//! Starts a `flexrel_server::Server` on loopback over a seeded `Database`
//! and drives it from this process with at most two closed-loop client
//! connections, one thread each.  Every response is verified; the last
//! line of standard output is one JSON object with the verdict and the
//! metrics.  See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <point-lookup|join-agg|mixed-rw> --seed <n>
//!           [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced breakdown and reports the per-layer metrics.

mod check;
mod load;
mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use flexrel_client::Connection;
use flexrel_core::attrs;
use flexrel_core::tuple::Tuple;
use flexrel_query::{run_statement, ExecOptions, StatementOutcome};
use flexrel_server::{Server, ServerConfig, StatsSnapshot};
use flexrel_storage::Database;
use flexrel_workload::{generate_wide, WideConfig};

use check::{check_rows, multiset, verify, Verdict};
use load::{roundtrip, run_window, Sample, Tally, Target, Window};
use sys::{json_num, json_str, median, percentile, SCRATCH_DIR};
use trace::{breakdown, Samples, Tracer};
use workload::{
    seed as seed_db, written_tuple, Kind, Oracle, Stmt, StmtGen, Workload, CHECKPOINT_BYTES,
    PROBE_ID_BASE, SKEW, VARIANTS,
};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Unmeasured seconds at the start of every closed-loop window, while new
/// connections and session threads settle.
const RAMP_S: f64 = 1.0;
/// Statements per kind in the pre-timing wire-vs-embedded differential.
const DIFF_SAMPLE: usize = 8;
/// The seed reserved for re-checking a claim on data not used while the
/// claimed change was developed.
const HELD_OUT_SEED: u64 = 7_340_033;

/// End-to-end metrics reported by every workload (`BENCHMARK.json`).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_sps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("read_p99_us", "us"),
];

/// Per-layer metrics reported by every workload (`BENCHMARK.json`).  A
/// `.mix` figure is the per-kind median weighted by the kind's share of
/// the workload's statements, over the kinds the layer serves.
const PER_LAYER: [(&str, &str); 24] = [
    ("client.ping_us", "us"),
    ("client.rtt_us.mix", "us"),
    ("server.frontend_us.mix", "us"),
    ("server.busy", "count"),
    ("server.timeouts", "count"),
    ("server.protocol_errors", "count"),
    ("proto.encode_us.mix", "us"),
    ("proto.decode_us.mix", "us"),
    ("proto.bytes.mix", "B"),
    ("query.parse_us.mix", "us"),
    ("query.plan_us.mix", "us"),
    ("query.optimize_us.mix", "us"),
    ("query.execute_us.mix", "us"),
    ("query.rewrites.mix", "count"),
    ("query.index_lookups.mix", "count"),
    ("query.q_error.mix", "ratio"),
    ("query.materialized_per_row.mix", "ratio"),
    ("query.chunks.mix", "count"),
    ("storage.table_stats_us.cold", "us"),
    ("storage.table_stats_us.warm", "us"),
    ("storage.table_stats_us.mix", "us"),
    ("workload.seed_s", "s"),
    ("trace.residual_us.mix", "us"),
    ("trace.overhead", "share"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{} needs a value", flag))?;
        let bad = |what: &str| format!("bad {} '{}'", what, value);
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            other => return Err(format!("unknown flag {}", other)),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The statement streams of the closed-loop clients.
fn client_gens(workload: Workload, seed: u64) -> Vec<StmtGen> {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    // mixed-rw needs its writer and its reader; the read-only workloads
    // use one connection per core, at most two.
    let clients = match workload {
        Workload::MixedRw => 2,
        _ => parallelism.clamp(1, 2),
    };
    (0..clients)
        .map(|c| StmtGen::new(workload, seed, c))
        .collect()
}

/// A seeded database served on loopback.
struct Env {
    db: Database,
    server: Server,
    dir: Option<PathBuf>,
    /// Seconds in `flexrel-workload` generation while seeding.
    gen_s: f64,
    /// The first `table_stats` after seeding, in microseconds.
    table_stats_cold_us: f64,
}

impl Env {
    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Drains the server and returns its final counters, the database
    /// handle and directory.
    fn drain(self) -> (StatsSnapshot, Database, Option<PathBuf>) {
        let stats = self.server.shutdown();
        (stats, self.db, self.dir)
    }
}

/// Seeds, serves and warms up one database: everything `setup_s` bills.
/// Warm-up runs the wire-vs-embedded differential on a sample of every
/// statement kind (from a stream of its own) and builds the statistics
/// that the optimizer would otherwise build lazily on the first
/// statements.
fn set_up(workload: Workload, seed: u64, rep: usize, oracle: &Oracle) -> Result<Env, String> {
    let dir = match workload.durable() {
        true => Some(workload::fresh_dir(rep)?),
        false => None,
    };
    let seeded = seed_db(workload, dir.as_deref())?;
    let db = seeded.db;
    let t = Instant::now();
    db.table_stats("wide")
        .map_err(|e| format!("table_stats: {}", e))?;
    let table_stats_cold_us = t.elapsed().as_secs_f64() * 1e6;
    db.table_stats("kinds")
        .map_err(|e| format!("table_stats: {}", e))?;
    let server = Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("server start: {}", e))?;
    let env = Env {
        db,
        server,
        dir,
        gen_s: seeded.gen_s,
        table_stats_cold_us,
    };
    differential(&env, workload, seed, oracle)?;
    Ok(env)
}

/// Before timing: every statement kind, over the wire and embedded through
/// `run_statement`, must give the same multiset of rows; writes acked over
/// the wire must be visible embedded, and gone after their delete.
fn differential(env: &Env, workload: Workload, seed: u64, oracle: &Oracle) -> Result<(), String> {
    let mut conn = Connection::connect(env.addr()).map_err(|e| format!("connect: {}", e))?;
    let opts = ExecOptions::serial();
    let embedded = |frql: &str| match run_statement(&env.db, frql, &opts) {
        Ok(StatementOutcome::Rows(rows)) => Ok(multiset(&rows)),
        other => Err(format!("{} embedded: {:?}", frql, other)),
    };
    let exact = workload != Workload::MixedRw;
    let mut gen = StmtGen::new(workload, seed ^ 0xD1FF_0000, 1);
    let mut taken = [0usize; 5];
    for (kind, _) in workload.mix() {
        while taken[kind.idx()] < DIFF_SAMPLE {
            if *kind == Kind::Commit {
                let id = PROBE_ID_BASE - 1 - taken[kind.idx()] as i64;
                let lookup = Stmt::Lookup { id }.frql().expect("lookup text");
                for (stmt, visible) in [
                    (Stmt::Insert { id, kind: 0 }, vec![written_tuple(id, 0)]),
                    (Stmt::Delete { id, kind: 0 }, vec![]),
                ] {
                    let rsp =
                        roundtrip(&mut conn, &stmt).map_err(|e| format!("{:?}: {}", stmt, e))?;
                    if verify(&stmt, &rsp, oracle, false) != Verdict::Ok(0) {
                        return Err(format!("differential {:?} answered {:?}", stmt, rsp));
                    }
                    if embedded(&lookup)? != visible {
                        return Err(format!("after {:?} the embedded lookup disagrees", stmt));
                    }
                }
                taken[kind.idx()] += 1;
                continue;
            }
            let stmt = gen.next(oracle);
            if stmt.kind() != *kind {
                continue;
            }
            let frql = stmt.frql().expect("reads have FRQL text");
            let rsp = roundtrip(&mut conn, &stmt).map_err(|e| format!("{}: {}", frql, e))?;
            let flexrel_server::Response::Rows(rows) = &rsp else {
                return Err(format!("{} answered {:?}", frql, rsp));
            };
            check_rows(&stmt, rows, oracle, exact)?;
            if embedded(&frql)? != multiset(rows) {
                return Err(format!("{}: wire and embedded results differ", frql));
            }
            taken[kind.idx()] += 1;
        }
    }
    conn.close().map_err(|e| format!("close: {}", e))
}

/// Server counter deltas must match the client's counts exactly.
fn reconcile(t: &Tally, before: &StatsSnapshot, after: &StatsSnapshot) -> Result<(), String> {
    let sum = t.ok + t.busy + t.timeouts + t.errors + t.protocol;
    if t.attempted != sum {
        return Err(format!(
            "client counts do not add up: attempted {} != {}",
            t.attempted, sum
        ));
    }
    let pairs = [
        ("ok", t.ok, after.statements_ok - before.statements_ok),
        (
            "busy",
            t.busy,
            after.busy_rejections - before.busy_rejections,
        ),
        ("timeout", t.timeouts, after.timeouts - before.timeouts),
        (
            "error",
            t.errors,
            after.statements_err - before.statements_err,
        ),
        (
            "protocol",
            t.protocol,
            after.protocol_errors - before.protocol_errors,
        ),
    ];
    for (what, client, server) in pairs {
        if client != server {
            return Err(format!(
                "{}: client counted {}, server {}",
                what, client, server
            ));
        }
    }
    Ok(())
}

/// After drain: reopen the durable directory (timed: `recovery_s`), check
/// that it holds the seed plus the net acknowledged inserts, then delete
/// every live insert and check each delete finds its tuple.
fn reopen_check(
    dir: &Path,
    oracle: &Oracle,
    net_inserted: i64,
    live: Vec<(i64, usize)>,
) -> Result<(f64, usize), String> {
    let t = Instant::now();
    let db = Database::open(dir).map_err(|e| format!("reopen: {}", e))?;
    let recovery_s = t.elapsed().as_secs_f64();
    let replayed = db.recovery_info().map_or(0, |r| r.replayed_commits);
    let count = |db: &Database| db.count("wide").map_err(|e| format!("count: {}", e));
    let expect = oracle.n as i64 + net_inserted;
    if count(&db)? as i64 != expect || live.len() as i64 != net_inserted {
        return Err(format!(
            "reopened count {} != seed {} + net acked inserts {} ({} live)",
            count(&db)?,
            oracle.n,
            net_inserted,
            live.len()
        ));
    }
    for (id, _) in live {
        let key = Tuple::new().with("id", id);
        let hits = db
            .lookup_eq("wide", &attrs!["id"], &key)
            .map_err(|e| format!("lookup: {}", e))?;
        if hits.len() != 1 {
            return Err(format!("acked insert {} lost after reopen", id));
        }
        db.delete("wide", hits[0].0)
            .map_err(|e| format!("cleanup delete: {}", e))?;
    }
    if count(&db)? != oracle.n {
        return Err(format!(
            "cleanup left {} tuples, seeded {}",
            count(&db)?,
            oracle.n
        ));
    }
    Ok((recovery_s, replayed))
}

/// Waits until no background checkpoint can be in flight: the
/// checkpointer wakes every 20 ms, so three quiet polls in a row mean it
/// has seen the drained WAL and gone idle.
fn settle_checkpointer(dir: &Path) {
    let mut last = load::newest_wal_segment(dir);
    let mut quiet = 0;
    while quiet < 3 {
        std::thread::sleep(Duration::from_millis(25));
        let now = load::newest_wal_segment(dir);
        quiet = if now == last { quiet + 1 } else { 0 };
        last = now;
    }
}

/// The outcome printed as the result line.
struct Outcome {
    attempted: u64,
    failed: u64,
    problem: Option<String>,
    /// Metrics for the result line, in declaration order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Latencies of the samples `keep` selects, ascending.
fn latencies(t: &Tally, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    sorted(
        t.samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.latency_us)
            .collect(),
    )
}

fn latency_lines(out: &mut Vec<String>, t: &Tally) {
    for k in Kind::ALL {
        let v = latencies(t, |s| s.kind == k);
        if v.is_empty() {
            continue;
        }
        let name = k.name();
        out.push(format!(
            "metric {}_p50_us = {} us (n={})",
            name,
            json_num(percentile(&v, 0.5)),
            v.len()
        ));
        out.push(format!(
            "metric {}_p99_us = {} us (n={})",
            name,
            json_num(percentile(&v, 0.99)),
            v.len()
        ));
    }
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn run(args: &Args, lines: &mut Vec<String>) -> Result<Outcome, String> {
    let workload = args.workload;
    let epoch = Instant::now();
    std::fs::create_dir_all(SCRATCH_DIR).map_err(|e| format!("create {}: {}", SCRATCH_DIR, e))?;
    let oracle = Oracle::new(generate_wide(
        &WideConfig::new(workload.n(), VARIANTS).with_skew(SKEW),
    ));
    let mut gens = client_gens(workload, args.seed);

    for (k, v) in sys::host_record() {
        lines.push(format!("record {} = {}", k, v));
    }
    lines.push(format!(
        "record workload = {} seed = {} n = {} variants = {} skew = {} clients = {} seconds = {} trace = {}",
        workload.name(),
        args.seed,
        workload.n(),
        VARIANTS,
        SKEW,
        gens.len(),
        args.seconds,
        u8::from(args.trace)
    ));

    // Set-up, repeated: setup_s is the median; the last one is kept.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::new();
    let mut env: Option<Env> = None;
    for rep in 0..reps {
        if let Some(old) = env.take() {
            old.drain();
        }
        let t = Instant::now();
        env = Some(set_up(workload, args.seed, rep, &oracle)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let env = env.expect("at least one set-up");
    let setup_s = median(&setup_times);
    lines.push(format!(
        "record setup_reps = {} setup_s_each = {:?} differential = {} statements per kind, passed",
        reps, setup_times, DIFF_SAMPLE
    ));
    if let Some(dir) = &env.dir {
        lines.push(format!(
            "record flush_policy = group commit on (one fdatasync per commit group, acked after sync); \
             background checkpoint every {} WAL bytes; tmp_dir = {} tmp_fs = {}",
            CHECKPOINT_BYTES,
            dir.display(),
            sys::filesystem_of(dir)
        ));
    } else {
        lines.push("record flush_policy = in-memory (no WAL)".into());
    }

    let target = Target {
        addr: env.addr(),
        workload,
        oracle: &oracle,
        dir: env.dir.as_deref(),
        epoch,
    };
    let mut windows: Vec<(Window, bool)> = Vec::new();
    let window_s = if args.trace {
        args.seconds * 0.15
    } else {
        args.seconds
    };
    let mut reconciled = Ok(());
    // Server::stats() deltas over the windows: busy, timeouts, protocol.
    let mut server_delta = [0u64; 3];
    // Traced runs alternate untraced and traced windows, so the tracing
    // overhead is not confounded with warm-up or drift.
    let modes: &[bool] = if args.trace {
        &[false, true, false, true]
    } else {
        &[false]
    };
    for &traced in modes {
        let before = env.server.stats().snapshot();
        let w = run_window(target, &mut gens, (RAMP_S, window_s), traced);
        let after = env.server.stats().snapshot();
        if reconciled.is_ok() {
            reconciled = reconcile(&w.tally, &before, &after);
        }
        server_delta[0] += after.busy_rejections - before.busy_rejections;
        server_delta[1] += after.timeouts - before.timeouts;
        server_delta[2] += after.protocol_errors - before.protocol_errors;
        windows.push((w, traced));
    }
    let peak_rss_mb = sys::peak_rss_mb();

    let mut samples = Samples::new();
    let mut tracer = Tracer::new(epoch);
    let mut checkpoint_ms = Vec::new();
    if args.trace {
        if workload.durable() {
            for _ in 0..3 {
                let t = Instant::now();
                env.db
                    .checkpoint_now()
                    .map_err(|e| format!("checkpoint: {}", e))?;
                checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        samples = breakdown(target, &env.db, args.seed, args.seconds * 0.4, &mut tracer)?;
        let mut warm = Vec::new();
        for _ in 0..100 {
            let t = Instant::now();
            env.db
                .table_stats("wide")
                .map_err(|e| format!("table_stats: {}", e))?;
            warm.push(t.elapsed().as_secs_f64() * 1e6);
        }
        samples.insert("storage.table_stats_us.warm".into(), warm);
    }
    samples.insert(
        "storage.table_stats_us.cold".into(),
        vec![env.table_stats_cold_us],
    );
    samples.insert("workload.seed_s".into(), vec![env.gen_s]);

    // Drain, then (mixed-rw) the durability check on a reopened directory.
    let (final_stats, db, dir) = env.drain();
    drop(db);
    let mut tally = Tally::default();
    let mut checkpoints = 0;
    // Statements answered and seconds, untraced [0] and traced [1].
    let mut by_mode = [(0u64, 0f64); 2];
    for (w, traced) in windows {
        let m = &mut by_mode[usize::from(traced)];
        m.0 += w.tally.samples.len() as u64;
        m.1 += w.elapsed_s;
        checkpoints += w.checkpoints;
        tally.merge(w.tally);
    }
    let untraced_tps = by_mode[0].0 as f64 / by_mode[0].1;
    let traced_tps = by_mode[1].0 as f64 / by_mode[1].1;
    let traced_spans = std::mem::take(&mut tally.spans);
    let mut recovery = None;
    if let Some(dir) = &dir {
        settle_checkpointer(dir);
        let live: Vec<(i64, usize)> = gens.iter_mut().flat_map(|g| g.live.drain(..)).collect();
        recovery = Some(reopen_check(dir, &oracle, tally.net_inserted, live)?);
    }
    reconciled?;
    lines.push(format!(
        "record server_final = {} ok, {} err, {} busy, {} timeouts, {} protocol",
        final_stats.statements_ok,
        final_stats.statements_err,
        final_stats.busy_rejections,
        final_stats.timeouts,
        final_stats.protocol_errors
    ));

    let (tps, p50, p99, read_p99) = end_to_end(&tally);
    let error_rate = tally.failed() as f64 / tally.attempted.max(1) as f64;
    lines.push(format!(
        "counts attempted = {} ok = {} busy = {} timeout = {} error = {} protocol = {} mismatch = {} lost = {}",
        tally.attempted,
        tally.ok,
        tally.busy,
        tally.timeouts,
        tally.errors,
        tally.protocol,
        tally.mismatches,
        tally.lost_writes
    ));
    lines.push(format!(
        "metric error_rate = {} share",
        json_num(error_rate)
    ));
    lines.push(format!(
        "record samples = {} statements measured after a {} s ramp, {} of them reads; \
         end-to-end figures are medians over {} sub-windows",
        tally.samples.len(),
        RAMP_S,
        tally
            .samples
            .iter()
            .filter(|s| s.kind != Kind::Commit)
            .count(),
        CHUNKS
    ));
    latency_lines(lines, &tally);
    if let Some((recovery_s, replayed)) = recovery {
        lines.push(format!("metric recovery_s = {} s", json_num(recovery_s)));
        lines.push(format!(
            "metric storage.replayed_commits = {} count",
            replayed
        ));
        lines.push(format!(
            "metric storage.checkpoints = {} count",
            checkpoints
        ));
        samples.insert("storage.replayed_commits".into(), vec![replayed as f64]);
        samples.insert("storage.checkpoints".into(), vec![checkpoints as f64]);
        if !checkpoint_ms.is_empty() {
            samples.insert("storage.checkpoint_ms".into(), checkpoint_ms);
        }
        lines.push(format!(
            "record durability = reopen count and cleanup of {} net acked inserts passed",
            tally.net_inserted
        ));
    }

    let mut metrics = Vec::new();
    if args.trace {
        let overhead = 1.0 - traced_tps / untraced_tps;
        samples.insert("trace.overhead".into(), vec![overhead]);
        for (name, delta) in ["server.busy", "server.timeouts", "server.protocol_errors"]
            .into_iter()
            .zip(server_delta)
        {
            samples.insert(name.into(), vec![delta as f64]);
        }
        lines.push(format!(
            "record tracing throughput untraced = {} 1/s traced = {} 1/s spans = {}",
            json_num(untraced_tps),
            json_num(traced_tps),
            tracer.spans.len() + traced_spans.len()
        ));
        layer_lines(lines, workload, &samples);
        let path =
            Path::new(SCRATCH_DIR).join(format!("spans-{}-{}.tsv", workload.name(), args.seed));
        tracer
            .dump(&traced_spans, &path)
            .map_err(|e| format!("write {}: {}", path.display(), e))?;
        lines.push(format!("record spans_file = {}", path.display()));
        for (name, unit) in PER_LAYER {
            metrics.push((name, layer_value(workload, &samples, name), unit));
        }
    } else {
        let values: BTreeMap<&str, f64> = [
            ("setup_s", setup_s),
            ("peak_rss_mb", peak_rss_mb),
            ("throughput_sps", tps),
            ("p50_us", p50),
            ("p99_us", p99),
            ("read_p99_us", read_p99),
        ]
        .into_iter()
        .collect();
        for (name, unit) in END_TO_END {
            metrics.push((name, values[name], unit));
        }
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed(),
        problem: tally.first_problem,
        metrics,
    })
}

/// Sub-windows a timed window is split into for the end-to-end figures.
const CHUNKS: usize = 10;

/// Splits samples, in completion order, into [`CHUNKS`] runs of equal
/// count and returns the median over the runs of `f(run, run seconds)`.
/// A burst of interference on the host then moves one or two runs, not
/// the reported figure.
fn chunk_median(samples: &[&Sample], f: impl Fn(&[&Sample], f64) -> f64) -> f64 {
    let per = (samples.len() / CHUNKS).max(1);
    let mut prev_end = samples.first().map_or(0.0, |s| s.done_s);
    let values: Vec<f64> = samples
        .chunks(per)
        .filter(|c| c.len() == per)
        .map(|c| {
            let end = c[c.len() - 1].done_s;
            let v = f(c, end - prev_end);
            prev_end = end;
            v
        })
        .collect();
    median(&values)
}

/// Throughput, p50 and p99 over all statements, and p99 over reads, each
/// the median over the window's sub-windows.
fn end_to_end(t: &Tally) -> (f64, f64, f64, f64) {
    let mut all: Vec<&Sample> = t.samples.iter().collect();
    all.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    let reads: Vec<&Sample> = all
        .iter()
        .copied()
        .filter(|s| s.kind != Kind::Commit)
        .collect();
    let pct = |p: f64| {
        move |c: &[&Sample], _: f64| {
            percentile(&sorted(c.iter().map(|s| s.latency_us).collect()), p)
        }
    };
    (
        chunk_median(&all, |c, secs| c.len() as f64 / secs),
        chunk_median(&all, pct(0.5)),
        chunk_median(&all, pct(0.99)),
        chunk_median(&reads, pct(0.99)),
    )
}

/// A per-layer metric of the result line: a plain metric's median, or a
/// `.mix` figure weighted over the workload's statement kinds.
fn layer_value(workload: Workload, samples: &Samples, name: &str) -> f64 {
    if let Some(base) = name.strip_suffix(".mix") {
        let (mut sum, mut weight) = (0.0, 0.0);
        for (kind, share) in workload.mix() {
            if let Some(v) = samples.get(&format!("{}.{}", base, kind.name())) {
                sum += share * median(v);
                weight += share;
            }
        }
        return if weight > 0.0 { sum / weight } else { 0.0 };
    }
    samples.get(name).map_or(f64::NAN, |v| median(v))
}

/// The full per-kind layer report, with each embedded stage's share of the
/// embedded statement.
fn layer_lines(lines: &mut Vec<String>, workload: Workload, samples: &Samples) {
    for (name, v) in samples {
        lines.push(format!(
            "layer {} = {} (median of {})",
            name,
            json_num(median(v)),
            v.len()
        ));
    }
    const STAGES: [&str; 4] = [
        "query.parse_us",
        "query.plan_us",
        "query.optimize_us",
        "query.execute_us",
    ];
    for (kind, _) in workload.mix() {
        let k = kind.name();
        let parts: Vec<(&str, f64)> = STAGES
            .iter()
            .filter_map(|s| {
                samples
                    .get(&format!("{}.{}", s, k))
                    .map(|v| (*s, median(v)))
            })
            .collect();
        let total: f64 = parts.iter().map(|(_, v)| v).sum();
        if total <= 0.0 {
            continue;
        }
        for (stage, v) in &parts {
            lines.push(format!(
                "share {}.{} = {} of the embedded statement",
                stage,
                k,
                json_num(v / total)
            ));
        }
        if let Some((stage, _)) = parts.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
            lines.push(format!("largest {} = {}.{}", k, stage, k));
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {}", e);
            eprintln!(
                "usage: perfbench --workload <point-lookup|join-agg|mixed-rw> --seed <n> \
                 [--seconds <s>] [--trace <0|1>]"
            );
            std::process::exit(2);
        }
    };
    let mut lines = Vec::new();
    let result = run(&args, &mut lines);
    // The run's databases go, whether it passed or not.
    let _ = std::fs::remove_dir_all(workload::run_dir());
    for l in &lines {
        println!("{}", l);
    }
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: FAILED: {}", e);
            println!("{{\"correct\": false, \"attempted\": 0, \"failed\": 0, \"metrics\": {{}}}}");
            std::process::exit(1);
        }
    };
    let correct = outcome.failed == 0;
    if let Some(p) = &outcome.problem {
        eprintln!("perfbench: first problem: {}", p);
    }
    println!(
        "record held_out = cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
         --workload {} --seed {} --seconds {} --trace {}",
        args.workload.name(),
        HELD_OUT_SEED,
        args.seconds,
        u8::from(args.trace)
    );
    let metrics: Vec<String> = if correct {
        outcome
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                println!("metric {} = {} {}", name, json_num(*value), unit);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
