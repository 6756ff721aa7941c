//! The closed loop: each client thread owns one connection and keeps
//! exactly one statement outstanding, for a fixed wall-clock window.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use flexrel_client::{ClientError, Connection};
use flexrel_server::Response;

use crate::check::{verify, Verdict};
use crate::trace::Span;
use crate::workload::{Kind, Oracle, Stmt, StmtGen, Workload};

/// Client-side counts and latencies of one closed-loop window.
#[derive(Debug, Default)]
pub struct Tally {
    /// Statements sent.
    pub attempted: u64,
    /// Statements answered without an error response.
    pub ok: u64,
    /// `Busy` responses.
    pub busy: u64,
    /// `Timeout` responses.
    pub timeouts: u64,
    /// Other error responses.
    pub errors: u64,
    /// Transport failures and responses of the wrong type.
    pub protocol: u64,
    /// Answered statements whose answer was wrong (a subset of `ok`).
    pub mismatches: u64,
    /// Acknowledged inserts a later delete did not find (a subset of `ok`).
    pub lost_writes: u64,
    /// Acknowledged inserts minus acknowledged deletes.
    pub net_inserted: i64,
    /// One entry per answered statement.
    pub samples: Vec<Sample>,
    /// The first failure seen, for the report.
    pub first_problem: Option<String>,
    /// One span per statement, when the window is traced.
    pub spans: Vec<Span>,
}

impl Tally {
    /// Adds another window's counts and samples to this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.busy += other.busy;
        self.timeouts += other.timeouts;
        self.errors += other.errors;
        self.protocol += other.protocol;
        self.mismatches += other.mismatches;
        self.lost_writes += other.lost_writes;
        self.net_inserted += other.net_inserted;
        self.samples.extend(other.samples);
        if self.first_problem.is_none() {
            self.first_problem = other.first_problem;
        }
        self.spans.extend(other.spans);
    }

    /// Every statement that did not succeed, as the error rate counts it.
    pub fn failed(&self) -> u64 {
        self.busy + self.timeouts + self.errors + self.protocol + self.mismatches + self.lost_writes
    }

    fn problem(&mut self, why: String) {
        if self.first_problem.is_none() {
            self.first_problem = Some(why);
        }
    }
}

/// One answered statement.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// The statement's kind.
    pub kind: Kind,
    /// When the response arrived, in seconds since the window started.
    pub done_s: f64,
    /// Send-to-response latency in microseconds.
    pub latency_us: f64,
}

/// Sends one statement and waits for its response.
pub fn roundtrip(conn: &mut Connection, stmt: &Stmt) -> Result<Response, ClientError> {
    conn.send(&stmt.request())?;
    conn.recv()
}

/// What every client of a run shares.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    /// The server.
    pub addr: SocketAddr,
    /// The workload the statements come from.
    pub workload: Workload,
    /// The oracle the answers are checked against.
    pub oracle: &'a Oracle,
    /// The durable database's directory, watched for checkpoints.
    pub dir: Option<&'a Path>,
    /// Time origin of the run's spans.
    pub epoch: Instant,
}

/// Runs one client's closed loop until `deadline`, recording a span per
/// statement when `traced`.
fn client_loop(
    target: Target<'_>,
    client: usize,
    gen: &mut StmtGen,
    (start, deadline): (Instant, Instant),
    traced: bool,
) -> Tally {
    let Target {
        addr,
        workload,
        oracle,
        epoch,
        ..
    } = target;
    let exact = workload != Workload::MixedRw;
    let mut t = Tally::default();
    let mut conn = match Connection::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            t.protocol += 1;
            t.problem(format!("client {} connect: {}", client, e));
            return t;
        }
    };
    let mut seq = 0u64;
    while Instant::now() < deadline {
        let stmt = gen.next(oracle);
        let req = stmt.request();
        t.attempted += 1;
        let sent = Instant::now();
        let rsp = conn.send(&req).and_then(|()| conn.recv());
        let done = Instant::now();
        let rsp = match rsp {
            Ok(r) => r,
            Err(e) => {
                t.protocol += 1;
                t.problem(format!("client {} transport: {}", client, e));
                return t;
            }
        };
        let kind = stmt.kind();
        t.samples.push(Sample {
            kind,
            done_s: (done - start).as_secs_f64(),
            latency_us: (done - sent).as_secs_f64() * 1e6,
        });
        if traced {
            t.spans.push(Span {
                name: "client.request",
                kind,
                stmt: ((client as u64) << 40) | seq,
                parent: None,
                start_ns: (sent - epoch).as_nanos() as u64,
                end_ns: (done - epoch).as_nanos() as u64,
            });
        }
        seq += 1;
        let verdict = verify(&stmt, &rsp, oracle, exact);
        gen.settle(&stmt, &verdict);
        match verdict {
            Verdict::Ok(_) => {
                t.ok += 1;
                match stmt {
                    Stmt::Insert { .. } => t.net_inserted += 1,
                    Stmt::Delete { .. } => t.net_inserted -= 1,
                    _ => {}
                }
            }
            Verdict::Mismatch(why) => {
                t.ok += 1;
                t.mismatches += 1;
                t.problem(why);
            }
            Verdict::LostWrite => {
                t.ok += 1;
                t.lost_writes += 1;
                t.problem(format!("lost write: {:?}", stmt));
            }
            Verdict::Busy => t.busy += 1,
            Verdict::Timeout => t.timeouts += 1,
            Verdict::Error(why) => {
                t.errors += 1;
                t.problem(why);
            }
            Verdict::Protocol(why) => {
                t.protocol += 1;
                t.problem(why);
                return t;
            }
        }
    }
    if let Err(e) = conn.close() {
        t.protocol += 1;
        t.problem(format!("client {} close: {}", client, e));
    }
    t
}

/// What one closed-loop window measured.
pub struct Window {
    /// Merged client counts over the whole window, and the samples of
    /// statements answered after the ramp.
    pub tally: Tally,
    /// Seconds from the end of the ramp until the last client finished.
    pub elapsed_s: f64,
    /// WAL rotations (= completed checkpoints) seen in the database directory.
    pub checkpoints: u64,
}

/// Runs every client's closed loop, each on its own thread, for `ramp_s`
/// unmeasured seconds and then `seconds` measured ones.  Statements of the
/// ramp are verified and counted but leave no latency sample.  The calling
/// thread only watches the database directory (if any) for checkpoints.
pub fn run_window(
    target: Target<'_>,
    gens: &mut [StmtGen],
    (ramp_s, seconds): (f64, f64),
    traced: bool,
) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ramp_s + seconds);
    let mut checkpoints = 0;
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(client, gen)| {
                s.spawn(move || client_loop(target, client, gen, (start, deadline), traced))
            })
            .collect();
        if let Some(dir) = target.dir {
            let mut last = newest_wal_segment(dir);
            while !handles.iter().all(|h| h.is_finished()) {
                std::thread::sleep(Duration::from_millis(5));
                let now = newest_wal_segment(dir);
                if now > last {
                    checkpoints += 1;
                    last = now;
                }
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64() - ramp_s;
    let mut tally = Tally::default();
    for t in tallies {
        tally.merge(t);
    }
    tally.samples.retain(|s| s.done_s >= ramp_s);
    Window {
        tally,
        elapsed_s,
        checkpoints,
    }
}

/// The base LSN of the newest WAL segment in `dir`; every checkpoint
/// rotates the WAL, so it grows once per completed checkpoint.
pub fn newest_wal_segment(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    let name = e.file_name().into_string().ok()?;
                    flexrel_storage::wal::parse_segment_name(&name)
                })
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}

/// Total size of the WAL segments in `dir`.
pub fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| {
                    e.file_name()
                        .to_str()
                        .is_some_and(|n| flexrel_storage::wal::parse_segment_name(n).is_some())
                })
                .map(|e| e.metadata().map_or(0, |m| m.len()))
                .sum()
        })
        .unwrap_or(0)
}
