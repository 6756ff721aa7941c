//! The three workloads: data sizes, seeding, the seeded statement streams
//! and the oracle that knows the seeded data exactly.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::check::Verdict;
use flexrel_core::attrs;
use flexrel_core::tuple::Tuple;
use flexrel_core::value::Value;
use flexrel_server::{kinds_relation, Request, WriteOp};
use flexrel_storage::{Database, DurabilityOptions, RelationDef};
use flexrel_workload::{
    generate_wide, wide_kind_tag, wide_relation, wide_variant_attr, WideConfig,
};

/// Variant count of the seeded `wide` relation.
pub const VARIANTS: usize = 8;
/// Zipf skew of the kind distribution.
pub const SKEW: f64 = 1.0;
/// The rare kind the scan statement reads (the lightest Zipf variant).
pub const SCAN_KIND: usize = VARIANTS - 1;
/// WAL bytes between background checkpoints on `mixed-rw`: small enough
/// that several checkpoints complete in every run.
pub const CHECKPOINT_BYTES: u64 = 8 << 10;
/// First id of the writer's inserts (far above every seeded id).
pub const WRITER_ID_BASE: i64 = 1_000_000_000;
/// First id of the inserts the traced breakdown makes itself.
pub const PROBE_ID_BASE: i64 = 2_000_000_000;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 100% primary-key point lookups on a large in-memory table.
    PointLookup,
    /// Join, per-kind aggregate and rare-kind scan, in thirds.
    JoinAgg,
    /// One writer and one reader on a durable database.
    MixedRw,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::PointLookup, Workload::JoinAgg, Workload::MixedRw];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointLookup => "point-lookup",
            Workload::JoinAgg => "join-agg",
            Workload::MixedRw => "mixed-rw",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Seeded `wide` tuples.
    pub fn n(self) -> usize {
        match self {
            Workload::PointLookup => 200_000,
            Workload::JoinAgg | Workload::MixedRw => 20_000,
        }
    }

    /// Whether the database is durable (WAL + checkpoints on disk).
    pub fn durable(self) -> bool {
        self == Workload::MixedRw
    }

    /// The statement kinds the workload issues, with their share of the
    /// statement stream.
    pub fn mix(self) -> &'static [(Kind, f64)] {
        match self {
            Workload::PointLookup => &[(Kind::Lookup, 1.0)],
            Workload::JoinAgg => &[
                (Kind::Join, 1.0 / 3.0),
                (Kind::Agg, 1.0 / 3.0),
                (Kind::Scan, 1.0 / 3.0),
            ],
            Workload::MixedRw => &[(Kind::Lookup, 0.25), (Kind::Agg, 0.25), (Kind::Commit, 0.5)],
        }
    }
}

/// Statement kinds, the unit every latency and per-layer figure is split by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// `SELECT * FROM wide WHERE id = k`.
    Lookup,
    /// `SELECT kind, label FROM wide JOIN kinds WHERE id = k`.
    Join,
    /// `SELECT COUNT(*), SUM(v_i) FROM wide WHERE kind = 'k_i'`.
    Agg,
    /// `SELECT id, v7 FROM wide WHERE kind = 'k7'`.
    Scan,
    /// A single-tuple `Transact` insert or delete.
    Commit,
}

impl Kind {
    /// Every kind.
    pub const ALL: [Kind; 5] = [
        Kind::Lookup,
        Kind::Join,
        Kind::Agg,
        Kind::Scan,
        Kind::Commit,
    ];

    /// The name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Lookup => "lookup",
            Kind::Join => "join",
            Kind::Agg => "agg",
            Kind::Scan => "scan",
            Kind::Commit => "commit",
        }
    }

    /// Index into per-kind arrays.
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// One generated statement.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// Point lookup of a seeded id.
    Lookup { id: i64 },
    /// Join of a seeded id's row with its kind label.
    Join { id: i64 },
    /// Count and sum over one kind.
    Agg { kind: usize },
    /// Scan of the rare kind.
    Scan,
    /// Insert of a fresh tuple.
    Insert { id: i64, kind: usize },
    /// Delete of an earlier acknowledged insert.
    Delete { id: i64, kind: usize },
}

impl Stmt {
    /// The statement's kind.
    pub fn kind(&self) -> Kind {
        match self {
            Stmt::Lookup { .. } => Kind::Lookup,
            Stmt::Join { .. } => Kind::Join,
            Stmt::Agg { .. } => Kind::Agg,
            Stmt::Scan => Kind::Scan,
            Stmt::Insert { .. } | Stmt::Delete { .. } => Kind::Commit,
        }
    }

    /// The FRQL text of a query statement.
    pub fn frql(&self) -> Option<String> {
        Some(match self {
            Stmt::Lookup { id } => format!("SELECT * FROM wide WHERE id = {}", id),
            Stmt::Join { id } => {
                format!("SELECT kind, label FROM wide JOIN kinds WHERE id = {}", id)
            }
            Stmt::Agg { kind } => format!(
                "SELECT COUNT(*), SUM({}) FROM wide WHERE kind = '{}'",
                wide_variant_attr(*kind),
                wide_kind_tag(*kind)
            ),
            Stmt::Scan => format!(
                "SELECT id, {} FROM wide WHERE kind = '{}'",
                wide_variant_attr(SCAN_KIND),
                wide_kind_tag(SCAN_KIND)
            ),
            Stmt::Insert { .. } | Stmt::Delete { .. } => return None,
        })
    }

    /// The write batch of a `Transact` statement.
    pub fn write_ops(&self) -> Option<Vec<WriteOp>> {
        match self {
            Stmt::Insert { id, kind } => Some(vec![WriteOp::Insert(written_tuple(*id, *kind))]),
            Stmt::Delete { id, .. } => Some(vec![WriteOp::DeleteEq {
                key: attrs!["id"],
                key_value: Tuple::new().with("id", *id),
            }]),
            _ => None,
        }
    }

    /// The wire request.
    pub fn request(&self) -> Request {
        match (self.frql(), self.write_ops()) {
            (Some(frql), _) => Request::Query { frql },
            (None, Some(ops)) => Request::Transact {
                relation: "wide".into(),
                ops,
            },
            (None, None) => unreachable!("every statement is a query or a write"),
        }
    }
}

/// The tuple the writer inserts for `(id, kind)`.
pub fn written_tuple(id: i64, kind: usize) -> Tuple {
    Tuple::new()
        .with("id", id)
        .with("kind", Value::tag(wide_kind_tag(kind)))
        .with(wide_variant_attr(kind), id % 1000)
}

/// SplitMix64: a small, seedable, platform-independent generator, so the
/// statement streams depend on nothing but the seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Everything the benchmark knows about the seeded data, derived from the
/// same generator the database was seeded with.
#[derive(Debug)]
pub struct Oracle {
    /// Seeded `wide` tuples (ids `0..n`).
    pub n: usize,
    /// Seeded tuples, indexed by id.
    pub tuples: Vec<Tuple>,
    /// Kind index of each seeded id.
    pub kind_of: Vec<u8>,
    /// Seeded tuple count per kind.
    pub counts: Vec<usize>,
    /// Seeded `SUM(v_i)` per kind.
    pub sums: Vec<i64>,
    /// Seeded ids of [`SCAN_KIND`], ascending.
    pub scan_ids: Vec<i64>,
    /// Cumulative kind weights for Zipf kind picks.
    cum: Vec<u64>,
}

impl Oracle {
    /// Builds the oracle from generated tuples.
    pub fn new(tuples: Vec<Tuple>) -> Oracle {
        let mut kind_of = Vec::with_capacity(tuples.len());
        let mut counts = vec![0usize; VARIANTS];
        let mut sums = vec![0i64; VARIANTS];
        let mut scan_ids = Vec::new();
        for (i, t) in tuples.iter().enumerate() {
            let k = match t.get_name("kind") {
                Some(Value::Tag(s)) => s[1..].parse::<usize>().expect("generated kind tag is k<i>"),
                other => panic!("generated tuple without a kind tag: {:?}", other),
            };
            assert_eq!(
                t.get_name("id"),
                Some(&Value::Int(i as i64)),
                "generated ids are 0..n"
            );
            if let Some(Value::Int(v)) = t.get_name(&wide_variant_attr(k)) {
                sums[k] += v;
            }
            counts[k] += 1;
            kind_of.push(k as u8);
            if k == SCAN_KIND {
                scan_ids.push(i as i64);
            }
        }
        let mut acc = 0u64;
        let cum = counts
            .iter()
            .map(|c| {
                acc += (*c).max(1) as u64;
                acc
            })
            .collect();
        Oracle {
            n: tuples.len(),
            tuples,
            kind_of,
            counts,
            sums,
            scan_ids,
            cum,
        }
    }

    /// The kind at quantile `u` (in `0..1`) of the seeded Zipf weights.
    pub fn zipf_kind(&self, u: f64) -> usize {
        let x = (u * *self.cum.last().expect("at least one kind") as f64) as u64;
        self.cum.partition_point(|&c| c <= x)
    }

    /// A uniformly drawn seeded id.
    pub fn any_id(&self, rng: &mut Rng) -> i64 {
        rng.below(self.n as u64) as i64
    }
}

/// The seeded statement stream of one connection.  The same
/// `(workload, seed, client)` always yields the same statements; the
/// writer's stream also depends on which of its writes were acknowledged,
/// which on a correct run is all of them.
#[derive(Debug)]
pub struct StmtGen {
    workload: Workload,
    /// Whether this connection is the `mixed-rw` writer.
    writer: bool,
    rng: Rng,
    /// Quantile of the last Zipf kind pick.  Picks step by the golden
    /// ratio from a seeded start (a low-discrepancy sequence), so every
    /// stretch of the stream holds each kind in its Zipf share and a
    /// window's latency mix does not depend on the seed's luck.
    kind_u: f64,
    issued: u64,
    next_insert: i64,
    /// Acknowledged inserts not yet deleted, oldest first.
    pub live: VecDeque<(i64, usize)>,
}

impl StmtGen {
    /// Stream `client` of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, client: usize) -> StmtGen {
        let mut rng = Rng::new(seed, client as u64 + 1);
        StmtGen {
            workload,
            writer: workload == Workload::MixedRw && client == 0,
            kind_u: (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64,
            rng,
            issued: 0,
            next_insert: WRITER_ID_BASE + client as i64 * 100_000_000,
            live: VecDeque::new(),
        }
    }

    fn zipf_kind(&mut self, oracle: &Oracle) -> usize {
        self.kind_u = (self.kind_u + 0.618_033_988_749_894_9).fract();
        oracle.zipf_kind(self.kind_u)
    }

    /// The next statement.
    pub fn next(&mut self, oracle: &Oracle) -> Stmt {
        let i = self.issued;
        self.issued += 1;
        let rng = &mut self.rng;
        match self.workload {
            Workload::PointLookup => Stmt::Lookup {
                id: oracle.any_id(rng),
            },
            Workload::JoinAgg => match i % 3 {
                0 => Stmt::Join {
                    id: oracle.any_id(rng),
                },
                1 => Stmt::Agg {
                    kind: self.zipf_kind(oracle),
                },
                _ => Stmt::Scan,
            },
            Workload::MixedRw if self.writer => {
                if rng.below(2) == 0 {
                    if let Some((id, kind)) = self.live.pop_front() {
                        return Stmt::Delete { id, kind };
                    }
                }
                let id = self.next_insert;
                self.next_insert += 1;
                Stmt::Insert {
                    id,
                    kind: self.zipf_kind(oracle),
                }
            }
            Workload::MixedRw => match i % 2 {
                0 => Stmt::Lookup {
                    id: oracle.any_id(rng),
                },
                _ => Stmt::Agg {
                    kind: self.zipf_kind(oracle),
                },
            },
        }
    }

    /// Records the verdict on a write this stream issued: an acknowledged
    /// insert becomes deletable; a delete refused by admission control or
    /// the deadline is retried later.
    pub fn settle(&mut self, stmt: &Stmt, verdict: &Verdict) {
        match (stmt, verdict) {
            (Stmt::Insert { id, kind }, Verdict::Ok(_)) => self.live.push_back((*id, *kind)),
            (Stmt::Delete { id, kind }, Verdict::Busy | Verdict::Timeout) => {
                self.live.push_front((*id, *kind))
            }
            _ => {}
        }
    }
}

/// A seeded database and what it took to build it.
pub struct Seeded {
    /// The database handle.
    pub db: Database,
    /// Seconds spent generating tuples (`flexrel-workload`).
    pub gen_s: f64,
}

/// Creates and fills `wide` and `kinds` exactly as
/// `flexrel_server::seed_wide(db, n, VARIANTS, SKEW)` does.  On a durable
/// database the `wide` tuples go through the WAL as one committed batch,
/// so seeding pays one fsync rather than one per tuple.
pub fn seed(workload: Workload, dir: Option<&Path>) -> Result<Seeded, String> {
    let db = match dir {
        Some(dir) => Database::open_with(
            dir,
            DurabilityOptions {
                checkpoint_bytes: CHECKPOINT_BYTES,
                ..DurabilityOptions::default()
            },
        )
        .map_err(|e| format!("open {}: {}", dir.display(), e))?,
        None => Database::new(),
    };
    let t = Instant::now();
    let tuples = generate_wide(&WideConfig::new(workload.n(), VARIANTS).with_skew(SKEW));
    let gen_s = t.elapsed().as_secs_f64();
    let err = |e: flexrel_core::error::CoreError| format!("seeding: {}", e);
    db.create_relation(RelationDef::from_relation(&wide_relation(VARIANTS)))
        .map_err(err)?;
    if workload.durable() {
        db.transact(&["wide"], |tx| {
            for t in &tuples {
                tx.insert("wide", t.clone())?;
            }
            Ok(())
        })
        .map_err(err)?;
    } else {
        for t in &tuples {
            db.insert("wide", t.clone()).map_err(err)?;
        }
    }
    db.create_relation(RelationDef::from_relation(&kinds_relation(VARIANTS)))
        .map_err(err)?;
    for v in 0..VARIANTS {
        db.insert(
            "kinds",
            Tuple::new()
                .with("kind", Value::tag(wide_kind_tag(v)))
                .with("label", format!("variant {}", v)),
        )
        .map_err(err)?;
    }
    Ok(Seeded { db, gen_s })
}

/// This process's directory for durable databases, under the benchmark's
/// scratch directory in the current directory; removed when the run ends.
pub fn run_dir() -> PathBuf {
    Path::new(crate::sys::SCRATCH_DIR).join(format!("run-{}", std::process::id()))
}

/// A fresh, empty directory for the durable database of set-up `rep`.
pub fn fresh_dir(rep: usize) -> Result<PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| format!("current dir: {}", e))?
        .join(run_dir())
        .join(format!("db-{}", rep));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {}", dir.display(), e))?;
    Ok(dir)
}
