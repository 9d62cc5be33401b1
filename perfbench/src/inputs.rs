//! Seeded workload inputs, built with the existing `mq_datagen` builders.
//! The same `--seed` always yields the same databases, metaqueries and
//! request sequences; every seed is namespaced off `mq_bench::BASE_SEED`.

use mq_core::prelude::*;
use mq_datagen::{metaqueries, RandomDbSpec};
use mq_relation::{Database, Frac, Value};
use rand::prelude::*;

/// The seed of one named input stream of a run.
pub fn stream_seed(seed: u64, stream: &str) -> u64 {
    // FNV-1a over the stream label keeps streams of one run independent.
    let label = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    mq_bench::BASE_SEED ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ label
}

/// One in-process search: a database, a metaquery, its type and
/// thresholds, and the answer count it must produce on every seed.
pub struct MineCase {
    /// Short label for logs.
    pub name: &'static str,
    /// The database searched.
    pub db: Database,
    /// The metaquery.
    pub mq: Metaquery,
    /// The instantiation type.
    pub ty: InstType,
    /// The index thresholds.
    pub th: Thresholds,
    /// The pinned, seed-independent answer count.
    pub answers: usize,
    /// How many times the case occurs in one pass of the rotation.
    pub weight: usize,
}

fn random_db(seed: u64, stream: &str, n_relations: usize, rows: usize, domain: i64) -> Database {
    RandomDbSpec {
        n_relations,
        arity: 2,
        rows,
        domain,
        seed: stream_seed(seed, stream),
    }
    .generate()
}

/// Thresholds at `k` for all three indices.
fn all_at(num: u64, den: u64) -> Thresholds {
    let k = Frac::new(num, den);
    Thresholds::all(k, k, k)
}

/// `mine_data` rows per relation and value domain.
pub const DATA_ROWS: usize = 2000;
/// `mine_data` value domain.
pub const DATA_DOMAIN: i64 = 400;

/// `mine_data`: the fixed width-1 metaquery `R(X,Z) <- P(X,Y), Q(Y,Z)`
/// (type 0) over three random binary relations of [`DATA_ROWS`] rows.
/// At `k = 1/1000` every one of the 27 instantiations qualifies.
pub fn mine_data(seed: u64) -> Vec<MineCase> {
    vec![MineCase {
        name: "chain2_data",
        db: random_db(seed, "mine_data", 3, DATA_ROWS, DATA_DOMAIN),
        mq: metaqueries::chain(2),
        ty: InstType::Zero,
        th: all_at(1, 1000),
        answers: 27,
        weight: 1,
    }]
}

/// `mine_combined`: small fig4/fig5-size databases under the metaqueries
/// that grow the combined-complexity parameters, covering all three
/// instantiation types. The cases differ in cost by an order of magnitude
/// each (telecom < cycle < star < chain); the cycle's double weight puts
/// the median inside one case's spread instead of on a jump between two.
pub fn mine_combined(seed: u64) -> Vec<MineCase> {
    let cycle = MineCase {
        name: "cycle4_width2",
        db: random_db(seed, "combined_cycle", 2, 120, 18),
        mq: metaqueries::cycle(4),
        ty: InstType::Zero,
        th: all_at(1, 10),
        answers: 32,
        weight: 2,
    };
    let mut star_db = random_db(seed, "combined_star", 2, 40, 10);
    let rim = star_db.add_relation("rim", 2);
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, "combined_rim"));
    for _ in 0..40 {
        let row = vec![
            Value::Int(rng.gen_range(0..10)),
            Value::Int(rng.gen_range(0..10)),
        ];
        star_db.insert(rim, row.into_boxed_slice());
    }
    let star = MineCase {
        name: "hybrid_star4_width3",
        db: star_db,
        mq: metaqueries::hybrid_star(4, "rim"),
        ty: InstType::Zero,
        th: Thresholds::none(),
        answers: 243,
        weight: 1,
    };
    let chain = MineCase {
        name: "chain3_type1",
        db: random_db(seed, "combined_chain", 4, 40, 8),
        mq: metaqueries::chain(3),
        ty: InstType::One,
        th: all_at(1, 100),
        answers: 4096,
        weight: 1,
    };
    let telecom = MineCase {
        name: "telecom_type2",
        db: mq_datagen::telecom::db1(),
        mq: metaqueries::chain(2),
        ty: InstType::Two,
        th: Thresholds::none(),
        answers: 216,
        weight: 1,
    };
    vec![cycle, star, chain, telecom]
}

/// The catalog entry `serve_mixed` serves.
pub const SERVE_DB: &str = "mixed";
/// The relation the writer connection appends to.
pub const SERVE_APPEND_REL: &str = "r0";
/// Rows per relation of the served database.
pub const SERVE_ROWS: usize = 1000;
/// Value domain of the served database.
pub const SERVE_DOMAIN: i64 = 60;
/// Rows per `append` batch.
pub const APPEND_BATCH: usize = 4;
/// Appended rows are drawn from this many candidates, so the appended
/// relation grows by at most this much however many writes a run makes.
const APPEND_POOL: usize = 64;
/// One in this many of the writer connection's requests is an `append`.
pub const APPEND_EVERY: usize = 10;

/// One `mine` request of the `serve_mixed` rotation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MineRequest {
    /// The metaquery text.
    pub metaquery: &'static str,
    /// The instantiation type.
    pub ty: InstType,
    /// The index thresholds.
    pub th: Thresholds,
    /// The protocol line.
    pub line: String,
    /// Relative weight in the seeded rotation.
    pub weight: u32,
}

fn mine_request(metaquery: &'static str, k: &str, weight: u32) -> MineRequest {
    let (num, den) = k.split_once('/').expect("threshold is a fraction");
    let th = all_at(
        num.parse().expect("numerator"),
        den.parse().expect("denominator"),
    );
    MineRequest {
        metaquery,
        ty: InstType::Zero,
        th,
        line: format!("mine {SERVE_DB} sup={k} cvr={k} cnf={k} :: {metaquery}"),
        weight,
    }
}

/// The `serve_mixed` rotation: one hot request that repeats (and can
/// coalesce across connections), a threshold variant of it that shares
/// its atoms, and two other shapes.
pub fn serve_rotation() -> Vec<MineRequest> {
    vec![
        mine_request("R(X,Z) <- P(X,Y), Q(Y,Z)", "1/10", 4),
        mine_request("R(X,Z) <- P(X,Y), Q(Y,Z)", "1/5", 2),
        mine_request("R(X,Y) <- P(X,Y), Q(X,Y)", "1/10", 2),
        mine_request("P(X,Z) <- P(X,Y), P(Y,Z)", "1/10", 2),
    ]
}

/// The served database.
pub fn serve_db(seed: u64) -> Database {
    random_db(seed, "serve_db", 3, SERVE_ROWS, SERVE_DOMAIN)
}

/// The seeded request stream of one connection: `Some(i)` is rotation
/// entry `i`, `None` an `append`. Only connection 0 writes.
pub struct RequestStream {
    rng: StdRng,
    weights: Vec<u32>,
    writer: bool,
    sent: usize,
}

impl RequestStream {
    /// The stream of connection `conn`.
    pub fn new(seed: u64, conn: usize, rotation: &[MineRequest]) -> Self {
        RequestStream {
            rng: StdRng::seed_from_u64(stream_seed(seed, &format!("serve_conn{conn}"))),
            weights: rotation.iter().map(|r| r.weight).collect(),
            writer: conn == 0,
            sent: 0,
        }
    }
}

impl Iterator for RequestStream {
    type Item = Option<usize>;

    fn next(&mut self) -> Option<Option<usize>> {
        self.sent += 1;
        if self.writer && self.sent.is_multiple_of(APPEND_EVERY) {
            return Some(None);
        }
        let total: u32 = self.weights.iter().sum();
        let mut pick = self.rng.gen_range(0..total);
        for (i, &w) in self.weights.iter().enumerate() {
            if pick < w {
                return Some(Some(i));
            }
            pick -= w;
        }
        unreachable!("pick < total weight")
    }
}

/// The seeded `append` batches, in the order the writer sends them.
pub struct AppendBatches {
    rng: StdRng,
    pool: Vec<(i64, i64)>,
}

impl AppendBatches {
    /// The batch stream of a run.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, "serve_appends"));
        let pool = (0..APPEND_POOL)
            .map(|_| {
                (
                    rng.gen_range(0..SERVE_DOMAIN),
                    rng.gen_range(0..SERVE_DOMAIN),
                )
            })
            .collect();
        AppendBatches { rng, pool }
    }
}

impl Iterator for AppendBatches {
    type Item = Vec<(i64, i64)>;

    fn next(&mut self) -> Option<Vec<(i64, i64)>> {
        Some(
            (0..APPEND_BATCH)
                .map(|_| self.pool[self.rng.gen_range(0..self.pool.len())])
                .collect(),
        )
    }
}

/// The protocol line appending `batch`.
pub fn append_line(batch: &[(i64, i64)]) -> String {
    let rows: Vec<String> = batch.iter().map(|(a, b)| format!("{a},{b}")).collect();
    format!("append {SERVE_DB} {SERVE_APPEND_REL} {}", rows.join(" "))
}

/// Apply `batch` to a local copy of the served database, as the server
/// does for [`append_line`].
pub fn apply_batch(db: &mut Database, batch: &[(i64, i64)]) {
    let rel = db
        .rel_id(SERVE_APPEND_REL)
        .expect("served db has the append relation");
    for &(a, b) in batch {
        db.insert(rel, vec![Value::Int(a), Value::Int(b)].into_boxed_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same_db(a: &Database, b: &Database) -> bool {
        a.num_relations() == b.num_relations()
            && a.relations().zip(b.relations()).all(|(x, y)| x == y)
    }

    #[test]
    fn same_seed_same_databases() {
        for (a, b) in mine_data(7).iter().zip(mine_data(7).iter()) {
            assert!(same_db(&a.db, &b.db));
        }
        for (a, b) in mine_combined(7).iter().zip(mine_combined(7).iter()) {
            assert!(same_db(&a.db, &b.db), "{}", a.name);
            assert_eq!(a.mq.render(), b.mq.render());
        }
        assert!(same_db(&serve_db(7), &serve_db(7)));
        assert!(!same_db(&serve_db(7), &serve_db(8)));
    }

    #[test]
    fn same_seed_same_request_sequences() {
        let rot = serve_rotation();
        for conn in 0..2 {
            let a: Vec<_> = RequestStream::new(3, conn, &rot).take(200).collect();
            let b: Vec<_> = RequestStream::new(3, conn, &rot).take(200).collect();
            assert_eq!(a, b);
            let writes = a.iter().filter(|r| r.is_none()).count();
            assert_eq!(writes, if conn == 0 { 200 / APPEND_EVERY } else { 0 });
        }
        let c: Vec<_> = RequestStream::new(4, 1, &rot).take(200).collect();
        assert_ne!(
            RequestStream::new(3, 1, &rot).take(200).collect::<Vec<_>>(),
            c
        );
        let x: Vec<_> = AppendBatches::new(3).take(20).collect();
        assert_eq!(x, AppendBatches::new(3).take(20).collect::<Vec<_>>());
        assert!(x.iter().all(|b| b.len() == APPEND_BATCH));
    }

    #[test]
    fn pinned_answer_counts_hold_across_seeds() {
        use mq_core::engine::find_rules::find_rules_seq;
        for seed in 1..=10 {
            for c in mine_data(seed).into_iter().chain(mine_combined(seed)) {
                let got = find_rules_seq(&c.db, &c.mq, c.ty, c.th).unwrap().len();
                assert_eq!(got, c.answers, "{} on seed {seed}", c.name);
            }
        }
    }

    #[test]
    fn streams_are_namespaced() {
        assert_ne!(stream_seed(1, "a"), stream_seed(1, "b"));
        assert_ne!(stream_seed(1, "a"), stream_seed(2, "a"));
        assert_eq!(stream_seed(5, "x"), stream_seed(5, "x"));
    }

    #[test]
    fn append_lines_round_trip_through_a_local_copy() {
        let mut db = serve_db(1);
        let before = db.rel(SERVE_APPEND_REL).len();
        let batch = vec![(SERVE_DOMAIN + 1, 0), (SERVE_DOMAIN + 2, 0)];
        assert_eq!(
            append_line(&batch),
            format!(
                "append mixed r0 {},0 {},0",
                SERVE_DOMAIN + 1,
                SERVE_DOMAIN + 2
            )
        );
        apply_batch(&mut db, &batch);
        assert_eq!(db.rel(SERVE_APPEND_REL).len(), before + 2);
    }
}
