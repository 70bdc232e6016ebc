//! Property-based tests on SQL semantics: aggregate identities, filter
//! complementarity, update/delete conservation, and one answer whichever
//! access path reads a table — the invariants that keep N identical MiniPg
//! instances answering identically.

use proptest::prelude::*;
use rddr_pgsim::{Database, PgVersion, QueryResult, SqlError, Value};

fn fresh(rows: &[(i64, i64)]) -> Database {
    let mut db = Database::new(PgVersion::parse("10.7").unwrap());
    let mut s = db.session("app");
    db.execute(&mut s, "CREATE TABLE t (k INT, v INT)").unwrap();
    if !rows.is_empty() {
        let values: Vec<String> = rows.iter().map(|(k, v)| format!("({k}, {v})")).collect();
        db.execute(
            &mut s,
            &format!("INSERT INTO t VALUES {}", values.join(", ")),
        )
        .unwrap();
    }
    db
}

fn scalar(db: &mut Database, sql: &str) -> i64 {
    let mut s = db.session("app");
    let r = db.execute(&mut s, sql).unwrap();
    match &r.rows[0][0] {
        Value::Null => 0,
        v => v
            .to_string()
            .parse()
            .unwrap_or_else(|_| panic!("{sql}: {v}")),
    }
}

/// Everything a statement answers: columns, rows, notices and tag, or the
/// error text.
type Answer = Result<(Vec<String>, Vec<Vec<Value>>, Vec<String>, String), String>;

fn answer(result: Result<QueryResult, SqlError>) -> Answer {
    result
        .map(|r| (r.columns, r.rows, r.notices, r.tag))
        .map_err(|e| e.to_string())
}

/// Two databases holding table `t (k INT, v INT)` with the same `pinned`
/// rows (a `None` is NULL) followed by filler rows whose keys no statement
/// pins and whose `v` cycles through 0, 1, 2: 127 rows in all in the first,
/// just below the size at which a statement pinning `k` probes the index,
/// and 200 in the second, which it probes.
fn scan_and_probe_twins(pinned: &[(Option<i64>, Option<i64>)]) -> [Database; 2] {
    let sql = |n: Option<i64>| n.map_or("NULL".to_string(), |n| n.to_string());
    [127, 200].map(|size| {
        let mut db = Database::new(PgVersion::parse("10.7").unwrap());
        let mut s = db.session("app");
        db.execute(&mut s, "CREATE TABLE t (k INT, v INT)").unwrap();
        let rows: Vec<String> = pinned
            .iter()
            .map(|&(k, v)| format!("({}, {})", sql(k), sql(v)))
            .chain((pinned.len()..size).map(|i| format!("({}, {})", 1000 + i, i % 3)))
            .collect();
        db.execute(&mut s, &format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap();
        db
    })
}

/// Runs `statements` on both twins in turn and fails on the first answer
/// that differs; returns the answers.
fn same_answers(
    pinned: &[(Option<i64>, Option<i64>)],
    statements: &[String],
) -> Result<Vec<Answer>, TestCaseError> {
    let [mut scan, mut probe] = scan_and_probe_twins(pinned);
    let (mut s1, mut s2) = (scan.session("app"), probe.session("app"));
    // The twins really read by different paths.
    let sql = "SELECT v FROM t WHERE k = 1";
    let (a, b) = (
        scan.execute(&mut s1, sql).unwrap(),
        probe.execute(&mut s2, sql).unwrap(),
    );
    prop_assert!(
        a.scanned == 127 && b.scanned < 127,
        "{} {}",
        a.scanned,
        b.scanned
    );
    let mut answers = Vec::new();
    for sql in statements {
        let a = answer(scan.execute(&mut s1, sql));
        prop_assert_eq!(&a, &answer(probe.execute(&mut s2, sql)), "{}", sql);
        answers.push(a);
    }
    Ok(answers)
}

const KEYS: [&str; 5] = ["1", "2", "3.0", "5", "99999"];
const KEY_SPELLINGS: [&str; 3] = ["k = ", "t.k = ", "= k"];
/// Conjuncts beside the key: plain ones, one that fails at run time when
/// `v` is 0 (as the filler's does), and unknown names.
const CONJUNCTS: [&str; 8] = [
    "",
    "v > 1",
    "v IS NULL",
    "10 / v > 2",
    "nosuch = 1",
    "z.v = 1",
    "t.nosuch = 1",
    "NOT v = 3",
];
const PROJECTIONS: [&str; 8] = [
    "v",
    "*",
    "k, v",
    "nosuch",
    "z.v",
    "COUNT(*)",
    "v + 1 AS x",
    "t.v, t.nosuch",
];
const TAILS: [&str; 3] = ["", " ORDER BY v DESC", " LIMIT 1"];
const SETS: [&str; 5] = [
    "v = v + 1",
    "v = 10 / v",
    "k = 2",
    "nosuch = 1",
    "v = nosuch",
];

/// One statement that pins `k`, from indices into the tables above.
fn pinned_statement(
    ((kind, key, spelling), (conjunct, first, pick)): ((u8, usize, usize), (usize, bool, usize)),
) -> String {
    let key = match KEY_SPELLINGS[spelling] {
        "= k" => format!("{} = k", KEYS[key]),
        prefix => format!("{prefix}{}", KEYS[key]),
    };
    let filter = match (CONJUNCTS[conjunct], first) {
        ("", _) => key,
        (c, true) => format!("{c} AND {key}"),
        (c, false) => format!("{key} AND {c}"),
    };
    match kind {
        0 => format!(
            "SELECT {} FROM t WHERE {filter}{}",
            PROJECTIONS[pick % PROJECTIONS.len()],
            TAILS[pick % TAILS.len()]
        ),
        1 => format!("UPDATE t SET {} WHERE {filter}", SETS[pick % SETS.len()]),
        _ => format!("DELETE FROM t WHERE {filter}"),
    }
}

/// The statements a table's size once changed the answer of: the index
/// probe skipped name resolution, and the scan pushed the key conjunct
/// down before it met an unknown name.
#[test]
fn point_and_scan_agree_on_unknown_columns() {
    let pinned = [(Some(1), Some(1)), (Some(1), Some(0)), (Some(2), None)];
    let statements = [
        "SELECT nosuch FROM t WHERE k = 99999",
        "SELECT z.v FROM t WHERE k = 99999",
        "SELECT nosuch FROM t WHERE k = 1",
        "SELECT z.v FROM t WHERE k = 1",
        "DELETE FROM t WHERE nosuch = 1 AND k = 99999",
        "SELECT v FROM t WHERE nosuch = 1 AND k = 99999",
        "UPDATE t SET v = nosuch WHERE k = 99999",
    ]
    .map(String::from);
    let answers = same_answers(&pinned, &statements).unwrap_or_else(|e| panic!("{e:?}"));
    let errors: Vec<String> = answers.into_iter().map(|a| a.unwrap_err()).collect();
    assert_eq!(
        errors,
        ["nosuch", "z.v", "nosuch", "z.v", "nosuch", "nosuch", "nosuch"]
            .map(|c| format!("error: column {c} does not exist"))
    );
}

proptest! {
    /// A statement that pins the key answers the same — rows, notices,
    /// tags and error text — whether its table is read by a scan or
    /// through the index, over any sequence of such statements.
    #[test]
    fn point_and_scan_answer_alike(
        pinned in proptest::collection::vec(((0i64..6, 0u8..7), -1i64..4), 0..10),
        statements in proptest::collection::vec(
            ((0u8..3, 0usize..5, 0usize..3), (0usize..8, any::<bool>(), 0usize..120)),
            1..12,
        ),
    ) {
        let pinned: Vec<(Option<i64>, Option<i64>)> = pinned
            .into_iter()
            .map(|((k, null), v)| (Some(k).filter(|_| null != 0), Some(v).filter(|_| null != 1)))
            .collect();
        let statements: Vec<String> = statements.into_iter().map(pinned_statement).collect();
        same_answers(&pinned, &statements)?;
    }

    /// SUM over a table equals the sum of SUMs over a partition by predicate.
    #[test]
    fn sum_partitions(rows in proptest::collection::vec((0i64..100, -50i64..50), 0..40),
                      pivot in 0i64..100) {
        let mut db = fresh(&rows);
        let total = scalar(&mut db, "SELECT SUM(v) FROM t");
        let below = scalar(&mut db, &format!("SELECT SUM(v) FROM t WHERE k < {pivot}"));
        let above = scalar(&mut db, &format!("SELECT SUM(v) FROM t WHERE k >= {pivot}"));
        prop_assert_eq!(total, below + above);
    }

    /// COUNT(*) with a predicate and its negation partition the table.
    #[test]
    fn count_complement(rows in proptest::collection::vec((0i64..100, -50i64..50), 0..40),
                        pivot in -50i64..50) {
        let mut db = fresh(&rows);
        let all = scalar(&mut db, "SELECT COUNT(*) FROM t");
        let hit = scalar(&mut db, &format!("SELECT COUNT(*) FROM t WHERE v > {pivot}"));
        let miss = scalar(&mut db, &format!("SELECT COUNT(*) FROM t WHERE NOT v > {pivot}"));
        prop_assert_eq!(all, hit + miss);
    }

    /// GROUP BY sums add up to the global sum.
    #[test]
    fn group_by_sums_to_total(rows in proptest::collection::vec((0i64..5, -50i64..50), 1..40)) {
        let mut db = fresh(&rows);
        let total = scalar(&mut db, "SELECT SUM(v) FROM t");
        let mut s = db.session("app");
        let groups = db.execute(&mut s, "SELECT k, SUM(v) FROM t GROUP BY k").unwrap();
        let group_total: i64 = groups
            .rows
            .iter()
            .map(|row| row[1].to_string().parse::<i64>().unwrap())
            .sum();
        prop_assert_eq!(total, group_total);
        // And there are as many groups as distinct keys.
        let distinct = scalar(&mut db, "SELECT COUNT(DISTINCT k) FROM t");
        prop_assert_eq!(groups.rows.len() as i64, distinct);
    }

    /// DELETE + COUNT conservation.
    #[test]
    fn delete_conserves_rows(rows in proptest::collection::vec((0i64..100, -50i64..50), 0..40),
                             pivot in 0i64..100) {
        let mut db = fresh(&rows);
        let before = scalar(&mut db, "SELECT COUNT(*) FROM t");
        let doomed = scalar(&mut db, &format!("SELECT COUNT(*) FROM t WHERE k < {pivot}"));
        let mut s = db.session("app");
        let r = db.execute(&mut s, &format!("DELETE FROM t WHERE k < {pivot}")).unwrap();
        prop_assert_eq!(r.tag, format!("DELETE {doomed}"));
        let after = scalar(&mut db, "SELECT COUNT(*) FROM t");
        prop_assert_eq!(after, before - doomed);
    }

    /// UPDATE preserves row count and applies uniformly.
    #[test]
    fn update_is_uniform(rows in proptest::collection::vec((0i64..100, -50i64..50), 1..40),
                         delta in -10i64..10) {
        let mut db = fresh(&rows);
        let before_sum = scalar(&mut db, "SELECT SUM(v) FROM t");
        let count = scalar(&mut db, "SELECT COUNT(*) FROM t");
        let mut s = db.session("app");
        db.execute(&mut s, &format!("UPDATE t SET v = v + {delta}")).unwrap();
        let after_sum = scalar(&mut db, "SELECT SUM(v) FROM t");
        prop_assert_eq!(after_sum, before_sum + delta * count);
    }

    /// Two freshly seeded engines always agree — the N-versioning premise
    /// for identical instances.
    #[test]
    fn identical_engines_answer_identically(
        rows in proptest::collection::vec((0i64..20, -50i64..50), 0..30),
        pivot in 0i64..20,
    ) {
        let mut a = fresh(&rows);
        let mut b = fresh(&rows);
        for sql in [
            format!("SELECT k, SUM(v) FROM t WHERE k < {pivot} GROUP BY k ORDER BY k"),
            "SELECT COUNT(*), MIN(v), MAX(v) FROM t".to_string(),
            "SELECT v FROM t ORDER BY v, k LIMIT 5".to_string(),
        ] {
            let mut sa = a.session("app");
            let mut sb = b.session("app");
            let ra = a.execute(&mut sa, &sql).unwrap();
            let rb = b.execute(&mut sb, &sql).unwrap();
            prop_assert_eq!(ra.rows, rb.rows, "{}", sql);
        }
    }
}
