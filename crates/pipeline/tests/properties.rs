//! Property-based tests for the pipeline: log encoding and query engine.

use cpi2_pipeline::query::{Row, Value};
use cpi2_pipeline::{Dataset, FileLog, Table};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Rec {
    job: String,
    cpi: f64,
    acted: bool,
}

fn rec_strategy() -> impl Strategy<Value = Rec> {
    ("[a-z]{1,8}", 0.0..100.0f64, any::<bool>()).prop_map(|(job, cpi, acted)| Rec {
        job,
        cpi,
        acted,
    })
}

/// Strings with JSON's escape-worthy characters (quotes, backslashes,
/// newlines, tabs, non-ASCII) and unrestricted finite `f64`s.
fn jsonl_rec_strategy() -> impl Strategy<Value = Rec> {
    ("[ -~\n\té☃]{0,16}", any::<f64>(), any::<bool>()).prop_map(|(job, cpi, acted)| Rec {
        job,
        cpi,
        acted,
    })
}

/// A fresh directory per call, unique within this process.
fn tmp_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cpi2_props_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn table(recs: &[Rec]) -> Dataset {
    let mut ds = Dataset::new();
    ds.insert_records("t", recs).unwrap();
    ds
}

proptest! {
    #[test]
    fn jsonl_roundtrip(recs in prop::collection::vec(jsonl_rec_strategy(), 0..50)) {
        // A small segment size makes the log rotate mid-sequence too.
        let dir = tmp_dir();
        let mut log = FileLog::open(&dir, "t", 256).unwrap();
        for r in &recs {
            log.append(r).unwrap();
        }
        log.flush().unwrap();
        let back: Vec<Rec> = FileLog::load(&dir, "t").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(back, recs);
    }

    #[test]
    fn select_star_returns_all_rows(recs in prop::collection::vec(rec_strategy(), 0..30)) {
        let ds = table(&recs);
        let r = ds.query("SELECT * FROM t").unwrap();
        prop_assert_eq!(r.rows.len(), recs.len());
    }

    #[test]
    fn where_partition_is_complete(recs in prop::collection::vec(rec_strategy(), 0..40), pivot in 0.0..100.0f64) {
        // rows(cpi < p) + rows(cpi >= p) = all rows.
        let ds = table(&recs);
        let below = ds.query(&format!("SELECT job FROM t WHERE cpi < {pivot}")).unwrap();
        let above = ds.query(&format!("SELECT job FROM t WHERE cpi >= {pivot}")).unwrap();
        prop_assert_eq!(below.rows.len() + above.rows.len(), recs.len());
    }

    #[test]
    fn limit_caps_output(recs in prop::collection::vec(rec_strategy(), 0..40), limit in 0usize..50) {
        let ds = table(&recs);
        let r = ds.query(&format!("SELECT job FROM t LIMIT {limit}")).unwrap();
        prop_assert!(r.rows.len() <= limit);
        prop_assert!(r.rows.len() <= recs.len());
    }

    #[test]
    fn order_by_sorts(recs in prop::collection::vec(rec_strategy(), 1..40)) {
        let ds = table(&recs);
        let r = ds.query("SELECT cpi FROM t ORDER BY cpi").unwrap();
        let vals: Vec<f64> = r.rows.iter().filter_map(|row| row[0].as_num()).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        let r = ds.query("SELECT cpi FROM t ORDER BY cpi DESC").unwrap();
        let vals: Vec<f64> = r.rows.iter().filter_map(|row| row[0].as_num()).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn count_star_matches_len(recs in prop::collection::vec(rec_strategy(), 0..40)) {
        let ds = table(&recs);
        let r = ds.query("SELECT count(*) FROM t").unwrap();
        prop_assert_eq!(r.rows[0][0].clone(), Value::Num(recs.len() as f64));
    }

    #[test]
    fn group_by_counts_sum_to_total(recs in prop::collection::vec(rec_strategy(), 0..60)) {
        let ds = table(&recs);
        let r = ds.query("SELECT job, count(*) FROM t GROUP BY job").unwrap();
        let total: f64 = r
            .rows
            .iter()
            .filter_map(|row| row[1].as_num())
            .sum();
        prop_assert_eq!(total as usize, recs.len());
    }

    #[test]
    fn avg_between_min_and_max(recs in prop::collection::vec(rec_strategy(), 1..40)) {
        let ds = table(&recs);
        let r = ds.query("SELECT min(cpi), avg(cpi), max(cpi) FROM t").unwrap();
        let min = r.rows[0][0].as_num().unwrap();
        let avg = r.rows[0][1].as_num().unwrap();
        let max = r.rows[0][2].as_num().unwrap();
        prop_assert!(min <= avg + 1e-9 && avg <= max + 1e-9);
    }

    #[test]
    fn garbage_queries_never_panic(q in "[ -~]{0,60}") {
        // Arbitrary printable input must produce Ok or Err, never a panic.
        let ds = table(&[]);
        let _ = ds.query(&q);
    }

    #[test]
    fn manual_rows_query(vals in prop::collection::vec(-100.0..100.0f64, 1..30)) {
        let mut t = Table::new("m");
        for &v in &vals {
            let mut row = Row::new();
            row.insert("x".into(), Value::Num(v));
            t.rows.push(row);
        }
        let mut ds = Dataset::new();
        ds.insert(t);
        let r = ds.query("SELECT sum(x) FROM m").unwrap();
        let s = r.rows[0][0].as_num().unwrap();
        let expect: f64 = vals.iter().sum();
        prop_assert!((s - expect).abs() < 1e-6 * (1.0 + expect.abs()));
    }
}
