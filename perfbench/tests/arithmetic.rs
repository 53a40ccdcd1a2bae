//! The tail-percentile choice and the span-ledger arithmetic.

use dgflow_trace::SpanRecord;
use perfbench::ledger::{self_times, SpanBook, ROOT};
use perfbench::stats::{median, tail};

#[test]
fn tail_leaves_ten_samples_beyond() {
    // 1..=100: the 90th sample leaves exactly 91..=100 beyond it
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = tail(&xs).expect("100 samples have a tail");
    assert_eq!(t.value, 90.0);
    assert_eq!(t.percentile, 90.0);
    assert_eq!(t.samples, 100);
    assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

    // order of the input does not matter
    let mut rev = xs.clone();
    rev.reverse();
    assert_eq!(tail(&rev), Some(t));

    // 11 samples: the lowest one, the only choice with ten beyond
    let eleven: Vec<f64> = (0..11).map(f64::from).collect();
    let t = tail(&eleven).expect("11 samples have a tail");
    assert_eq!(t.value, 0.0);
    assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);

    // ten or fewer: no percentile leaves ten samples beyond
    assert_eq!(tail(&[1.0; 10]), None);
    assert_eq!(tail(&[]), None);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

fn span(name: &'static str, tid: u32, depth: u16, start: u64, end: u64) -> SpanRecord {
    SpanRecord {
        name,
        cat: "test",
        start_ns: start,
        end_ns: end,
        depth,
        tid,
        meta: u64::MAX,
        work_flops: 0.0,
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    // root 0..100 { a 10..40 { b 15..25 }, c 50..90 }, on one thread;
    // listed out of order to show the nesting is rebuilt from the records
    let spans = [
        span("b", 1, 2, 15, 25),
        span(ROOT, 1, 0, 0, 100),
        span("c", 1, 1, 50, 90),
        span("a", 1, 1, 10, 40),
    ];
    let own = self_times(&spans);
    assert_eq!(own, vec![10, 30, 40, 20]);
    // self times of a tree add up to its root's duration
    assert_eq!(own.iter().sum::<u64>(), 100);
}

#[test]
fn sibling_threads_do_not_nest_into_each_other() {
    let spans = [span("x", 1, 0, 0, 100), span("y", 2, 0, 10, 20)];
    assert_eq!(self_times(&spans), vec![100, 10]);
}

#[test]
fn unattributed_share_is_the_root_time_no_layer_covers() {
    // root 0..100 on thread 1 with layers covering 10..40 and 50..90;
    // thread 2 (a case thread) covers 92..96 inside the root; thread 9 is
    // a pool worker and is left out
    let spans = [
        span(ROOT, 1, 0, 0, 100),
        span("a", 1, 1, 10, 40),
        span("b", 1, 2, 15, 25),
        span("c", 1, 1, 50, 90),
        span("case", 2, 0, 92, 96),
        span("pool.job", 9, 0, 0, 100),
    ];
    let mut book = SpanBook::default();
    book.add(&spans, &[9]);
    assert_eq!(book.roots, 1);
    assert_eq!(book.root_ns, 100);
    assert_eq!(book.covered_ns, 30 + 40 + 4);
    assert!((book.unattributed_share() - 0.26).abs() < 1e-12);
    assert_eq!(book.total("pool.job").count, 0);
    let a = book.total("a");
    assert_eq!((a.count, a.total_ns, a.self_ns), (1, 30, 20));

    // a second batch accumulates
    book.add(
        &[span(ROOT, 1, 0, 200, 300), span("a", 1, 1, 200, 300)],
        &[],
    );
    assert_eq!(book.root_ns, 200);
    assert!((book.unattributed_share() - 0.13).abs() < 1e-12);
}

#[test]
fn level_indexed_spans_keep_their_level() {
    let mut s0 = span("chebyshev.smooth", 1, 0, 0, 10);
    s0.meta = 0;
    let mut s1 = span("chebyshev.smooth", 1, 0, 20, 50);
    s1.meta = 1;
    let mut book = SpanBook::default();
    book.add(&[s0, s1], &[]);
    assert_eq!(book.level("chebyshev.smooth", 0).total_ns, 10);
    assert_eq!(book.level("chebyshev.smooth", 1).total_ns, 30);
    assert_eq!(book.total("chebyshev.smooth").total_ns, 40);
}
