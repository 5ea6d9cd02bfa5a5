//! The paper-reproduction mains run to completion and print their
//! table: tier 1 otherwise only builds them, and no gate runs them.

use std::process::Command;

/// Runs `exe args`, asserts exit 0, and returns the lines that follow
/// the first line starting with `header` up to the next blank line.
fn rows_after(exe: &str, args: &[&str], header: &str) -> Vec<String> {
    let out = Command::new(exe).args(args).output().expect("report runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{exe} {args:?} exited {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().skip_while(|l| !l.starts_with(header));
    assert!(lines.next().is_some(), "no `{header}` line in:\n{stdout}");
    lines
        .take_while(|l| !l.trim().is_empty())
        .map(str::to_owned)
        .collect()
}

/// The last whitespace-separated field of `row` as a number.
fn last_number(row: &str) -> f64 {
    let field = row.split_whitespace().last().expect("non-empty row");
    field
        .parse()
        .unwrap_or_else(|_| panic!("`{field}` is not a number in `{row}`"))
}

#[test]
fn table1_prints_the_access_matrix() {
    let rows = rows_after(env!("CARGO_BIN_EXE_table1"), &[], "from \\ to");
    assert_eq!(rows.len(), 5, "Heap, Immortal, A, B, C: {rows:?}");
    assert!(rows.iter().all(|r| r.contains("yes")), "{rows:?}");
}

#[test]
fn table2_prints_one_row_per_platform() {
    let rows = rows_after(env!("CARGO_BIN_EXE_table2"), &["--quick"], "Platform");
    assert_eq!(rows.len(), 3, "{rows:?}");
    for row in &rows {
        assert!(last_number(row) > 0.0, "max latency in `{row}`");
    }
}

#[test]
fn fig9_prints_a_distribution_per_platform() {
    let rows = rows_after(env!("CARGO_BIN_EXE_fig9"), &["--quick"], "== Mackinac ==");
    assert!(rows[0].trim_start().starts_with("min"), "{rows:?}");
    let histogram: Vec<_> = rows.iter().filter(|r| r.contains("us |")).collect();
    assert!(!histogram.is_empty(), "{rows:?}");
    let observed: f64 = histogram.iter().map(|r| last_number(r)).sum();
    assert_eq!(observed, 500.0, "--quick collects 500 observations");
}

#[test]
fn fig11_prints_both_orbs_per_size() {
    let rows = rows_after(env!("CARGO_BIN_EXE_fig11"), &["--quick"], "Size (B)");
    assert!(rows.len() >= 2 && rows.len().is_multiple_of(2), "{rows:?}");
    for pair in rows.chunks(2) {
        assert!(pair[0].contains("RTZen"), "{pair:?}");
        assert!(pair[1].contains("Compadres"), "{pair:?}");
        assert!(last_number(&pair[0]).is_finite() && last_number(&pair[1]).is_finite());
    }
}
