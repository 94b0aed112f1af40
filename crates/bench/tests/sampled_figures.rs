//! Every simulating figure binary under `sample=`: it either refuses with
//! exit 2 and names the statistics it reads, or it prints no series column
//! that is all zeros where the exact run's column is not.
//!
//! A sampled run keeps only `committed` and `cycles`, so a figure that
//! reads any other counter would print zeros and exit 0 if it did not
//! refuse. Each binary runs at budget 2000 with two runner threads, once
//! exact and once at `sample=1000:100:100`, with the environment variables
//! that would change either run cleared.

use dkip_bench::{ISSUE_HISTOGRAM_READS, LLIB_OCCUPANCY_READS};
use std::process::{Command, Output};

const SAMPLE: &str = "sample=1000:100:100";

/// The figures that read more than IPC, with what each must name when it
/// refuses sampling.
const REFUSING: [(&str, &str); 3] = [
    (
        env!("CARGO_BIN_EXE_fig03_issue_histogram"),
        ISSUE_HISTOGRAM_READS,
    ),
    (
        env!("CARGO_BIN_EXE_fig13_llib_occupancy_specint"),
        LLIB_OCCUPANCY_READS,
    ),
    (
        env!("CARGO_BIN_EXE_fig14_llib_occupancy_specfp"),
        LLIB_OCCUPANCY_READS,
    ),
];

/// The figures that read only IPC and so must run sampled.
const SAMPLED: [&str; 7] = [
    env!("CARGO_BIN_EXE_fig01_window_specint"),
    env!("CARGO_BIN_EXE_fig02_window_specfp"),
    env!("CARGO_BIN_EXE_fig09_comparison"),
    env!("CARGO_BIN_EXE_fig10_scheduler_sweep"),
    env!("CARGO_BIN_EXE_fig11_cache_sweep_specint"),
    env!("CARGO_BIN_EXE_fig12_cache_sweep_specfp"),
    env!("CARGO_BIN_EXE_fig_riscv_ipc"),
];

fn run(bin: &str, sample: Option<&str>) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(["2000", "threads=2"]).args(sample);
    for var in ["DKIP_SAMPLE", "DKIP_METRICS", "DKIP_CACHE", "DKIP_FAULTS"] {
        cmd.env_remove(var);
    }
    cmd.output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

fn stdout_of(bin: &str, sample: Option<&str>) -> String {
    let out = run(bin, sample);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{bin} {sample:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("figure output is UTF-8")
}

/// The rendered table's series columns: every line that is neither a
/// `#` comment nor blank is a row, the first of them the header; each
/// data row is a label followed by one value per series.
fn columns(text: &str) -> Vec<Vec<f64>> {
    let mut rows = text
        .lines()
        .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
        .skip(1);
    let first: Vec<f64> = values(rows.next().expect("the table has a data row"));
    let mut cols: Vec<Vec<f64>> = first.into_iter().map(|v| vec![v]).collect();
    for row in rows {
        let row = values(row);
        assert_eq!(row.len(), cols.len(), "ragged table:\n{text}");
        for (col, v) in cols.iter_mut().zip(row) {
            col.push(v);
        }
    }
    cols
}

fn values(row: &str) -> Vec<f64> {
    row.split_whitespace()
        .skip(1)
        .map(|v| v.parse().unwrap_or_else(|_| panic!("not a value: {v:?}")))
        .collect()
}

#[test]
fn figures_reading_more_than_ipc_refuse_sampling_and_name_what_they_read() {
    for (bin, reads) in REFUSING {
        stdout_of(bin, None);
        let out = run(bin, Some(SAMPLE));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(
            stderr.contains(reads),
            "{bin} must name {reads:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} printed a figure it refused");
    }
}

#[test]
fn sampled_figures_print_no_all_zero_series_where_exact_has_values() {
    for bin in SAMPLED {
        let exact = columns(&stdout_of(bin, None));
        let sampled = columns(&stdout_of(bin, Some(SAMPLE)));
        assert_eq!(exact.len(), sampled.len(), "{bin}: series count differs");
        for (i, (e, s)) in exact.iter().zip(&sampled).enumerate() {
            assert_eq!(e.len(), s.len(), "{bin}: series {i} length differs");
            let zero = |col: &[f64]| col.iter().all(|&v| v == 0.0);
            assert!(
                zero(e) || !zero(s),
                "{bin}: series {i} is all zeros sampled but not exact ({e:?})"
            );
        }
    }
}
