//! Integration: every experiment driver produces well-formed tables at
//! tiny scale, and the headline relations the paper reports hold in the
//! measured rows. Numeric checks read typed [`Cell`] values directly —
//! no string re-parsing.

use smartsage::core::experiments::{Experiment, ExperimentScale};
use smartsage::core::report::{Cell, Table};

/// Runs the registered experiment `name` at tiny scale.
fn run(name: &str) -> Table {
    Experiment::find(name)
        .unwrap_or_else(|| panic!("experiment '{name}' is registered"))
        .run(&ExperimentScale::tiny())
}

fn value(cell: &Cell) -> f64 {
    cell.value().expect("numeric cell")
}

#[test]
fn table1_matches_the_paper_exactly() {
    let t = run("table1");
    assert_eq!(t.len(), 5);
    let rows = t.rows();
    // Spot-check against the paper's Table I.
    assert_eq!(rows[0][0].as_str(), Some("Reddit"));
    assert_eq!(rows[0][1].as_int(), Some(233_000));
    assert_eq!(rows[1][7].as_int(), Some(1024)); // Movielens features
    assert_eq!(rows[4][5].as_int(), Some(8_800_000_000)); // Protein-PI large edges
}

#[test]
fn fig5_rates_are_in_the_characterization_band() {
    let t = run("fig5");
    for row in t.rows() {
        let miss = value(&row[1]);
        let bw = value(&row[2]);
        // Paper: ~62% average miss rate, ~21% average BW utilization.
        assert!((0.30..=1.0).contains(&miss), "{row:?}");
        assert!((0.02..=0.60).contains(&bw), "{row:?}");
    }
}

#[test]
fn fig6_mmap_is_always_slower_than_dram() {
    let t = run("fig6");
    for row in t.rows() {
        if row[1].as_str() == Some("SSD (mmap)") {
            let slowdown = value(&row[7]);
            assert!(slowdown > 2.0, "mmap slowdown too small: {row:?}");
        }
    }
}

#[test]
fn fig7_mmap_idles_the_gpu_more() {
    let t = run("fig7");
    for row in t.rows() {
        let dram = value(&row[1]);
        let mmap = value(&row[2]);
        assert!(
            mmap > dram + 0.10,
            "mmap should idle the GPU far more: {row:?}"
        );
    }
}

#[test]
fn fig13_expansion_grows_and_preserves_alpha() {
    let t = run("fig13");
    let mut alpha_rows = 0;
    for row in t.rows() {
        if row[1].as_str().is_some_and(|s| s.starts_with("alpha")) {
            alpha_rows += 1;
            let a0 = value(&row[2]);
            let a1 = value(&row[3]);
            assert!(
                (a0 - a1).abs() < 1.0,
                "expansion should preserve the exponent: {row:?}"
            );
        }
    }
    assert_eq!(alpha_rows, 2, "Reddit and Protein-PI each report alpha");
}

#[test]
fn fig14_and_fig16_speedup_relations() {
    for t in [run("fig14"), run("fig16")] {
        let data_rows = &t.rows()[..t.len() - 1];
        for row in data_rows {
            let sw = value(&row[2]);
            let hw = value(&row[3]);
            assert!(sw > 1.0, "SW must beat mmap: {row:?}");
            assert!(hw > sw, "HW/SW must beat SW: {row:?}");
        }
    }
}

#[test]
fn fig15_degrades_toward_fine_granularity() {
    let t = run("fig15");
    // Per dataset, performance at granularity 1 must be well below 1024.
    let rows = t.rows();
    for chunk in rows.chunks(6) {
        let coarse = value(&chunk[0][2]);
        let fine = value(&chunk[5][2]);
        assert!((coarse - 1.0).abs() < 1e-9);
        assert!(
            fine < 0.8,
            "granularity-1 performance should collapse: {chunk:?}"
        );
        // Monotone non-increasing within noise.
        let mut prev = f64::INFINITY;
        for row in chunk {
            let v = value(&row[2]);
            assert!(v <= prev + 0.02, "non-monotone sweep: {chunk:?}");
            prev = v;
        }
    }
}

#[test]
fn fig18_headline_speedups() {
    let t = run("fig18");
    let rows = t.rows();
    // Per dataset block of 6 systems: mmap first (latency 1.0), DRAM last.
    for block in rows[..rows.len() - 1].chunks(6) {
        let mmap = value(&block[0][7]);
        assert!((mmap - 1.0).abs() < 1e-9);
        let hwsw = value(&block[2][7]);
        let dram = value(&block[5][7]);
        assert!(hwsw < 0.7, "HW/SW should clearly beat mmap: {block:?}");
        assert!(dram <= hwsw, "DRAM is the lower bound: {block:?}");
    }
}

#[test]
fn fig19_fpga_not_better_than_sw_on_average() {
    let t = run("fig19");
    let mut sw_total = 0.0;
    let mut fpga_total = 0.0;
    for row in t.rows() {
        match row[1].as_str() {
            Some("SmartSAGE (SW)") => sw_total += value(&row[7]),
            Some("FPGA-CSD") => fpga_total += value(&row[7]),
            _ => {}
        }
    }
    assert!(
        fpga_total > sw_total * 0.6,
        "FPGA ({fpga_total}) should not decisively beat SW ({sw_total})"
    );
}

#[test]
fn fig20_saint_speedups_hold() {
    let t = run("fig20");
    let data_rows = &t.rows()[..t.len() - 1];
    for row in data_rows {
        let hw = value(&row[3]);
        assert!(hw > 1.5, "GraphSAINT HW/SW speedup too small: {row:?}");
    }
}

#[test]
fn fig21_speedup_shrinks_with_sampling_rate() {
    let t = run("fig21");
    for block in t.rows().chunks(3) {
        let half = value(&block[0][3]);
        let double = value(&block[2][3]);
        assert!(
            half > double,
            "HW/SW speedup should shrink as the rate grows: {block:?}"
        );
    }
}

#[test]
fn transfer_reduction_is_an_order_of_magnitude() {
    let t = run("transfer");
    let avg = value(&t.rows().last().expect("avg")[3]);
    assert!(avg > 10.0, "transfer reduction {avg} too small");
}

#[test]
fn energy_tracks_latency() {
    let t = run("energy");
    for block in t.rows().chunks(5) {
        let mmap = value(&block[0][3]);
        let hwsw = value(&block[2][3]);
        assert!((mmap - 1.0).abs() < 1e-9);
        assert!(hwsw < 1.0, "ISP should save energy: {block:?}");
    }
}
